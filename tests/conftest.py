"""Shared fixtures: the golden 12-message run and a random-session driver."""

import random

import pytest

from opir import Client, Database, ProtocolParams, Server, SideInformation, run_session
from opir.protocol import SessionResult

# Every (K, M) pair exercised by the acceptance suite; l is implied.
GRID = [(4, 1), (8, 1), (8, 3), (12, 2), (16, 3)]

# Seed whose round-1 partition of [12] \ {1,2,3} comes out as
# {4,5,6}, {7,8,9}, {10,11,12}: the layout used by all golden values below.
GOLDEN_SEED = 971

# The full 12x5 coding matrix over F_17 for K=12, M=2, l=2 with canonical
# points; every packet coefficient in the golden session comes from here.
GOLDEN_MATRIX = [
    [7, 13, 6, 9, 1],
    [3, 7, 13, 6, 9],
    [5, 3, 7, 13, 6],
    [15, 5, 3, 7, 13],
    [2, 15, 5, 3, 7],
    [12, 2, 15, 5, 3],
    [14, 12, 2, 15, 5],
    [10, 14, 12, 2, 15],
    [4, 10, 14, 12, 2],
    [11, 4, 10, 14, 12],
    [8, 11, 4, 10, 14],
    [16, 8, 11, 4, 10],
]

GOLDEN_ROUND1_BLOCKS = [
    frozenset({1, 2, 3}),
    frozenset({4, 5, 6}),
    frozenset({7, 8, 9}),
    frozenset({10, 11, 12}),
]


def counting_database() -> Database:
    """K=12, q=17, message k holds the single symbol k."""
    return Database(q=17, messages=tuple((k,) for k in range(1, 13)))


@pytest.fixture
def golden():
    """(params, database, result) for the fixed S={2,3}, demands (1,4,7) run."""
    params = ProtocolParams.create(12, 2, q=17)
    database = counting_database()
    result = run_session(params, database, [2, 3], [1, 4, 7], seed=GOLDEN_SEED)
    return params, database, result


def random_session(
    k: int,
    m: int,
    seed: int,
    rounds: int | None = None,
    symbols: int = 1,
) -> tuple[ProtocolParams, Database, list[int], list[int], SessionResult]:
    """Run a session with random database, side set, and adaptive demands.

    Demands are picked uniformly among indices the client does not know yet,
    so every generated sequence is admissible for the whole run.
    """
    params = ProtocolParams.create(k, m, symbols=symbols)
    rng = random.Random(seed)
    database = Database.random(k, symbols, params.q, rng)
    side_indices = sorted(rng.sample(range(1, k + 1), m))
    side = SideInformation.from_database(database, side_indices)
    server = Server(database, params)
    client = Client(params, side, server.cauchy, seed=seed)
    total = params.max_rounds if rounds is None else rounds
    demands: list[int] = []
    recovered = []
    for _ in range(total):
        unknown = [i for i in range(1, k + 1) if i not in client.known]
        demand = rng.choice(unknown)
        demands.append(demand)
        recovered.append(client.decode_answer(server.answer(client.build_query(demand))))
    result = SessionResult(transcript=client.transcript(), recovered=tuple(recovered))
    return params, database, side_indices, demands, result

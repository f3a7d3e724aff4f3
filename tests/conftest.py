"""Shared fixtures: the golden 12-message run, a random-session driver and
answer alterations."""

import dataclasses
import random

import pytest

from opir import Client, Database, ProtocolParams, Server, SideInformation, run_session
from opir.protocol import RoundAnswer, SessionResult, TranscriptRound

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


def well_formed_answer(params, round_no):
    """An answer the answer rule (protocol.check_answer) passes for any query
    of the round: packet_count all-zero packets of params.symbols symbols.
    For transcripts whose auditors read only the queries."""
    return RoundAnswer(round_no, ((0,) * params.symbols,) * params.packet_count(round_no))


def alter_answers(transcript, change, rounds=None):
    """The transcript with change(packets) in place of each answer's packets,
    in the rounds numbered in `rounds` (every round when None)."""
    return dataclasses.replace(transcript, rounds=tuple(
        TranscriptRound(r.query, RoundAnswer(r.answer.round_no, change(r.answer.packets)))
        if rounds is None or r.query.round_no in rounds else r
        for r in transcript.rounds
    ))


# Faults only the answer rule (protocol.check_answer) sees in a transcript
# whose queries are honest: every answer one symbol wide under a 2-symbol
# HELLO, and a round-1 answer one packet short.
ANSWER_FAULTS = {
    "narrow": lambda t: alter_answers(t, lambda packets: tuple(p[:1] for p in packets)),
    "short": lambda t: alter_answers(t, lambda packets: packets[:-1], rounds={1}),
}


def two_symbol_session():
    """An honest K=8, M=1, 2-symbol session (three rounds)."""
    return random_session(8, 1, seed=3, symbols=2)

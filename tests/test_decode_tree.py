"""The client's merge-tree decode against the whole-history dense decode.

The reference below is the decode the client used to run: every packet of
the history and of this round whose block meets the target, less the
block's known members, is one row of a |T| x |T| system, which
field.solve_linear_system solves.  The tree must recover exactly what it
recovers and raise SingularSystem in exactly the sessions where it finds
no unique solution, which are the sessions whose full system has rank
below |T|.
"""

import random

import pytest

from opir import field, protocol
from opir.cauchy import build_cauchy
from opir.errors import SingularMatrix, SingularSystem
from opir.field import FieldMatrix, matrix_rank, next_prime, packed_sum, solve_linear_system
from opir.protocol import (
    SESSION_PRIME,
    Client,
    Database,
    ProtocolParams,
    Server,
    SideInformation,
    TranscriptRound,
    packet_layout,
)
from conftest import GRID
from test_cauchy import _plant_singular_split


def reference_decode(client, answer):
    """(recovered or None, full-rank) for the client's pending round, by the
    dense whole-history decode; None where it finds the system singular."""
    params, q = client.params, client.params.q
    query, target = client._pending
    coeff = client.cauchy.coeff
    unknowns = list(target)
    target_set = set(target)
    rows, rhs = [], []
    for rnd in (*client._rounds, TranscriptRound(query, answer)):
        end = 0
        for block, columns in packet_layout(params, rnd.query):
            end += len(columns)
            if target_set.isdisjoint(block):
                continue
            members = set(block)
            known = members - target_set
            terms = [client._packed[u] for u in known]
            for col, packet in zip(columns, rnd.answer.packed[end - len(columns) : end]):
                rows.append([coeff(u, col) if u in members else 0 for u in unknowns])
                rhs.append(packet + packed_sum([-coeff(u, col) for u in known], terms, q))
    matrix = FieldMatrix(q, rows)
    full_rank = matrix_rank(matrix) == len(unknowns)
    try:
        solution = solve_linear_system(matrix, rhs, params.symbols)
    except SingularMatrix:
        return None, full_rank
    recovered = {u: tuple(field.split_row(v, params.symbols)) for u, v in zip(unknowns, solution)}
    return recovered, full_rank


def compare_session(params, cauchy, seed, demands=None):
    """Drive one session, decoding each round by the tree and the reference.

    Returns (the round that was singular or None, the client, the demands);
    demands not given are drawn from the seed."""
    rng = random.Random(seed)
    database = Database.random(params.k, params.symbols, params.q, rng)
    side = sorted(rng.sample(range(1, params.k + 1), params.m))
    client = Client(params, SideInformation.from_database(database, side), cauchy, seed=seed)
    server = Server(database, params, cauchy)
    demands = list(demands or ())
    for i in range(params.max_rounds):
        if i == len(demands):
            unknown = [u for u in range(1, params.k + 1) if u not in client.known]
            demands.append(rng.choice(unknown))
        answer = server.answer(client.build_query(demands[i]))
        expected, full_rank = reference_decode(client, answer)
        assert (expected is not None) == full_rank
        if expected is None:
            with pytest.raises(SingularSystem, match=f"^round {i + 1} cannot decode"):
                client.decode_answer(answer)
            return i + 1, client, demands
        assert client.decode_answer(answer) == expected
        assert all(expected[u] == database.message(u) for u in expected)
    return None, client, demands


SMALL_FIELD_SHAPES = GRID + [(16, 1), (24, 2), (32, 1), (32, 3)]


@pytest.mark.parametrize("symbols", [1, 2])
def test_tree_matches_dense_decode_at_small_fields(monkeypatch, symbols):
    """GRID and deeper shapes at small primes, on canonical points, where
    some sessions end in a singular system.  Some merge pivots outside its
    left half's M coordinates, so back-substitution scatters w_S and w_F
    over both halves, and the dense reference checks that scatter."""
    eliminate = field.eliminate
    left_half_only = []

    def record(rows, q):
        out = eliminate(rows, q)
        if len(rows[0]) == 2 * len(rows):  # a merge: the halves' 2M coordinates
            left_half_only.append(max(out[0]) < len(rows))
        return out

    monkeypatch.setattr(protocol, "eliminate", record)
    singular = sessions = 0
    for k, m in SMALL_FIELD_SHAPES:
        l = protocol.derive_l(k, m)
        smallest = next_prime(k + m * l + 1)
        for q in (smallest, next_prime(smallest + 1), next_prime(2 * smallest)):
            params = ProtocolParams.create(k, m, q=q, symbols=symbols)
            cauchy = protocol.session_cauchy(params)
            for seed in range(12):
                singular += compare_session(params, cauchy, seed)[0] is not None
                sessions += 1
    assert sessions == len(SMALL_FIELD_SHAPES) * 3 * 12
    assert 0 < singular < sessions
    assert True in left_half_only and False in left_half_only


def test_tree_raises_on_a_planted_singular_split():
    """Points moved so that the round-3 system of one merged block is
    singular: both decodes refuse that round, and only that round."""
    params = ProtocolParams.create(8, 1, symbols=2)
    certified = protocol.session_cauchy(params)
    seed = 4
    singular, client, demands = compare_session(params, certified, seed)
    assert singular is None
    round1, round2 = (r.query for r in client.transcript().rounds[:2])
    target = round2.block_containing(demands[2])
    left, right = (b for b in round1.blocks if set(b) <= set(target))
    moved = _plant_singular_split(
        certified.x_points, certified.y_points, left, right, SESSION_PRIME
    )
    assert moved is not None
    cauchy = build_cauchy(params.k, params.m, params.l, params.q, certified.x_points, moved)
    assert compare_session(params, cauchy, seed, demands)[0] == 3


@pytest.mark.parametrize("k", [128, 256])
def test_tree_matches_dense_decode_on_deep_sessions(k):
    """K=128 and K=256, M=1 sessions (7 and 8 rounds) on session_cauchy's
    default points, which nothing certifies past round 3."""
    params = ProtocolParams.create(k, 1)
    cauchy = protocol.session_cauchy(params)
    for seed in range(2):
        compare_session(params, cauchy, seed)


def test_client_runs_no_dense_solve(monkeypatch):
    """The client never calls solve_linear_system, and no elimination it runs
    has more rows than a round has columns: it builds no |T| x |T| system."""
    def refuse(*args, **kwargs):
        raise AssertionError("the client called the dense solver")

    widest = []
    eliminate = field.eliminate

    def record(rows, q):
        widest.append(len(rows))
        return eliminate(rows, q)

    for owner in (protocol, field):
        monkeypatch.setattr(owner, "solve_linear_system", refuse)
    monkeypatch.setattr(protocol, "eliminate", record)
    for k, m in GRID + [(32, 1)]:
        params = ProtocolParams.create(k, m, symbols=3)
        assert compare_session(params, protocol.session_cauchy(params), seed=5)[0] is None
    assert max(widest) == 3  # M = 3 at K = 8 and K = 16

import dataclasses
import random
import time

import pytest

from opir import (
    AnswerMismatch,
    Client,
    Database,
    DemandKnown,
    InvalidParams,
    MalformedQuery,
    PartitionQuery,
    ProtocolOrder,
    ProtocolParams,
    RoundOutOfRange,
    RoundsExhausted,
    Server,
    SideInformation,
    build_cauchy,
    run_session,
)
from opir.cauchy import derive_l
from opir.field import MAX_MODULUS, next_prime, pack_row
from opir import audit, protocol
from opir import cauchy as cauchy_module
from opir.protocol import (
    SESSION_PRIME,
    RoundAnswer,
    TranscriptRound,
    block_owners,
    check_answer,
    merge_parts,
    validate_query,
)
from conftest import GOLDEN_ROUND1_BLOCKS, GOLDEN_SEED, GRID, counting_database, random_session


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_create_derives_l():
    for (k, m), l in zip(GRID, (1, 2, 1, 2, 2)):
        params = ProtocolParams.create(k, m)
        assert params.l == l
        assert params.k == (params.m + 1) * 2**params.l
        assert params.q >= k + m * l + 1


def test_params_store_no_l():
    """l is derived from K and M, never a field of its own."""
    assert [f.name for f in dataclasses.fields(ProtocolParams)] == ["k", "m", "q", "symbols"]
    for k, m in GRID:
        params = ProtocolParams.create(k, m)
        assert params.l == derive_l(k, m)
        assert ProtocolParams(k=k, m=m, q=params.q).l == params.l


def test_create_default_field_policy():
    # two-round schedules stay in the smallest admissible field
    assert ProtocolParams.create(4, 1).q == 7
    assert ProtocolParams.create(8, 3).q == 13
    # three-round schedules default to a field where random points rarely fail
    assert ProtocolParams.create(8, 1).q == SESSION_PRIME
    assert ProtocolParams.create(12, 2).q == SESSION_PRIME
    assert ProtocolParams.create(16, 3).q == SESSION_PRIME
    # explicit q always wins
    assert ProtocolParams.create(12, 2, q=17).q == 17


def test_create_rejects_bad_shapes():
    with pytest.raises(InvalidParams):
        ProtocolParams.create(10, 2)  # 10/3 not an integer
    with pytest.raises(InvalidParams):
        ProtocolParams.create(12, 3)  # ratio 3 is not a power of two
    with pytest.raises(InvalidParams):
        ProtocolParams.create(4, 3)  # ratio 1 means l=0
    with pytest.raises(InvalidParams):
        ProtocolParams.create(12, 2, q=16)  # not prime
    with pytest.raises(InvalidParams):
        ProtocolParams.create(12, 2, q=13)  # below K + Ml + 1


def test_params_fit_wire_fields():
    # indices and the symbol count travel in 2-byte wire fields
    assert ProtocolParams.create(4, 1, symbols=65535).symbols == 65535
    with pytest.raises(InvalidParams):
        ProtocolParams.create(4, 1, symbols=70000)
    with pytest.raises(InvalidParams):
        ProtocolParams(k=65536, m=1, q=SESSION_PRIME)


def test_params_reject_modulus_above_field_cap():
    # 4294967291 is prime, but field arithmetic is capped at 2^31
    for q in (4294967291, MAX_MODULUS):
        with pytest.raises(InvalidParams, match="cap"):
            ProtocolParams(k=4, m=1, q=q)
    assert ProtocolParams(k=4, m=1, q=MAX_MODULUS - 1).q == SESSION_PRIME


def test_round_shape_helpers():
    params = ProtocolParams.create(12, 2)
    assert params.n1 == 4
    assert params.max_rounds == 3
    assert [params.block_count(i) for i in (1, 2, 3)] == [4, 2, 1]
    assert [params.block_size(i) for i in (1, 2, 3)] == [3, 6, 12]
    assert [params.packet_count(i) for i in (1, 2, 3)] == [4, 4, 2]


def test_download_cost_formulas():
    for k, m in GRID:
        params = ProtocolParams.create(k, m)
        assert params.packet_count(1) == k // (m + 1)
        for i in range(2, params.max_rounds + 1):
            assert params.packet_count(i) == k * m // (2 ** (i - 1) * (m + 1))
        for i in (0, params.max_rounds + 1):
            with pytest.raises(RoundOutOfRange):
                params.packet_count(i)


# ---------------------------------------------------------------------------
# database and side information
# ---------------------------------------------------------------------------

def test_database_validation():
    with pytest.raises(InvalidParams):
        Database(q=17, messages=((1,), (2, 3)))
    with pytest.raises(InvalidParams):
        Database(q=17, messages=((17,),))
    with pytest.raises(InvalidParams):
        Database(q=17, messages=())


def test_side_information_from_database():
    db = counting_database()
    side = SideInformation.from_database(db, [3, 2])
    assert side.values == ((2, (2,)), (3, (3,)))


# ---------------------------------------------------------------------------
# query construction
# ---------------------------------------------------------------------------

def make_session(k=12, m=2, seed=0, side=None):
    params = ProtocolParams.create(k, m)
    db = Database.random(k, 1, params.q, random.Random(k * 100 + m))
    side = side if side is not None else list(range(2, m + 2))
    server = Server(db, params)
    client = Client(params, SideInformation.from_database(db, side), server.cauchy, seed=seed)
    return params, db, server, client


def test_round1_query_structure():
    for seed in range(25):
        params, db, server, client = make_session(seed=seed)
        query = client.build_query(1)
        assert query.round_no == 1
        validate_query(params, query, None)
        assert tuple(sorted({1, 2, 3})) in query.blocks  # {W1} | S
        assert all(len(b) == 3 for b in query.blocks)


def round1_reference(k, m, side, demand, seed):
    """Round 1 built directly: the demand-plus-side block, the rest of [K]
    shuffled and cut M+1 at a time, then the blocks shuffled."""
    rng = random.Random(seed)
    demand_block = tuple(sorted({demand} | set(side)))
    rest = [i for i in range(1, k + 1) if i not in demand_block]
    rng.shuffle(rest)
    blocks = [demand_block]
    for i in range(0, len(rest), m + 1):
        blocks.append(tuple(sorted(rest[i : i + m + 1])))
    rng.shuffle(blocks)
    return tuple(blocks)


@pytest.mark.parametrize("k, m", GRID)
def test_round1_merge_matches_direct_partition(k, m):
    """Merging singletons reproduces the direct round-1 partition, draw for draw."""
    params = ProtocolParams.create(k, m)
    cauchy = build_cauchy(params.k, params.m, params.l, params.q)
    for seed in range(50):
        rng = random.Random(seed)
        side = rng.sample(range(1, k + 1), m)
        demand = rng.choice([i for i in range(1, k + 1) if i not in side])
        values = SideInformation.from_values({i: (0,) for i in side})
        client = Client(params, values, cauchy, seed=seed)
        query = client.build_query(demand)
        assert query.blocks == round1_reference(k, m, side, demand, seed), (k, m, seed)


def test_round1_k4_only_one_remainder_partition():
    params, db, server, client = make_session(k=4, m=1, side=[2])
    query = client.build_query(1)
    assert set(map(frozenset, query.blocks)) == {frozenset({1, 2}), frozenset({3, 4})}


def test_merge_round_structure():
    for seed in range(25):
        params, db, server, client = make_session(seed=seed)
        q1 = client.build_query(1)
        client.decode_answer(server.answer(q1))
        demand = next(i for i in range(1, 13) if i not in client.known)
        q2 = client.build_query(demand)
        validate_query(params, q2, q1)
        chain = frozenset(q1.block_containing(1))
        merged = frozenset(q2.block_containing(demand))
        assert chain < merged and len(merged) == 6
        prev = set(map(frozenset, q1.blocks))
        for block in q2.blocks:
            halves = [p for p in prev if p <= frozenset(block)]
            assert len(halves) == 2


def test_golden_partitions(golden):
    params, db, result = golden
    rounds = result.transcript.rounds
    assert {frozenset(b) for b in rounds[0].query.blocks} == set(GOLDEN_ROUND1_BLOCKS)
    assert {frozenset(b) for b in rounds[1].query.blocks} == {
        frozenset(range(1, 7)),
        frozenset(range(7, 13)),
    }
    assert rounds[2].query.blocks == (tuple(range(1, 13)),)


def test_golden_packet_values(golden):
    """Every packet must equal the hand-evaluated sum of matrix column times X_k=k."""
    params, db, result = golden
    cauchy = result.transcript.cauchy()
    from opir import round_column_indices

    for rnd in result.transcript.rounds:
        columns = round_column_indices(2, 2, rnd.query.round_no)
        want = []
        for block in rnd.query.blocks:
            for col in columns:
                want.append((sum(cauchy.coeff(k, col) * k for k in block) % 17,))
        assert list(rnd.answer.packets) == want


def test_golden_round1_decode_value(golden):
    # X1 = inv(7) * (Y1 - 3*X2 - 5*X3) = 5 * 7 = 35 = 1 mod 17
    params, db, result = golden
    assert result.recovered[0] == {1: (1,)}
    q1 = result.transcript.rounds[0].query
    y1 = result.transcript.rounds[0].answer.packets[q1.blocks.index((1, 2, 3))]
    assert y1 == (11,)
    assert pow(7, -1, 17) * (11 - 3 * 2 - 5 * 3) % 17 == 1


def test_golden_recovers_whole_blocks(golden):
    params, db, result = golden
    assert result.recovered[1] == {4: (4,), 5: (5,), 6: (6,)}
    assert result.recovered[2] == {k: (k,) for k in range(7, 13)}
    assert result.costs == (4, 4, 2)


# ---------------------------------------------------------------------------
# recoverability and determinism
# ---------------------------------------------------------------------------

def test_recoverability_across_grid():
    for k, m in GRID:
        for seed in range(10):
            params, db, side, demands, result = random_session(k, m, seed=seed * 31 + k)
            for recovered in result.recovered:
                for idx, value in recovered.items():
                    assert value == db.message(idx)
            for d, recovered in zip(demands, result.recovered):
                assert d in recovered


@pytest.mark.parametrize("k,m,symbols", [(8, 1, 4), (32, 1, 64)])
def test_multi_symbol_messages(k, m, symbols):
    # (32, 1) runs five rounds, so decodes past round 3 see symbol blocks too
    params, db, side, demands, result = random_session(k, m, seed=3, symbols=symbols)
    assert len(result.recovered) == params.max_rounds
    for recovered in result.recovered:
        for idx, value in recovered.items():
            assert len(value) == symbols
            assert value == db.message(idx)
    assert set(side).union(*result.recovered) == set(range(1, k + 1))


@pytest.mark.parametrize("k,m", GRID)
def test_reduction_bounds_follow_public_shape_only(monkeypatch, k, m):
    """Every reduce_packed call in protocol passes a slot bound read from
    public shape (block size and round), never from a value: two 3-symbol
    sessions with the same seed, side set and demands over different
    databases make the same calls with the same bounds.  A bound chosen by
    a value's magnitude would let the decode time follow the messages."""
    reduce = protocol.reduce_packed
    calls = []

    def record(value, symbols, q, bits):
        calls.append(bits)
        return reduce(value, symbols, q, bits)

    monkeypatch.setattr(protocol, "reduce_packed", record)
    params = ProtocolParams.create(k, m, symbols=3)
    side = sorted(random.Random(k * m).sample(range(1, k + 1), m))
    sessions = []
    for db_seed in (1, 2):
        database = Database.random(k, 3, params.q, random.Random(db_seed))
        server = Server(database, params)
        side_info = SideInformation.from_database(database, side)
        client = Client(params, side_info, server.cauchy, seed=5)
        rng = random.Random(5)
        calls.clear()
        demands = []
        for _ in range(params.max_rounds):
            demand = rng.choice([u for u in range(1, k + 1) if u not in client.known])
            demands.append(demand)
            recovered = client.decode_answer(server.answer(client.build_query(demand)))
            assert all(value == database.message(u) for u, value in recovered.items())
        sessions.append((database.messages, demands, list(calls)))
    (first_db, *first), (second_db, *second) = sessions
    assert first_db != second_db
    assert first == second and first[1]


def test_default_field_session_at_k1024_is_fast():
    """K=1024, M=1 at the default field, in process: drawing and building the
    coding matrix plus all 10 rounds (l = 9) recover every message in under 0.5 s.
    The matrix cache is cleared first, so the draw and the build are timed too."""
    params = ProtocolParams.create(1024, 1)
    assert (params.q, params.max_rounds) == (SESSION_PRIME, 10)
    rng = random.Random(7)
    database = Database.random(params.k, params.symbols, params.q, rng)
    side = rng.sample(range(1, params.k + 1), params.m)
    cauchy_module._cauchy_on.cache_clear()
    start = time.perf_counter()
    cauchy = protocol.session_cauchy(params)
    client = Client(params, SideInformation.from_database(database, side), cauchy, seed=7)
    server = Server(database, params, cauchy)
    recovered = {}
    for _ in range(params.max_rounds):
        demand = rng.choice([u for u in range(1, params.k + 1) if u not in client.known])
        recovered.update(client.decode_answer(server.answer(client.build_query(demand))))
    elapsed = time.perf_counter() - start
    assert set(recovered) | set(side) == set(range(1, params.k + 1))
    assert all(value == database.message(u) for u, value in recovered.items())
    assert elapsed < 0.5, elapsed


@pytest.mark.parametrize("symbols", [1, 3])
def test_client_keeps_every_known_message_packed_and_canonical(symbols):
    """After every round, on the default and the smallest field, the
    client's packed cache holds exactly its known messages, each as
    pack_row of its residues.  The solver's slot bound rests on every kept
    row being canonical."""
    for k, m in GRID:
        for q in (None, next_prime(k + m * derive_l(k, m) + 1)):
            for seed in range(4):
                params = ProtocolParams.create(k, m, q=q, symbols=symbols)
                rng = random.Random(seed)
                database = Database.random(k, symbols, params.q, rng)
                side = SideInformation.from_database(
                    database, sorted(rng.sample(range(1, k + 1), m))
                )
                server = Server(database, params)
                client = Client(params, side, server.cauchy, seed=seed)
                for _ in range(params.max_rounds):
                    demand = rng.choice([i for i in range(1, k + 1) if i not in client.known])
                    client.decode_answer(server.answer(client.build_query(demand)))
                    assert client._packed == {
                        i: pack_row(value) for i, value in client.known.items()
                    }
                assert len(client.known) == k


def test_deterministic_transcripts():
    a = run_session(
        ProtocolParams.create(12, 2, q=17), counting_database(), [2, 3], [1, 4, 7], seed=GOLDEN_SEED
    )
    b = run_session(
        ProtocolParams.create(12, 2, q=17), counting_database(), [2, 3], [1, 4, 7], seed=GOLDEN_SEED
    )
    assert a.transcript == b.transcript
    assert a.recovered == b.recovered


def test_unseeded_client_draws_partitions_from_the_os(monkeypatch):
    """Without a seed the partitions come from random.SystemRandom, which the
    server cannot replay; a seeded client still replays its partitions."""
    draws = []
    shuffle = random.SystemRandom.shuffle

    def counting_shuffle(rng, items):
        draws.append(len(items))
        shuffle(rng, items)

    monkeypatch.setattr(random.SystemRandom, "shuffle", counting_shuffle)
    client = make_session(seed=None)[3]
    assert isinstance(client.rng, random.SystemRandom)
    client.build_query(1)
    assert draws
    draws.clear()
    assert make_session(seed=5)[3].build_query(1) == make_session(seed=5)[3].build_query(1)
    assert not draws


def test_chain_invariant():
    params, db, server, client = make_session(seed=11)
    demands = []
    for _ in range(params.max_rounds):
        demand = next(i for i in range(1, 13) if i not in client.known)
        demands.append(demand)
        query = client.build_query(demand)
        client.decode_answer(server.answer(query))
        # the chain the next round merges is exactly what the client knows
        assert set(client.known) == set(query.block_containing(demand))


# ---------------------------------------------------------------------------
# client-side errors
# ---------------------------------------------------------------------------

def test_demand_in_side_information():
    params, db, server, client = make_session()
    with pytest.raises(DemandKnown):
        client.build_query(2)


def test_demand_recovered_earlier():
    params, db, server, client = make_session()
    client.decode_answer(server.answer(client.build_query(1)))
    with pytest.raises(DemandKnown):
        client.build_query(1)


def test_demand_known_to_run_session():
    params = ProtocolParams.create(12, 2, q=17)
    with pytest.raises(DemandKnown):
        run_session(params, counting_database(), [2, 3], [1, 4, 4], seed=GOLDEN_SEED)


def test_query_before_decode_is_order_violation():
    params, db, server, client = make_session()
    client.build_query(1)
    with pytest.raises(ProtocolOrder):
        client.build_query(4)


def test_decode_without_query_is_order_violation():
    params, db, server, client = make_session()
    with pytest.raises(ProtocolOrder):
        client.decode_answer(RoundAnswer(1, ((0,),) * 4))


def test_client_transcript_is_its_decoded_rounds():
    """A round joins the client's transcript when it decodes, not when its
    query is sent; a refused answer leaves the query pending."""
    params, db, server, client = make_session(seed=3)
    assert client.transcript().rounds == ()
    query = client.build_query(1)
    answer = server.answer(query)
    assert client.transcript().rounds == ()
    with pytest.raises(AnswerMismatch):
        client.decode_answer(RoundAnswer(1, answer.packets[:-1]))
    assert client.transcript().rounds == ()
    client.decode_answer(answer)
    transcript = client.transcript()
    assert transcript.rounds == (TranscriptRound(query, answer),)
    cauchy = server.cauchy
    assert transcript.params == params
    assert (transcript.cauchy_x, transcript.cauchy_y) == (cauchy.x_points, cauchy.y_points)


def test_rounds_exhausted():
    params, db, server, client = make_session(seed=GOLDEN_SEED)
    for demand in (1, 4, 7):
        client.decode_answer(server.answer(client.build_query(demand)))
    assert set(client.known) == set(range(1, 13))
    with pytest.raises(RoundsExhausted):
        client.build_query(1)


def test_demand_out_of_range():
    params, db, server, client = make_session()
    with pytest.raises(InvalidParams, match="demand index 13"):
        client.build_query(13)


@pytest.mark.parametrize("index", [0, 13, -1])
def test_database_message_index_in_range(index):
    db = counting_database()
    with pytest.raises(InvalidParams, match="outside"):
        db.message(index)
    with pytest.raises(InvalidParams, match="outside"):
        SideInformation.from_database(db, [2, index])
    assert db.message(1) == (1,) and db.message(12) == (12,)


def test_side_size_must_match():
    params = ProtocolParams.create(12, 2, q=17)
    db = counting_database()
    server = Server(db, params)
    with pytest.raises(InvalidParams):
        Client(params, SideInformation.from_database(db, [2]), server.cauchy)


@pytest.mark.parametrize("bad", [-5, 17, 2**70])
def test_side_values_must_be_residues(bad):
    params = ProtocolParams.create(12, 2, q=17)
    server = Server(counting_database(), params)
    side = SideInformation.from_values({2: (2,), 3: (bad,)})
    with pytest.raises(InvalidParams):
        Client(params, side, server.cauchy)


# ---------------------------------------------------------------------------
# answer mismatches
# ---------------------------------------------------------------------------

def test_answer_round_mismatch():
    params, db, server, client = make_session()
    answer = server.answer(client.build_query(1))
    with pytest.raises(AnswerMismatch):
        client.decode_answer(RoundAnswer(2, answer.packets))


def test_answer_packet_count_mismatch():
    params, db, server, client = make_session()
    query = client.build_query(1)
    answer = server.answer(query)
    with pytest.raises(AnswerMismatch):
        client.decode_answer(RoundAnswer(1, answer.packets[:-1]))


def test_answer_symbol_count_mismatch():
    params, db, server, client = make_session()
    client.build_query(1)
    with pytest.raises(AnswerMismatch):
        client.decode_answer(RoundAnswer(1, ((0, 0),) * 4))


def test_check_answer_names_the_first_fault():
    """Round first, then packet count, then width; a round the parameters
    have no columns for is RoundOutOfRange."""
    params = ProtocolParams.create(8, 1, symbols=2)
    query = PartitionQuery.of(1, [(1, 2), (3, 4), (5, 6), (7, 8)])
    check_answer(params, query, RoundAnswer(1, ((0, 0),) * 4))
    check_answer(params, query, RoundAnswer.from_packed(1, (0,) * 4, 2))
    for answer, words in [
        (RoundAnswer(2, ((0,),) * 3), "answer round does not match query round 1"),
        (RoundAnswer(1, ((0,),) * 3), "expected 4 packets, got 3"),
        (RoundAnswer(1, ()), "expected 4 packets, got 0"),
        (RoundAnswer(1, ((0,),) * 4), "packets must each have 2 symbols"),
        (RoundAnswer(1, ((0, 0),) * 3 + ((0,),)), "packets must each have 2 symbols"),
        (RoundAnswer.from_packed(1, (0,) * 4, 3), "packets must each have 2 symbols"),
    ]:
        with pytest.raises(AnswerMismatch) as info:
            check_answer(params, query, answer)
        assert str(info.value) == words
    with pytest.raises(RoundOutOfRange):
        check_answer(params, PartitionQuery(4, query.blocks), RoundAnswer(4, ((0, 0),) * 4))


def test_packed_answers_are_counted_without_residue_tuples(monkeypatch):
    """The answer rule, Transcript.costs and measured_rate count a server's
    packed answers without building a residue tuple (field.split_row)."""
    params = ProtocolParams.create(12, 2, q=17)
    server = Server(counting_database(), params)
    side = SideInformation.from_database(counting_database(), [2, 3])
    client = Client(params, side, server.cauchy, seed=GOLDEN_SEED)
    query = client.build_query(1)
    answer = server.answer(query)
    client.decode_answer(answer)

    def split_row(*args):
        raise AssertionError("built residue tuples")

    monkeypatch.setattr(protocol, "split_row", split_row)
    check_answer(params, query, answer)
    assert len(answer) == 4
    transcript = client.transcript()
    assert transcript.costs == (4,)
    assert audit.measured_rate(transcript, 1) == audit.capacity(12, 2, 1)


@pytest.mark.parametrize("symbols", [1, 3])
def test_server_answer_slot_at_q_is_refused(symbols):
    """A server-built answer is checked on its packed rows: one slot set to
    q, in the first, middle or last slot of a packet, is refused."""
    for slot in {0, symbols // 2, symbols - 1}:
        params = ProtocolParams.create(12, 2, symbols=symbols)
        database = Database.random(12, symbols, params.q, random.Random(slot))
        server = Server(database, params)
        client = Client(params, SideInformation.from_database(database, [2, 3]), server.cauchy)
        answer = server.answer(client.build_query(1))
        rows = list(answer.packed)
        values = list(answer.packets[1])
        values[slot] = params.q
        rows[1] = pack_row(values)
        with pytest.raises(AnswerMismatch, match="residues mod q"):
            client.decode_answer(RoundAnswer.from_packed(1, tuple(rows), symbols))
        client.decode_answer(answer)


@pytest.mark.parametrize("symbols", [1, 3])
def test_server_answer_equals_its_residue_copy(symbols):
    """On GRID seeds an answer made of the server's packed rows and one
    rebuilt from its residue tuples are equal, hash alike, and leave two
    clients with the same known messages and packed rows."""
    for k, m in GRID:
        for seed in range(3):
            params = ProtocolParams.create(k, m, symbols=symbols)
            rng = random.Random(seed)
            database = Database.random(k, symbols, params.q, rng)
            side = SideInformation.from_database(database, sorted(rng.sample(range(1, k + 1), m)))
            server = Server(database, params)
            packed_client = Client(params, side, server.cauchy, seed=seed)
            residue_client = Client(params, side, server.cauchy, seed=seed)
            for _ in range(params.max_rounds):
                demand = rng.choice([i for i in range(1, k + 1) if i not in packed_client.known])
                query = packed_client.build_query(demand)
                assert residue_client.build_query(demand) == query
                answer = server.answer(query)
                copy = RoundAnswer(query.round_no, answer.packets)
                assert copy == answer and hash(copy) == hash(answer)
                packed_client.decode_answer(answer)
                residue_client.decode_answer(copy)
                assert packed_client.known == residue_client.known
                assert packed_client._packed == residue_client._packed
            assert packed_client.transcript() == residue_client.transcript()


@pytest.mark.parametrize("shift", [-1, 1])
def test_answer_values_must_be_residues(shift):
    """A packet value moved out of [0, q) by ±q is refused, not reduced and decoded."""
    params, db, server, client = make_session()
    answer = server.answer(client.build_query(1))
    moved = ((answer.packets[0][0] + shift * params.q,),) + answer.packets[1:]
    with pytest.raises(AnswerMismatch):
        client.decode_answer(RoundAnswer(1, moved))


# ---------------------------------------------------------------------------
# server-side errors
# ---------------------------------------------------------------------------

def test_server_rejects_round_skip():
    params, db, server, client = make_session()
    q1 = client.build_query(1)
    fake = PartitionQuery.of(2, [tuple(range(1, 7)), tuple(range(7, 13))])
    with pytest.raises(ProtocolOrder):
        server.answer(fake)
    # and a replay of round 1 after it was answered
    server.answer(q1)
    with pytest.raises(ProtocolOrder):
        server.answer(q1)


def test_server_rejects_malformed_blocks():
    params = ProtocolParams.create(12, 2, q=17)
    server = Server(counting_database(), params)
    wrong_count = PartitionQuery.of(1, [tuple(range(1, 4)), tuple(range(4, 13))])
    with pytest.raises(MalformedQuery):
        server.answer(wrong_count)


def test_server_rejects_unsorted_and_repeated_block_indices():
    """A raw PartitionQuery, which no wire decoder has checked, with a block
    out of order or holding an index twice."""
    params = ProtocolParams.create(4, 1)
    for blocks in (((2, 1), (3, 4)), ((1, 1), (3, 4))):
        server = Server(Database.random(4, 1, params.q, random.Random(0)), params)
        with pytest.raises(MalformedQuery, match="sorted and distinct"):
            server.answer(PartitionQuery(1, blocks))


def test_validate_query_variants():
    params = ProtocolParams.create(4, 1)
    ok = PartitionQuery.of(1, [(1, 2), (3, 4)])
    validate_query(params, ok, None)
    with pytest.raises(MalformedQuery):
        validate_query(params, PartitionQuery.of(1, [(1, 2), (2, 3)]), None)  # overlap
    with pytest.raises(MalformedQuery):
        validate_query(params, PartitionQuery.of(1, [(1, 2), (3, 5)]), None)  # not [1..4]
    with pytest.raises(MalformedQuery):
        validate_query(params, PartitionQuery.of(1, [(1,), (2,), (3, 4)]), None)  # sizes
    with pytest.raises(MalformedQuery):
        validate_query(params, PartitionQuery.of(0, [(1, 2), (3, 4)]), None)  # round 0
    with pytest.raises(MalformedQuery):
        validate_query(params, PartitionQuery.of(3, [(1, 2, 3, 4)]), None)  # past l+1


def test_validate_query_pairing():
    params = ProtocolParams.create(8, 1)
    prev = PartitionQuery.of(1, [(1, 2), (3, 4), (5, 6), (7, 8)])
    good = PartitionQuery.of(2, [(1, 2, 3, 4), (5, 6, 7, 8)])
    validate_query(params, good, prev)
    # size is right but {1,2,3,5} is not a union of two previous blocks
    bad = PartitionQuery.of(2, [(1, 2, 3, 5), (4, 6, 7, 8)])
    with pytest.raises(MalformedQuery):
        validate_query(params, bad, prev)
    with pytest.raises(MalformedQuery):
        validate_query(params, good, None)  # missing history


def subset_is_merge(block, prev_blocks):
    """Reference: block is the union of exactly two of prev_blocks, each tested as a subset."""
    inside = [p for p in prev_blocks if p <= block]
    return len(inside) == 2 and inside[0] | inside[1] == block


def random_partition(rng, k):
    """[1..k] shuffled and cut into at most six non-empty blocks."""
    order = rng.sample(range(1, k + 1), k)
    cuts = sorted(rng.sample(range(1, k), rng.randrange(min(k, 6)))) if k > 1 else []
    return [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [k])]


def spoil(rng, blocks, k):
    """blocks with one fault that keeps them from partitioning [1..k]."""
    blocks = [list(b) for b in blocks]
    fault = rng.choice(["overlap", "repeat", "missing", "zero", "past", "empty"])
    if fault == "overlap":  # an index twice, in one block or two
        rng.choice(blocks).append(rng.randrange(1, k + 1))
    elif fault == "repeat":  # a whole block twice
        blocks.append(list(rng.choice(blocks)))
    elif fault == "missing":
        victim = rng.choice(blocks)
        victim.remove(rng.choice(victim))
    elif fault == "zero":
        rng.choice(blocks).append(0)
    elif fault == "past":
        rng.choice(blocks).append(k + 1)
    else:
        blocks.insert(rng.randrange(len(blocks) + 1), [])
    rng.shuffle(blocks)
    return [tuple(b) for b in blocks]


def test_block_owners_matches_partition_reference():
    """block_owners refuses exactly what is no partition of [1..K] into
    non-empty blocks, and otherwise maps each index to its block."""
    rng = random.Random(41)
    refused = 0
    for _ in range(400):
        k = rng.randrange(1, 13)
        blocks = random_partition(rng, k)
        if rng.random() < 0.5:
            blocks = spoil(rng, blocks, k)
        flat = sorted(u for block in blocks for u in block)
        is_partition = flat == list(range(1, k + 1)) and all(blocks)
        if not is_partition:
            refused += 1
            with pytest.raises(MalformedQuery):
                block_owners(k, blocks)
            continue
        owner = block_owners(k, blocks)
        assert all(owner[u] == pos for pos, block in enumerate(blocks) for u in block)
    assert 150 < refused < 250


def test_merge_parts_matches_subset_reference():
    """merge_parts gives the subset test's verdict, and the two blocks it
    finds, for candidate blocks read against random partitions."""
    rng = random.Random(43)
    verdicts = set()
    for _ in range(400):
        k = rng.randrange(1, 13)
        prev = random_partition(rng, k)
        prev_sets = [frozenset(b) for b in prev]
        owner = block_owners(k, prev)
        candidates = [tuple(rng.sample(range(1, k + 1), rng.randrange(1, k + 1)))]
        for _ in range(4):
            picked = rng.sample(prev, min(len(prev), rng.randrange(1, 4)))
            candidates.append(tuple(u for b in picked for u in b))
        for block in candidates:
            verdict = subset_is_merge(frozenset(block), prev_sets)
            parts = merge_parts(block, owner, prev)
            assert (parts is not None) == verdict, (prev, block)
            if parts:
                assert prev_sets[parts[0]] | prev_sets[parts[1]] == frozenset(block)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_validate_query_is_linear_at_k8192():
    """Round-2 validation at K=8192 reads each block's own indices only; the
    every-block subset form took ~0.5 s on one vCPU of a shared 2-vCPU VM."""
    k = 8192
    params = ProtocolParams.create(k, 1)
    rng = random.Random(3)
    order = list(range(1, k + 1))
    rng.shuffle(order)
    round1 = [order[i : i + 2] for i in range(0, k, 2)]
    rng.shuffle(round1)
    round2 = [round1[i] + round1[i + 1] for i in range(0, len(round1), 2)]
    prev, query = PartitionQuery.of(1, round1), PartitionQuery.of(2, round2)
    validate_query(params, prev, None)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        validate_query(params, query, prev)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 0.1, elapsed


def test_server_holds_no_client_secrets():
    params, db, server, client = make_session(seed=1)
    client.decode_answer(server.answer(client.build_query(1)))
    fields = set(vars(server))
    assert fields == {"database", "params", "cauchy", "_prev"}
    assert server._prev == client.transcript().rounds[-1].query


@pytest.mark.parametrize(
    "k, m, q",
    [(8, 1, 17), (12, 2, 19)],
    ids=["other-shape", "other-field"],
)
def test_client_and_server_refuse_mismatched_coding_matrix(k, m, q):
    params = ProtocolParams.create(12, 2, q=17)
    other = ProtocolParams.create(k, m, q=q)
    cauchy = build_cauchy(other.k, other.m, other.l, other.q)
    side = SideInformation.from_database(counting_database(), [2, 3])
    with pytest.raises(InvalidParams, match="coding matrix has K=.*; parameters want K=12"):
        Client(params, side, cauchy)
    with pytest.raises(InvalidParams, match="coding matrix has K=.*; parameters want K=12"):
        Server(counting_database(), params, cauchy)


def test_server_database_param_mismatches():
    params = ProtocolParams.create(12, 2)
    with pytest.raises(InvalidParams):
        Server(Database(q=17, messages=((1,),) * 8), params)
    with pytest.raises(InvalidParams):
        Server(Database(q=19, messages=((1,),) * 12), params)
    # one shape check, whose message names both shapes
    with pytest.raises(InvalidParams, match=r"K=12, symbols=2, q=17;.* K=12, symbols=1, q=17"):
        Server(Database(q=17, messages=((1, 2),) * 12), ProtocolParams.create(12, 2, q=17))

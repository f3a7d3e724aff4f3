import dataclasses
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from opir import audit, cauchy, field, protocol, wire
from opir.wire import transcript_from_bytes, transcript_to_bytes
from opir import (
    AnswerMismatch,
    Database,
    InconsistentTranscript,
    InvalidParams,
    PartitionQuery,
    ProtocolParams,
    RoundOutOfRange,
    capacity,
    enumerate_hypotheses,
    matrix_rank,
    measured_rate,
    posterior,
    rank_profile,
    run_session,
)
from opir.audit import capacity_table
from opir.protocol import SESSION_PRIME, RoundAnswer, Transcript, TranscriptRound
from conftest import (
    ANSWER_FAULTS,
    GRID,
    random_session,
    two_symbol_session,
    well_formed_answer,
)


# ---------------------------------------------------------------------------
# posterior: independent oracle for the smallest shape
# ---------------------------------------------------------------------------

def brute_force_round1_posterior(k, m, blocks):
    """Enumerate every (side set, demand) pair from scratch and filter.

    A pair survives iff {demand} | side is one of the observed blocks.  All
    survivors produce the observed partition with equal probability (the
    priors are uniform and the partition randomness does not depend on the
    hypothesis), so the posterior is a pure count ratio.
    """
    block_sets = {frozenset(b) for b in blocks}
    survivors = []
    for side in combinations(range(1, k + 1), m):
        for demand in range(1, k + 1):
            if demand in side:
                continue
            if frozenset(side) | {demand} in block_sets:
                survivors.append((frozenset(side), demand))
    counts = [0] * k
    for _, demand in survivors:
        counts[demand - 1] += 1
    total = len(survivors)
    return survivors, [Fraction(c, total) for c in counts]


def test_round1_posterior_matches_brute_force_k4():
    params = ProtocolParams.create(4, 1)
    db = Database.random(4, 1, params.q, __import__("random").Random(0))
    result = run_session(params, db, [2], [1], seed=3)
    blocks = result.transcript.rounds[0].query.blocks

    survivors, expected = brute_force_round1_posterior(4, 1, blocks)
    # each block of size M+1 yields M+1 consistent splits
    assert len(survivors) == params.n1 * (params.m + 1) == 4

    table = posterior(result.transcript)
    assert table.hypothesis_count == len(survivors)
    assert list(table.row(1)) == expected == [Fraction(1, 4)] * 4


def test_round1_hypothesis_count_across_grid():
    for k, m in GRID:
        params = ProtocolParams.create(k, m)
        _, db, side, demands, result = random_session(k, m, seed=77, rounds=1)
        one_round = dataclasses.replace(result.transcript, rounds=result.transcript.rounds[:1])
        survivors, expected = brute_force_round1_posterior(
            k, m, one_round.rounds[0].query.blocks
        )
        table = posterior(one_round)
        assert table.hypothesis_count == len(survivors) == params.n1 * (m + 1)
        assert list(table.row(1)) == expected


def test_golden_posterior_uniform(golden):
    params, db, result = golden
    table = posterior(result.transcript)
    assert table.rounds == 3
    assert table.is_uniform()
    for j in (1, 2, 3):
        assert table.row(j) == tuple([Fraction(1, 12)] * 12)
        assert sum(table.row(j)) == 1
    # K * prod over later rounds of 2^(i-2) * (M+1) possible forks
    assert table.hypothesis_count == 12 * 3 * 6 == 216


def test_posterior_uniform_across_grid():
    for k, m in GRID:
        for seed in (1, 2, 9):
            _, _, _, _, result = random_session(k, m, seed=seed)
            table = posterior(result.transcript)
            assert table.is_uniform(), (k, m, seed)
            for j in range(1, table.rounds + 1):
                assert sum(table.row(j)) == 1


def count_ratio(transcript):
    """(rows, count) from the brute-force hypothesis list: the reference posterior."""
    hyps = enumerate_hypotheses(transcript)
    k = transcript.params.k
    rows = []
    for j in range(len(transcript.rounds)):
        counts = [0] * k
        for h in hyps:
            counts[h.demands[j] - 1] += 1
        rows.append(tuple(Fraction(c, len(hyps)) for c in counts))
    return tuple(rows), len(hyps)


def round_prefixes(transcript):
    for r in range(1, len(transcript.rounds) + 1):
        yield dataclasses.replace(transcript, rounds=transcript.rounds[:r])


def test_posterior_is_count_ratio():
    """Every consistent explanation is equally likely, so the posterior is a
    count ratio: the chain-block counts must equal the enumerated ones."""
    for k, m in GRID:
        for seed in (13, 14):
            _, _, _, _, result = random_session(k, m, seed=seed)
            for prefix in round_prefixes(result.transcript):
                rows, count = count_ratio(prefix)
                table = posterior(prefix)
                assert table.rows == rows, (k, m, seed, len(prefix.rounds))
                assert table.hypothesis_count == count


def matches_reference(transcript):
    """Assert posterior gives the reference counts, or raises as the reference
    does; return whether any hypothesis explains the transcript."""
    try:
        expected = count_ratio(transcript)
    except InconsistentTranscript:
        with pytest.raises(InconsistentTranscript):
            posterior(transcript)
        return False
    table = posterior(transcript)
    assert (table.rows, table.hypothesis_count) == expected
    return True


def swap_across_blocks(transcript, round_no, rng):
    """The transcript with one index of two random blocks of a round exchanged."""
    rnd = transcript.rounds[round_no - 1]
    blocks = [list(b) for b in rnd.query.blocks]
    a, b = rng.sample(range(len(blocks)), 2)
    x, y = rng.randrange(len(blocks[a])), rng.randrange(len(blocks[b]))
    blocks[a][x], blocks[b][y] = blocks[b][y], blocks[a][x]
    tampered = dataclasses.replace(rnd, query=PartitionQuery.of(round_no, blocks))
    rounds = list(transcript.rounds)
    rounds[round_no - 1] = tampered
    return dataclasses.replace(transcript, rounds=tuple(rounds))


def test_tampered_posterior_agrees_with_enumeration():
    """Indices swapped across blocks at any round: same exception, or same counts."""
    rng = random.Random(29)
    raised = 0
    # (16, 1) has four blocks at round 2, so a swap there leaves chains in
    # untouched blocks that only the every-other-block-merges rule stops.
    for k, m in GRID + [(16, 1)]:
        _, _, _, _, result = random_session(k, m, seed=17)
        for prefix in round_prefixes(result.transcript):
            for round_no, rnd in enumerate(prefix.rounds, start=1):
                if len(rnd.query.blocks) < 2:
                    continue
                raised += not matches_reference(swap_across_blocks(prefix, round_no, rng))
    assert raised > 0


@pytest.mark.parametrize(
    "round1, round2, explained",
    [
        # A block merging three round-1 blocks: its chains' other half is
        # no round-1 block, and every other chain meets a malformed block.
        ([(1, 2), (3, 4), (5, 6), (7,), (8,)], [(1, 2, 3, 4, 5, 6), (7, 8)], False),
        # Round 1 misses index 8, which round 2 adds to a pair of blocks.
        ([(1, 2), (3, 4), (5, 6), (7,)], [(1, 2, 3, 4, 8), (5, 6, 7)], False),
        # Index 1 sits in two round-1 blocks, and {1, 2} in two round-2
        # blocks: neither round partitions [1..8], so neither is explained.
        ([(1, 2), (3, 4), (1,), (5, 6), (7, 8)], [(1, 2, 3, 4), (5, 6, 7, 8)], False),
        ([(1, 2), (3, 4), (5, 6), (7,), (8,)], [(1, 2, 3, 4), (1, 2, 5, 6), (7, 8)], False),
    ],
)
def test_posterior_matches_reference_on_improper_merges(round1, round2, explained):
    params = ProtocolParams.create(8, 1)
    rounds = tuple(
        TranscriptRound(PartitionQuery.of(i, blocks), well_formed_answer(params, i))
        for i, blocks in enumerate((round1, round2), start=1)
    )
    assert matches_reference(Transcript(params, (), (), rounds)) is explained


def test_posterior_does_not_enumerate(golden, monkeypatch):
    def refuse(transcript):
        raise AssertionError("posterior listed the hypotheses")

    monkeypatch.setattr(audit, "enumerate_hypotheses", refuse)
    _, _, result = golden
    assert posterior(result.transcript).hypothesis_count == 216


def synthetic_transcript(k, m, seed):
    """The queries of a whole session: random round-1 blocks, then random
    pairwise merges.  Answers are all-zero; the posterior reads only queries."""
    params = ProtocolParams.create(k, m)
    rng = random.Random(seed)
    order = list(range(1, k + 1))
    rng.shuffle(order)
    blocks = [tuple(order[i : i + m + 1]) for i in range(0, k, m + 1)]
    rounds = []
    for round_no in range(1, params.max_rounds + 1):
        if round_no > 1:
            rng.shuffle(blocks)
            blocks = [blocks[i] + blocks[i + 1] for i in range(0, len(blocks), 2)]
        query = PartitionQuery.of(round_no, blocks)
        rounds.append(TranscriptRound(query, well_formed_answer(params, round_no)))
    return Transcript(params=params, cauchy_x=(), cauchy_y=(), rounds=tuple(rounds))


def test_posterior_counts_at_k128():
    """2^28 hypotheses at K=128, M=1: far too many to list, cheap to count."""
    transcript = synthetic_transcript(128, 1, seed=5)
    start = time.perf_counter()
    table = posterior(transcript)
    elapsed = time.perf_counter() - start
    assert table.rounds == 7
    assert table.is_uniform()
    assert table.hypothesis_count == 2**28
    assert elapsed < 2.0, elapsed


def test_posterior_is_linear_at_k8192():
    """Chain links read the owner arrays, so a K=8192, M=1 posterior takes
    0.15-0.25 s on one vCPU of a shared 2-vCPU VM, where a subset scan of
    every block took ~1 s.  Most of that time is building the 13 x 8192
    Fraction entries of PosteriorTable.rows, which acceptance criterion 3
    reads, so the bound leaves room for them instead of aiming below 0.1 s."""
    transcript = synthetic_transcript(8192, 1, seed=3)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        table = posterior(transcript)
        elapsed.append(time.perf_counter() - start)
    assert table.rounds == 13
    assert table.is_uniform()
    assert table.hypothesis_count == 8192 * 2**78  # K * prod 2^(i-2)(M+1), i = 2..13
    assert min(elapsed) < 0.6, elapsed


def test_hypotheses_include_truth():
    for k, m in GRID:
        _, _, side, demands, result = random_session(k, m, seed=21)
        hyps = enumerate_hypotheses(result.transcript)
        assert any(
            h.side == frozenset(side) and h.demands == tuple(demands) for h in hyps
        )


def test_enumerate_rejects_malformed_transcripts(golden):
    params, db, result = golden
    with pytest.raises(InconsistentTranscript):
        enumerate_hypotheses(dataclasses.replace(result.transcript, rounds=()))
    with pytest.raises(InconsistentTranscript):
        enumerate_hypotheses(
            dataclasses.replace(result.transcript, rounds=result.transcript.rounds[1:])
        )


def test_tampered_transcript_is_inconsistent(golden):
    """Swapping two indices across round-1 blocks breaks every round-2 merge."""
    params, db, result = golden
    transcript = result.transcript
    round1 = transcript.rounds[0]
    blocks = [list(b) for b in round1.query.blocks]
    blocks[0][0], blocks[1][0] = blocks[1][0], blocks[0][0]
    tampered_q = PartitionQuery.of(1, [tuple(b) for b in blocks])
    tampered = dataclasses.replace(
        transcript,
        rounds=(dataclasses.replace(round1, query=tampered_q),) + transcript.rounds[1:],
    )
    with pytest.raises(InconsistentTranscript):
        enumerate_hypotheses(tampered)


# ---------------------------------------------------------------------------
# capacity and measured rate
# ---------------------------------------------------------------------------

def test_capacity_pinned_values():
    assert capacity(12, 2, 1) == Fraction(1, 4)
    assert capacity(12, 2, 2) == Fraction(1, 4)
    assert capacity(12, 2, 3) == Fraction(1, 2)
    assert capacity(8, 3, 2) == Fraction(1, 3)
    assert capacity(4, 1, 1) == Fraction(1, 2)
    assert capacity(4, 1, 2) == Fraction(1, 1)
    assert capacity(16, 3, 2) == Fraction(1, 6)
    assert capacity(16, 3, 3) == Fraction(1, 3)


def test_capacity_equals_inverse_download_cost():
    """The closed form must equal 1 / packet count of the implemented rounds."""
    for k, m in GRID:
        params = ProtocolParams.create(k, m)
        for i in range(1, params.max_rounds + 1):
            assert capacity(k, m, i) == Fraction(1, params.packet_count(i))


def test_capacity_rejects_bad_shapes():
    with pytest.raises(InvalidParams):
        capacity(10, 2, 1)
    with pytest.raises(InvalidParams):
        capacity(12, 3, 1)
    with pytest.raises(RoundOutOfRange):
        capacity(12, 2, 4)
    with pytest.raises(RoundOutOfRange):
        capacity(12, 2, 0)
    with pytest.raises(InvalidParams):
        capacity_table(10, 2)


def test_capacity_table_shape():
    table = capacity_table(12, 2)
    assert table == ((1, Fraction(1, 4)), (2, Fraction(1, 4)), (3, Fraction(1, 2)))


def test_measured_rate_golden(golden):
    params, db, result = golden
    assert measured_rate(result.transcript, 1) == Fraction(1, 4)
    assert measured_rate(result.transcript, 2) == Fraction(1, 4)
    assert measured_rate(result.transcript, 3) == Fraction(1, 2)
    with pytest.raises(ValueError):
        measured_rate(result.transcript, 4)


def test_measured_rate_refuses_empty_answer(golden):
    """measured_rate reads the transcript's verdict: a round-2 answer with no
    packets leaves no round of the transcript a rate, round 1 included."""
    _, _, result = golden
    rounds = list(result.transcript.rounds)
    rounds[1] = dataclasses.replace(rounds[1], answer=RoundAnswer(2, ()))
    transcript = dataclasses.replace(result.transcript, rounds=tuple(rounds))
    for round_no in (1, 2):
        with pytest.raises(InconsistentTranscript, match="round 2: expected 4 packets, got 0"):
            measured_rate(transcript, round_no)


def test_measured_rate_matches_capacity_across_grid():
    for k, m in GRID:
        _, _, _, _, result = random_session(k, m, seed=31)
        for i in range(1, len(result.transcript.rounds) + 1):
            assert measured_rate(result.transcript, i) == capacity(k, m, i)


# ---------------------------------------------------------------------------
# rank profile
# ---------------------------------------------------------------------------

def test_golden_rank_profile(golden):
    params, db, result = golden
    assert rank_profile(result.transcript) == ((1, 4), (2, 4), (3, 2))


def test_rank_profile_builds_no_coding_matrix(golden, monkeypatch):
    """The rank is the Cauchy theorem's min(columns, members): no matrix is built."""
    builds = []
    for owner in (protocol, cauchy):
        monkeypatch.setattr(owner, "build_cauchy", lambda *a, **kw: builds.append(a))
    _, _, result = golden
    assert rank_profile(result.transcript) == ((1, 4), (2, 4), (3, 2))
    assert builds == []


def test_audit_tests_primality_once_per_modulus():
    """Decoding and auditing a transcript checks one q in several
    ProtocolParams, FieldMatrix and build_cauchy calls; Miller-Rabin runs once."""
    _, _, _, _, result = random_session(16, 1, seed=5)
    data = transcript_to_bytes(result.transcript)
    field.is_prime.cache_clear()
    transcript = transcript_from_bytes(data)
    assert posterior(transcript).is_uniform()
    assert len(rank_profile(transcript)) == 4
    assert transcript.params.q == SESSION_PRIME
    assert field.is_prime.cache_info().misses == 1


def test_rank_equals_packet_count_across_grid():
    for k, m in GRID:
        params = ProtocolParams.create(k, m)
        _, _, _, _, result = random_session(k, m, seed=47)
        profile = rank_profile(result.transcript)
        for round_no, rank in profile:
            assert rank == 1 / capacity(k, m, round_no) == params.packet_count(round_no)


def k_wide_round_matrix(transcript, round_no):
    """Reference: a round's packet coefficients as rows over messages 1..K."""
    params = transcript.params
    coding = transcript.cauchy()
    columns = protocol.round_column_indices(params.m, params.l, round_no)
    rows = []
    for block in transcript.rounds[round_no - 1].query.blocks:
        for col in columns:
            rows.append(
                [coding.coeff(u, col) if u in block else 0 for u in range(1, params.k + 1)]
            )
    return field.FieldMatrix(params.q, rows)


def k_wide_rank_profile(transcript):
    return tuple(
        (i, matrix_rank(k_wide_round_matrix(transcript, i)))
        for i in range(1, len(transcript.rounds) + 1)
    )


def test_k_wide_reference_reproduces_packets(golden):
    """Multiplying the reference coefficients by the database gives the answers."""
    params, db, result = golden
    flat_db = [db.message(i)[0] for i in range(1, 13)]
    for round_no, rnd in enumerate(result.transcript.rounds, start=1):
        matrix = k_wide_round_matrix(result.transcript, round_no)
        products = [
            sum(c * v for c, v in zip(matrix.row(r), flat_db)) % params.q
            for r in range(matrix.rows)
        ]
        assert tuple((v,) for v in products) == rnd.answer.packets


def test_rank_profile_matches_k_wide_reference_across_grid():
    for k, m in GRID:
        for seed in range(5):
            _, _, _, _, result = random_session(k, m, seed=seed)
            assert rank_profile(result.transcript) == k_wide_rank_profile(result.transcript)


def random_partition_transcript(params, rng, points=None):
    """Every round a random partition of [1..K] into blocks of random sizes,
    coded on the given (x, y) points or else on session_cauchy's."""
    if points is None:
        session = protocol.session_cauchy(params)
        points = session.x_points, session.y_points
    rounds = []
    for i in range(1, params.max_rounds + 1):
        order = rng.sample(range(1, params.k + 1), params.k)
        cuts = sorted(rng.sample(range(1, params.k), rng.randrange(params.k)))
        blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [params.k])]
        rounds.append(TranscriptRound(PartitionQuery.of(i, blocks), well_formed_answer(params, i)))
    return Transcript(params, *points, tuple(rounds))


@pytest.mark.parametrize("k, m, q", [(12, 2, 17), (12, 2, None), (16, 3, 37), (24, 2, 31)])
def test_rank_profile_matches_k_wide_reference_on_odd_blocks(k, m, q):
    """Blocks of any size, including ones smaller than the round's column count."""
    params = ProtocolParams.create(k, m, q=q)
    rng = random.Random(k * 100 + m)
    saw_small_block = False
    for _ in range(20):
        transcript = random_partition_transcript(params, rng)
        assert rank_profile(transcript) == k_wide_rank_profile(transcript)
        saw_small_block |= any(
            len(b) < m for rnd in transcript.rounds[1:] for b in rnd.query.blocks
        )
    assert saw_small_block


def reference_rank_profile(transcript):
    """Reference: every block's coefficient matrix (a row per packet, a column
    per member) built from the coding matrix and eliminated."""
    transcript.owners  # the verdict rank_profile reads
    params = transcript.params
    coding = transcript.cauchy()
    profile = []
    for i, rnd in enumerate(transcript.rounds, start=1):
        rank = 0
        for block, columns in protocol.packet_layout(params, rnd.query):
            rows = [[coding.coeff(u, c) for u in block] for c in columns]
            rank += matrix_rank(field.FieldMatrix(params.q, rows))
        profile.append((i, rank))
    return tuple(profile)


# Shapes whose K + Ml + 1 points fit in a prime from 11 to 37.
SMALL_FIELD_SHAPES = [(4, 1), (6, 2), (8, 1), (8, 3), (12, 2), (16, 1), (16, 3), (24, 2), (32, 1)]
SMALL_PRIMES = [11, 13, 17, 19, 23, 29, 31, 37]


def test_rank_profile_matches_elimination_on_random_points():
    """The closed form equals block-by-block and K-wide elimination on random
    distinct points in small fields, with blocks of random sizes."""
    rng = random.Random(16)
    checked = small_blocks = 0
    for k, m in SMALL_FIELD_SHAPES:
        l = cauchy.derive_l(k, m)
        primes = [q for q in SMALL_PRIMES if q >= k + m * l + 1]
        for _ in range(50):
            params = ProtocolParams.create(k, m, q=rng.choice(primes))
            points = rng.sample(range(params.q), k + m * l + 1)
            transcript = random_partition_transcript(params, rng, (points[:k], points[k:]))
            expected = reference_rank_profile(transcript)
            assert rank_profile(transcript) == expected == k_wide_rank_profile(transcript)
            checked += 1
            small_blocks += any(
                len(b) < m for rnd in transcript.rounds[1:] for b in rnd.query.blocks
            )
    assert checked >= 400
    assert small_blocks > 0


def _repeat_x(x, y):
    return (x[0], x[0]) + x[2:], y


def _x_equals_y(x, y):
    return (y[0],) + x[1:], y


def _point_past_q(x, y):
    return x[:-1] + (17,), y  # the golden session's q is 17


def _missing_point(x, y):
    return x[:-1], y


@pytest.mark.parametrize("tamper", [_repeat_x, _x_equals_y, _point_past_q, _missing_point])
def test_rank_profile_refuses_points_as_build_cauchy_does(golden, tamper):
    """Bad coding points are the InvalidParams build_cauchy raises, word for word."""
    _, _, result = golden
    p = result.transcript.params
    x, y = tamper(result.transcript.cauchy_x, result.transcript.cauchy_y)
    transcript = dataclasses.replace(result.transcript, cauchy_x=x, cauchy_y=y)
    with pytest.raises(InvalidParams) as built:
        cauchy.build_cauchy(p.k, p.m, p.l, p.q, x, y)
    with pytest.raises(InvalidParams) as ranked:
        rank_profile(transcript)
    with pytest.raises(InvalidParams) as referenced:
        reference_rank_profile(transcript)
    assert str(ranked.value) == str(built.value) == str(referenced.value)


def test_audit_of_a_huge_shape_builds_no_matrix(monkeypatch):
    """K=32768, M=16383 names a 32768 x 16384 coding matrix; the audit reads
    the file, counts the posterior and ranks both rounds without it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the audit built a coding matrix")

    for owner in (protocol, cauchy):
        monkeypatch.setattr(owner, "build_cauchy", refuse)
    k, m = 32768, 16383
    params = ProtocolParams.create(k, m)
    rng = random.Random(32768)
    points = rng.sample(range(params.q), k + m * params.l + 1)
    order = rng.sample(range(1, k + 1), k)
    rounds = (
        TranscriptRound(
            PartitionQuery.of(1, [order[: k // 2], order[k // 2 :]]),
            RoundAnswer(1, ((1,), (2,))),
        ),
        TranscriptRound(
            PartitionQuery.of(2, [range(1, k + 1)]),
            RoundAnswer(2, tuple((u % params.q,) for u in range(m))),
        ),
    )
    data = transcript_to_bytes(Transcript(params, tuple(points[:k]), tuple(points[k:]), rounds))
    start = time.perf_counter()
    transcript = transcript_from_bytes(data)
    assert posterior(transcript).is_uniform()
    assert [measured_rate(transcript, i) for i in (1, 2)] == [Fraction(1, 2), Fraction(1, m)]
    assert rank_profile(transcript) == ((1, 2), (2, m))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed


def test_a_read_transcript_is_judged_once(monkeypatch):
    """Reading a 5-round K=32 transcript and running every auditor on it
    runs the partition rule and the answer rule once per round: the reader
    judges, and the auditors read its cached verdict."""
    *_, result = random_session(32, 1, seed=5)
    data = transcript_to_bytes(result.transcript)
    calls = {"block_owners": 0, "check_answer": 0}
    for name in calls:
        rule = getattr(protocol, name)

        def counted(*args, _rule=rule, _name=name):
            calls[_name] += 1
            return _rule(*args)

        for module in (audit, protocol, wire):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    transcript = transcript_from_bytes(data)
    posterior(transcript)
    rank_profile(transcript)
    for round_no in range(1, 6):
        measured_rate(transcript, round_no)
    assert calls == {"block_owners": 5, "check_answer": 5}


@pytest.mark.parametrize("fault", sorted(ANSWER_FAULTS))
def test_auditors_judge_answers_by_the_answer_rule(fault):
    """A library-built transcript whose answers the client and the transcript
    reader refuse is InconsistentTranscript for every auditor, with the
    answer rule's text, where it used to give a uniform posterior and full
    ranks."""
    params, *_, result = two_symbol_session()
    transcript = ANSWER_FAULTS[fault](result.transcript)
    bad = next(r for r in transcript.rounds if r not in result.transcript.rounds)
    with pytest.raises(AnswerMismatch) as refused:
        protocol.check_answer(params, bad.query, bad.answer)
    expected = f"round {bad.query.round_no}: {refused.value}"
    for check in (posterior, rank_profile, enumerate_hypotheses, lambda t: measured_rate(t, 1)):
        with pytest.raises(InconsistentTranscript) as judged:
            check(transcript)
        assert str(judged.value) == expected


def test_auditors_judge_partitions_before_answers(golden):
    """A round that is no partition is named first, even when an earlier
    round's answer is malformed too."""
    _, _, result = golden
    rounds = list(result.transcript.rounds)
    rounds[0] = dataclasses.replace(rounds[0], answer=RoundAnswer(1, ()))
    rounds[1] = dataclasses.replace(
        rounds[1], query=PartitionQuery.of(2, [(1, 2, 3, 4, 5, 6), (7, 8, 9, 10, 11)])
    )
    transcript = dataclasses.replace(result.transcript, rounds=tuple(rounds))
    for check in (posterior, rank_profile):
        with pytest.raises(InconsistentTranscript, match="round 2 does not partition"):
            check(transcript)


def test_rank_profile_refuses_what_posterior_refuses(golden):
    """Rounds numbered other than 1, 2, ... and a transcript with no rounds
    are InconsistentTranscript for rank_profile as for posterior."""
    _, _, result = golden
    rounds = result.transcript.rounds
    second = dataclasses.replace(
        rounds[1], query=dataclasses.replace(rounds[1].query, round_no=3)
    )
    for bad in ((rounds[0], second), ()):
        transcript = dataclasses.replace(result.transcript, rounds=bad)
        with pytest.raises(InconsistentTranscript):
            posterior(transcript)
        with pytest.raises(InconsistentTranscript):
            rank_profile(transcript)


@pytest.mark.parametrize(
    "blocks",
    [
        [(1, 2, 3), (3, 4, 5), (6, 7, 8), (9, 10, 11, 12)],  # index 3 twice
        [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)],  # index 0, 12 missing
        [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 13)],  # index K+1, 12 missing
        [(1, 2, 3), (4, 5, 6), (), (7, 8, 9, 10, 11, 12)],  # an empty block
    ],
)
def test_rank_profile_rejects_non_partitions(golden, blocks):
    """One partition rule for all three auditors."""
    _, _, result = golden
    first = result.transcript.rounds[0]
    bad = dataclasses.replace(first, query=PartitionQuery.of(1, blocks))
    transcript = dataclasses.replace(
        result.transcript, rounds=(bad,) + result.transcript.rounds[1:]
    )
    for check in (rank_profile, posterior, enumerate_hypotheses):
        with pytest.raises(InconsistentTranscript, match="does not partition"):
            check(transcript)


@pytest.mark.parametrize(
    "blocks",
    [
        [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)],  # index 0 would count as index 12
        [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 13)],  # index K+1 is past the table
    ],
)
def test_auditors_refuse_indices_outside_1_to_k(golden, blocks):
    _, _, result = golden
    first = dataclasses.replace(result.transcript.rounds[0], query=PartitionQuery.of(1, blocks))
    transcript = dataclasses.replace(result.transcript, rounds=(first,))
    for check in (posterior, enumerate_hypotheses):
        with pytest.raises(InconsistentTranscript, match="outside"):
            check(transcript)

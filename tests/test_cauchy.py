import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opir import (
    FieldTooSmall,
    InvalidParams,
    ProtocolParams,
    RoundOutOfRange,
    build_cauchy,
    matrix_rank,
    round_column_indices,
)
from opir import cauchy as cauchy_module
from opir.cauchy import canonical_points
from opir.field import FieldMatrix, next_prime
from opir.protocol import SESSION_PRIME, Transcript, session_cauchy
from conftest import GOLDEN_MATRIX


@pytest.fixture(scope="module")
def golden_cauchy():
    return build_cauchy(12, 2, 2, q=17)


def test_golden_matrix_all_entries(golden_cauchy):
    """The canonical points must reproduce the fixed 12x5 F_17 matrix."""
    for i in range(1, 13):
        for j in range(1, 6):
            assert golden_cauchy.coeff(i, j) == GOLDEN_MATRIX[i - 1][j - 1], (i, j)


def test_golden_corner_entries(golden_cauchy):
    assert golden_cauchy.coeff(1, 1) == 7
    assert golden_cauchy.coeff(12, 5) == 10
    assert golden_cauchy.coeff(2, 3) == 13


def test_canonical_point_layout():
    xs, ys = canonical_points(17, 12, 2, 2)
    assert xs == tuple((i + 4) % 17 for i in range(1, 13))
    assert ys == tuple(j % 17 for j in range(5))
    assert len(set(xs) | set(ys)) == 17  # pairwise distinct and disjoint


def test_entry_definition(golden_cauchy):
    """entry[i][j] * (x_i - y_j) = 1 for every entry."""
    for i in range(1, 13):
        for j in range(1, 6):
            diff = golden_cauchy.x_points[i - 1] - golden_cauchy.y_points[j - 1]
            assert golden_cauchy.coeff(i, j) * diff % 17 == 1


def test_field_too_small():
    """One rule and one class for q < K + Ml + 1, from the parameters and
    from the matrix alike; FieldTooSmall is an InvalidParams."""
    for make in (lambda: build_cauchy(12, 2, 2, q=13), lambda: ProtocolParams(12, 2, 13)):
        with pytest.raises(FieldTooSmall, match="need q >= 17 for K=12, M=2, l=2; got q=13"):
            make()
    assert issubclass(FieldTooSmall, InvalidParams)


def test_rejects_bad_points():
    """Points can come from outside the program (a transcript, a HELLO), so
    bad ones are an InvalidParams the CLI reports, not a ValueError."""
    with pytest.raises(InvalidParams):
        build_cauchy(4, 1, 1, q=11, x_points=(1, 2, 3, 3), y_points=(5, 6))
    with pytest.raises(InvalidParams):
        # x and y sets must be disjoint
        build_cauchy(4, 1, 1, q=11, x_points=(1, 2, 3, 4), y_points=(4, 5))
    with pytest.raises(InvalidParams):
        # equal modulo q
        build_cauchy(4, 1, 1, q=11, x_points=(1, 2, 3, 14), y_points=(5, 6))
    with pytest.raises(InvalidParams):
        build_cauchy(4, 1, 1, q=11, x_points=(1, 2, 3), y_points=(5, 6))
    with pytest.raises(InvalidParams):
        build_cauchy(4, 1, 1, q=11, x_points=(1, 2, 3, 4))


@pytest.mark.parametrize("x1", [22, -12])
def test_points_are_never_reduced(x1):
    """A supplied point outside [0, q) is refused, not read as its residue
    (both 22 and -12 are 5 mod 17, the canonical x_1), so a transcript built
    in the library audits with the points its own bytes hold."""
    xs, ys = canonical_points(17, 12, 2, 2)
    assert xs[0] == 5
    with pytest.raises(InvalidParams, match=r"residues in \[0, 17\)"):
        build_cauchy(12, 2, 2, 17, (x1,) + xs[1:], ys)
    transcript = Transcript(ProtocolParams(12, 2, 17), (x1,) + xs[1:], ys, ())
    with pytest.raises(InvalidParams):
        transcript.cauchy()


def test_build_refuses_other_l_and_composite_modulus():
    """l is derived from K and M, so any other l is refused; a composite q
    is InvalidParams from check_modulus, before pow(·, -1, q) could raise
    ValueError.  Neither l nor K is a CauchyMatrix field, since both derive;
    q is stored because no entry, a plain residue, names it."""
    for l in (0, 1, 3):
        with pytest.raises(InvalidParams):
            build_cauchy(12, 2, l, q=17)
    for q in (15, 21, 25):
        with pytest.raises(InvalidParams):
            build_cauchy(4, 1, 1, q=q)
    cauchy = build_cauchy(12, 2, 2, q=17)
    assert [f.name for f in dataclasses.fields(cauchy)] == ["m", "q", "x_points", "y_points", "columns"]


def test_round_column_indices():
    # l=2, M=2: five columns split 1 / 2,3 / 4,5
    assert round_column_indices(2, 2, 1) == (1,)
    assert round_column_indices(2, 2, 2) == (2, 3)
    assert round_column_indices(2, 2, 3) == (4, 5)
    for bad in (0, 4):
        with pytest.raises(RoundOutOfRange):
            round_column_indices(2, 2, bad)


def test_round_columns_partition_all_columns():
    for m, l in [(1, 1), (1, 2), (2, 2), (3, 1), (3, 2)]:
        seen = []
        for r in range(1, l + 2):
            seen.extend(round_column_indices(m, l, r))
        assert sorted(seen) == list(range(1, m * l + 2))


def test_round_columns_golden(golden_cauchy):
    def column(round_no, pos):
        col = round_column_indices(2, 2, round_no)[pos]
        return tuple(golden_cauchy.coeff(i, col) for i in range(1, 13))

    assert column(1, 0) == (7, 3, 5, 15, 2, 12, 14, 10, 4, 11, 8, 16)
    assert column(2, 0)[:6] == (13, 7, 3, 5, 15, 2)
    assert column(3, 0) == tuple(row[3] for row in GOLDEN_MATRIX)


def test_every_m_plus_1_submatrix_invertible(golden_cauchy):
    """All 3x3 submatrices of the golden matrix have full rank."""
    entries = golden_cauchy.matrix
    for rows in itertools.combinations(range(12), 3):
        for cols in itertools.combinations(range(5), 3):
            sub = entries.submatrix(rows, cols)
            assert matrix_rank(sub) == 3, (rows, cols)


def test_build_makes_one_inversion(monkeypatch):
    """Every entry comes out of one batch inversion, and bad points are
    refused before it: a zero difference would corrupt every entry."""
    calls = []

    def counting_pow(base, exp, mod=None):
        if exp == -1:
            calls.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(cauchy_module, "pow", counting_pow, raising=False)
    points = session_cauchy(ProtocolParams.create(32, 1))
    q = SESSION_PRIME
    # session_cauchy has built this point set already; count a fresh build.
    cauchy_module._cauchy_on.cache_clear()
    calls.clear()
    cauchy = build_cauchy(32, 1, 4, q, points.x_points, points.y_points)
    assert len(calls) == 1
    for i, x in enumerate(cauchy.x_points, start=1):
        for j, y in enumerate(cauchy.y_points, start=1):
            assert cauchy.coeff(i, j) == pow(x - y, -1, q)
            assert cauchy.matrix.at(i - 1, j - 1) == cauchy.coeff(i, j)
    calls.clear()
    with pytest.raises(InvalidParams):
        build_cauchy(4, 1, 1, q=11, x_points=(1, 2, 3, 4), y_points=(4, 5))
    assert calls == []


def test_same_points_return_the_same_matrix():
    """A point set is built once per process, whether its points are
    supplied or canonical, and the row form built on first read is shared."""
    xs, ys = canonical_points(17, 12, 2, 2)
    first = build_cauchy(12, 2, 2, 17, xs, ys)
    assert build_cauchy(12, 2, 2, 17, list(xs), list(ys)) is first
    assert build_cauchy(12, 2, 2, 17) is first
    assert first.matrix is build_cauchy(12, 2, 2, 17).matrix
    # another field or another point set is another matrix
    assert build_cauchy(12, 2, 2, 19) is not first
    assert build_cauchy(12, 2, 2, 17, xs[::-1], ys) is not first


def test_large_matrices_are_not_kept(monkeypatch):
    """A matrix of more than MEMO_MAX_ENTRIES entries is built on every call
    and never enters the memo, so a process keeps no large matrix it no
    longer uses."""
    monkeypatch.setattr(cauchy_module, "MEMO_MAX_ENTRIES", 12 * 5 - 1)
    cauchy_module._cauchy_on.cache_clear()
    first = build_cauchy(12, 2, 2, 17)
    assert build_cauchy(12, 2, 2, 17) is not first
    assert build_cauchy(12, 2, 2, 17).coeff(3, 4) == first.coeff(3, 4)
    assert cauchy_module._cauchy_on.cache_info().currsize == 0
    assert build_cauchy(8, 1, 2, 17) is build_cauchy(8, 1, 2, 17)  # 8 x 3 entries


def test_cached_points_do_not_pass_later_checks():
    """check_points runs on every call: once a good set is cached, a bad set
    sharing its key fields, or the good set under another shape, is refused."""
    xs, ys = canonical_points(17, 12, 2, 2)
    build_cauchy(12, 2, 2, 17, xs, ys)
    with pytest.raises(InvalidParams, match="distinct"):
        build_cauchy(12, 2, 2, 17, xs[:-1] + (ys[0],), ys)
    with pytest.raises(InvalidParams, match="residues"):
        build_cauchy(12, 2, 2, 17, xs[:-1] + (17,), ys)
    with pytest.raises(InvalidParams, match="imply l=2"):
        build_cauchy(12, 2, 3, 17, xs, ys)
    with pytest.raises(FieldTooSmall):
        build_cauchy(12, 2, 2, 13, xs, ys)


@given(
    st.sampled_from([(4, 1, 1), (8, 1, 2), (8, 3, 1), (12, 2, 2), (16, 3, 2)]),
    st.integers(0, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_entry_inverse_property(shape, q_offset):
    """Entry times point difference is 1 for any admissible prime modulus."""
    k, m, l = shape
    q = next_prime(k + m * l + 1 + q_offset)
    cauchy = build_cauchy(k, m, l, q=q)
    for i in range(1, k + 1):
        for j in range(1, m * l + 2):
            diff = cauchy.x_points[i - 1] - cauchy.y_points[j - 1]
            assert cauchy.coeff(i, j) * diff % q == 1


# ---------------------------------------------------------------------------
# merge decode systems (the round-3 structure is not a Cauchy submatrix)
#
# The library draws its default points and checks nothing (session_cauchy);
# the round-3 certificate lives here.  all_merge_systems_invertible is the
# fast collision search, reference_all_merge_systems_invertible the
# split-by-split enumeration it must agree with, and merge_oracle_invertible
# the Gauss elimination both are tested against.
# ---------------------------------------------------------------------------

def merge_oracle_invertible(cauchy, left, right):
    """Assemble the actual mixed system and eliminate: the independent oracle."""
    union = sorted(left + right)
    rows = []
    for blk in (left, right):
        rows.append([cauchy.coeff(u, 1) if u in blk else 0 for u in union])
    for col in range(2, 2 * cauchy.m + 2):
        rows.append([cauchy.coeff(u, col) for u in union])
    return matrix_rank(FieldMatrix(cauchy.matrix.q, rows)) == len(union)


def all_splits(k, m):
    for union in itertools.combinations(range(1, k + 1), 2 * (m + 1)):
        for extra in itertools.combinations(union[1:], m):
            left = (union[0],) + extra
            right = tuple(sorted(set(union) - set(left)))
            yield left, right


def reference_all_merge_systems_invertible(cauchy):
    """The residue-sum check, union by union and split by split.

    Exhausts all unions of two disjoint (M+1)-blocks and tests each split
    once, with the union's first index on the left: the sum over the left
    half of w_i / prod_{k in union, k != i}(x_i - x_k), taken over a common
    denominator.  This is the enumeration the library ran before its
    collision search, kept as the reference the search must agree with.
    """
    xs = cauchy.x_points
    ys = cauchy.y_points
    m = cauchy.m
    if cauchy_module.derive_l(len(xs), m) < 2:
        return True
    q = cauchy.matrix.q
    size = m + 1
    wcache = []
    for i in range(len(xs)):
        xi = xs[i]
        w = 1
        for j in range(1, 2 * m + 1):
            w = w * (xi - ys[j]) % q
        wcache.append(w)
    for union in itertools.combinations(range(len(xs)), 2 * size):
        dens = {}
        for i in union:
            xi = xs[i]
            den = 1
            for other in union:
                if other != i:
                    den = den * (xi - xs[other]) % q
            dens[i] = den
        first = union[0]
        for extra in itertools.combinations(union[1:], m):
            half = (first,) + extra
            total = 0
            for i in half:
                term = wcache[i]
                for j in half:
                    if j != i:
                        term = term * dens[j] % q
                total = (total + term) % q
            if total == 0:
                return False
    return True


def all_merge_systems_invertible(cauchy):
    """Whether every possible round-3 decode system for this matrix is solvable.

    Covers every block a third round could be asked to decode, that is every
    union of two disjoint (M+1)-blocks, regardless of side information,
    demands or random choices.  For l <= 2 this covers all rounds (round-2
    systems are genuine Cauchy submatrices, hence always invertible); the
    systems of rounds 4 and later are not checked.

    The system for a merged block with halves A | B has 2(M+1) unknowns and
    rows: the round-1 column restricted to each half, plus the full columns
    2..2M+1 over the union U.  Row-reducing the two masked rows against the
    unmasked Cauchy columns shows it is invertible iff the residue sum

        sum over i in A of w_i / prod_{k in U, k != i} (x_i - x_k),
        w_i = prod_{j=2..2M+1} (x_i - y_j),

    is nonzero: the terms are the residues of w(z) / prod_{k in U}(z - x_k),
    whose residues over all of U sum to zero, so the test is symmetric in
    the halves.  Write A = H and B = R + {c, d} with |R| = M - 1, and let

        G_R(z) = sum over i in H of
            w_i / (prod_{k in H+R, k != i} (x_i - x_k) * (x_i - z)).

    The partial fraction 1/((x_i - x_c)(x_i - x_d)) =
    (1/(x_i - x_c) - 1/(x_i - x_d)) / (x_c - x_d) turns the residue sum into
    (G_R(x_c) - G_R(x_d)) / (x_c - x_d).  So the matrix is safe iff, for
    every H and R, the values G_R(x_c) are pairwise distinct over the c
    outside H + R.  Each split is visited once: H holds the union's first
    index and R the M - 1 first indices of the other half, so R and c range
    above min H and c above max R.  The same partial fraction with x_r
    builds G_{R+r} from G_R, one subtraction and product per c:

        G_{R+r}(x_c) = (G_R(x_r) - G_R(x_c)) / (x_r - x_c).

    One batch inversion gives every 1/(x_i - x_k), and each c costs one set
    insertion instead of a loop over the pairs it completes.

    The canonical equally-spaced points fail this check for every prime:
    e.g. K=8, M=1 has a merged block whose residue sum is identically zero
    over the integers.
    """
    xs, ys, m = cauchy.x_points, cauchy.y_points, cauchy.m
    k = len(xs)
    if cauchy_module.derive_l(k, m) < 2:
        return True
    q = cauchy.matrix.q
    pairs = list(itertools.combinations(range(k), 2))
    inv = [[0] * k for _ in range(k)]  # inv[i][j] = 1/(x_i - x_j)
    differences = [xs[i] - xs[j] for i, j in pairs]
    for (i, j), d in zip(pairs, cauchy_module._batch_inverse(differences, q)):
        inv[i][j], inv[j][i] = d, q - d
    w = [math.prod(x - y for y in ys[1 : 2 * m + 1]) % q for x in xs]
    for half in itertools.combinations(range(k), m + 1):
        others = [c for c in range(half[0] + 1, k) if c not in half]
        terms = []
        for i in half:
            row = inv[i]
            gamma = w[i]
            for j in half:
                if j != i:
                    gamma = gamma * row[j] % q
            terms.append([gamma * row[c] for c in others])
        # (points, G_R at each point) for every R chosen so far
        level = [(others, [sum(column) % q for column in zip(*terms)])]
        for _ in range(m - 1):
            deeper = []
            for points, values in level:
                for pos in range(len(points) - 2):
                    row, g_r, later = inv[points[pos]], values[pos], points[pos + 1 :]
                    deeper.append(
                        (later, [(g_r - g) * row[c] % q for g, c in zip(values[pos + 1 :], later)])
                    )
            level = deeper
        if any(len(set(values)) < len(values) for _, values in level):
            return False
    return True


def test_merge_invertibility_formula_matches_elimination():
    """The residue-sum check agrees with Gauss elimination of every split.

    At K=8, M=1 over q = 11, 13 and 101, for the canonical points and 100
    seeded random point sets per prime, all_merge_systems_invertible must
    equal the oracle's verdict over all 210 splits.  Both verdicts occur:
    every set fails at q = 11 and 13, and a few pass at q = 101.
    """
    rng = random.Random(2024)
    verdicts = []
    for q in (11, 13, 101):
        point_sets = [canonical_points(q, 8, 1, 2)]
        for _ in range(100):
            points = rng.sample(range(q), 11)
            point_sets.append((tuple(points[:8]), tuple(points[8:])))
        for xs, ys in point_sets:
            cauchy = build_cauchy(8, 1, 2, q, xs, ys)
            expected = all(
                merge_oracle_invertible(cauchy, left, right) for left, right in all_splits(8, 1)
            )
            assert all_merge_systems_invertible(cauchy) == expected, (q, xs, ys)
            verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


def test_golden_field_has_singular_merges(golden_cauchy):
    """q=17 with canonical points admits undecodable merged blocks."""
    assert not merge_oracle_invertible(golden_cauchy, (6, 7, 10), (2, 5, 8))
    assert not all_merge_systems_invertible(golden_cauchy)
    # the fixed example's own merges decode fine, which is why its session works
    assert merge_oracle_invertible(golden_cauchy, (7, 8, 9), (10, 11, 12))
    assert merge_oracle_invertible(golden_cauchy, (1, 2, 3), (4, 5, 6))


def test_canonical_points_fail_at_every_prime():
    """One K=8 merge shape has residue sum zero over the integers itself.

    x = 3..10, y = 0..3: the halves {5,10} and {6,7} of {5,6,7,10} give
    12/-10 + 72/60 = 0, so no choice of prime makes canonical points safe.
    """
    for q in (11, 13, 10007):
        cauchy = build_cauchy(8, 1, 2, q=q)
        assert not merge_oracle_invertible(cauchy, (3, 8), (4, 5))
        assert not all_merge_systems_invertible(cauchy)


# The default-field shapes of three or more rounds that the session tests
# and the benchmark run, each certified here in well under a second.  Only
# for these are the default points known to decode every round-3 system.
# (128, 1) and (256, 1) run too, but take ~0.4 s and ~2.7 s to certify.
CERTIFIED_SHAPES = [(8, 1), (12, 2), (16, 1), (32, 1), (64, 1), (24, 2), (16, 3)]


def test_session_matrices_certified_for_grid():
    """session_cauchy's default points pass the round-3 certificate at every
    shape in CERTIFIED_SHAPES.  The library no longer checks them when it
    draws them, so this is the one place they are certified."""
    for k, m in CERTIFIED_SHAPES:
        cauchy = session_cauchy(ProtocolParams.create(k, m))
        assert cauchy.matrix.q == SESSION_PRIME
        assert all_merge_systems_invertible(cauchy), (k, m)


def test_session_cauchy_policy():
    # two-round schedules keep canonical points in the minimal field
    params = ProtocolParams.create(4, 1)
    assert session_cauchy(params).x_points == canonical_points(7, 4, 1, 1)[0]
    # explicit q keeps canonical points regardless of schedule length
    golden = session_cauchy(ProtocolParams.create(12, 2, q=17))
    assert golden.x_points == canonical_points(17, 12, 2, 2)[0]
    # the seeded default draws the same points, so the matrix cache returns one matrix
    a = session_cauchy(ProtocolParams.create(12, 2))
    b = session_cauchy(ProtocolParams.create(12, 2))
    assert a is b
    assert a.x_points != canonical_points(SESSION_PRIME, 12, 2, 2)[0]


def test_l1_schedules_trivially_certified():
    assert all_merge_systems_invertible(build_cauchy(4, 1, 1, q=7))
    assert all_merge_systems_invertible(build_cauchy(8, 3, 1, q=13))


def test_collision_search_matches_reference_enumeration():
    """The collision search and the split-by-split enumeration agree.

    Seeded random point sets for M = 1, 2 and 3 at fields where both
    verdicts occur (a set passes with probability about exp(-splits / q)),
    plus the session_cauchy sets at SESSION_PRIME, which must pass.  At
    K=16, M=3 a random set passes only for q near 10^6, where the
    enumeration takes seconds, so its passing case is the default set.
    """
    rng = random.Random(13)
    verdicts = {1: set(), 2: set(), 3: set()}
    cases = [(8, 1, 101, 40), (8, 1, 1009, 40), (16, 1, 10007, 20),
             (12, 2, 10007, 30), (12, 2, 30011, 10), (16, 3, 211, 10)]
    for k, m, q, count in cases:
        l = cauchy_module.derive_l(k, m)
        for _ in range(count):
            points = rng.sample(range(q), k + m * l + 1)
            cauchy = build_cauchy(k, m, l, q, tuple(points[:k]), tuple(points[k:]))
            expected = reference_all_merge_systems_invertible(cauchy)
            assert all_merge_systems_invertible(cauchy) == expected, (k, m, q, points)
            verdicts[m].add(expected)
    for k, m in ((8, 1), (12, 2), (16, 3)):
        cauchy = session_cauchy(ProtocolParams.create(k, m))
        assert reference_all_merge_systems_invertible(cauchy)
        assert all_merge_systems_invertible(cauchy)
        verdicts[m].add(True)
    assert verdicts == {1: {False, True}, 2: {False, True}, 3: {False, True}}


def _plant_singular_split(xs, ys, left, right, q):
    """Move y_2 so that the split left | right (1-based) is singular, or None.

    Each term of the residue sum over the left half is (x_i - y_2) a_i, so
    the sum vanishes at y_2 = sum(x_i a_i) / sum(a_i).
    """
    union = left + right
    weights = []
    for i in left:
        xi = xs[i - 1]
        num = 1
        for y in ys[2 : len(union) - 1]:  # y_3 .. y_{2M+1}
            num = num * (xi - y) % q
        den = 1
        for other in union:
            if other != i:
                den = den * (xi - xs[other - 1]) % q
        weights.append((xi, num * pow(den, -1, q) % q))
    total = sum(a for _, a in weights) % q
    if total == 0:
        return None
    y2 = sum(x * a for x, a in weights) * pow(total, -1, q) % q
    if y2 in xs or y2 in ys:
        return None
    return ys[:1] + (y2,) + ys[2:]


@pytest.mark.parametrize("k,m,count", [(8, 1, None), (12, 2, 60), (16, 3, 2)])
def test_collision_search_finds_a_planted_singular_split(k, m, count):
    """A certified set with one split made singular is refused, whichever split.

    At K=8, M=1 every one of the 210 splits is planted in turn, so a split
    the search skipped would pass; larger shapes plant a seeded sample.
    Elimination confirms that the planted split really is singular.
    """
    certified = session_cauchy(ProtocolParams.create(k, m))
    xs, ys = certified.x_points, certified.y_points
    l, q = cauchy_module.derive_l(k, m), SESSION_PRIME
    splits = list(all_splits(k, m))
    if count is not None:
        splits = random.Random(k).sample(splits, count)
    planted = 0
    for left, right in splits:
        moved = _plant_singular_split(xs, ys, left, right, q)
        if moved is None:
            continue
        cauchy = build_cauchy(k, m, l, q, xs, moved)
        assert not merge_oracle_invertible(cauchy, left, right)
        assert not all_merge_systems_invertible(cauchy), (left, right)
        planted += 1
    assert planted >= 0.9 * len(splits)


def test_searched_points_are_unchanged():
    """session_cauchy's seeded draw gives the points that the certifying
    search chose when it ran at start-up (attempt 0 won at each of these
    shapes, and (16, 3)'s were pinned in the library), so no transcript
    byte moved when the search left the library.  The hashes are of those
    points: for K=8 and K=12 of the sets once pinned, for (16, 1), (32, 1)
    and (24, 2) taken before the collision search replaced the enumeration,
    and for (16, 3), (64, 1) and (128, 1) taken from the search itself."""
    expected = {
        (8, 1): "6b4c148522d56bfb0e3733f624969d2e8150826e859263f62c824098249c6a82",
        (12, 2): "2452e9ec6763d67e78dc76255d345fb193fa45e8e30194c079ea667a7d78e5c8",
        (16, 1): "e37e99315f39bf007dcfdad8447a4950d9d9cf49da58646c7f16ff6d0e50d96d",
        (32, 1): "fbefdb93dc3c277bb6791940ba5f921b09492bf3c0fd19bdc034c5f7a6b57360",
        (24, 2): "cbb000d575b215242cbf24d2464e38ea299ec6469e9317f5906aaad75c88e9c5",
        (16, 3): "ac032c85cd72783bfccf8a29df886229dbe586b1fa5545c65afaf013ae044ef7",
        (64, 1): "51191362d745d75a4cee676dfab1d1f706d15ec45ff014fa40a706e5d4a4400d",
        (128, 1): "f6043b5dc10d4e3d6724a6e8981e39a3e7ce1938e27b4fd01ec0bfa1eccda492",
    }
    for (k, m), digest in expected.items():
        cauchy = session_cauchy(ProtocolParams.create(k, m))
        points = repr((cauchy.x_points, cauchy.y_points)).encode()
        assert hashlib.sha256(points).hexdigest() == digest, (k, m)

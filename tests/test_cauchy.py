import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opir import (
    SESSION_PRIME,
    FieldMatrix,
    FieldTooSmall,
    InvalidParams,
    ProtocolParams,
    RoundOutOfRange,
    all_merge_systems_invertible,
    build_cauchy,
    canonical_points,
    matrix_rank,
    next_prime,
    round_column_indices,
    session_cauchy,
)
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
    with pytest.raises(FieldTooSmall):
        build_cauchy(12, 2, 2, q=13)


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
# ---------------------------------------------------------------------------

def merge_oracle_invertible(cauchy, left, right):
    """Assemble the actual mixed system and eliminate: the independent oracle."""
    union = sorted(left + right)
    rows = []
    for blk in (left, right):
        rows.append([cauchy.coeff(u, 1) if u in blk else 0 for u in union])
    for col in range(2, 2 * cauchy.m + 2):
        rows.append([cauchy.coeff(u, col) for u in union])
    return matrix_rank(FieldMatrix(cauchy.field, rows)) == len(union)


def all_splits(k, m):
    for union in itertools.combinations(range(1, k + 1), 2 * (m + 1)):
        for extra in itertools.combinations(union[1:], m):
            left = (union[0],) + extra
            right = tuple(sorted(set(union) - set(left)))
            yield left, right


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


def test_session_matrices_certified_for_grid():
    """Every three-round grid shape ships a fully decode-safe default matrix."""
    for k, m in [(8, 1), (12, 2), (16, 3)]:
        cauchy = session_cauchy(ProtocolParams.create(k, m))
        assert cauchy.field.q == SESSION_PRIME
        assert all_merge_systems_invertible(cauchy)


def test_session_cauchy_policy():
    # two-round schedules keep canonical points in the minimal field
    params = ProtocolParams.create(4, 1)
    assert session_cauchy(params).x_points == canonical_points(7, 4, 1, 1)[0]
    # explicit q keeps canonical points regardless of schedule length
    golden = session_cauchy(ProtocolParams.create(12, 2, q=17))
    assert golden.x_points == canonical_points(17, 12, 2, 2)[0]
    # the certified default is cached
    a = session_cauchy(ProtocolParams.create(12, 2))
    b = session_cauchy(ProtocolParams.create(12, 2))
    assert a is b
    assert a.x_points != canonical_points(SESSION_PRIME, 12, 2, 2)[0]


def test_l1_schedules_trivially_certified():
    assert all_merge_systems_invertible(build_cauchy(4, 1, 1, q=7))
    assert all_merge_systems_invertible(build_cauchy(8, 3, 1, q=13))

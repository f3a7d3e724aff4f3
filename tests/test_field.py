import itertools
import random

import pytest

from opir import (
    DivisionByZero,
    FieldMatrix,
    PrimeField,
    SingularMatrix,
    is_prime,
    matrix_rank,
    next_prime,
    solve_linear_system,
)
from opir.field import combine_packed, pack_row, unpack_row


# ---------------------------------------------------------------------------
# primality helpers
# ---------------------------------------------------------------------------

def test_is_prime_exhaustive_small():
    """Compare against trial division for everything below 2000."""

    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == slow(n), n


def test_is_prime_known_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert not is_prime(561)  # Carmichael number


def test_next_prime():
    assert next_prime(17) == 17
    assert next_prime(18) == 19
    assert next_prime(0) == 2
    assert next_prime(24) == 29


# ---------------------------------------------------------------------------
# prime field
# ---------------------------------------------------------------------------

def test_field_rejects_bad_modulus():
    for bad in (0, 1, 4, 15, 2**31 + 11):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_inverse_exhaustive():
    """Every nonzero element times its inverse is 1, for several fields."""
    for q in (2, 3, 5, 17, 101):
        field = PrimeField(q)
        for a in range(1, q):
            assert a * field.inv(a) % q == 1


def test_inverse_matches_brute_force():
    field = PrimeField(17)
    for a in range(1, 17):
        brute = next(b for b in range(17) if a * b % 17 == 1)
        assert field.inv(a) == brute


def test_inverse_of_zero():
    field = PrimeField(17)
    with pytest.raises(DivisionByZero):
        field.inv(0)
    # callers that only know about the stdlib hierarchy still catch it
    with pytest.raises(ZeroDivisionError):
        field.inv(17)


def test_field_equality_and_hash():
    assert PrimeField(17) == PrimeField(17)
    assert PrimeField(17) != PrimeField(19)
    assert len({PrimeField(17), PrimeField(17), PrimeField(19)}) == 2


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def brute_force_solutions(field, rows, rhs):
    """All solution vectors of a small system, by trying every vector."""
    n = len(rows[0])
    out = []
    for cand in itertools.product(range(field.q), repeat=n):
        if all(
            sum(r * c for r, c in zip(row, cand)) % field.q == b
            for row, b in zip(rows, rhs)
        ):
            out.append(list(cand))
    return out


def cramer_2x2(q, rows, col):
    """The solution of a 2x2 system by Cramer's rule mod q, or None if singular."""
    (a, b), (c, d) = rows
    det = (a * d - b * c) % q
    if not det:
        return None
    inv = pow(det, -1, q)
    return [(d * col[0] - b * col[1]) * inv % q, (a * col[1] - c * col[0]) * inv % q]


def test_solve_matches_brute_force_f5():
    """Exhaust every 2x2 system over F_5 against trying all 25 vectors.

    A block right-hand side is solved column by column: each column of the
    result must be that column's brute-force solution, for one-column
    blocks and for a two-column one.  Random blocks of 1,
    3 and 256 columns at q = 17 and q = 2^31 - 1 are checked the same way
    against Cramer's rule, singular matrices included.
    """
    field = PrimeField(5)
    block = [[1, 2], [0, 3]]
    for a, b, c, d in itertools.product(range(5), repeat=4):
        rows = [[a, b], [c, d]]
        matrix = FieldMatrix(field, rows)
        for rhs in ([1, 0], [2, 3]):
            expected = brute_force_solutions(field, rows, rhs)
            column = [[v] for v in rhs]
            if len(expected) == 1:
                assert solve_linear_system(matrix, column) == [[v] for v in expected[0]]
            else:
                with pytest.raises(SingularMatrix):
                    solve_linear_system(matrix, column)
        columns = [brute_force_solutions(field, rows, col) for col in zip(*block)]
        if all(len(sols) == 1 for sols in columns):
            solved = solve_linear_system(matrix, block)
            assert [list(col) for col in zip(*solved)] == [sols[0] for sols in columns]
        else:
            with pytest.raises(SingularMatrix):
                solve_linear_system(matrix, block)
    rng = random.Random(5)
    for q in (17, 2**31 - 1):
        field = PrimeField(q)
        for symbols in (1, 3, 256):
            for trial in range(8):
                a, b, c, d = (rng.randrange(q) for _ in range(4))
                # the first system of each size is singular: row 2 = 2 * row 1
                rows = [[a, b], [2 * a % q, 2 * b % q] if trial == 0 else [c, d]]
                block = [
                    [rng.choice((0, q - 1, rng.randrange(q))) for _ in range(symbols)]
                    for _ in range(2)
                ]
                columns = [cramer_2x2(q, rows, col) for col in zip(*block)]
                matrix = FieldMatrix(field, rows)
                if columns[0] is None:
                    with pytest.raises(SingularMatrix):
                        solve_linear_system(matrix, block)
                else:
                    solved = solve_linear_system(matrix, block)
                    assert [list(col) for col in zip(*solved)] == columns


def test_solve_known_3x3():
    # x=2, y=3, z=5 over F_17
    field = PrimeField(17)
    matrix = FieldMatrix(field, [[1, 1, 1], [2, 1, 0], [0, 3, 2]])
    rhs = [[10], [7], [2]]
    assert solve_linear_system(matrix, rhs) == [[2], [3], [5]]


def test_solve_rejects_non_square():
    field = PrimeField(5)
    with pytest.raises(ValueError):
        solve_linear_system(FieldMatrix(field, [[1, 2]]), [[1]])


def test_solve_rejects_ragged_block():
    field = PrimeField(5)
    with pytest.raises(ValueError):
        solve_linear_system(FieldMatrix(field, [[1, 0], [0, 1]]), [[1, 2], [3]])


def test_combine_rows_reduces_to_residues():
    rows = [pack_row([1, 2, 3]), pack_row([4, 0, 16])]
    assert combine_packed([3, -5], rows, 3, 17) == [(3 - 20) % 17, 6, (9 - 80) % 17]


@pytest.mark.parametrize("symbols", [1, 256])
def test_pack_row_round_trip(symbols):
    q = 2**31 - 1
    rng = random.Random(symbols)
    row = [rng.choice((0, 1, q - 1, rng.randrange(q))) for _ in range(symbols)]
    assert unpack_row(pack_row(row), symbols, q) == row


@pytest.mark.parametrize("symbols", [1, 3])
def test_combine_rows_worst_case_slot(symbols):
    """The most a slot can hold: 65535 terms (the K cap) of (q-1)·(q-1) at q = 2^31 - 1."""
    q = 2**31 - 1
    terms = 65535
    expected = terms * (q - 1) ** 2 % q
    result = combine_packed([q - 1] * terms, [pack_row([q - 1] * symbols)] * terms, symbols, q)
    assert result == [expected] * symbols


def span_size_rank(field, rows):
    """Independent rank oracle: rank = log_q of the row span's size."""
    span = {tuple([0] * len(rows[0]))}
    for row in rows:
        new = set(span)
        for scale in range(1, field.q):
            scaled = [scale * r % field.q for r in row]
            for vec in span:
                new.add(tuple((v + s) % field.q for v, s in zip(vec, scaled)))
        span = new
        while True:
            grown = set(span)
            for u in span:
                for v in span:
                    grown.add(tuple((a + b) % field.q for a, b in zip(u, v)))
            if grown == span:
                break
            span = grown
    size = len(span)
    rank = 0
    while field.q**rank < size:
        rank += 1
    assert field.q**rank == size
    return rank


def test_rank_matches_span_oracle_f2():
    field = PrimeField(2)
    for bits in range(2**9):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        assert matrix_rank(FieldMatrix(field, rows)) == span_size_rank(field, rows)


def test_rank_matches_span_oracle_f3():
    field = PrimeField(3)
    rng = random.Random(9)
    for _ in range(200):
        rows = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
        assert matrix_rank(FieldMatrix(field, rows)) == span_size_rank(field, rows)


def test_matrix_helpers():
    field = PrimeField(7)
    eye = FieldMatrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert matrix_rank(eye) == 3
    assert matrix_rank(FieldMatrix(field, [[0] * 4] * 2)) == 0
    m = FieldMatrix(field, [[1, 2, 3], [4, 5, 6]])
    assert m.row(1) == (4, 5, 6)
    assert m.submatrix([1], [0, 2]).row(0) == (4, 6)
    assert m.at(0, 1) == 2

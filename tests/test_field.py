import itertools
import random

import pytest

from opir import AnswerMismatch, InvalidParams, SingularMatrix, is_prime, matrix_rank
from opir.field import (
    FieldMatrix,
    check_modulus,
    eliminate,
    is_canonical,
    is_canonical_packed,
    next_prime,
    pack_row,
    packed_sum,
    reduce_packed,
    solve_linear_system,
    split_row,
)
from opir.protocol import (
    Client,
    Database,
    ProtocolParams,
    RoundAnswer,
    Server,
    SideInformation,
)


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
    """check_modulus is the one modulus check: an int, prime, below 2^31."""
    for bad in (0, 1, 4, 15, 561, 2**31, 4294967291, -7, 17.0, "17", None, True):
        with pytest.raises(InvalidParams):
            check_modulus(bad)
    for good in (2, 3, 17, 65521, 2**31 - 1):
        check_modulus(good)
    # a matrix over a composite modulus is refused the same way
    with pytest.raises(InvalidParams):
        FieldMatrix(15, [[1, 2], [3, 4]])


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def brute_force_solutions(q, rows, rhs):
    """All solution vectors of a small system, by trying every vector."""
    n = len(rows[0])
    out = []
    for cand in itertools.product(range(q), repeat=n):
        if all(
            sum(r * c for r, c in zip(row, cand)) % q == b
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


def packed(block):
    return [pack_row(row) for row in block]


def test_solve_matches_brute_force_f5():
    """Exhaust every 2x2 system over F_5 against trying all 25 vectors.

    A block right-hand side is solved column by column: each column of the
    result must be that column's brute-force solution, for one-column
    blocks and for a two-column one.  Random blocks of 1,
    3 and 256 columns at q = 17 and q = 2^31 - 1 are checked the same way
    against Cramer's rule, singular matrices included; there each
    right-hand row comes in as an unreduced packed sum, as the client's
    chain subtraction leaves it.  Solutions are compared as packed rows, so
    every slot must come back reduced.
    """
    q = 5
    block = [[1, 2], [0, 3]]
    for a, b, c, d in itertools.product(range(5), repeat=4):
        rows = [[a, b], [c, d]]
        matrix = FieldMatrix(q, rows)
        for rhs in ([1, 0], [2, 3]):
            expected = brute_force_solutions(q, rows, rhs)
            column = packed([v] for v in rhs)
            if len(expected) == 1:
                assert solve_linear_system(matrix, column, 1) == packed([v] for v in expected[0])
            else:
                with pytest.raises(SingularMatrix):
                    solve_linear_system(matrix, column, 1)
        columns = [brute_force_solutions(q, rows, col) for col in zip(*block)]
        if all(len(sols) == 1 for sols in columns):
            solved = solve_linear_system(matrix, packed(block), 2)
            assert solved == packed(zip(*(sols[0] for sols in columns)))
        else:
            with pytest.raises(SingularMatrix):
                solve_linear_system(matrix, packed(block), 2)
    rng = random.Random(5)
    for q in (17, 2**31 - 1):
        for symbols in (1, 3, 256):
            # q·(q-1) in every slot, 65534 times: a multiple of q that keeps
            # each right-hand slot below the 2^78 bound of a packed sum
            padding = 65534 * q * pack_row([q - 1] * symbols)
            for trial in range(8):
                a, b, c, d = (rng.randrange(q) for _ in range(4))
                # the first system of each size is singular: row 2 = 2 * row 1
                rows = [[a, b], [2 * a % q, 2 * b % q] if trial == 0 else [c, d]]
                block = [
                    [rng.choice((0, q - 1, rng.randrange(q))) for _ in range(symbols)]
                    for _ in range(2)
                ]
                rhs = [row + padding for row in packed(block)]
                columns = [cramer_2x2(q, rows, col) for col in zip(*block)]
                matrix = FieldMatrix(q, rows)
                if columns[0] is None:
                    with pytest.raises(SingularMatrix):
                        solve_linear_system(matrix, rhs, symbols)
                else:
                    solved = solve_linear_system(matrix, rhs, symbols)
                    assert solved == packed(zip(*columns))


def test_solve_known_3x3():
    # x=2, y=3, z=5 over F_17
    matrix = FieldMatrix(17, [[1, 1, 1], [2, 1, 0], [0, 3, 2]])
    rhs = [pack_row([10]), pack_row([7]), pack_row([2])]
    assert solve_linear_system(matrix, rhs, 1) == [2, 3, 5]


def test_solve_rejects_non_square():
    with pytest.raises(ValueError):
        solve_linear_system(FieldMatrix(5, [[1, 2]]), [pack_row([1])], 1)


def test_solve_rejects_ragged_block():
    """A right-hand row with more slots than `symbols`, or a negative one."""
    matrix = FieldMatrix(5, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        solve_linear_system(matrix, [pack_row([1, 2]), pack_row([3])], 1)
    with pytest.raises(ValueError):
        solve_linear_system(matrix, [pack_row([1]), -1], 1)


def reduce_edges(q):
    """Slot values at the edges of reduce_packed's paths and call-site bounds."""
    return [
        0, q - 1, q, 2 * q - 1, 2**62, 2**64 - 1, 2**64, 2**78 - 1,
        65535 * (q - 1) ** 2, 2**125, 2**126 - 1,
    ]


@pytest.mark.parametrize("symbols", [1, 2, 256])
@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 65521, 2**31 - 1])
def test_reduce_packed_matches_mod(q, symbols):
    """Every slot comes back as slot % q, compared as packed rows so a slot
    left at or above q, or above 2^64, shows.  At bits 126, slots run from 0
    to 2^126 - 1, past the 2^78 bound of a packed sum and the 2^125 of a
    solver combination; half the random ones are moved to residue q - 1,
    where a quotient too large by a fraction of 1/q would round up.
    Rounding the quotient multiplier down instead of up fails this test,
    and so does leaving out the fold at 62 bits.  Each fold path (bits 63,
    93 and 126, and 64, the first bound that needs a fold) also runs at its
    edges 0, q - 1 and 2^bits - 1 and at random slots moved to residue
    q - 1, and a bound above 126 is refused.  The bound each call site
    passes is checked on its worst case: the server's |B|-term packet at
    62 + (|B| - 1).bit_length() (no fold at |B| <= 2) and a 2^16-term p row
    at 78."""
    rng = random.Random(q * symbols)

    def check(slots, bits):
        for trial in range(len(slots)):
            # each value in every slot position, then random mixtures
            row = [slots[(trial + j) % len(slots)] for j in range(symbols)]
            if trial % 2:
                rng.shuffle(row)
            value = sum(v << 128 * j for j, v in enumerate(row))
            assert reduce_packed(value, symbols, q, bits) == pack_row([v % q for v in row]), row

    edges = reduce_edges(q)
    randoms = [rng.randrange(2**78) for _ in range(20)] + [
        rng.randrange(q, 2**126 - q) for _ in range(20)
    ]
    check(edges + randoms + [v - v % q + q - 1 for v in randoms], 126)
    for bits in (63, 64, 93, 126):
        randoms = [rng.randrange(2**bits) for _ in range(10)]
        check([0, q - 1, 2**bits - 1] + randoms + [v - v % q + q - 1 for v in randoms], bits)
    with pytest.raises(ValueError):
        reduce_packed(0, symbols, q, 127)

    top = pack_row([q - 1] * symbols)
    packets = [(n, 62 + (n - 1).bit_length()) for n in (1, 2, 3, 4, 5, 65535)]
    for n, bits in packets + [(1 << 16, 78)]:
        value = packed_sum([q - 1] * n, [top] * n, q)
        assert reduce_packed(value, symbols, q, bits) == pack_row([n * (q - 1) ** 2 % q] * symbols)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 65521, 2**31 - 1])
def test_one_slot_reduction_is_slot_zero_of_two(q):
    """At one symbol reduce_packed takes its own path (one % q); for every
    edge value and every fold bound that holds it, the result is slot 0 of
    the general path's two-symbol result, whatever slot 1 holds, and a
    bound above 126 is refused on both paths."""
    edges = reduce_edges(q)
    for bits in (63, 64, 93, 126):
        fits = [v for v in edges if v < 2**bits]
        for v, other in zip(fits, fits[::-1]):
            two = reduce_packed(v + (other << 128), 2, q, bits)
            assert reduce_packed(v, 1, q, bits) == split_row(two, 2)[0] == v % q, (v, bits)
    for symbols in (1, 2):
        with pytest.raises(ValueError):
            reduce_packed(0, symbols, q, 127)


@pytest.mark.parametrize("q", [17, 2**31 - 1])
def test_one_slot_row_is_its_residue(q):
    """A one-symbol row packs to its residue and splits back to it, and
    the packed residue rule at one slot agrees with the two-slot rule on
    slot 0."""
    for v in (0, 1, q - 1):
        assert pack_row([v]) == v
        assert split_row(v, 1) == [v]
        assert split_row(pack_row([v, q - 1]), 2)[0] == v
    for v in (-1, 0, q - 1, q, 2**64 - 1, 2**64, 1 << 128):
        assert is_canonical_packed(v, 1, q) == (0 <= v < q)
        if 0 <= v < 2**64:
            assert is_canonical_packed(v, 1, q) == is_canonical_packed(v + (1 << 128), 2, q)


@pytest.mark.parametrize("row", [[-1], [2**64], [0, -1], [2**64, 0]])
def test_pack_row_refuses_values_outside_a_slot(row):
    """OverflowError for a value outside [0, 2^64), at one symbol as at
    two: RoundAnswer.packed turns that error into a row no check accepts."""
    with pytest.raises(OverflowError):
        pack_row(row)


@pytest.mark.parametrize("bad", [-1, 17, 2**64 - 1, 2**64, 2**70])
def test_one_symbol_answer_out_of_range_is_refused(bad):
    """A caller's one-symbol RoundAnswer holding a value outside [0, q)
    decodes to AnswerMismatch, not to a residue reduced from it."""
    params = ProtocolParams.create(12, 2, q=17)
    database = Database.random(12, 1, 17, random.Random(3))
    server = Server(database, params)
    client = Client(params, SideInformation.from_database(database, [2, 3]), server.cauchy)
    answer = server.answer(client.build_query(1))
    packets = ((bad,),) + answer.packets[1:]
    with pytest.raises(AnswerMismatch, match="residues mod q"):
        client.decode_answer(RoundAnswer(1, packets))
    assert client.decode_answer(answer)


def combine(coeffs, packed, symbols, q):
    """The residues of sum_j coeffs[j]·packed[j] mod q, as the server makes a packet."""
    return split_row(reduce_packed(packed_sum(coeffs, packed, q), symbols, q, 126), symbols)


def test_combine_rows_reduces_to_residues():
    rows = [pack_row([1, 2, 3]), pack_row([4, 0, 16])]
    assert combine([3, -5], rows, 3, 17) == [(3 - 20) % 17, 6, (9 - 80) % 17]


@pytest.mark.parametrize("symbols", [1, 256])
def test_pack_row_round_trip(symbols):
    q = 2**31 - 1
    rng = random.Random(symbols)
    row = [rng.choice((0, 1, q - 1, rng.randrange(q))) for _ in range(symbols)]
    assert combine([1], [pack_row(row)], symbols, q) == row


@pytest.mark.parametrize("symbols", [1, 3])
def test_combine_rows_worst_case_slot(symbols):
    """The most a slot can hold: 65535 terms (the K cap) of (q-1)·(q-1) at q = 2^31 - 1."""
    q = 2**31 - 1
    terms = 65535
    expected = terms * (q - 1) ** 2 % q
    result = combine([q - 1] * terms, [pack_row([q - 1] * symbols)] * terms, symbols, q)
    assert result == [expected] * symbols


@pytest.mark.parametrize("symbols", [1, 2, 256])
@pytest.mark.parametrize("q", [2, 3, 65521, 2**31 - 1])
def test_is_canonical_packed_matches_is_canonical(q, symbols):
    """The packed residue rule agrees with is_canonical on rows of `symbols`
    slots that hold the edge values among residues, and refuses a negative
    row and a row wider than `symbols` slots."""
    edges = [0, q - 1, q, 2**64 - 1, 2**64, 2**127]
    rng = random.Random(q * symbols)
    for trial in range(4 * len(edges)):
        # each edge value in one slot among residues, then random mixtures
        row = [rng.randrange(q) for _ in range(symbols)]
        row[trial % symbols] = edges[trial % len(edges)]
        if trial >= len(edges):
            row = [rng.choice(edges) if rng.random() < 0.1 else v for v in row]
        value = sum(v << 128 * j for j, v in enumerate(row))
        assert is_canonical_packed(value, symbols, q) == is_canonical(row, q), row
    residues = [rng.randrange(q) for _ in range(symbols + 1)]
    assert is_canonical_packed(pack_row(residues[:symbols]), symbols, q)
    assert not is_canonical_packed(pack_row(residues[:symbols] + [1]), symbols, q)
    assert not is_canonical_packed(1 << 128 * symbols, symbols, q)
    for negative in (-1, -q, -pack_row(residues[:symbols]) - 1, -(1 << 128 * symbols)):
        assert not is_canonical_packed(negative, symbols, q)


def span_size_rank(q, rows):
    """Independent rank oracle: rank = log_q of the row span's size."""
    span = {tuple([0] * len(rows[0]))}
    for row in rows:
        new = set(span)
        for scale in range(1, q):
            scaled = [scale * r % q for r in row]
            for vec in span:
                new.add(tuple((v + s) % q for v, s in zip(vec, scaled)))
        span = new
        while True:
            grown = set(span)
            for u in span:
                for v in span:
                    grown.add(tuple((a + b) % q for a, b in zip(u, v)))
            if grown == span:
                break
            span = grown
    size = len(span)
    rank = 0
    while q**rank < size:
        rank += 1
    assert q**rank == size
    return rank


def test_rank_matches_span_oracle_f2():
    q = 2
    for bits in range(2**9):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        assert matrix_rank(FieldMatrix(q, rows)) == span_size_rank(q, rows)


def test_rank_matches_span_oracle_f3():
    q = 3
    rng = random.Random(9)
    for _ in range(200):
        rows = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
        assert matrix_rank(FieldMatrix(q, rows)) == span_size_rank(q, rows)


def test_eliminate_splits_a_wide_matrix_at_its_pivots():
    """For random k x n matrices (k <= n) over small fields, single rows
    included: S is the first-nonzero pivot order, A_S^-1·A_S = I and the
    rest is A_S^-1·A_F, entries reduced; SingularMatrix exactly when
    matrix_rank says rank < k.  Rows may arrive unreduced."""
    rng = random.Random(22)
    singular = 0
    for _ in range(600):
        q = rng.choice((2, 3, 5, 7, 2**31 - 1))
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.3:
            rows[-1] = [0] * n if k == 1 else [(2 * v) % q for v in rows[0]]
        loose = [[v + q * rng.randrange(4) for v in row] for row in rows]
        if matrix_rank(FieldMatrix(q, rows)) < k:
            singular += 1
            with pytest.raises(SingularMatrix):
                eliminate(loose, q)
            continue
        pivots, free, inverse, rest = eliminate(loose, q)
        assert sorted(pivots + free) == list(range(n)) and free == sorted(free)
        # each pivot column is the first one independent of those before it
        for c in range(n):
            earlier = [col for col in pivots if col < c]
            before = matrix_rank(FieldMatrix(q, [[row[j] for j in earlier] for row in rows]))
            after = matrix_rank(FieldMatrix(q, [[row[j] for j in earlier + [c]] for row in rows]))
            assert (c in pivots) == (after > before)
        for a_cols, expected in ((pivots, None), (free, rest)):
            product = [
                [sum(e * rows[s][c] for s, e in enumerate(inv_row)) % q for c in a_cols]
                for inv_row in inverse
            ]
            if expected is None:
                assert product == [[int(i == j) for j in range(k)] for i in range(k)]
            else:
                assert product == expected
        assert all(0 <= v < q for row in inverse + rest for v in row)
    assert singular > 50


def test_matrix_helpers():
    q = 7
    eye = FieldMatrix(q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert matrix_rank(eye) == 3
    assert matrix_rank(FieldMatrix(q, [[0] * 4] * 2)) == 0
    m = FieldMatrix(q, [[1, 2, 3], [4, 5, 6]])
    assert m.row(1) == (4, 5, 6)
    assert m.submatrix([1], [0, 2]).row(0) == (4, 6)
    assert m.row(0)[1] == 2


def row_echelon_rank(q, rows):
    """Reference rank: row echelon form with row swaps and eager reduction."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [v * inv % q for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col]
                rows[r] = [(vr - f * vc) % q for vr, vc in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@pytest.mark.parametrize("q", [2, 3, 5, 17, 101, 2**31 - 1])
def test_rank_matches_row_echelon_reference(q):
    """The Gauss-Jordan rank against row echelon form on random matrices of
    0..7 rows by 0..7 columns, many with rows forced to be combinations of
    earlier ones."""
    rng = random.Random(q)
    for _ in range(300):
        n_rows, n_cols = rng.randrange(8), rng.randrange(8)
        rows = []
        for _ in range(n_rows):
            if rows and rng.random() < 0.5:
                coeffs = [rng.randrange(q) for _ in rows]
                combo = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(n_cols)]
                rows.append([v % q for v in combo])
            else:
                rows.append([rng.randrange(q) for _ in range(n_cols)])
        matrix = FieldMatrix(q, rows)
        assert matrix_rank(matrix) == row_echelon_rank(q, rows), rows

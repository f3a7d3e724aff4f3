"""Exact arithmetic over prime fields, plus the dense linear algebra built on it.

Everything in this module is integer math: field elements are canonical
residues in [0, q), matrices are row-major grids of residues, and the solver
and rank routines run plain Gaussian elimination mod q.  No floating point is
used anywhere, so every result is exact and identical across platforms.

A message is a row of S residues on which scalar coefficients act
componentwise; no extension-field multiplication is ever needed or provided.
To combine whole messages at once, `pack_row` lays a row out as one Python
int with a 128-bit slot per symbol, so sum_j c_j·m_j over packed rows is one
big-int multiply-add per message, and `unpack_row` reduces each slot mod q
once at the end.  The slot bound that makes this exact is stated next to
`pack_row`.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence

from .errors import DivisionByZero, SingularMatrix

# Keeping q below 2^31 means every product of two residues fits in a native
# 64-bit integer; desk-scale parameters never get anywhere near this.
MAX_MODULUS = 1 << 31

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


class PrimeField:
    """The prime field F_q.

    Arithmetic methods take and return canonical residues (plain ints in
    [0, q)).
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q):
            raise ValueError(f"field modulus must be prime, got {q!r}")
        if q >= MAX_MODULUS:
            raise ValueError(f"field modulus {q} exceeds the 2^31 cap")
        self.q = q

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return pow(a, -1, self.q)


class FieldMatrix:
    """Dense row-major matrix of canonical residues over one field.

    Row and column indices are 0-based; this is generic linear algebra, not
    the 1-based message-index convention used by the protocol layer.
    """

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field: PrimeField, data: Sequence[Sequence[int]]):
        q = field.q
        rows = [tuple(v % q for v in row) for row in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows in matrix data")
        else:
            width = 0
        self.field = field
        self.rows = len(rows)
        self.cols = width
        self._data = tuple(rows)

    def at(self, row: int, col: int) -> int:
        return self._data[row][col]

    def row(self, row: int) -> tuple[int, ...]:
        return self._data[row]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix(
            self.field, [[self._data[r][c] for c in col_idx] for r in row_idx]
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and other.field == self.field
            and other._data == self._data
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self._data))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols} over F_{self.field.q})"


# Packed rows.  Symbol i of a row sits in bits [128·i, 128·i + 128) of one
# int.  Every packed input holds canonical residues < q < 2^31 (MAX_MODULUS)
# and combine_packed reduces every coefficient into [0, q) before it
# multiplies, so each product is < 2^62 and no slot ever goes negative; a
# subtraction of c·m is a multiply by (q - c).  No combination has more than
# 65535 terms, because ProtocolParams caps K (and so every block and decode
# system) at 65535, so a slot holds < 2^62 · 2^16 = 2^78 and never carries
# into the next one.
_SLOT_BYTES = 16

# array("Q") words are in native byte order while the packed int is read and
# written little-endian, so a big-endian host byteswaps the words.
_BIG_ENDIAN = sys.byteorder == "big"


def pack_row(row: Sequence[int]) -> int:
    """One int holding `row`'s residues, one 128-bit slot per symbol."""
    words = array("Q", bytes(_SLOT_BYTES * len(row)))
    words[::2] = array("Q", row)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


def unpack_row(value: int, symbols: int, q: int) -> list[int]:
    """The `symbols` residues mod q of a packed combination (see pack_row)."""
    words = array("Q", value.to_bytes(_SLOT_BYTES * symbols, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    wrap = (1 << 64) % q
    return [(lo + hi * wrap) % q for lo, hi in zip(words[::2], words[1::2])]


def combine_packed(coeffs: Sequence[int], packed: Sequence[int], symbols: int, q: int) -> list[int]:
    """The residues of sum_j coeffs[j]·packed[j] mod q, for rows packed by pack_row.

    Any integer coefficient is accepted; each is reduced into [0, q) first,
    so a negative one subtracts without a slot going negative.
    """
    return unpack_row(sum(c % q * p for c, p in zip(coeffs, packed)), symbols, q)


def solve_linear_system(matrix: FieldMatrix, rhs: Sequence[Sequence[int]]) -> list[list[int]]:
    """Solve A·X = B exactly over the matrix's field.

    `rhs` is a block B of n rows of S canonical residues each (S right-hand
    sides side by side), and X comes back as n rows of S residues.  Raises
    :class:`SingularMatrix` when A is not invertible.

    One Gauss-Jordan pass over [A | I] gives A^-1, then each row of X is one
    packed combination of the rows of B.  The pivot for each column is the
    first row, in the original order, that is not yet a pivot and has a
    nonzero entry there; the order is fixed, so results are identical across
    runs and platforms.  Rows are not swapped, and [A | I] is kept in n x n
    cells: once column j of A is eliminated it is a unit vector, and its
    cell holds column pivots[j] of the right half, which was a unit vector
    until then.  So row pivots[c] ends as row c of A^-1, with its entries
    in pivot order.  Only the pivot row is reduced mod q at each step: any
    other row update adds less than q^2 per entry, and the entries of A^-1
    are reduced as they are combined.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("solve requires a square matrix")
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match matrix")
    field = matrix.field
    q = field.q
    n = matrix.rows
    symbols = len(rhs[0]) if rhs else 0
    if any(len(row) != symbols for row in rhs):
        raise ValueError("ragged rows in right-hand side")
    cells = [list(matrix.row(r)) for r in range(n)]
    free = list(range(n))
    pivots: list[int] = []
    for col in range(n):
        p = next((r for r in free if cells[r][col] % q), None)
        if p is None:
            raise SingularMatrix(f"matrix has rank < {n}")
        free.remove(p)
        pivots.append(p)
        inv = field.inv(cells[p][col])
        cells[p][col] = 1
        cells[p] = [v * inv % q for v in cells[p]]
        for r in range(n):
            f = cells[r][col] % q
            if r != p and f:
                cells[r][col] = 0
                cells[r] = [vr - f * vp for vr, vp in zip(cells[r], cells[p])]
    packed = [pack_row(rhs[p]) for p in pivots]
    return [combine_packed(cells[p], packed, symbols, q) for p in pivots]


def matrix_rank(matrix: FieldMatrix) -> int:
    """Row rank by Gaussian elimination over the matrix's field."""
    field = matrix.field
    q = field.q
    rows = [list(matrix.row(r)) for r in range(matrix.rows)]
    rank = 0
    for col in range(matrix.cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [v * inv % q for v in rows[rank]]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col]
                rows[r] = [(vr - f * vc) % q for vr, vc in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank

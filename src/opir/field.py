"""Exact arithmetic over prime fields, plus the dense linear algebra built on it.

A field F_q is named by its modulus alone: q is a plain int that
`check_modulus` accepts, and an element is a canonical residue in [0, q),
which `is_canonical` decides for every caller that takes residues from
outside (a database, side information, a packet, a coding point), and
`is_canonical_packed` for a packet kept packed.  An
inverse is `pow(a, -1, q)`; nothing here inverts zero, since elimination
inverts only nonzero pivots.  Matrices are row-major grids of residues,
and the solver, the rank routine and `eliminate` (a wide matrix split at
its pivots, which the client's merge-tree decode runs on M-row systems)
share one Gauss-Jordan elimination mod q.  No floating point is used
anywhere, so every result is exact and identical across platforms.

A message is a row of S residues on which scalar coefficients act
componentwise; no extension-field multiplication is ever needed or provided.
To combine whole messages at once, `pack_row` lays a row out as one Python
int with a 128-bit slot per symbol, so sum_j c_j·m_j over packed rows is one
big-int multiply-add per message.  `reduce_packed` then takes every slot
mod q with 5, 10 or 15 whole-int operations and no loop over the
symbols: its caller passes the slot bound it has proven, and only the
folds that bound needs run.  `split_row` reads the reduced slots out.
A one-symbol row is its residue itself, so at one slot each of these is
plain residue arithmetic: the reduction is one `%`.
`is_canonical_packed` is the packed form of the residue rule, for rows
that stay packed from the server's combination to the client's decode.  `solve_linear_system`
(a dense solve on packed rows, which the client no longer calls) is the
tests' reference for the merge-tree decode and a point the benchmark's
tracer wraps.  The slot bounds that make this exact are stated next to
`pack_row`.
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array
from collections.abc import Iterable, Sequence

from .errors import InvalidParams, SingularMatrix

# Keeping q below 2^31 means every product of two residues fits in a native
# 64-bit integer; desk-scale parameters never get anywhere near this.
MAX_MODULUS = 1 << 31

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# check_modulus runs for every ProtocolParams, Database, FieldMatrix and
# build_cauchy, and a session or audit makes many of them for one q, so each
# modulus is tested once per process.  The memo is bounded: a peer that
# names a new q in every HELLO only evicts older entries.  typed=True keeps
# 17.0 and True apart from 17 and 1.
@functools.lru_cache(maxsize=256, typed=True)
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


def check_modulus(q: int) -> None:
    """InvalidParams unless q is an int that is prime and below MAX_MODULUS (2^31)."""
    if not isinstance(q, int):
        raise InvalidParams(f"field modulus must be an integer, got {q!r}")
    if q >= MAX_MODULUS:
        raise InvalidParams(f"q={q} exceeds the field cap 2^31")
    if not is_prime(q):
        raise InvalidParams(f"q={q} is not prime")


def is_canonical(values: Sequence[int], q: int) -> bool:
    """True when every value is a residue in [0, q); min/max run at C speed."""
    return not values or (0 <= min(values) and max(values) < q)


class FieldMatrix:
    """Dense row-major matrix of canonical residues over F_q.

    Row and column indices are 0-based; this is generic linear algebra, not
    the 1-based message-index convention used by the protocol layer.
    """

    __slots__ = ("q", "rows", "cols", "_data")

    def __init__(self, q: int, data: Sequence[Sequence[int]]):
        check_modulus(q)
        rows = [tuple(v % q for v in row) for row in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows in matrix data")
        else:
            width = 0
        self.q = q
        self.rows = len(rows)
        self.cols = width
        self._data = tuple(rows)

    def row(self, row: int) -> tuple[int, ...]:
        return self._data[row]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix(self.q, [[self._data[r][c] for c in col_idx] for r in row_idx])

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols} over F_{self.q})"


# Packed rows.  Symbol i of a row sits in bits [128·i, 128·i + 128) of one
# int.  Every packed input holds canonical residues < q < 2^31 (MAX_MODULUS)
# and packed_sum reduces every coefficient into [0, q) before it
# multiplies, so each product is < 2^62 and no slot ever goes negative; a
# subtraction of c·m is a multiply by (q - c).  No combination has more than
# 65535 terms, because ProtocolParams caps K (and so every block and decode
# system) at 65535, so a slot holds < 2^62 · 2^16 = 2^78 and never carries
# into the next one.  solve_linear_system combines rows that may themselves
# be such combinations, which stays below 2^16 · 2^31 · 2^78 = 2^125;
# reduce_packed is exact for any slot below 2^126.
#
# The client's merge-tree decode (protocol._decode_tree) keeps each node's
# responses s to the columns still ahead unreduced.  A leaf's s is a
# reduced coefficient times its packet (< 2^62), and a merge adds its
# halves' s and M products of reduced residues, so a block's s sums fewer
# than |B| <= K < 2^16 products and stays below 2^78.  A merge's t
# combines M packets and M sums of both halves' s, and the root's z
# combines M right-hand sides (this round's packets less the chain's
# messages, < 2^78) and M values of s, each with reduced coefficients and
# 2M < 2^16, so both stay below 2^16 · 2^31 · 2^78 = 2^125.  Going down
# the tree combines reduced values only: w_S is t less M products H·z, and
# a leaf's first member is its packet times an inverse less M products,
# so M + 1 products stay below 2^(62 + M.bit_length()).  At round 1, a
# right-hand side times an inverse is the demand (< 2^109).
#
# So each reduce_packed call passes, as `bits`, a bound that follows from
# public shape alone (block size, M and round), never from the values:
#   - Server.answer: a packet of a |B|-message block sums |B| products,
#     < |B|·2^62 <= 2^bits with bits = 62 + (|B| - 1).bit_length(), which
#     is 63 (no fold) for a round-1 block at M = 1 and at most 78;
#   - Client.decode_answer: the demand, bits 126, at round 1;
#   - protocol._decode_tree: a merge's t and the root's z, bits 126, and
#     each w_S and each leaf's first member, bits 62 + M.bit_length();
#   - solve_linear_system's rows: bits 126.
_SLOT_BYTES = 16

# array("Q") words are in native byte order while the packed int is read and
# written little-endian, so a big-endian host byteswaps the words.
_BIG_ENDIAN = sys.byteorder == "big"

# A packed int written in native byte order and read as 64-bit words holds
# each slot's low word at even positions from the front on a little-endian
# host, and at odd positions counted from the back, slot 0 last, on a
# big-endian one.
_LOW_WORDS = slice(None, None, -2 if _BIG_ENDIAN else 2)


def pack_row(row: Sequence[int]) -> int:
    """One int holding `row`'s residues, one 128-bit slot per symbol.

    OverflowError for a value outside [0, 2^64), which no slot holds.  A
    one-slot row is its residue.
    """
    if len(row) == 1:
        value = operator.index(row[0])  # TypeError for a non-integer, as array's
        if 0 <= value < 1 << 64:
            return value
        raise OverflowError(f"{value} does not fit a 64-bit slot")
    words = array("Q", bytes(_SLOT_BYTES * len(row)))
    words[::2] = array("Q", row)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


def split_row(value: int, symbols: int) -> list[int]:
    """The slots of a packed row whose slots are residues: pack_row's inverse."""
    if symbols == 1:
        return [value]
    data = value.to_bytes(_SLOT_BYTES * symbols, sys.byteorder)
    return memoryview(data).cast("Q")[_LOW_WORDS].tolist()


def _every_slot(value: int, symbols: int) -> int:
    """A packed row holding `value` (< 2^128) in each of its `symbols` slots."""
    return int.from_bytes(value.to_bytes(_SLOT_BYTES, "little") * symbols, "little")


# Each mask repeats a per-slot constant `symbols` times (1 MB at 65535
# symbols), and a peer chooses the symbol count and q, so the constants of
# only four (symbols, q) pairs are kept.
@functools.lru_cache(maxsize=4)
def _slot_constants(symbols: int, q: int) -> tuple[int, ...]:
    """The packed-row constants of (symbols, q): is_canonical_packed's masks
    (2^64 - 1, 2^64 - q and 2^64 in every slot), reduce_packed's other
    masks (2^62 - 1 and 2^(65 - b) - 1 in every slot, b = q.bit_length())
    and its scalars (2^64 mod q, 2^62 mod q, the quotient shift k = 63 + b
    and multiplier ceil(2^k / q))."""
    shift = 63 + q.bit_length()
    masks = ((1 << 64) - 1, (1 << 64) - q, 1 << 64, (1 << 62) - 1, (1 << 128 - shift) - 1)
    scalars = ((1 << 64) % q, (1 << 62) % q, shift, -(-(1 << shift) // q))
    return (*(_every_slot(v, symbols) for v in masks), *scalars)


def is_canonical_packed(row: int, symbols: int, q: int) -> bool:
    """is_canonical for a packed row: True when `row` is a row of `symbols`
    slots (see pack_row) whose every slot is a residue in [0, q).

    Refused are a negative row, one wider than `symbols` slots and one with
    a slot at or above 2^64: each has a bit outside the slots' low 64 bits.
    A slot v < 2^64 plus 2^64 - q sets the slot's bit 64 exactly when
    v >= q, and stays below 2^65, so no slot carries into the next.  Two
    whole-int operations and a compare, with no loop over the symbols; at
    one slot, the same rule is 0 <= row < q.
    """
    if symbols == 1:
        return 0 <= row < q
    constants = _slot_constants(symbols, q)
    return row & constants[0] == row and not (row + constants[1]) & constants[2]


def reduce_packed(value: int, symbols: int, q: int, bits: int) -> int:
    """`value` with each of its `symbols` slots reduced into [0, q).

    `bits` is the caller's proven bound: every slot of `value` is below
    2^bits, and bits <= 126 (ValueError above that).  The reduction runs
    only the folds that bound needs, so the work is 5, 10 or 15 whole-int
    operations with no loop over the symbols, and it depends on `bits`
    alone, never on the values.  A one-slot row is one `% q` whatever the
    bound.  Exact for every prime q < 2^31:

    - bits <= 63: no fold; the slot is already a y < 2^63 for the
      quotient step;
    - bits <= 93: fold at 62 bits alone: the slot's bits from 62 up are
      below 2^31, times 2^62 mod q < 2^31, so y < 2^62 + 2^62 = 2^63;
    - bits <= 126: fold at 64 bits, x = lo + hi·(2^64 mod q) <
      2^64 + 2^62·(q - 1), so x >> 62 <= q + 2, then fold x at 62 bits:
      y < 2^62 + (q + 2)·(q - 1) < 2^63;
    - exact quotient (division by an invariant integer), for any y < 2^63:
      with b = q.bit_length(), k = 63 + b and mu = ceil(2^k / q) <= 2^64,
      y·mu / 2^k exceeds y/q by y·(q·mu - 2^k)/(q·2^k) < y/2^k < 1/q, so
      its floor is floor(y/q) < 2^(65 - b), and y·mu < 2^127.

    Every intermediate slot stays below 2^128, so no step carries or
    borrows across slots.
    """
    if bits > 126:
        raise ValueError(f"reduce_packed is exact for slots below 2^126, not 2^{bits}")
    if symbols == 1:
        return value % q
    low64, _, _, low62, low_quotient, wrap64, wrap62, shift, mu = _slot_constants(symbols, q)
    if bits > 93:
        value = (value & low64) + (value >> 64 & low64) * wrap64
    if bits > 63:
        value = (value & low62) + (value >> 62 & low64) * wrap62
    return value - (value * mu >> shift & low_quotient) * q


def packed_sum(coeffs: Iterable[int], packed: Iterable[int], q: int) -> int:
    """sum_j coeffs[j]·packed[j] over packed rows, left unreduced.

    Any integer coefficient is accepted; each is reduced into [0, q) first,
    so a negative one subtracts without a slot going negative.  The sum
    starts from its first product, not from 0, which would copy that
    product once more.  The products are mapped at C speed, with no Python
    frame per term.
    """
    terms = map(operator.mul, map(q.__rmod__, coeffs), packed)
    return sum(terms, next(terms, 0))


def _gauss_jordan(cells: list[list[int]], q: int) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """One Gauss-Jordan pass over [A | I] kept in A's cells; returns (cells, pivots).

    `cells` holds A's rows as lists of integers and is rewritten in place.
    Columns are eliminated left to right.  The pivot for a column is the
    first row, in the original order, that is not yet a pivot and has a
    nonzero entry there; a column with no such row is skipped, so
    len(pivots) is the rank.  pivots lists (row, column) in column order.
    The order is fixed, so results are identical across runs and
    platforms.  Rows are not swapped, and [A | I] is kept in the cells of
    A: once a column of A is eliminated it is a unit vector, and its cell
    holds the column of the right half that its pivot row owns, which was
    a unit vector until then.  Only the pivot row is reduced mod q at each
    step: any other row update adds less than q^2 per entry, so a reader
    reduces each cell mod q.
    """
    free = list(range(len(cells)))
    pivots: list[tuple[int, int]] = []
    for col in range(len(cells[0]) if cells else 0):
        if not free:
            break
        for p in free:
            if cells[p][col] % q:
                break
        else:
            continue
        free.remove(p)
        pivots.append((p, col))
        row = cells[p]
        inv = pow(row[col], -1, q)
        row[col] = 1
        row = cells[p] = [v * inv % q for v in row]
        for r, other in enumerate(cells):
            f = other[col] % q
            if f and r != p:
                other[col] = 0
                cells[r] = [vr - f * vp for vr, vp in zip(other, row)]
    return cells, pivots


def eliminate(
    rows: Sequence[Sequence[int]], q: int
) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """Split a k x n matrix A of rank k over F_q at its pivots: (S, F, A_S^-1, A_S^-1·A_F).

    `rows` are A's rows, any integers (they are taken mod q).  S lists the
    k columns that pivot in _gauss_jordan, in column order, and F the other
    n - k, ascending; A_S and A_F are A's columns in those orders.  So
    A·z = b holds exactly when z_S = A_S^-1·b - (A_S^-1·A_F)·z_F, which
    gives a solution (z_F = 0) and the null space (one unit z_F each) at
    once.  Raises :class:`SingularMatrix` when rank A < k.  Entries come
    back reduced into [0, q).

    In _gauss_jordan's cells the right-half column that row s owns sits in
    the column s pivots, so row r of A_S^-1 reads those columns in row
    order, and the rest of row r is A_S^-1·A_F.
    """
    k = len(rows)
    cells, pivots = _gauss_jordan([list(row) for row in rows], q)
    if len(pivots) < k:
        raise SingularMatrix(f"matrix has rank < {k}")
    owned = [0] * k
    for r, col in pivots:
        owned[r] = col
    pivot_cols = [col for _, col in pivots]
    free = [col for col in range(len(cells[0])) if col not in pivot_cols]
    inverse = [[cells[r][col] % q for col in owned] for r, _ in pivots]
    rest = [[cells[r][col] % q for col in free] for r, _ in pivots]
    return pivot_cols, free, inverse, rest


def solve_linear_system(matrix: FieldMatrix, rhs: Sequence[int], symbols: int) -> list[int]:
    """Solve A·X = B exactly over F_q, on packed rows.

    `rhs` is a block B of n packed rows of `symbols` slots each (S
    right-hand sides side by side, see pack_row); a row may be an unreduced
    combination of canonical rows, within the slot bound stated there.  X
    comes back as n packed rows with every slot reduced into [0, q).
    Raises :class:`SingularMatrix` when A is not invertible.

    eliminate gives A^-1 (every column of a square A of full rank pivots,
    in order).  Each row of X is then one packed combination of the rows of
    B and one reduce_packed.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("solve requires a square matrix")
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match matrix")
    limit = 1 << 8 * _SLOT_BYTES * symbols
    if not all(0 <= row < limit for row in rhs):
        raise ValueError(f"right-hand side rows must be packed rows of {symbols} symbols")
    q = matrix.q
    _, _, inverse, _ = eliminate([matrix.row(r) for r in range(matrix.rows)], q)
    # A combination of n <= 65535 rows below 2^78 with reduced coefficients: < 2^125.
    return [reduce_packed(packed_sum(row, rhs, q), symbols, q, 126) for row in inverse]


def matrix_rank(matrix: FieldMatrix) -> int:
    """Row rank: the number of columns that pivot in _gauss_jordan."""
    return len(_gauss_jordan([list(matrix.row(r)) for r in range(matrix.rows)], matrix.q)[1])

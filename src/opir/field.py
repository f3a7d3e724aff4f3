"""Exact arithmetic over prime fields, plus the dense linear algebra built on it.

Everything in this module is integer math: field elements are canonical
residues in [0, q), matrices are row-major grids of residues, and the solver
and rank routines run plain Gaussian elimination mod q.  No floating point is
used anywhere, so every result is exact and identical across platforms.

Message vectors (length-m tuples of residues) are treated as vectors over
F_q on which scalar coefficients act componentwise; no extension-field
multiplication is ever needed or provided.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DivisionByZero, FieldMismatch, SingularMatrix

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
    [0, q)); calling the field produces a :class:`FieldElement` wrapper for
    operator-style arithmetic.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q):
            raise ValueError(f"field modulus must be prime, got {q!r}")
        if q >= MAX_MODULUS:
            raise ValueError(f"field modulus {q} exceeds the 2^31 cap")
        self.q = q

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value, self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def normalize(self, value: int) -> int:
        return value % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return a * b % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return pow(a, -1, self.q)

    def div(self, a: int, b: int) -> int:
        return a * self.inv(b) % self.q


class FieldElement:
    """A canonical residue bound to its field.

    Mixed arithmetic with plain ints is allowed (the int is reduced into the
    field); arithmetic with an element of a *different* field raises
    :class:`FieldMismatch`.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.q
        self.field = field

    def _operand(self, other: object) -> int | None:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(
                    f"cannot mix F_{self.field.q} and F_{other.field.q} elements"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.q
        return None

    def __add__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.value + v, self.field)

    __radd__ = __add__

    def __sub__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.value - v, self.field)

    def __rsub__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(v - self.value, self.field)

    def __mul__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.value * v, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(self.value * self.field.inv(v), self.field)

    def __rtruediv__(self, other: object) -> "FieldElement":
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return FieldElement(v * self.field.inv(self.value), self.field)

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.value, self.field)

    def __pow__(self, exponent: int) -> "FieldElement":
        if exponent < 0:
            base = self.field.inv(self.value)
            exponent = -exponent
        else:
            base = self.value
        return FieldElement(pow(base, exponent, self.field.q), self.field)

    def inv(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElement):
            return other.field == self.field and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.q, self.value))

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"F{self.field.q}({self.value})"


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

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    def at(self, row: int, col: int) -> int:
        return self._data[row][col]

    def row(self, row: int) -> tuple[int, ...]:
        return self._data[row]

    def column(self, col: int) -> tuple[int, ...]:
        return tuple(r[col] for r in self._data)

    def mul_vector(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        q = self.field.q
        return [sum(a * v for a, v in zip(row, vec)) % q for row in self._data]

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


def solve_linear_system(matrix: FieldMatrix, rhs: Sequence) -> list:
    """Solve A·X = B exactly over the matrix's field.

    Like numpy.linalg.solve, `rhs` is either a vector b of n residues or a
    block B of n rows of S residues each (S right-hand sides side by side),
    and the result has the same form.  Both go through one Gauss-Jordan
    pass over the augmented rows [A | B] with first-nonzero pivoting; the
    elimination order is fixed, so results are identical across runs and
    platforms.  Raises :class:`SingularMatrix` when A is not invertible.

    Only pivot rows are reduced mod q during the pass: every other row
    update adds less than q^2 per entry, and one final reduction turns the
    result into residues.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("solve requires a square matrix")
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match matrix")
    field = matrix.field
    q = field.q
    n = matrix.rows
    vector = not rhs or isinstance(rhs[0], int)
    block = [[v] for v in rhs] if vector else [list(row) for row in rhs]
    if any(len(row) != len(block[0]) for row in block):
        raise ValueError("ragged rows in right-hand side")
    aug = [list(matrix.row(r)) + block[r] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % q), None)
        if pivot is None:
            raise SingularMatrix(f"matrix has rank < {n}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [v * inv % q for v in aug[col]]
        for r in range(n):
            f = aug[r][col] % q
            if r != col and f:
                aug[r] = [vr - f * vc for vr, vc in zip(aug[r], aug[col])]
    if vector:
        return [row[n] % q for row in aug]
    return [[v % q for v in row[n:]] for row in aug]


def combine_rows(coeffs: Sequence[int], rows: Sequence[Sequence[int]], q: int) -> list[int]:
    """The linear combination sum_j coeffs[j]·rows[j] of equal-length rows, mod q.

    Products accumulate as plain integers and each symbol is reduced once.
    """
    acc = [coeffs[0] * v for v in rows[0]]
    for c, row in zip(coeffs[1:], rows[1:]):
        acc = [a + c * v for a, v in zip(acc, row)]
    return [a % q for a in acc]


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

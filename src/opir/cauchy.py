"""Construction of the Cauchy coding matrix and per-round column extraction.

All coding coefficients used by the server come from one K x (M*l + 1)
Cauchy matrix: entry (i, j) = 1/(x_i - y_j) for pairwise-distinct points
x_1..x_K and y_1..y_{Ml+1}.  Every square submatrix of a Cauchy matrix is
itself a Cauchy matrix and hence invertible; that alone makes the second
round's decode systems solvable.

The systems solved at round 3 are not plain submatrices: their first-round
rows are zero outside one half of the merged block.  Such mixed systems can
be singular even though the matrix is Cauchy, so decode-safety of a matrix
has to be checked, not assumed; all_merge_systems_invertible derives the
residue-sum criterion it checks.

Round 1 uses column 1 alone; round i >= 2 uses the M-column block
(i-2)M+2 .. (i-1)M+1.  Successive rounds therefore draw on disjoint columns,
and the l+1 possible rounds together consume exactly the Ml+1 columns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FieldTooSmall, InvalidParams, RoundOutOfRange
from .field import FieldMatrix, PrimeField


@dataclass(frozen=True)
class CauchyMatrix:
    """The K x (M*l + 1) coding matrix together with its generating points."""

    k: int
    m: int
    l: int
    x_points: tuple[int, ...]
    y_points: tuple[int, ...]
    matrix: FieldMatrix

    @property
    def field(self) -> PrimeField:
        return self.matrix.field

    def coeff(self, index: int, column: int) -> int:
        """Entry for message `index` and coding column `column`, both 1-based."""
        return self.matrix.at(index - 1, column - 1)


def canonical_points(q: int, k: int, m: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The fixed point sets x_i = i + M*l and y_j = j - 1 (mod q).

    With q >= K + Ml + 1 these are pairwise distinct and mutually disjoint,
    so every difference x_i - y_j is invertible.
    """
    cols = m * l + 1
    x = tuple((i + m * l) % q for i in range(1, k + 1))
    y = tuple((j - 1) % q for j in range(1, cols + 1))
    return x, y


def build_cauchy(
    k: int,
    m: int,
    l: int,
    q: int,
    x_points: tuple[int, ...] | None = None,
    y_points: tuple[int, ...] | None = None,
) -> CauchyMatrix:
    """Build the K x (M*l + 1) coding matrix over F_q.

    When the point sets are omitted, the canonical sets from
    :func:`canonical_points` are used.  Callers may supply their own, for
    instance points read from a transcript or a server's HELLO, as long as
    all K + Ml + 1 points are distinct; InvalidParams otherwise.
    """
    cols = m * l + 1
    if q < k + cols:
        raise FieldTooSmall(f"need q >= {k + cols} for K={k}, M={m}, l={l}; got q={q}")
    field = PrimeField(q)
    if x_points is None and y_points is None:
        x_points, y_points = canonical_points(q, k, m, l)
    elif x_points is None or y_points is None:
        raise InvalidParams("supply both point sets or neither")
    else:
        x_points = tuple(v % q for v in x_points)
        y_points = tuple(v % q for v in y_points)
    if len(x_points) != k or len(y_points) != cols:
        raise InvalidParams(f"need {k} x-points and {cols} y-points")
    if len(set(x_points) | set(y_points)) != k + cols:
        raise InvalidParams("x and y points must be pairwise distinct and disjoint")
    entries = [[field.inv((x - y) % q) for y in y_points] for x in x_points]
    return CauchyMatrix(
        k=k, m=m, l=l, x_points=x_points, y_points=y_points,
        matrix=FieldMatrix(field, entries),
    )


def round_column_indices(m: int, l: int, round_no: int) -> tuple[int, ...]:
    """The 1-based coding columns consumed at the given round."""
    if round_no == 1:
        return (1,)
    if 2 <= round_no <= l + 1:
        start = (round_no - 2) * m + 2
        return tuple(range(start, start + m))
    raise RoundOutOfRange(
        f"round {round_no} out of range: only {m * l + 1} columns exist (rounds 1..{l + 1})"
    )


def all_merge_systems_invertible(cauchy: CauchyMatrix) -> bool:
    """Whether every possible round-3 decode system for this matrix is solvable.

    Exhausts all unions of two disjoint (M+1)-blocks, i.e. every block a
    third round could be asked to decode regardless of side information,
    demands, or random choices.  For l <= 2 this covers all rounds (round-2
    systems are genuine Cauchy submatrices, hence always invertible); for
    deeper schedules the rounds past 3 are not enumerated here.

    The system for a merged block left | right (1-based, disjoint, each of
    size M+1) has 2(M+1) unknowns and rows: the round-1 column restricted
    to each half, plus the full columns 2..2M+1 over the union.
    Row-reducing the two masked rows against the unmasked Cauchy columns
    shows the system is invertible iff

        sum over i in left of
            prod_{j=2..2M+1} (x_i - y_j) / prod_{k in union, k != i} (x_i - x_k)

    is nonzero: the products are the residues of a rational function whose
    poles are the union's x-points, and the masked row escapes the span of
    the Cauchy columns exactly when the residues over one half do not cancel.
    The condition is symmetric in the two halves because all residues sum
    to zero, so each split is tested once, with the union's first index on
    the left.  The sum is taken over a common denominator: numerator i times
    the denominators of the half's other indices.  Numerators depend only on
    i and denominators only on i and the union, so both are computed once.

    The canonical equally-spaced points fail this check for every prime:
    e.g. K=8, M=1 has a merged block whose residue sum is identically zero
    over the integers.  Safe defaults therefore use searched point sets.
    """
    if cauchy.l < 2:
        return True
    q = cauchy.field.q
    xs = cauchy.x_points
    ys = cauchy.y_points
    m = cauchy.m
    size = m + 1
    # per-index numerator prod_{j>=2}(x_i - y_j) is block-independent
    wcache = []
    for i in range(cauchy.k):
        xi = xs[i]
        w = 1
        for j in range(1, 2 * m + 1):
            w = w * (xi - ys[j]) % q
        wcache.append(w)
    for union in itertools.combinations(range(cauchy.k), 2 * size):
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

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

A CauchyMatrix stores M, its points and its entries, nothing else: K is
the number of x-points, q is the entries' modulus, and l is derive_l(K, M),
so none of them can disagree with the matrix they describe.  check_points is
the one point rule (build_cauchy, audit.rank_profile and wire's
Hello.session call it); it and ProtocolParams call check_field_size, the
one rule q >= K + Ml + 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import FieldTooSmall, InvalidParams, RoundOutOfRange
from .field import FieldMatrix, check_modulus, is_canonical

Points = tuple[int, ...]


def derive_l(k: int, m: int) -> int:
    """The l with K = (M+1)*2^l; InvalidParams unless K/(M+1) is a power of two >= 2."""
    ratio = k // (m + 1) if m >= 1 and k % (m + 1) == 0 else 0
    if ratio < 2 or ratio & (ratio - 1):
        raise InvalidParams(f"K/(M+1) must be a power of two >= 2: K={k}, M={m}")
    return ratio.bit_length() - 1


def check_field_size(k: int, m: int, l: int, q: int) -> None:
    """FieldTooSmall unless q >= K + M*l + 1, the number of distinct coding points."""
    if q < k + m * l + 1:
        raise FieldTooSmall(f"need q >= {k + m * l + 1} for K={k}, M={m}, l={l}; got q={q}")


@dataclass(frozen=True)
class CauchyMatrix:
    """The K x (M*l + 1) coding matrix together with its generating points."""

    m: int
    x_points: tuple[int, ...]
    y_points: tuple[int, ...]
    matrix: FieldMatrix

    def coeff(self, index: int, column: int) -> int:
        """Entry for message `index` and coding column `column`, both 1-based."""
        return self.matrix.at(index - 1, column - 1)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The entries column by column, built on first read:
        columns[column - 1][index - 1] is coeff(index, column)."""
        return tuple(zip(*(self.matrix.row(r) for r in range(self.matrix.rows))))


def canonical_points(q: int, k: int, m: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The fixed point sets x_i = i + M*l and y_j = j - 1 (mod q).

    With q >= K + Ml + 1 these are pairwise distinct and mutually disjoint,
    so every difference x_i - y_j is invertible.
    """
    cols = m * l + 1
    x = tuple((i + m * l) % q for i in range(1, k + 1))
    y = tuple((j - 1) % q for j in range(1, cols + 1))
    return x, y


def _batch_inverse(values: list[int], q: int) -> list[int]:
    """1/v mod q for every nonzero v, with one field inversion (Montgomery's trick).

    A forward pass keeps the prefix products, their product is inverted
    once, and a backward pass peels one value off at a time.  A single zero
    would zero the product and make every result wrong, not just its own,
    so callers rule zeros out first.
    """
    prefix = []
    running = 1
    for v in values:
        running = running * v % q
        prefix.append(running)
    inverse = pow(running, -1, q)
    out = [0] * len(values)
    for n in range(len(values) - 1, 0, -1):
        out[n] = inverse * prefix[n - 1] % q
        inverse = inverse * values[n] % q
    out[0] = inverse
    return out


def check_points(
    k: int, m: int, l: int, q: int, x_points: Points | None = None, y_points: Points | None = None
) -> tuple[Points, Points]:
    """The checked (x, y) point sets of a K x (M*l + 1) Cauchy matrix over F_q.

    l must be derive_l(k, m), so callers name the shape they expect, and q a
    prime >= K + Ml + 1.  Omitted sets are canonical_points'; supplied ones
    (from a transcript or a HELLO) must be K and Ml + 1 distinct residues in
    [0, q), never reduced mod q.  InvalidParams (or FieldTooSmall) otherwise.
    """
    want = derive_l(k, m)
    if l != want:
        raise InvalidParams(f"K={k}, M={m} imply l={want}, got l={l}")
    check_modulus(q)
    check_field_size(k, m, l, q)
    cols = m * l + 1
    if x_points is None and y_points is None:
        x_points, y_points = canonical_points(q, k, m, l)
    elif x_points is None or y_points is None:
        raise InvalidParams("supply both point sets or neither")
    else:
        x_points, y_points = tuple(x_points), tuple(y_points)
        if not is_canonical(x_points + y_points, q):
            raise InvalidParams(f"coding points must be residues in [0, {q})")
    if len(x_points) != k or len(y_points) != cols:
        raise InvalidParams(
            f"coding point counts do not match: need {k} x-points and {cols} y-points"
        )
    if len(set(x_points) | set(y_points)) != k + cols:
        raise InvalidParams("x and y points must be pairwise distinct and disjoint")
    return x_points, y_points


def build_cauchy(
    k: int, m: int, l: int, q: int, x_points: Points | None = None, y_points: Points | None = None
) -> CauchyMatrix:
    """The K x (M*l + 1) coding matrix over F_q on check_points' point sets.

    One field inversion (_batch_inverse) covers all K(Ml+1) entries; a zero
    difference or a composite q would break it, so check_points runs first.
    """
    x_points, y_points = check_points(k, m, l, q, x_points, y_points)
    flat, cols = _batch_inverse([x - y for x in x_points for y in y_points], q), len(y_points)
    entries = [flat[i : i + cols] for i in range(0, len(flat), cols)]
    return CauchyMatrix(m, x_points, y_points, FieldMatrix(q, entries))


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
    over the integers.  Safe defaults therefore use searched point sets.
    """
    xs, ys, m = cauchy.x_points, cauchy.y_points, cauchy.m
    k = len(xs)
    if derive_l(k, m) < 2:
        return True
    q = cauchy.matrix.q
    pairs = list(itertools.combinations(range(k), 2))
    inv = [[0] * k for _ in range(k)]  # inv[i][j] = 1/(x_i - x_j)
    for (i, j), d in zip(pairs, _batch_inverse([xs[i] - xs[j] for i, j in pairs], q)):
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

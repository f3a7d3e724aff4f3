"""Construction of the Cauchy coding matrix and per-round column extraction.

All coding coefficients used by the server come from one K x (M*l + 1)
Cauchy matrix: entry (i, j) = 1/(x_i - y_j) for pairwise-distinct points
x_1..x_K and y_1..y_{Ml+1}.  Every square submatrix of a Cauchy matrix is
itself a Cauchy matrix and hence invertible; that alone makes the second
round's decode systems solvable.

The systems solved from round 3 on are not plain submatrices: their
first-round rows are zero outside one half of the merged block.  Such mixed
systems can be singular even though the matrix is Cauchy, and nothing here
rules that out: a point set's decode safety is a property the tests check
(tests/test_cauchy.py holds the round-3 criterion and its derivation), and
a singular system met in a session is protocol.SingularSystem.

Round 1 uses column 1 alone; round i >= 2 uses the M-column block
(i-2)M+2 .. (i-1)M+1.  Successive rounds therefore draw on disjoint columns,
and the l+1 possible rounds together consume exactly the Ml+1 columns.

A CauchyMatrix stores M, q, its points and its entries, once and column
by column as coding and decoding read them (its row form `matrix` is
built only when read).  K is the number of x-points and l is
derive_l(K, M), so neither can disagree with the matrix; q is stored
because no entry names it.  A matrix is never changed once built, so
build_cauchy hands one matrix per point set to every caller in the
process from the package's one matrix cache (the last four calls whose
matrices hold at most MEMO_MAX_ENTRIES entries are kept, and only a call
not kept is checked; larger ones are checked and built on every call).
check_points is the one point rule (build_cauchy, audit.rank_profile and
wire's Hello.session call it); it and ProtocolParams call check_field_size,
the one rule q >= K + Ml + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    q: int
    x_points: tuple[int, ...]
    y_points: tuple[int, ...]
    # columns[column - 1][index - 1] is coeff(index, column), a residue in [0, q)
    columns: tuple[tuple[int, ...], ...]

    def coeff(self, index: int, column: int) -> int:
        """Entry for message `index` and coding column `column`, both 1-based."""
        return self.columns[column - 1][index - 1]

    def inverse(self, index: int, column: int) -> int:
        """1 / coeff(index, column): the entry is 1/(x - y), so its inverse is
        x - y mod q, read from the points with no field inversion."""
        return (self.x_points[index - 1] - self.y_points[column - 1]) % self.q

    @cached_property
    def matrix(self) -> FieldMatrix:
        """The entries row by row, message i in row i - 1, built on first read."""
        return FieldMatrix(self.q, list(zip(*self.columns)))


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
    so callers rule zeros out first.  The values, the prefix products and
    the results are three lists alive at once, so _checked_matrix passes one
    column at a time: a K=8192, M=1 build then peaks at ~46 B per entry
    under tracemalloc, where one call over every entry peaked at ~119 B
    beside the 40 B per entry the matrix keeps.
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

    One field inversion (_batch_inverse) covers each column's K entries; a
    zero difference or a composite q would break it, so check_points runs
    first.  A matrix of at most MEMO_MAX_ENTRIES entries is kept by the
    whole call, K, M, l, q and both point tuples, and a call found there
    repeats one that passed check_points, so supplied points are checked
    only on a new call (omitted ones are canonical_points', which
    check_points supplies on every call).
    """
    if x_points is None or y_points is None:
        x_points, y_points = check_points(k, m, l, q, x_points, y_points)
    call = (k, m, l, q, tuple(x_points), tuple(y_points))
    if len(call[4]) * len(call[5]) > MEMO_MAX_ENTRIES:
        return _checked_matrix(*call)
    return _cauchy_on(*call)


# Most entries of a matrix that build_cauchy keeps.  A matrix holds 40 B
# per entry (tracemalloc; its row form `matrix`, once read, about as much
# again), so the four kept hold at most ~11 MB however many servers a
# process talks to; the benchmark's session shapes hold at most a few
# hundred entries.
MEMO_MAX_ENTRIES = 2**16


def _checked_matrix(
    k: int, m: int, l: int, q: int, x_points: Points, y_points: Points
) -> CauchyMatrix:
    """build_cauchy's matrix once check_points accepts the call, built
    column by column: one batch inversion of each column's differences, so
    only one column's working lists are alive beside the finished ones."""
    x_points, y_points = check_points(k, m, l, q, x_points, y_points)
    columns = tuple(tuple(_batch_inverse([x - y for x in x_points], q)) for y in y_points)
    return CauchyMatrix(m, q, x_points, y_points, columns)


# The one matrix cache: a server, session_cauchy, each connection's
# RemoteSession and Transcript.cauchy() share one matrix per point set.  A
# peer's HELLO names the points, so only the last four calls are kept;
# typed=True keeps 17.0 and True apart from 17 and 1, so those are checked.
_cauchy_on = lru_cache(maxsize=4, typed=True)(_checked_matrix)


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

"""Client and server state machines for the online partition-retrieval protocol.

One session runs up to l+1 rounds.  Each round the client sends an ordered
partition of the message indices [1..K] and the server answers with coded
packets built from fixed Cauchy-matrix columns:

Every round is one merge.  Before round 1 each message is its own block
and the client's chain (what it knows) is the side-information set.  A
round merges the chain with the previous block holding the new demand and
groups the other previous blocks uniformly at random:

* Round 1: the singletons outside the demand-plus-side block are grouped
  M+1 at a time, giving K/(M+1) blocks of size M+1.  The server returns
  one packet per block (column 1).
* Round i >= 2: the other blocks are paired.  The server returns M packets
  per block (columns (i-2)M+2 .. (i-1)M+1).

Decoding gathers, from the whole stored history, every packet supported
inside the previous block that holds the demand, subtracts known messages
from the current round's packets, and solves the resulting square system,
recovering that entire block, which then feeds later rounds.  At round 1
that block is the demand alone, so the system is 1 x 1.

Round-3 systems mix masked first-round rows with plain Cauchy columns and
can be singular over small fields, so sessions with three or more rounds
default to q = SESSION_PRIME with point sets certified decode-safe (see
session_cauchy).  Explicit q keeps the canonical matrix:  useful for
reproducing fixed examples, at the documented risk that an unlucky
partition makes a later round undecodable.

Message indices are 1-based throughout, matching the wire format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from functools import cache, cached_property

from .cauchy import (
    CauchyMatrix,
    all_merge_systems_invertible,
    build_cauchy,
    check_field_size,
    derive_l,
    round_column_indices,
)
from .errors import (
    AnswerMismatch,
    DemandKnown,
    FieldTooSmall,
    InvalidParams,
    MalformedQuery,
    ProtocolOrder,
    RoundsExhausted,
    SingularMatrix,
    SingularSystem,
)
from .field import (
    FieldMatrix,
    check_modulus,
    combine_packed,
    is_canonical,
    next_prime,
    pack_row,
    packed_sum,
    solve_linear_system,
    split_row,
)

Block = tuple[int, ...]
Message = tuple[int, ...]

# Default field for schedules with three or more rounds.  The canonical
# equally-spaced points admit merged blocks whose round-3 decode system is
# singular -- for some shapes identically in the integers, so no prime
# rescues them.  Sessions therefore default to a large field and searched
# point sets that pass all_merge_systems_invertible on every merged block.
SESSION_PRIME = 2147483647  # 2^31 - 1

# The point set _certified_cauchy's search returns for K=16, M=3 (its
# attempt 0), pinned because certifying it takes ~0.3 s, paid before
# `opir serve` listens, and it is the shape of the TCP benchmark.  Smaller
# shapes certify in milliseconds and are searched.  The test suite
# re-verifies the pin against a split-by-split enumeration.
_SAFE_POINTS: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {
    (16, 3): (
        (58117088, 253515402, 713856209, 445833048, 672927510, 1280701199,
         1886002980, 1447989846, 2034641911, 851575410, 2093243109, 837799413,
         1566311499, 2124602916, 1914081214, 1662350221),
        (158966112, 728203836, 1133100519, 1484321534, 1447318132,
         2059715231, 92089322),
    ),
}


def _check_coding_matrix(cauchy: CauchyMatrix, params: "ProtocolParams") -> None:
    """InvalidParams unless the coding matrix has the parameters' K, M and q (l follows)."""
    have = (len(cauchy.x_points), cauchy.m, cauchy.matrix.q)
    want = (params.k, params.m, params.q)
    if have != want:
        raise InvalidParams(
            "coding matrix has K={}, M={}, q={}; parameters want"
            " K={}, M={}, q={}".format(*have, *want)
        )


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters: K messages, side-information size M, field q, symbols.

    K/(M+1) must be a power of two 2^l with l >= 1.  l, the number of rounds
    after the first, is derived from K and M (derive_l) and never stored.
    """

    k: int
    m: int
    q: int
    symbols: int = 1

    def __post_init__(self) -> None:
        l = self.l  # derive_l refuses any other shape
        if self.symbols < 1:
            raise InvalidParams("messages need at least one symbol")
        if self.k > 0xFFFF or self.symbols > 0xFFFF:
            # The wire carries message indices and the symbol count in 2 bytes.
            raise InvalidParams(
                f"K and symbols must be at most 65535, got K={self.k}, symbols={self.symbols}"
            )
        check_modulus(self.q)
        check_field_size(self.k, self.m, l, self.q)

    @classmethod
    def create(cls, k: int, m: int, q: int | None = None, symbols: int = 1) -> "ProtocolParams":
        """Pick a default field when q is omitted.

        Two-round schedules (l = 1) default to the smallest admissible
        prime.  Longer schedules default to SESSION_PRIME so the session
        matrix can use decode-safe point sets; at small q some merged
        blocks are undecodable no matter which points are chosen (for the
        canonical points, no prime at all avoids this).  Passing q
        explicitly always wins, with the documented decode risk at l >= 2.
        """
        l = derive_l(k, m)
        if q is None:
            q = next_prime(k + m * l + 1) if l == 1 else SESSION_PRIME
        return cls(k=k, m=m, q=q, symbols=symbols)

    @cached_property
    def l(self) -> int:
        """Rounds after the first: K = (M+1)*2^l."""
        return derive_l(self.k, self.m)

    @property
    def n1(self) -> int:
        """Number of round-1 blocks."""
        return self.k // (self.m + 1)

    @property
    def max_rounds(self) -> int:
        return self.l + 1

    def block_count(self, round_no: int) -> int:
        return self.n1 // 2 ** (round_no - 1)

    def block_size(self, round_no: int) -> int:
        return (self.m + 1) * 2 ** (round_no - 1)

    def packet_count(self, round_no: int) -> int:
        """Download cost of a round, in packets."""
        if round_no == 1:
            return self.n1
        return self.block_count(round_no) * self.m


@cache
def _certified_cauchy(k: int, m: int) -> CauchyMatrix:
    """The decode-safe matrix at SESSION_PRIME: the first point set of a
    deterministic search that all_merge_systems_invertible passes (pinned at (16, 3)).

    A random point set fails for some merged block with probability well
    under a percent, so the first attempt almost always wins; the attempt
    cap only guards against hopelessly small fields.
    """
    l, q = derive_l(k, m), SESSION_PRIME
    if (k, m) in _SAFE_POINTS:
        return build_cauchy(k, m, l, q, *_SAFE_POINTS[k, m])
    for attempt in range(64):
        rng = random.Random(f"cauchy-points:{k}:{m}:{l}:{q}:{attempt}")
        pts = rng.sample(range(q), k + m * l + 1)
        cauchy = build_cauchy(k, m, l, q, tuple(pts[:k]), tuple(pts[k:]))
        if all_merge_systems_invertible(cauchy):
            return cauchy
    raise FieldTooSmall(
        f"found no decode-safe point set for K={k}, M={m} over q={q}; "
        "use a larger field"
    )


def session_cauchy(params: ProtocolParams) -> CauchyMatrix:
    """The coding matrix a session uses when the caller does not supply one.

    For two-round schedules any point set is safe, so this returns the
    canonical matrix.  For longer schedules run at the default field
    (q = SESSION_PRIME) it returns a point set certified by
    all_merge_systems_invertible: a deterministic search, pinned for the
    one shape whose search is slow.  Longer schedules at an explicitly
    chosen q keep the canonical matrix; there a singular decode system
    stays possible and is treated as a fatal error.
    """
    if params.l < 2 or params.q != SESSION_PRIME:
        return build_cauchy(params.k, params.m, params.l, params.q)
    return _certified_cauchy(params.k, params.m)


@dataclass(frozen=True)
class Database:
    """The server's K messages, each a tuple of `symbols` residues mod q."""

    q: int
    messages: tuple[Message, ...]

    def __post_init__(self) -> None:
        if not self.messages:
            raise InvalidParams("database must hold at least one message")
        check_modulus(self.q)
        width = len(self.messages[0])
        if width < 1:
            raise InvalidParams("messages need at least one symbol")
        for msg in self.messages:
            if len(msg) != width:
                raise InvalidParams("all messages must have the same symbol count")
            if not is_canonical(msg, self.q):
                raise InvalidParams("message symbols must be canonical residues mod q")

    @classmethod
    def random(cls, k: int, symbols: int, q: int, rng: random.Random) -> "Database":
        return cls(
            q=q,
            messages=tuple(
                tuple(rng.randrange(q) for _ in range(symbols)) for _ in range(k)
            ),
        )

    @property
    def k(self) -> int:
        return len(self.messages)

    @property
    def symbols(self) -> int:
        return len(self.messages[0])

    def message(self, index: int) -> Message:
        """Message by 1-based index; InvalidParams outside [1..K]."""
        if not 1 <= index <= len(self.messages):
            raise InvalidParams(f"message index {index} outside [1..{len(self.messages)}]")
        return self.messages[index - 1]

    @cached_property
    def packed(self) -> tuple[int, ...]:
        """Every message as one packed int (field.pack_row), 0-based, built once."""
        return tuple(pack_row(msg) for msg in self.messages)


@dataclass(frozen=True)
class SideInformation:
    """The client's initial M known messages by index; the server never sees this."""

    values: tuple[tuple[int, Message], ...]

    @classmethod
    def from_values(cls, values: dict[int, Message]) -> "SideInformation":
        return cls(tuple(sorted(values.items())))

    @classmethod
    def from_database(cls, database: Database, indices) -> "SideInformation":
        return cls.from_values({i: database.message(i) for i in indices})


@dataclass(frozen=True)
class PartitionQuery:
    """One round's query: an ordered list of disjoint blocks covering [1..K].

    Block order is the random permutation actually sent on the wire; indices
    inside a block are kept sorted ascending (the canonical form).
    """

    round_no: int
    blocks: tuple[Block, ...]

    @classmethod
    def of(cls, round_no: int, blocks) -> "PartitionQuery":
        return cls(round_no, tuple(tuple(sorted(b)) for b in blocks))

    def block_containing(self, index: int) -> Block:
        for block in self.blocks:
            if index in block:
                return block
        raise KeyError(f"index {index} not covered by query")


@dataclass(frozen=True)
class RoundAnswer:
    """One round's coded packets, one per (block, column) pair.

    Packets follow the canonical order: blocks in query order, and within a
    block the round's coding columns in ascending index.
    """

    round_no: int
    packets: tuple[Message, ...]


@dataclass(frozen=True)
class TranscriptRound:
    query: PartitionQuery
    answer: RoundAnswer


@dataclass(frozen=True)
class Transcript:
    """Everything the server saw: parameters, coding points, and all rounds."""

    params: ProtocolParams
    cauchy_x: tuple[int, ...]
    cauchy_y: tuple[int, ...]
    rounds: tuple[TranscriptRound, ...]

    @property
    def costs(self) -> tuple[int, ...]:
        return tuple(len(r.answer.packets) for r in self.rounds)

    def cauchy(self) -> CauchyMatrix:
        p = self.params
        return build_cauchy(p.k, p.m, p.l, p.q, self.cauchy_x, self.cauchy_y)


def validate_query(
    params: ProtocolParams,
    query: PartitionQuery,
    prev: PartitionQuery | None,
) -> None:
    """Check the partition invariants for a query's round; raise MalformedQuery.

    For rounds >= 2 the previous round's accepted query is required so the
    pairing structure (every block a union of exactly two earlier blocks)
    can be verified.
    """
    r = query.round_no
    if r < 1 or r > params.max_rounds:
        raise MalformedQuery(f"round {r} outside 1..{params.max_rounds}")
    if len(query.blocks) != params.block_count(r):
        raise MalformedQuery(
            f"round {r} needs {params.block_count(r)} blocks, got {len(query.blocks)}"
        )
    size = params.block_size(r)
    seen: list[int] = []
    for block in query.blocks:
        if len(block) != size:
            raise MalformedQuery(f"round {r} blocks must have size {size}")
        if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
            raise MalformedQuery("block indices must be sorted and distinct")
        seen.extend(block)
    if sorted(seen) != list(range(1, params.k + 1)):
        raise MalformedQuery("blocks must partition [1..K]")
    if r >= 2:
        if prev is None or prev.round_no != r - 1:
            raise MalformedQuery("missing previous-round query for pairing check")
        prev_sets = [frozenset(b) for b in prev.blocks]
        if not all(is_merge(frozenset(b), prev_sets) for b in query.blocks):
            raise MalformedQuery("every block must be the union of exactly two previous blocks")


def is_merge(block: frozenset[int], prev_blocks) -> bool:
    """The one merge rule: block is the union of exactly two of prev_blocks (frozensets)."""
    inside = [p for p in prev_blocks if p <= block]
    return len(inside) == 2 and inside[0] | inside[1] == block


class Client:
    """The querying side: builds partitions, tracks state, decodes answers.

    Single-owner mutable state machine.  All randomness comes from one
    generator: random.Random(seed) when a seed is given, so the session
    replays from it, and otherwise the OS CSPRNG (random.SystemRandom),
    whose draws the server cannot predict.
    """

    def __init__(
        self,
        params: ProtocolParams,
        side: SideInformation,
        cauchy: CauchyMatrix,
        seed: int | None = None,
    ):
        # What the client knows is its chain, the block the next round merges
        # with the demand's: each round adds the block it decodes to both.
        self.known: dict[int, Message] = dict(side.values)
        if len(self.known) != params.m:
            raise InvalidParams(f"side information must hold M={params.m} messages")
        if not all(1 <= i <= params.k for i in self.known):
            raise InvalidParams("side-information indices out of range")
        _check_coding_matrix(cauchy, params)
        for msg in self.known.values():
            if len(msg) != params.symbols:
                raise InvalidParams("side-information messages have wrong symbol count")
            if not is_canonical(msg, params.q):
                raise InvalidParams("side-information symbols must be residues mod q")
        self.params = params
        self.cauchy = cauchy
        self.rng = random.SystemRandom() if seed is None else random.Random(seed)
        # Every known message as a canonical packed row (field.pack_row): the
        # side information is packed here, and a recovered message is kept
        # as the solver returned it, so no message is packed twice.
        self._packed: dict[int, int] = {i: pack_row(msg) for i, msg in self.known.items()}
        # The decoded rounds are the session's transcript; a query sent but
        # not yet decoded waits beside them with its demand.
        self._rounds: list[TranscriptRound] = []
        self._pending: tuple[PartitionQuery, int] | None = None

    def transcript(self) -> Transcript:
        """What the server has seen of this session: its coding points and the decoded rounds."""
        return Transcript(
            params=self.params,
            cauchy_x=self.cauchy.x_points,
            cauchy_y=self.cauchy.y_points,
            rounds=tuple(self._rounds),
        )

    def build_query(self, demand: int) -> PartitionQuery:
        """Build the next round's query for the given demand index.

        The chain merges with the previous block holding the demand (its
        singleton at round 1); the other previous blocks are grouped at
        random, M+1 singletons at round 1 and two blocks after.
        """
        if self._pending is not None:
            raise ProtocolOrder("previous query has not been answered and decoded")
        round_no = len(self._rounds) + 1
        if round_no > self.params.max_rounds:
            raise RoundsExhausted(
                f"all {self.params.max_rounds} rounds used; every message is known"
            )
        if not 1 <= demand <= self.params.k:
            raise InvalidParams(f"demand index {demand} outside [1..{self.params.k}]")
        if demand in self.known:
            raise DemandKnown(f"message {demand} is already known")
        query = self._build_merge_round(round_no, demand)
        self._pending = (query, demand)
        return query

    def _previous(self, round_no: int) -> PartitionQuery:
        """The partition round round_no merges: singletons 1..K before round 1."""
        if round_no > 1:
            return self._rounds[round_no - 2].query
        return PartitionQuery(0, tuple((i,) for i in range(1, self.params.k + 1)))

    def _build_merge_round(self, round_no: int, demand: int) -> PartitionQuery:
        prev = self._previous(round_no)
        merged_set = set(self.known).union(prev.block_containing(demand))
        # A previous block lies wholly inside the merged block or outside it.
        rest = [b for b in prev.blocks if b[0] not in merged_set]
        self.rng.shuffle(rest)
        width = len(prev.blocks) // self.params.block_count(round_no)
        blocks: list[Block] = [tuple(sorted(merged_set))]
        for i in range(0, len(rest), width):
            blocks.append(tuple(sorted(sum(rest[i : i + width], ()))))
        self.rng.shuffle(blocks)
        return PartitionQuery(round_no, tuple(blocks))

    def decode_answer(self, answer: RoundAnswer) -> dict[int, Message]:
        """Decode a round's packets; returns the newly recovered messages.

        Every round recovers the whole previous block containing the demand
        (the demand alone at round 1) by solving a square system assembled
        from the entire history.
        """
        if self._pending is None:
            raise ProtocolOrder("no outstanding query to decode an answer for")
        query, demand = self._pending
        round_no = query.round_no
        if answer.round_no != round_no:
            raise AnswerMismatch(
                f"answer is for round {answer.round_no}, expected {round_no}"
            )
        if len(answer.packets) != self.params.packet_count(round_no):
            raise AnswerMismatch(
                f"expected {self.params.packet_count(round_no)} packets,"
                f" got {len(answer.packets)}"
            )
        if any(len(p) != self.params.symbols for p in answer.packets):
            raise AnswerMismatch("packet symbol count does not match parameters")
        if not all(is_canonical(p, self.params.q) for p in answer.packets):
            raise AnswerMismatch("packet symbols must be residues mod q")
        recovered = self._decode_merge_round(query, answer, demand)
        self.known.update(recovered)
        self._rounds.append(TranscriptRound(query, answer))
        self._pending = None
        return recovered

    def _decode_merge_round(
        self, query: PartitionQuery, answer: RoundAnswer, demand: int
    ) -> dict[int, Message]:
        params = self.params
        target = self._previous(query.round_no).block_containing(demand)
        unknowns = list(target)
        target_set = set(target)

        rows: list[list[int]] = []
        rhs: list[int] = []

        # History packets fully supported inside the target block need no
        # subtraction: their support is disjoint from everything known.
        for r, past in enumerate(self._rounds, start=1):
            columns = round_column_indices(params.m, params.l, r)
            for bi, block in enumerate(past.query.blocks):
                if not set(block) <= target_set:
                    continue
                for ci, col in enumerate(columns):
                    rows.append(
                        [self.cauchy.coeff(u, col) if u in block else 0 for u in unknowns]
                    )
                    rhs.append(pack_row(past.answer.packets[bi * len(columns) + ci]))

        # Current round: the merged block is target + chain, and the chain
        # is everything known before this round; subtract its contributions
        # to restrict support to the target.  The difference stays an
        # unreduced packed sum: the solver reduces once, after it combines.
        current = query.block_containing(demand)
        bi = query.blocks.index(current)
        columns = round_column_indices(params.m, params.l, query.round_no)
        known = sorted(self.known)
        known_packed = [self._packed[i] for i in known]
        for ci, col in enumerate(columns):
            packet = pack_row(answer.packets[bi * len(columns) + ci])
            coeffs = [1] + [-self.cauchy.coeff(idx, col) for idx in known]
            rhs.append(packed_sum(coeffs, [packet] + known_packed, params.q))
            rows.append([self.cauchy.coeff(u, col) for u in unknowns])

        try:
            solution = solve_linear_system(FieldMatrix(params.q, rows), rhs, params.symbols)
        except SingularMatrix as exc:
            raise SingularSystem(
                "decode system is singular; coding matrix property violated"
            ) from exc
        self._packed.update(zip(unknowns, solution))
        return {u: tuple(split_row(row, params.symbols)) for u, row in zip(unknowns, solution)}


class Server:
    """The answering side: holds the database, validates queries, codes packets.

    Deliberately holds no demand- or side-information-derived state; its
    whole view of the client is the last query it accepted.
    """

    def __init__(
        self,
        database: Database,
        params: ProtocolParams,
        cauchy: CauchyMatrix | None = None,
    ):
        have = (database.k, database.symbols, database.q)
        want = (params.k, params.symbols, params.q)
        if have != want:
            raise InvalidParams(
                "database holds K={}, symbols={}, q={}; parameters want"
                " K={}, symbols={}, q={}".format(*have, *want)
            )
        if cauchy is None:
            cauchy = session_cauchy(params)
        _check_coding_matrix(cauchy, params)
        self.database = database
        self.params = params
        self.cauchy = cauchy
        self._prev: PartitionQuery | None = None

    def answer(self, query: PartitionQuery) -> RoundAnswer:
        """Validate a query and return its coded packets."""
        expected = self._prev.round_no + 1 if self._prev else 1
        if query.round_no != expected:
            raise ProtocolOrder(
                f"got round-{query.round_no} query, expected round {expected}"
            )
        validate_query(self.params, query, self._prev)
        q = self.params.q
        symbols = self.params.symbols
        packed = self.database.packed
        columns = round_column_indices(self.params.m, self.params.l, query.round_no)
        packets: list[Message] = []
        for block in query.blocks:
            messages = [packed[idx - 1] for idx in block]
            for col in columns:
                coeffs = [self.cauchy.coeff(idx, col) for idx in block]
                packets.append(tuple(combine_packed(coeffs, messages, symbols, q)))
        self._prev = query
        return RoundAnswer(query.round_no, tuple(packets))


@dataclass
class SessionResult:
    """A finished run: the server-visible transcript plus what was recovered."""

    transcript: Transcript
    recovered: tuple[dict[int, Message], ...] = dataclass_field(default_factory=tuple)

    @property
    def costs(self) -> tuple[int, ...]:
        return self.transcript.costs


def run_session(
    params: ProtocolParams,
    database: Database,
    side_indices,
    demands,
    seed: int | None = None,
) -> SessionResult:
    """Drive a full in-process session: one build/answer/decode per demand.

    Side-information values are taken from the database (outside tests and
    simulations the client would already hold them).
    """
    side = SideInformation.from_database(database, side_indices)
    server = Server(database, params)
    client = Client(params, side, server.cauchy, seed=seed)
    recovered = tuple(
        client.decode_answer(server.answer(client.build_query(demand))) for demand in demands
    )
    return SessionResult(transcript=client.transcript(), recovered=recovered)

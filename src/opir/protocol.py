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

One packet rule lays out every round (packet_layout): one packet per
coding column, columns ascending, block by block in query order.  The
server codes, the client decodes and the audit ranks by it.  In process a
packet stays the packed row (field.pack_row) that the server reduced, up
to the client's solver, which checks it with field.is_canonical_packed;
RoundAnswer builds residue tuples only for a reader that wants them.  A
round decodes its target, the previous block holding the demand (the demand
alone at round 1), in one pass: each packet of the history and of this
round whose block meets the target, less the block's known members, is a
row of a square system.  Earlier such blocks lie inside the target; this
round's is the target merged with the chain.

Round-3 systems mix masked first-round rows with plain Cauchy columns and
can be singular over small fields, so sessions with three or more rounds
default to q = SESSION_PRIME with point sets certified decode-safe (see
session_cauchy).  Explicit q keeps the canonical matrix:  useful for
reproducing fixed examples, at the documented risk that an unlucky
partition makes a later round undecodable.

Message indices are 1-based throughout, matching the wire format.
"""

from __future__ import annotations

import operator
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
    is_canonical,
    is_canonical_packed,
    next_prime,
    pack_row,
    packed_sum,
    reduce_packed,
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
        """Download cost of a round, in packets: one per block per column."""
        return self.block_count(round_no) * len(round_column_indices(self.m, self.l, round_no))


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


class RoundAnswer:
    """One round's coded packets, in the order packet_layout gives.

    The packets have two forms: residue tuples (`packets`), which the wire,
    the transcript and the audit read, and packed rows (`packed`, see
    field.pack_row), which the client's solver reads.  An answer stores the
    form it is made from and builds the other the first time it is read.
    The server makes its answers from reduced packed rows (from_packed); an
    answer from the wire or from a caller holds residue tuples.  Answers
    compare and hash by round number and residues, whatever form they hold.
    """

    __slots__ = ("round_no", "_packets", "_packed", "_symbols")

    def __init__(self, round_no: int, packets: tuple[Message, ...]):
        self.round_no = round_no
        self._packets: tuple[Message, ...] | None = packets
        self._packed: tuple[int, ...] | None = None
        self._symbols: int | None = None

    @classmethod
    def from_packed(cls, round_no: int, rows: tuple[int, ...], symbols: int) -> "RoundAnswer":
        """An answer of packed rows of `symbols` slots, each slot a residue."""
        answer = cls(round_no, None)
        answer._packed, answer._symbols = rows, symbols
        return answer

    @property
    def packets(self) -> tuple[Message, ...]:
        """The packets as residue tuples."""
        if self._packets is None:
            self._packets = tuple(tuple(split_row(row, self._symbols)) for row in self._packed)
        return self._packets

    @property
    def packed(self) -> tuple[int, ...]:
        """The packets as packed rows.  A packet holding a value outside
        [0, 2^64), which no slot holds, becomes -1, which no packed row is."""
        if self._packed is None:
            self._packed = tuple(map(_pack_packet, self._packets))
        return self._packed

    @property
    def symbols(self) -> int | None:
        """The symbol count of every packet, or None when they differ.  A
        packed row does not record it: an answer made from packed rows
        keeps the count it was given."""
        if self._symbols is None:
            counts = set(map(len, self._packets))
            if len(counts) == 1:
                self._symbols = counts.pop()
        return self._symbols

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.round_no, self.packets) == (other.round_no, other.packets)

    def __hash__(self) -> int:
        return hash((self.round_no, self.packets))

    def __repr__(self) -> str:
        return f"RoundAnswer(round_no={self.round_no!r}, packets={self.packets!r})"


def _pack_packet(packet: Message) -> int:
    try:
        return pack_row(packet)
    except OverflowError:
        return -1


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

    The blocks must partition [1..K] (block_owners) and, from round 2 on,
    each merge two blocks of the previous accepted query (merge_parts).
    """
    r = query.round_no
    if r < 1 or r > params.max_rounds:
        raise MalformedQuery(f"round {r} outside 1..{params.max_rounds}")
    if len(query.blocks) != params.block_count(r):
        raise MalformedQuery(
            f"round {r} needs {params.block_count(r)} blocks, got {len(query.blocks)}"
        )
    size = params.block_size(r)
    for block in query.blocks:
        if len(block) != size:
            raise MalformedQuery(f"round {r} blocks must have size {size}")
        if not all(map(operator.lt, block, block[1:])):
            raise MalformedQuery("block indices must be sorted and distinct")
    try:
        block_owners(params.k, query.blocks)
    except MalformedQuery as exc:
        raise MalformedQuery(f"round {r} blocks do not partition [1..{params.k}]: {exc}") from None
    if r >= 2:
        if prev is None or prev.round_no != r - 1:
            raise MalformedQuery("missing previous-round query for pairing check")
        owner = block_owners(params.k, prev.blocks)
        if not all(merge_parts(block, owner, prev.blocks) for block in query.blocks):
            raise MalformedQuery("every block must be the union of exactly two previous blocks")


def block_owners(k: int, blocks) -> list[int]:
    """The one partition rule: owner[u] is the position of the block holding u.

    MalformedQuery, naming the first fault in words that follow "does not
    partition [1..K]: ", unless no block is empty and every index lies in
    [1..K] and in exactly one block.  owner[0] is unused.
    """
    owner = [-1] * (k + 1)
    for pos, block in enumerate(blocks):
        if not block:
            raise MalformedQuery(f"block {pos + 1} is empty")
        for u in block:
            if not 1 <= u <= k:
                raise MalformedQuery(f"index {u} lies outside it")
            if owner[u] >= 0:
                raise MalformedQuery(f"index {u} lies in two blocks")
            owner[u] = pos
    if -1 in owner[1:]:
        raise MalformedQuery(f"index {owner.index(-1, 1)} lies in no block")
    return owner


def merge_parts(block: Block, owner: list[int], prev_blocks) -> tuple[int, int] | None:
    """The one merge rule: the positions of the two previous blocks whose union
    is block, or None.  owner is block_owners of prev_blocks and block's indices
    are distinct, so block is such a union exactly when its members' owners
    take two values whose blocks' sizes sum to its size."""
    parts = set(map(owner.__getitem__, block))
    if len(parts) != 2:
        return None
    a, b = parts
    return (a, b) if len(prev_blocks[a]) + len(prev_blocks[b]) == len(block) else None


def packet_layout(
    params: ProtocolParams, query: PartitionQuery
) -> list[tuple[Block, tuple[int, ...]]]:
    """The one packet rule: the query's blocks in order, each with its round's columns.

    An answer holds, block by block, one packet per column in ascending
    order: the block's Cauchy coefficients in that column times its messages.
    """
    columns = round_column_indices(params.m, params.l, query.round_no)
    return [(block, columns) for block in query.blocks]


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
        # not yet decoded waits beside them with its target, the previous
        # block that holds its demand.
        self._rounds: list[TranscriptRound] = []
        self._pending: tuple[PartitionQuery, Block] | None = None

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
        # The partition this round merges: singletons 1..K before round 1.
        if round_no > 1:
            prev = self._rounds[-1].query
        else:
            prev = PartitionQuery(0, tuple((i,) for i in range(1, self.params.k + 1)))
        target = prev.block_containing(demand)
        merged_set = set(self.known).union(target)
        # A previous block lies wholly inside the merged block or outside it.
        rest = [b for b in prev.blocks if b[0] not in merged_set]
        self.rng.shuffle(rest)
        width = len(prev.blocks) // self.params.block_count(round_no)
        blocks: list[Block] = [tuple(sorted(merged_set))]
        for i in range(0, len(rest), width):
            blocks.append(tuple(sorted(sum(rest[i : i + width], ()))))
        self.rng.shuffle(blocks)
        query = PartitionQuery(round_no, tuple(blocks))
        self._pending = (query, target)
        return query

    def decode_answer(self, answer: RoundAnswer) -> dict[int, Message]:
        """Decode a round's packets; returns the newly recovered messages.

        Every round recovers the whole previous block containing the demand
        (the demand alone at round 1) by solving a square system assembled
        from the entire history.
        """
        if self._pending is None:
            raise ProtocolOrder("no outstanding query to decode an answer for")
        query, target = self._pending
        round_no = query.round_no
        if answer.round_no != round_no:
            raise AnswerMismatch(
                f"answer is for round {answer.round_no}, expected {round_no}"
            )
        packed = answer.packed
        if len(packed) != self.params.packet_count(round_no):
            raise AnswerMismatch(
                f"expected {self.params.packet_count(round_no)} packets, got {len(packed)}"
            )
        symbols = self.params.symbols
        if answer.symbols != symbols:
            raise AnswerMismatch("packet symbol count does not match parameters")
        if not all(is_canonical_packed(row, symbols, self.params.q) for row in packed):
            raise AnswerMismatch("packet symbols must be residues mod q")
        current = TranscriptRound(query, answer)
        recovered = self._decode_merge_round(current, target)
        self.known.update(recovered)
        self._rounds.append(current)
        self._pending = None
        return recovered

    def _decode_merge_round(self, current: TranscriptRound, target: Block) -> dict[int, Message]:
        params = self.params
        coeff = self.cauchy.coeff
        unknowns = list(target)
        target_set = set(target)

        # One row per packet whose block meets the target, in packet order
        # round by round, less the block's known members: only this round's
        # block has any.  The difference stays an unreduced packed sum, which
        # the solver reduces once, after it combines.
        rows: list[list[int]] = []
        rhs: list[int] = []
        for rnd in (*self._rounds, current):
            end = 0  # each block's packets follow those of the blocks before it
            for block, columns in packet_layout(params, rnd.query):
                end += len(columns)
                if target_set.isdisjoint(block):
                    continue
                members = set(block)
                known = members - target_set
                terms = [self._packed[u] for u in known]
                for col, packet in zip(columns, rnd.answer.packed[end - len(columns) : end]):
                    rows.append([coeff(u, col) if u in members else 0 for u in unknowns])
                    rhs.append(packet)
                    if known:
                        rhs[-1] += packed_sum([-coeff(u, col) for u in known], terms, params.q)

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
        rows: list[int] = []
        for block, columns in packet_layout(self.params, query):
            messages = [packed[idx - 1] for idx in block]
            for col in columns:
                coeffs = [self.cauchy.coeff(idx, col) for idx in block]
                rows.append(reduce_packed(packed_sum(coeffs, messages, q), symbols, q))
        self._prev = query
        return RoundAnswer.from_packed(query.round_no, tuple(rows), symbols)


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

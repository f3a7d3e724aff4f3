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
to the client's decode, which checks it with field.is_canonical_packed;
RoundAnswer builds residue tuples only for a reader that wants them.

A round decodes its target, the previous block holding the demand (the
demand alone at round 1), along the target's merge tree.  The history of
a block B, the packets of the earlier blocks inside it, leaves M degrees
of freedom, its coordinates z in F_q^M, so B's response to any later
column is s_B + r_B·z: a node keeps only those responses, over the
columns still ahead.  A round-1 block's one packet gives them directly;
a merged block B1 + B2 fixes M of its halves' 2M coordinates with its
own M packets, an M x 2M elimination, and keeps the rest.  The round's
own M packets, less the chain's known messages, then fix the target's
z, and one pass down the tree recovers every member.  A merge costs
O(M^2) residue operations and M whole-message multiply-adds per column
still ahead, and the pass down about M multiply-adds per member, where
one square system over the whole history would cost O(|T|^3) and |T|^2.
A singular step is SingularSystem.

Systems from round 3 on mix masked first-round rows with plain Cauchy
columns and can be singular; for the canonical points some are, at every
prime.  Sessions with three or more rounds therefore default to
q = SESSION_PRIME and seeded random points (see session_cauchy), where a
singular system is rare but not ruled out.  Explicit q keeps the
canonical matrix:  useful for reproducing fixed examples, at the
documented risk that an unlucky partition makes a later round
undecodable.

Message indices are 1-based throughout, matching the wire format.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from .cauchy import (
    CauchyMatrix,
    build_cauchy,
    check_field_size,
    derive_l,
    round_column_indices,
)
from .errors import (
    AnswerMismatch,
    DemandKnown,
    InconsistentTranscript,
    InvalidParams,
    MalformedQuery,
    ProtocolOrder,
    RoundOutOfRange,
    RoundsExhausted,
    SingularMatrix,
    SingularSystem,
)
from .field import (
    check_modulus,
    eliminate,
    is_canonical,
    is_canonical_packed,
    next_prime,
    pack_row,
    packed_sum,
    reduce_packed,
    split_row,
)
from .field import solve_linear_system  # noqa: F401 (perfbench/tracing.py wraps protocol.solve_linear_system)

Block = tuple[int, ...]
Message = tuple[int, ...]

# Default field for schedules with three or more rounds.  The canonical
# equally-spaced points admit merged blocks whose round-3 decode system is
# singular -- for some shapes identically in the integers, so no prime
# rescues them.  Sessions therefore default to a large field and seeded
# random point sets (session_cauchy), on which any one split is singular
# with probability about 1/q.
SESSION_PRIME = 2147483647  # 2^31 - 1

def _check_coding_matrix(cauchy: CauchyMatrix, params: "ProtocolParams") -> None:
    """InvalidParams unless the coding matrix has the parameters' K, M and q (l follows)."""
    have = (len(cauchy.x_points), cauchy.m, cauchy.q)
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
        prime.  Longer schedules default to SESSION_PRIME, where the
        session matrix's random points make a singular decode system rare;
        at small q some merged blocks are undecodable no matter which
        points are chosen (for the canonical points, no prime at all
        avoids this).  Passing q explicitly always wins.  At l >= 2 any
        field keeps some decode risk (see session_cauchy).
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


def session_cauchy(params: ProtocolParams) -> CauchyMatrix:
    """The coding matrix a session uses when the caller does not supply one.

    Two-round schedules, and longer ones at an explicitly chosen q, use the
    canonical matrix.  Longer schedules at the default field
    (q = SESSION_PRIME) use points drawn from a seed that names the shape,
    a constant of (K, M) that nothing checks here: the test suite certifies
    round 3 for the shapes it and the benchmark run.  At other shapes, past
    round 3 and at an explicit q a singular decode system stays possible,
    and it is a fatal error (SingularSystem).  build_cauchy keeps the matrix.
    """
    k, m, l, q = params.k, params.m, params.l, params.q
    if l < 2 or q != SESSION_PRIME:
        return build_cauchy(k, m, l, q)
    pts = random.Random(f"cauchy-points:{k}:{m}:{l}:{q}:0").sample(range(q), k + m * l + 1)
    return build_cauchy(k, m, l, q, tuple(pts[:k]), tuple(pts[k:]))


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
    field.pack_row), which the client's decode reads.  An answer stores the
    form it is made from and builds the other the first time it is read.
    The server makes its answers from reduced packed rows (from_packed); an
    answer from the wire or from a caller holds residue tuples.  Answers
    compare and hash by round number and residues, whatever form they hold.
    `symbols` is every packet's width, or None when they differ: the server
    and the wire reader pass the width they know, else it is measured once.
    """

    __slots__ = ("round_no", "symbols", "_packets", "_packed")

    def __init__(self, round_no: int, packets: tuple[Message, ...], symbols: int | None = None):
        self.round_no = round_no
        self._packets: tuple[Message, ...] | None = packets
        self._packed: tuple[int, ...] | None = None
        if symbols is None:
            widths = set(map(len, packets))
            symbols = widths.pop() if len(widths) == 1 else None
        self.symbols = symbols

    @classmethod
    def from_packed(cls, round_no: int, rows: tuple[int, ...], symbols: int) -> "RoundAnswer":
        """An answer of packed rows of `symbols` slots, each slot a residue."""
        answer = cls(round_no, None, symbols)
        answer._packed = rows
        return answer

    def __len__(self) -> int:
        """The packet count, read from whichever form the answer holds."""
        return len(self._packed if self._packets is None else self._packets)

    @property
    def packets(self) -> tuple[Message, ...]:
        """The packets as residue tuples."""
        if self._packets is None:
            self._packets = tuple(tuple(split_row(row, self.symbols)) for row in self._packed)
        return self._packets

    @property
    def packed(self) -> tuple[int, ...]:
        """The packets as packed rows.  A packet holding a value outside
        [0, 2^64), which no slot holds, becomes -1, which no packed row is."""
        if self._packed is None:
            self._packed = tuple(map(_pack_packet, self._packets))
        return self._packed

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
    """Everything the server saw: parameters, coding points, and all rounds.

    owners is the one transcript verdict, judged once and cached outside
    the fields (dataclasses.replace makes a fresh, unjudged copy): the
    transcript reader and every auditor read it.  Pairing is the
    posterior's to judge, and the coding points check_points'.
    """

    params: ProtocolParams
    cauchy_x: tuple[int, ...]
    cauchy_y: tuple[int, ...]
    rounds: tuple[TranscriptRound, ...]

    @property
    def costs(self) -> tuple[int, ...]:
        return tuple(len(r.answer) for r in self.rounds)

    @cached_property
    def owners(self) -> tuple[list[int], ...]:
        """Each round's block_owners: InconsistentTranscript unless the rounds
        are numbered 1, 2, ..., each partitions [1..K] and, once every round
        has, each answer passes the one answer rule (check_answer)."""
        if not self.rounds:
            raise InconsistentTranscript("transcript has no rounds")
        k = self.params.k
        owners = []
        for j, rnd in enumerate(self.rounds, start=1):
            if rnd.query.round_no != j:
                raise InconsistentTranscript(f"transcript rounds not contiguous at position {j}")
            try:
                owners.append(block_owners(k, rnd.query.blocks))
            except MalformedQuery as exc:
                raise InconsistentTranscript(
                    f"round {j} does not partition [1..{k}]: {exc}"
                ) from None
        for j, rnd in enumerate(self.rounds, start=1):
            try:
                check_answer(self.params, rnd.query, rnd.answer)
            except (AnswerMismatch, RoundOutOfRange) as exc:
                raise InconsistentTranscript(f"round {j}: {exc}") from None
        return tuple(owners)

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


def check_answer(params: ProtocolParams, query: PartitionQuery, answer: RoundAnswer) -> None:
    """The one answer rule, for the client and the transcript reader: AnswerMismatch
    naming the first fault unless the answer has the query's round, packet_count
    packets and params.symbols symbols each (RoundOutOfRange past the last round)."""
    if answer.round_no != query.round_no:
        raise AnswerMismatch(f"answer round does not match query round {query.round_no}")
    count = params.packet_count(query.round_no)
    if len(answer) != count:
        raise AnswerMismatch(f"expected {count} packets, got {len(answer)}")
    if answer.symbols != params.symbols:
        raise AnswerMismatch(f"packets must each have {params.symbols} symbols")


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
        # as the decode reduced it, so no message is packed twice.
        self._packed: dict[int, int] = {i: pack_row(msg) for i, msg in self.known.items()}
        # The decoded rounds are the session's transcript; a query sent but
        # not yet decoded waits beside them with its target, the previous
        # block that holds its demand.
        self._rounds: list[TranscriptRound] = []
        # block_owners of the decoded rounds, each made when a merge tree first reads it
        self._owners: list[list[int]] = []
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
        (the demand alone at round 1).  The target's merge tree is reduced
        from its round-1 blocks up, this round's packets fix the target's
        M remaining degrees of freedom, and back-substitution down the
        tree recovers its members (_decode_tree); no system has more than
        M rows.  SingularSystem names the round and the size of the block
        whose system is singular.
        """
        if self._pending is None:
            raise ProtocolOrder("no outstanding query to decode an answer for")
        (query, target), params = self._pending, self.params
        check_answer(params, query, answer)
        symbols, q = params.symbols, params.q
        if not all(is_canonical_packed(row, symbols, q) for row in answer.packed):
            raise AnswerMismatch("packet symbols must be residues mod q")
        # This round's block is the target merged with the chain: its
        # packets less the chain's known messages, left unreduced, are the
        # last equations on the target.
        pos = next(pos for pos, block in enumerate(query.blocks) if target[0] in block)
        block, columns = packet_layout(params, query)[pos]
        chain = [u for u in block if u in self._packed]
        known = [self._packed[u] for u in chain]
        packets = answer.packed[pos * len(columns) : (pos + 1) * len(columns)]
        table = self.cauchy.columns
        rhs = [
            packet + packed_sum([q - table[c - 1][u - 1] for u in chain], known, q)
            for packet, c in zip(packets, columns)
        ]
        if query.round_no > 1:
            # The merge tree reads the owner arrays of rounds 1 .. round_no - 2.
            while len(self._owners) < query.round_no - 2:
                blocks = self._rounds[len(self._owners)].query.blocks
                self._owners.append(block_owners(params.k, blocks))
            values = _decode_tree(params, self.cauchy, self._rounds, self._owners, target, rhs)
        else:  # one packet on the demand: times its Cauchy entry's inverse (< 2^109)
            demand = target[0]
            value = rhs[0] * self.cauchy.inverse(demand, columns[0])
            values = {demand: reduce_packed(value, symbols, q, 126)}
        self._packed.update(values)
        recovered = {u: tuple(split_row(values[u], symbols)) for u in target}
        self.known.update(recovered)
        self._rounds.append(TranscriptRound(query, answer))
        self._pending = None
        return recovered


def _decode_tree(
    params: ProtocolParams, cauchy: CauchyMatrix, rounds: list[TranscriptRound],
    owners: list[list[int]], target: Block, rhs: list[int]
) -> dict[int, int]:
    """The target's members as reduced packed rows, by index: the one
    solution of its history's packets and of rhs, this round's packets on
    it less the chain's messages.

    The history, the packets of the target's merge tree, is found from the
    top with the one merge rule.  Each node keeps M coordinate rows
    (residues) and one packed row s over the columns still ahead of it: its
    block's response to column c is s[c] + sum_i rows[i][c]·z_i over its
    coordinates z.  A leaf's coordinates are its members but the first; a
    merge keeps the free ones (F) of its halves' 2M and records eliminate's
    split (S, F, H) and t, so that w_S = t - H·w_F.  The target's rows fix
    its z, and one pass down the tree recovers the members.  owners[j - 1]
    is block_owners of round j.  Slot bounds: see field.pack_row.
    """
    q, m, symbols, round_no = params.q, params.m, params.symbols, len(rounds) + 1
    # levels[j - 1]: positions of the tree's round-j blocks, halves side by side
    levels = [[rounds[-1].query.blocks.index(target)]]
    for j in range(len(rounds), 1, -1):
        blocks, below = rounds[j - 1].query.blocks, rounds[j - 2].query.blocks
        owner = owners[j - 2]
        levels.insert(0, [h for pos in levels[0] for h in merge_parts(blocks[pos], owner, below)])

    def solve(rows, values, size):
        """eliminate's split of G, whose row k is column k of the rows, and
        G_S^-1·(values[:M] - values[M:]), reduced."""
        try:
            split = eliminate([[row[k] for row in rows] for k in range(m)], q)
        except SingularMatrix:
            raise SingularSystem(
                f"round {round_no} cannot decode: the system of a {size}-message block is singular"
            ) from None
        coeffs = ([*e, *[-v for v in e]] for e in split[2])
        return split, [reduce_packed(packed_sum(c, values, q), symbols, q, 126) for c in coeffs]

    # Round 1 codes with column 1 alone, and rounds 2 .. round_no with
    # columns 2 .. (round_no - 1)·M + 1, M each, in order.
    first_column, ahead = cauchy.columns[0], cauchy.columns[1 : (round_no - 1) * m + 1]
    layout, packets = packet_layout(params, rounds[0].query), rounds[0].answer.packed
    states, leaves = [], []
    for pos in levels[0]:
        (b0, *others), _ = layout[pos]
        inv0, head = cauchy.inverse(b0, 1), [column[b0 - 1] for column in ahead]
        weights = [first_column[u - 1] * inv0 % q for u in others]
        rows = [
            [(c[u - 1] - h * a) % q for c, h in zip(ahead, head)] for u, a in zip(others, weights)
        ]
        states.append((rows, [h * inv0 % q * packets[pos] for h in head]))
        leaves.append((b0, others, [inv0, *[-a for a in weights]], packets[pos]))
    merges = []
    for j, (rnd, positions) in enumerate(zip(rounds[1:], levels[1:]), start=2):
        packets, merged, level = rnd.answer.packed, [], []
        for (rows_l, sums_l), (rows_r, sums_r), pos in zip(states[::2], states[1::2], positions):
            rows, halves = rows_l + rows_r, map(operator.add, sums_l[:m], sums_r[:m])
            values = [*packets[pos * m : pos * m + m], *halves]
            (pivots, free, _, h), t = solve(rows, values, params.block_size(j))
            # the halves' responses, and the pivot coordinates' at w_F = 0
            sums, pivot_rows = list(map(operator.add, sums_l[m:], sums_r[m:])), []
            for s, tk in zip(pivots, t):
                pivot_rows.append(rows[s][m:])
                sums = [v + c * tk for v, c in zip(sums, pivot_rows[-1])]
            kept = []
            for f, column in zip(free, zip(*h)):  # row_F - H·row_S
                out = rows[f][m:]
                for r, row in zip(column, pivot_rows):
                    out = [v - r * c for v, c in zip(out, row)]
                kept.append([v % q for v in out])
            merged.append((kept, sums))
            level.append((pivots, free, h, t))
        states = merged
        merges.append(level)
    [(rows, sums)] = states
    zs = [solve(rows, [*rhs, *sums], len(target))[1]]
    bits = 62 + m.bit_length()  # M + 1 products of reduced residues
    for level in reversed(merges):
        below = []
        for (pivots, free, h, t), z in zip(level, zs):
            w = [0] * (2 * m)
            for f, zf in zip(free, z):
                w[f] = zf
            for s, tk, row in zip(pivots, t, h):
                value = packed_sum([1, *[-v for v in row]], [tk, *z], q)
                w[s] = reduce_packed(value, symbols, q, bits)
            below += (w[:m], w[m:])
        zs = below
    solved = {}
    for (b0, others, weights, packet), z in zip(leaves, zs):
        solved.update(zip(others, z))
        solved[b0] = reduce_packed(packed_sum(weights, [packet, *z], q), symbols, q, bits)
    return solved


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
        packed, table = self.database.packed, self.cauchy.columns
        rows: list[int] = []
        for block, columns in packet_layout(self.params, query):
            # A block holds M + 1 >= 2 messages, so pick returns a tuple.
            pick = operator.itemgetter(*[idx - 1 for idx in block])
            messages = pick(packed)
            # |B| products of residues, each < 2^62: a slot < 2^bits (field.pack_row)
            bits = 62 + (len(block) - 1).bit_length()
            for c in columns:
                packet = packed_sum(pick(table[c - 1]), messages, q)
                rows.append(reduce_packed(packet, symbols, q, bits))
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

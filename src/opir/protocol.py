"""Client and server state machines for the online partition-retrieval protocol.

One session runs up to l+1 rounds.  Each round the client sends an ordered
partition of the message indices [1..K] and the server answers with coded
packets built from fixed Cauchy-matrix columns:

* Round 1: K/(M+1) blocks of size M+1.  One block is the demand index plus
  the M side-information indices; the rest of [K] is partitioned uniformly
  at random.  The server returns one packet per block (column 1).
* Round i >= 2: the previous round's blocks are merged in pairs.  The block
  holding the new demand is merged with the block holding the client's
  accumulated known set; the remaining blocks are paired uniformly at
  random.  The server returns M packets per block (columns (i-2)M+2 ..
  (i-1)M+1).

Decoding round 1 is a single subtraction and inversion.  Decoding round
i >= 2 gathers, from the whole stored history, every packet supported
inside the previous-round block that holds the demand, subtracts known
messages from the current round's packets, and solves the resulting square
system, recovering the entire block, which then feeds later rounds.

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
from functools import cached_property

from .cauchy import (
    CauchyMatrix,
    all_merge_systems_invertible,
    build_cauchy,
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
    PrimeField,
    combine_packed,
    is_prime,
    next_prime,
    pack_row,
    solve_linear_system,
)

Block = tuple[int, ...]
Message = tuple[int, ...]

# Default field for schedules with three or more rounds.  The canonical
# equally-spaced points admit merged blocks whose round-3 decode system is
# singular -- for some shapes identically in the integers, so no prime
# rescues them.  Sessions therefore default to a large field and searched
# point sets that pass all_merge_systems_invertible exhaustively.
SESSION_PRIME = 2147483647  # 2^31 - 1

# Point sets certified decode-safe at SESSION_PRIME (see session_cauchy).
# Each was found by the deterministic search in _search_safe_points and is
# re-verified against the exhaustive check by the test suite.
_SAFE_POINTS: dict[tuple[int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {
    (8, 1): (
        (690072302, 1567055383, 1680381238, 1121585757,
         563730987, 1411602855, 1453046722, 1668947987),
        (383618720, 1004379449, 479328205),
    ),
    (12, 2): (
        (125783487, 2016945426, 1347297603, 310376144, 764601701, 1527062891,
         454675889, 871338968, 1758806542, 1201037408, 979462745, 1485818360),
        (2094066615, 383178531, 1564300121, 944119874, 352437205),
    ),
    (16, 3): (
        (58117088, 253515402, 713856209, 445833048, 672927510, 1280701199,
         1886002980, 1447989846, 2034641911, 851575410, 2093243109, 837799413,
         1566311499, 2124602916, 1914081214, 1662350221),
        (158966112, 728203836, 1133100519, 1484321534, 1447318132,
         2059715231, 92089322),
    ),
}

_session_cauchy_cache: dict[tuple[int, int, int, int], CauchyMatrix] = {}


def _canonical(row, q: int) -> bool:
    """True when every symbol of a row is a residue in [0, q); min/max run at C speed."""
    return not row or (0 <= min(row) and max(row) < q)


def derive_l(k: int, m: int) -> int:
    """The l with K = (M+1)*2^l; InvalidParams unless K/(M+1) is a power of two >= 2."""
    ratio = k // (m + 1) if m >= 1 and k % (m + 1) == 0 else 0
    if ratio < 2 or ratio & (ratio - 1):
        raise InvalidParams(f"K/(M+1) must be a power of two >= 2: K={k}, M={m}")
    return ratio.bit_length() - 1


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters: K messages, side-information size M, K/(M+1) = 2^l."""

    k: int
    m: int
    l: int
    q: int
    symbols: int = 1

    def __post_init__(self) -> None:
        if self.m < 1 or self.l < 1:
            raise InvalidParams(f"need M >= 1 and l >= 1, got M={self.m}, l={self.l}")
        if self.k != (self.m + 1) * 2**self.l:
            raise InvalidParams(
                f"K must equal (M+1)*2^l: K={self.k}, M={self.m}, l={self.l}"
            )
        if self.symbols < 1:
            raise InvalidParams("messages need at least one symbol")
        if self.k > 0xFFFF or self.symbols > 0xFFFF:
            # The wire carries message indices and the symbol count in 2 bytes.
            raise InvalidParams(
                f"K and symbols must be at most 65535, got K={self.k}, symbols={self.symbols}"
            )
        if not is_prime(self.q):
            raise InvalidParams(f"q={self.q} is not prime")
        if self.q < self.k + self.m * self.l + 1:
            raise InvalidParams(
                f"need q >= K + M*l + 1 = {self.k + self.m * self.l + 1}, got q={self.q}"
            )

    @classmethod
    def create(cls, k: int, m: int, q: int | None = None, symbols: int = 1) -> "ProtocolParams":
        """Derive l from K and M and pick a default field when q is omitted.

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
        return cls(k=k, m=m, l=l, q=q, symbols=symbols)

    @cached_property
    def field(self) -> PrimeField:
        return PrimeField(self.q)

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


def _search_safe_points(k: int, m: int, l: int, q: int) -> CauchyMatrix:
    """Deterministically search point sets until the exhaustive check passes.

    At q = SESSION_PRIME a random point set fails for some merged block with
    probability well under a percent, so the first attempt almost always
    wins; the attempt cap only guards against hopelessly small fields.
    """
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
    all_merge_systems_invertible: pinned constants for the common shapes,
    a deterministic search otherwise.  Longer schedules at an explicitly
    chosen q keep the canonical matrix; there a singular decode system
    stays possible and is treated as a fatal error.
    """
    if params.l < 2 or params.q != SESSION_PRIME:
        return build_cauchy(params.k, params.m, params.l, params.q)
    key = (params.k, params.m, params.l, params.q)
    cached = _session_cauchy_cache.get(key)
    if cached is None:
        pinned = _SAFE_POINTS.get((params.k, params.m))
        if pinned is not None:
            cached = build_cauchy(
                params.k, params.m, params.l, params.q, pinned[0], pinned[1]
            )
        else:
            cached = _search_safe_points(params.k, params.m, params.l, params.q)
        _session_cauchy_cache[key] = cached
    return cached


@dataclass(frozen=True)
class Database:
    """The server's K messages, each a tuple of `symbols` residues mod q."""

    q: int
    messages: tuple[Message, ...]

    def __post_init__(self) -> None:
        if not self.messages:
            raise InvalidParams("database must hold at least one message")
        width = len(self.messages[0])
        for msg in self.messages:
            if len(msg) != width:
                raise InvalidParams("all messages must have the same symbol count")
            if not _canonical(msg, self.q):
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
        """Message by 1-based index."""
        return self.messages[index - 1]

    @cached_property
    def packed(self) -> tuple[int, ...]:
        """Every message as one packed int (field.pack_row), 0-based, built once."""
        return tuple(pack_row(msg) for msg in self.messages)


@dataclass(frozen=True)
class SideInformation:
    """The client's initial M known messages; the server never sees this."""

    indices: frozenset[int]
    values: tuple[tuple[int, Message], ...]

    @classmethod
    def from_values(cls, values: dict[int, Message]) -> "SideInformation":
        return cls(
            indices=frozenset(values),
            values=tuple(sorted(values.items())),
        )

    @classmethod
    def from_database(cls, database: Database, indices) -> "SideInformation":
        return cls.from_values({i: database.message(i) for i in indices})

    def as_dict(self) -> dict[int, Message]:
        return dict(self.values)

    @property
    def size(self) -> int:
        return len(self.indices)


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

    def block_index(self, block: Block) -> int:
        return self.blocks.index(block)


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

    @property
    def download_cost(self) -> int:
        return len(self.answer.packets)


@dataclass(frozen=True)
class Transcript:
    """Everything the server saw: parameters, coding points, and all rounds."""

    params: ProtocolParams
    cauchy_x: tuple[int, ...]
    cauchy_y: tuple[int, ...]
    rounds: tuple[TranscriptRound, ...]

    @property
    def costs(self) -> tuple[int, ...]:
        return tuple(r.download_cost for r in self.rounds)

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
        prev_sets = [set(b) for b in prev.blocks]
        for block in query.blocks:
            bset = set(block)
            parents = [p for p in prev_sets if p & bset]
            if len(parents) != 2 or set().union(*parents) != bset:
                raise MalformedQuery(
                    "every block must be the union of exactly two previous blocks"
                )


class Client:
    """The querying side: builds partitions, tracks state, decodes answers.

    Single-owner mutable state machine.  All randomness comes from one
    seeded generator, so a session is fully reproducible from its seed.
    """

    def __init__(
        self,
        params: ProtocolParams,
        side: SideInformation,
        cauchy: CauchyMatrix,
        seed: int | None = None,
    ):
        if side.size != params.m:
            raise InvalidParams(f"side information must hold M={params.m} messages")
        if not all(1 <= i <= params.k for i in side.indices):
            raise InvalidParams("side-information indices out of range")
        if (cauchy.k, cauchy.m, cauchy.l) != (params.k, params.m, params.l):
            raise InvalidParams("coding matrix shape does not match parameters")
        if cauchy.field.q != params.q:
            raise InvalidParams("coding matrix field does not match parameters")
        for _, msg in side.values:
            if len(msg) != params.symbols:
                raise InvalidParams("side-information messages have wrong symbol count")
            if not _canonical(msg, params.q):
                raise InvalidParams("side-information symbols must be residues mod q")
        self.params = params
        self.side = side
        self.cauchy = cauchy
        self.rng = random.Random(seed)
        self.known: dict[int, Message] = side.as_dict()
        # Packed copies of known messages, made by _packed_known when a
        # subtraction first needs them: the last round's block is never packed.
        self._packed: dict[int, int] = {}
        self.merged_chain: frozenset[int] | None = None
        self._queries: list[PartitionQuery] = []
        self._answers: list[RoundAnswer] = []
        self._pending_demand: int | None = None

    @property
    def rounds_completed(self) -> int:
        return len(self._answers)

    @property
    def has_pending_query(self) -> bool:
        return len(self._queries) > len(self._answers)

    def build_query(self, demand: int) -> PartitionQuery:
        """Build the next round's query for the given demand index."""
        if self.has_pending_query:
            raise ProtocolOrder("previous query has not been answered and decoded")
        round_no = self.rounds_completed + 1
        if round_no > self.params.max_rounds:
            raise RoundsExhausted(
                f"all {self.params.max_rounds} rounds used; every message is known"
            )
        if not 1 <= demand <= self.params.k:
            raise ValueError(f"demand index {demand} outside [1..{self.params.k}]")
        if demand in self.known:
            raise DemandKnown(f"message {demand} is already known")
        if round_no == 1:
            query = self._build_round1(demand)
        else:
            query = self._build_merge_round(round_no, demand)
        self._queries.append(query)
        self._pending_demand = demand
        return query

    def _build_round1(self, demand: int) -> PartitionQuery:
        params = self.params
        demand_block = tuple(sorted({demand} | self.side.indices))
        rest = [i for i in range(1, params.k + 1) if i not in demand_block]
        self.rng.shuffle(rest)
        width = params.m + 1
        blocks: list[Block] = [demand_block]
        for i in range(0, len(rest), width):
            blocks.append(tuple(sorted(rest[i : i + width])))
        self.rng.shuffle(blocks)
        return PartitionQuery(1, tuple(blocks))

    def _build_merge_round(self, round_no: int, demand: int) -> PartitionQuery:
        prev = self._queries[-1]
        chain = self.merged_chain
        assert chain is not None
        chain_block = tuple(sorted(chain))
        demand_block = prev.block_containing(demand)
        merged = tuple(sorted(chain_block + demand_block))
        rest = [b for b in prev.blocks if b != chain_block and b != demand_block]
        self.rng.shuffle(rest)
        blocks: list[Block] = [merged]
        for i in range(0, len(rest), 2):
            blocks.append(tuple(sorted(rest[i] + rest[i + 1])))
        self.rng.shuffle(blocks)
        return PartitionQuery(round_no, tuple(blocks))

    def decode_answer(self, answer: RoundAnswer) -> dict[int, Message]:
        """Decode a round's packets; returns the newly recovered messages.

        Round 1 recovers the demand by subtracting side information from its
        block's packet.  Later rounds recover the whole previous-round block
        containing the demand by solving a square system assembled from the
        entire history.
        """
        if not self.has_pending_query:
            raise ProtocolOrder("no outstanding query to decode an answer for")
        query = self._queries[-1]
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
        if not all(_canonical(p, self.params.q) for p in answer.packets):
            raise AnswerMismatch("packet symbols must be residues mod q")
        demand = self._pending_demand
        assert demand is not None
        if round_no == 1:
            recovered = self._decode_round1(query, answer, demand)
            self.merged_chain = frozenset(query.block_containing(demand))
        else:
            recovered = self._decode_merge_round(query, answer, demand)
            self.merged_chain = frozenset(query.block_containing(demand))
        self.known.update(recovered)
        self._answers.append(answer)
        self._pending_demand = None
        return recovered

    def _packed_known(self, indices: list[int]) -> list[int]:
        """Packed copies of known messages, each packed on first use."""
        for i in indices:
            if i not in self._packed:
                self._packed[i] = pack_row(self.known[i])
        return [self._packed[i] for i in indices]

    def _decode_round1(
        self, query: PartitionQuery, answer: RoundAnswer, demand: int
    ) -> dict[int, Message]:
        params = self.params
        block = query.block_containing(demand)
        packet = pack_row(answer.packets[query.block_index(block)])
        # m_demand = c_demand^-1 · (packet - sum of c_j·m_j over the side set)
        inv = params.field.inv(self.cauchy.coeff(demand, 1))
        side = sorted(self.side.indices)
        coeffs = [inv] + [-inv * self.cauchy.coeff(idx, 1) for idx in side]
        rows = [packet] + self._packed_known(side)
        return {demand: tuple(combine_packed(coeffs, rows, params.symbols, params.q))}

    def _decode_merge_round(
        self, query: PartitionQuery, answer: RoundAnswer, demand: int
    ) -> dict[int, Message]:
        params = self.params
        field = params.field
        q = field.q
        prev = self._queries[query.round_no - 2]
        target = prev.block_containing(demand)
        unknowns = list(target)
        target_set = set(target)
        chain = self.merged_chain
        assert chain is not None

        rows: list[list[int]] = []
        rhs: list[list[int]] = []

        # History packets fully supported inside the target block need no
        # subtraction: their support is disjoint from everything known.
        for r in range(1, query.round_no):
            past_q = self._queries[r - 1]
            past_a = self._answers[r - 1]
            columns = round_column_indices(params.m, params.l, r)
            for bi, block in enumerate(past_q.blocks):
                if not set(block) <= target_set:
                    continue
                for ci, col in enumerate(columns):
                    packet = past_a.packets[bi * len(columns) + ci]
                    rows.append(
                        [self.cauchy.coeff(u, col) if u in block else 0 for u in unknowns]
                    )
                    rhs.append(list(packet))

        # Current round: the merged block is target + chain; subtract the
        # chain contributions (all known) to restrict support to the target.
        current = query.block_containing(demand)
        bi = query.block_index(current)
        columns = round_column_indices(params.m, params.l, query.round_no)
        known = sorted(chain)
        known_packed = self._packed_known(known)
        for ci, col in enumerate(columns):
            packet = pack_row(answer.packets[bi * len(columns) + ci])
            coeffs = [1] + [-self.cauchy.coeff(idx, col) for idx in known]
            rhs.append(combine_packed(coeffs, [packet] + known_packed, params.symbols, q))
            rows.append([self.cauchy.coeff(u, col) for u in unknowns])

        if len(rows) != len(unknowns):
            raise SingularSystem(
                f"assembled {len(rows)} equations for {len(unknowns)} unknowns"
            )
        try:
            solution = solve_linear_system(FieldMatrix(field, rows), rhs)
        except SingularMatrix as exc:
            raise SingularSystem(
                "decode system is singular; coding matrix property violated"
            ) from exc
        return {u: tuple(solution[i]) for i, u in enumerate(unknowns)}


class Server:
    """The answering side: holds the database, validates queries, codes packets.

    Deliberately holds no demand- or side-information-derived state; its
    whole view of the client is the received queries.
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
        elif (cauchy.k, cauchy.m, cauchy.l, cauchy.field.q) != (
            params.k,
            params.m,
            params.l,
            params.q,
        ):
            raise InvalidParams("coding matrix does not match parameters")
        self.database = database
        self.params = params
        self.cauchy = cauchy
        self._queries: list[PartitionQuery] = []

    def answer(self, query: PartitionQuery) -> RoundAnswer:
        """Validate a query and return its coded packets."""
        expected = len(self._queries) + 1
        if query.round_no != expected:
            raise ProtocolOrder(
                f"got round-{query.round_no} query, expected round {expected}"
            )
        prev = self._queries[-1] if self._queries else None
        validate_query(self.params, query, prev)
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
        self._queries.append(query)
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
    cauchy: CauchyMatrix | None = None,
) -> SessionResult:
    """Drive a full in-process session: one build/answer/decode per demand.

    Side-information values are taken from the database (outside tests and
    simulations the client would already hold them).
    """
    side = SideInformation.from_database(database, side_indices)
    server = Server(database, params, cauchy)
    client = Client(params, side, server.cauchy, seed=seed)
    rounds: list[TranscriptRound] = []
    recovered: list[dict[int, Message]] = []
    for demand in demands:
        query = client.build_query(demand)
        answer = server.answer(query)
        recovered.append(client.decode_answer(answer))
        rounds.append(TranscriptRound(query, answer))
    transcript = Transcript(
        params=params,
        cauchy_x=server.cauchy.x_points,
        cauchy_y=server.cauchy.y_points,
        rounds=tuple(rounds),
    )
    return SessionResult(transcript=transcript, recovered=tuple(recovered))

"""Bit-exact binary encodings: frames, queries, answers, transcripts, databases.

Frame layout: magic "OPIR" | version 0x01 | type | payload length (4-byte
LE) | payload.  All integers are little-endian and unsigned; message indices
are 1-based on the wire.  Frames are self-delimiting, so files and sockets
share one codec.

Payloads:
* QUERY: round (2B) | block count (2B) | per block: size (2B) | sorted
  indices (2B each).  Block order is preserved; it is protocol-relevant.
* ANSWER: round (2B) | packet count (2B) | symbols per packet (2B) |
  packets in protocol.packet_layout order, each symbol a 4B element < q.
* HELLO: k | m | l | q | symbols (4B each, 0 = unspecified) | flags (1B);
  if flags bit 0 is set: x-point count (2B), x points (4B each), y-point
  count (2B), y points (4B each).  A fully specified l must be the one with
  K = (M+1)*2^l.
* ERROR: code (1B) | reason length (2B) | UTF-8 reason.
* BYE: empty.

Decoders check format only: lengths, a round >= 1, indices ascending within
a block, residues below q.  protocol.block_owners judges whether a query
partitions [1..K] (the server through validate_query, transcript_from_bytes
directly); cauchy.check_points judges a HELLO's coding points in
Hello.session, so a repeated point is a DecodeError before any matrix is
built.  Pairing stays out: the audit must see a mis-paired round to refuse it.

A transcript file is a HELLO frame (fully specified, with points) followed
by alternating QUERY/ANSWER frames: exactly the server-visible bytes.

A database file is K | symbols | q (4B each) followed by K*symbols 4B
elements, row-major by message.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass

from .cauchy import check_points
from .errors import (
    DecodeError,
    InvalidParams,
    MalformedQuery,
    ParamMismatch,
    ProtocolOrder,
    RoundsExhausted,
)
from .field import is_canonical
from .protocol import (
    Database,
    PartitionQuery,
    ProtocolParams,
    RoundAnswer,
    Transcript,
    TranscriptRound,
    block_owners,
)

MAGIC = b"OPIR"
VERSION = 1
HEADER = struct.Struct("<4sBBI")

FRAME_QUERY = 0x01
FRAME_ANSWER = 0x02
FRAME_HELLO = 0x03
FRAME_ERROR = 0x04
FRAME_BYE = 0x05
_FRAME_TYPES = frozenset(
    (FRAME_QUERY, FRAME_ANSWER, FRAME_HELLO, FRAME_ERROR, FRAME_BYE)
)

ERR_PARAM_MISMATCH = 1
ERR_PROTOCOL_ORDER = 2
ERR_MALFORMED_QUERY = 3
ERR_ROUNDS_EXHAUSTED = 4
ERR_INTERNAL = 5

ERROR_CLASSES = {
    ERR_PARAM_MISMATCH: ParamMismatch,
    ERR_PROTOCOL_ORDER: ProtocolOrder,
    ERR_MALFORMED_QUERY: MalformedQuery,
    ERR_ROUNDS_EXHAUSTED: RoundsExhausted,
}
ERROR_CODES = {cls: code for code, cls in ERROR_CLASSES.items()}


def error_code_for(exc: Exception) -> int:
    for cls, code in ERROR_CODES.items():
        if isinstance(exc, cls):
            return code
    return ERR_INTERNAL


def exception_for(code: int, reason: str) -> Exception:
    cls = ERROR_CLASSES.get(code)
    if cls is None:
        return DecodeError(f"server error: {reason}")
    return cls(reason)


def encode_frame(frame_type: int, payload: bytes = b"") -> bytes:
    if frame_type not in _FRAME_TYPES:
        raise ValueError(f"unknown frame type {frame_type:#x}")
    return HEADER.pack(MAGIC, VERSION, frame_type, len(payload)) + payload


def _parse_header(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Check the frame header at offset; returns (type, payload length).

    The one header parser: decode_frame and read_frame each call it and
    never each other, so a traced run counts every frame once.
    """
    if len(data) - offset < HEADER.size:
        raise DecodeError("truncated frame header")
    magic, version, frame_type, length = HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}")
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}")
    if frame_type not in _FRAME_TYPES:
        raise DecodeError(f"unknown frame type {frame_type:#x}")
    return frame_type, length


def decode_frame(data: bytes, offset: int = 0) -> tuple[int, bytes, int]:
    """Parse one frame at offset; returns (type, payload, next offset)."""
    frame_type, length = _parse_header(data, offset)
    start = offset + HEADER.size
    if len(data) - start < length:
        raise DecodeError("truncated frame payload")
    return frame_type, data[start : start + length], start + length


def read_frame(reader, limit: int | None = None) -> tuple[int, bytes]:
    """Read one frame from a file-like object (blocking, exact reads); a
    header claiming a payload over `limit` is a DecodeError before it is read."""
    frame_type, length = _parse_header(_read_exact(reader, HEADER.size, "frame header"))
    if limit is not None and length > limit:
        raise DecodeError(f"frame payload of {length} bytes exceeds the limit of {limit}")
    return frame_type, _read_exact(reader, length, "frame payload")


def max_client_payload(params: ProtocolParams) -> int:
    """The longest legal client payload: a HELLO with coding points, 25 +
    4(K + Ml + 1) bytes, or a round-1 QUERY, 4 + 2K/(M+1) + 2K bytes."""
    hello = 25 + 4 * (params.k + params.m * params.l + 1)
    return max(hello, 4 + 2 * params.n1 + 2 * params.k)


def _read_exact(reader, n: int, what: str) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = reader.read(remaining)
        if not chunk:
            raise DecodeError(f"connection closed mid-{what}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _Cursor:
    """Bounds-checked little-endian reads over one payload.

    u16s and u32s read a whole run of integers (a block, a packet run, a
    point list) with one struct.unpack after one length check, so a short
    payload is a DecodeError before anything is unpacked, however large the
    count it claims.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("truncated payload")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def _run(self, n: int, code: str, width: int) -> tuple[int, ...]:
        start = self.pos
        if start + n * width > len(self.data):
            raise DecodeError("truncated payload")
        self.pos = start + n * width
        return struct.unpack_from(f"<{n}{code}", self.data, start)

    def u8(self) -> int:
        return self.take(1)[0]

    def u16s(self, n: int) -> tuple[int, ...]:
        return self._run(n, "H", 2)

    def u32s(self, n: int) -> tuple[int, ...]:
        return self._run(n, "I", 4)

    def u16(self) -> int:
        return self.u16s(1)[0]

    def done(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError("trailing bytes in payload")


def _check_residues(values: tuple[int, ...], q: int, what: str) -> None:
    if not is_canonical(values, q):
        raise DecodeError(f"{what} element not a canonical residue mod {q}")


def _rows(values: tuple[int, ...], width: int) -> tuple[tuple[int, ...], ...]:
    return tuple(values[i : i + width] for i in range(0, len(values), width))


def encode_query(query: PartitionQuery) -> bytes:
    values = [query.round_no, len(query.blocks)]
    for block in query.blocks:
        values.append(len(block))
        values += block
    return struct.pack(f"<{len(values)}H", *values)


def decode_query(payload: bytes) -> PartitionQuery:
    cur = _Cursor(payload)
    round_no = cur.u16()
    if round_no < 1:
        raise DecodeError("round number must be >= 1")
    blocks = tuple(cur.u16s(cur.u16()) for _ in range(cur.u16()))
    cur.done()
    for block in blocks:
        if not all(map(operator.lt, block, block[1:])):
            raise DecodeError("block indices must be sorted strictly ascending")
    return PartitionQuery(round_no, blocks)


def encode_answer(answer: RoundAnswer) -> bytes:
    packets, symbols = answer.packets, answer.symbols
    if not packets or symbols is None:
        raise ValueError("an answer needs at least one packet, all of one width")
    values = [v for packet in packets for v in packet]
    header = struct.pack("<3H", answer.round_no, len(packets), symbols)
    return header + struct.pack(f"<{len(values)}I", *values)


def decode_answer(payload: bytes, q: int) -> RoundAnswer:
    cur = _Cursor(payload)
    round_no = cur.u16()
    if round_no < 1:
        raise DecodeError("round number must be >= 1")
    count, symbols = cur.u16s(2)
    if count < 1 or symbols < 1:
        raise DecodeError("answer needs at least one packet and one symbol")
    values = cur.u32s(count * symbols)
    cur.done()
    _check_residues(values, q, "packet")
    return RoundAnswer(round_no, _rows(values, symbols))


@dataclass(frozen=True)
class Hello:
    """Parameter announcement; zero fields mean "use the peer's value"."""

    k: int = 0
    m: int = 0
    l: int = 0
    q: int = 0
    symbols: int = 0
    x_points: tuple[int, ...] | None = None
    y_points: tuple[int, ...] | None = None

    @classmethod
    def for_params(
        cls,
        params: ProtocolParams,
        x_points: tuple[int, ...] | None = None,
        y_points: tuple[int, ...] | None = None,
    ) -> "Hello":
        return cls(
            k=params.k,
            m=params.m,
            l=params.l,
            q=params.q,
            symbols=params.symbols,
            x_points=x_points,
            y_points=y_points,
        )

    @property
    def has_points(self) -> bool:
        return self.x_points is not None and self.y_points is not None

    def require(self, offer: Hello | ProtocolParams) -> None:
        """ParamMismatch unless `offer` has every parameter this HELLO names.

        A zero field names nothing.  The server checks a client's request
        against its parameters, and the client checks the server's reply
        against its own request before it builds anything from the reply.
        """
        for name in ("k", "m", "l", "q", "symbols"):
            value, offered = getattr(self, name), getattr(offer, name)
            if value and value != offered:
                raise ParamMismatch(f"{name}={value} requested, server has {offered}")

    def params(self) -> ProtocolParams:
        """The parameters a fully specified HELLO names; its l must be the one K and M imply."""
        if 0 in (self.k, self.m, self.l, self.q, self.symbols):
            raise DecodeError("hello leaves parameters unspecified")
        params = ProtocolParams(k=self.k, m=self.m, q=self.q, symbols=self.symbols)
        if self.l != params.l:
            raise InvalidParams(
                f"K must equal (M+1)*2^l: K={self.k}, M={self.m}, l={self.l}"
            )
        return params

    def session(self) -> tuple[ProtocolParams, tuple[int, ...], tuple[int, ...]]:
        """(params, x points, y points) of a server's HELLO or a transcript header."""
        params = self.params()
        if not self.has_points:
            raise DecodeError("hello is missing the coding points")
        try:
            return params, *check_points(
                params.k, params.m, params.l, params.q, self.x_points, self.y_points
            )
        except InvalidParams as exc:
            raise DecodeError(str(exc)) from None


def encode_hello(hello: Hello) -> bytes:
    fields = (hello.k, hello.m, hello.l, hello.q, hello.symbols)
    out = struct.pack("<5IB", *fields, 1 if hello.has_points else 0)
    if hello.has_points:
        assert hello.x_points is not None and hello.y_points is not None
        for points in (hello.x_points, hello.y_points):
            out += struct.pack(f"<H{len(points)}I", len(points), *points)
    return out


def decode_hello(payload: bytes) -> Hello:
    cur = _Cursor(payload)
    k, m, l, q, symbols = cur.u32s(5)
    flags = cur.u8()
    x_points = y_points = None
    if flags & 1:
        x_points = cur.u32s(cur.u16())
        y_points = cur.u32s(cur.u16())
    cur.done()
    return Hello(k=k, m=m, l=l, q=q, symbols=symbols, x_points=x_points, y_points=y_points)


def encode_error(code: int, reason: str) -> bytes:
    data = reason.encode("utf-8")
    return code.to_bytes(1, "little") + len(data).to_bytes(2, "little") + data


def decode_error(payload: bytes) -> tuple[int, str]:
    cur = _Cursor(payload)
    code = cur.u8()
    length = cur.u16()
    reason = cur.take(length).decode("utf-8", errors="replace")
    cur.done()
    return code, reason


def transcript_to_bytes(transcript: Transcript) -> bytes:
    """Serialize exactly what crossed the wire: HELLO then QUERY/ANSWER pairs."""
    hello = Hello.for_params(
        transcript.params, transcript.cauchy_x, transcript.cauchy_y
    )
    out = bytearray(encode_frame(FRAME_HELLO, encode_hello(hello)))
    for rnd in transcript.rounds:
        out += encode_frame(FRAME_QUERY, encode_query(rnd.query))
        out += encode_frame(FRAME_ANSWER, encode_answer(rnd.answer))
    return bytes(out)


def transcript_from_bytes(data: bytes) -> Transcript:
    frame_type, payload, offset = decode_frame(data)
    if frame_type != FRAME_HELLO:
        raise DecodeError("transcript must start with a parameter header")
    params, x_points, y_points = decode_hello(payload).session()
    rounds = []
    pending: PartitionQuery | None = None
    while offset < len(data):
        frame_type, payload, offset = decode_frame(data, offset)
        if frame_type == FRAME_QUERY:
            if pending is not None:
                raise DecodeError("two queries without an answer between them")
            pending = decode_query(payload)
            try:
                block_owners(params.k, pending.blocks)
            except MalformedQuery as exc:
                raise DecodeError(f"query does not partition [1..{params.k}]: {exc}") from None
        elif frame_type == FRAME_ANSWER:
            if pending is None:
                raise DecodeError("answer without a preceding query")
            answer = decode_answer(payload, params.q)
            if answer.round_no != pending.round_no:
                raise DecodeError("answer round does not match query round")
            rounds.append(TranscriptRound(pending, answer))
            pending = None
        else:
            raise DecodeError("transcript may only contain query/answer frames")
    if pending is not None:
        raise DecodeError("transcript ends with an unanswered query")
    return Transcript(
        params=params,
        cauchy_x=x_points,
        cauchy_y=y_points,
        rounds=tuple(rounds),
    )


def write_database(database: Database, path: str) -> None:
    row = struct.Struct(f"<{database.symbols}I")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<3I", database.k, database.symbols, database.q))
        for msg in database.messages:
            fh.write(row.pack(*msg))


def read_database(path: str) -> Database:
    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data)
    k, symbols, q = cur.u32s(3)
    if k < 1 or symbols < 1 or q < 2:
        raise DecodeError("database header is not plausible")
    values = cur.u32s(k * symbols)
    cur.done()
    _check_residues(values, q, "database")
    return Database(q=q, messages=_rows(values, symbols))

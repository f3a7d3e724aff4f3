"""Bit-exact binary encodings: frames, queries, answers, transcripts, databases.

Frame layout: magic "OPIR" | version 0x01 | type | payload length (4-byte
LE) | payload.  All integers are little-endian and unsigned; message indices
are 1-based on the wire.  Frames are self-delimiting, so files and sockets
share one codec.

Payloads:
* QUERY: round (2B) | block count (2B) | per block: size (2B) | sorted
  indices (2B each).  Block order is preserved; it is protocol-relevant.
* ANSWER: round (2B) | packet count (2B) | symbols per packet (2B) |
  packets in canonical order, each symbol a 4B element < q.
* HELLO: k | m | l | q | symbols (4B each, 0 = unspecified) | flags (1B);
  if flags bit 0 is set: x-point count (2B), x points (4B each), y-point
  count (2B), y points (4B each).
* ERROR: code (1B) | reason length (2B) | UTF-8 reason.
* BYE: empty.

A transcript file is a HELLO frame (fully specified, with points) followed
by alternating QUERY/ANSWER frames: exactly the server-visible bytes.

A database file is K | symbols | q (4B each) followed by K*symbols 4B
elements, row-major by message.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import (
    DecodeError,
    MalformedQuery,
    ParamMismatch,
    ProtocolOrder,
    RoundsExhausted,
)
from .protocol import (
    Database,
    PartitionQuery,
    ProtocolParams,
    RoundAnswer,
    Transcript,
    TranscriptRound,
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


def read_frame(reader) -> tuple[int, bytes]:
    """Read one frame from a file-like object (blocking, exact reads)."""
    frame_type, length = _parse_header(_read_exact(reader, HEADER.size, "frame header"))
    return frame_type, _read_exact(reader, length, "frame payload")


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
    """Bounds-checked little-endian reads over one payload."""

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

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "little")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def done(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError("trailing bytes in payload")


def encode_query(query: PartitionQuery) -> bytes:
    out = bytearray()
    out += query.round_no.to_bytes(2, "little")
    out += len(query.blocks).to_bytes(2, "little")
    for block in query.blocks:
        out += len(block).to_bytes(2, "little")
        for idx in block:
            out += idx.to_bytes(2, "little")
    return bytes(out)


def decode_query(payload: bytes) -> PartitionQuery:
    cur = _Cursor(payload)
    round_no = cur.u16()
    if round_no < 1:
        raise DecodeError("round number must be >= 1")
    count = cur.u16()
    if count < 1:
        raise DecodeError("query needs at least one block")
    blocks = []
    seen: set[int] = set()
    total = 0
    for _ in range(count):
        size = cur.u16()
        if size < 1:
            raise DecodeError("empty block")
        block = tuple(cur.u16() for _ in range(size))
        if any(block[i] >= block[i + 1] for i in range(size - 1)):
            raise DecodeError("block indices must be sorted strictly ascending")
        if seen & set(block):
            raise DecodeError("blocks overlap")
        seen.update(block)
        total += size
        blocks.append(block)
    cur.done()
    if seen != set(range(1, total + 1)):
        raise DecodeError("blocks do not cover a contiguous 1..K range")
    return PartitionQuery(round_no, tuple(blocks))


def encode_answer(answer: RoundAnswer) -> bytes:
    symbols = len(answer.packets[0]) if answer.packets else 0
    out = bytearray()
    out += answer.round_no.to_bytes(2, "little")
    out += len(answer.packets).to_bytes(2, "little")
    out += symbols.to_bytes(2, "little")
    for packet in answer.packets:
        for value in packet:
            out += value.to_bytes(4, "little")
    return bytes(out)


def decode_answer(payload: bytes, q: int) -> RoundAnswer:
    cur = _Cursor(payload)
    round_no = cur.u16()
    if round_no < 1:
        raise DecodeError("round number must be >= 1")
    count = cur.u16()
    symbols = cur.u16()
    if count < 1 or symbols < 1:
        raise DecodeError("answer needs at least one packet and one symbol")
    packets = []
    for _ in range(count):
        packet = tuple(cur.u32() for _ in range(symbols))
        if any(v >= q for v in packet):
            raise DecodeError(f"packet element not a canonical residue mod {q}")
        packets.append(packet)
    cur.done()
    return RoundAnswer(round_no, tuple(packets))


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

    def params(self) -> ProtocolParams:
        if 0 in (self.k, self.m, self.l, self.q, self.symbols):
            raise DecodeError("hello leaves parameters unspecified")
        return ProtocolParams(
            k=self.k, m=self.m, l=self.l, q=self.q, symbols=self.symbols
        )


def encode_hello(hello: Hello) -> bytes:
    out = bytearray()
    for value in (hello.k, hello.m, hello.l, hello.q, hello.symbols):
        out += value.to_bytes(4, "little")
    out += (1 if hello.has_points else 0).to_bytes(1, "little")
    if hello.has_points:
        assert hello.x_points is not None and hello.y_points is not None
        out += len(hello.x_points).to_bytes(2, "little")
        for p in hello.x_points:
            out += p.to_bytes(4, "little")
        out += len(hello.y_points).to_bytes(2, "little")
        for p in hello.y_points:
            out += p.to_bytes(4, "little")
    return bytes(out)


def decode_hello(payload: bytes) -> Hello:
    cur = _Cursor(payload)
    k, m, l, q, symbols = (cur.u32() for _ in range(5))
    flags = cur.u8()
    x_points = y_points = None
    if flags & 1:
        x_points = tuple(cur.u32() for _ in range(cur.u16()))
        y_points = tuple(cur.u32() for _ in range(cur.u16()))
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
    hello = decode_hello(payload)
    params = hello.params()
    if not hello.has_points:
        raise DecodeError("transcript header is missing the coding points")
    assert hello.x_points is not None and hello.y_points is not None
    if len(hello.x_points) != params.k or len(hello.y_points) != params.m * params.l + 1:
        raise DecodeError("coding point counts do not match parameters")
    rounds = []
    pending: PartitionQuery | None = None
    while offset < len(data):
        frame_type, payload, offset = decode_frame(data, offset)
        if frame_type == FRAME_QUERY:
            if pending is not None:
                raise DecodeError("two queries without an answer between them")
            pending = decode_query(payload)
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
        cauchy_x=hello.x_points,
        cauchy_y=hello.y_points,
        rounds=tuple(rounds),
    )


def write_database(database: Database, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(database.k.to_bytes(4, "little"))
        fh.write(database.symbols.to_bytes(4, "little"))
        fh.write(database.q.to_bytes(4, "little"))
        for msg in database.messages:
            for value in msg:
                fh.write(value.to_bytes(4, "little"))


def read_database(path: str) -> Database:
    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data)
    k = cur.u32()
    symbols = cur.u32()
    q = cur.u32()
    if k < 1 or symbols < 1 or q < 2:
        raise DecodeError("database header is not plausible")
    messages = []
    for _ in range(k):
        msg = tuple(cur.u32() for _ in range(symbols))
        if any(v >= q for v in msg):
            raise DecodeError(f"database element not a canonical residue mod {q}")
        messages.append(msg)
    cur.done()
    return Database(q=q, messages=tuple(messages))

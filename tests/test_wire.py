"""Frame and payload codecs: pinned layouts, roundtrips, and rejection paths."""

import dataclasses
import io
import tracemalloc

import pytest

from opir import (
    Database,
    DecodeError,
    InvalidParams,
    MalformedQuery,
    ParamMismatch,
    PartitionQuery,
    ProtocolOrder,
    ProtocolParams,
    RoundsExhausted,
    run_session,
)
from opir.protocol import RoundAnswer
from opir import wire
from opir.wire import (
    ERR_INTERNAL,
    ERR_MALFORMED_QUERY,
    ERR_PARAM_MISMATCH,
    ERR_PROTOCOL_ORDER,
    ERR_ROUNDS_EXHAUSTED,
    FRAME_ANSWER,
    FRAME_BYE,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_QUERY,
    HEADER,
    MAGIC,
    VERSION,
    Hello,
    decode_answer,
    decode_error,
    decode_frame,
    decode_hello,
    decode_query,
    encode_answer,
    encode_error,
    encode_frame,
    encode_hello,
    encode_query,
    error_code_for,
    exception_for,
    max_client_payload,
    read_database,
    read_frame,
    transcript_from_bytes,
    transcript_to_bytes,
    write_database,
)
from conftest import GOLDEN_SEED, GRID, counting_database, random_session


# ---------------------------------------------------------------------------
# frame layer
# ---------------------------------------------------------------------------

def test_frame_layout_is_pinned():
    # magic | version | type | u32 LE length, then the payload verbatim
    assert MAGIC == b"OPIR"
    assert VERSION == 1
    assert HEADER.size == 10
    assert encode_frame(FRAME_BYE) == b"OPIR\x01\x05\x00\x00\x00\x00"
    frame = encode_frame(FRAME_QUERY, b"\xaa\xbb")
    assert frame == b"OPIR\x01\x01\x02\x00\x00\x00\xaa\xbb"


def test_frame_type_codes_are_pinned():
    assert (FRAME_QUERY, FRAME_ANSWER, FRAME_HELLO, FRAME_ERROR, FRAME_BYE) == (
        1, 2, 3, 4, 5,
    )


def test_frame_roundtrip_and_self_delimiting():
    data = encode_frame(FRAME_HELLO, b"abc") + encode_frame(FRAME_BYE)
    frame_type, payload, offset = decode_frame(data)
    assert (frame_type, payload) == (FRAME_HELLO, b"abc")
    frame_type, payload, offset = decode_frame(data, offset)
    assert (frame_type, payload) == (FRAME_BYE, b"")
    assert offset == len(data)


def test_encode_frame_rejects_unknown_type():
    with pytest.raises(ValueError):
        encode_frame(0x77)


def test_decode_frame_rejections():
    good = encode_frame(FRAME_BYE)
    with pytest.raises(DecodeError, match="magic"):
        decode_frame(b"NOPE" + good[4:])
    with pytest.raises(DecodeError, match="version"):
        decode_frame(b"OPIR\x02" + good[5:])
    with pytest.raises(DecodeError, match="frame type"):
        decode_frame(b"OPIR\x01\x66" + good[6:])
    with pytest.raises(DecodeError, match="header"):
        decode_frame(good[:-1])
    # length says 2 bytes but none follow
    with pytest.raises(DecodeError, match="payload"):
        decode_frame(b"OPIR\x01\x05\x02\x00\x00\x00")


def test_read_frame_from_stream():
    data = encode_frame(FRAME_QUERY, b"xy") + encode_frame(FRAME_BYE)
    stream = io.BytesIO(data)
    assert read_frame(stream) == (FRAME_QUERY, b"xy")
    assert read_frame(stream) == (FRAME_BYE, b"")
    with pytest.raises(DecodeError, match="closed"):
        read_frame(stream)


def test_read_frame_truncated_payload():
    data = encode_frame(FRAME_QUERY, b"xy")
    with pytest.raises(DecodeError, match="closed mid-frame payload"):
        read_frame(io.BytesIO(data[:-1]))


def test_read_frame_limit():
    """A payload longer than the limit is refused from its header alone."""
    data = encode_frame(FRAME_QUERY, b"xyz")
    assert read_frame(io.BytesIO(data), limit=3) == (FRAME_QUERY, b"xyz")
    stream = io.BytesIO(data)
    with pytest.raises(DecodeError, match="exceeds the limit of 2"):
        read_frame(stream, limit=2)
    assert stream.tell() == HEADER.size


def test_max_client_payload_fits_the_largest_client_frames():
    """The limit is exactly the larger of a HELLO with points and a round-1
    query, and every query of a session fits under it."""
    for k, m in GRID:
        params, _, _, _, result = random_session(k, m, seed=k + m)
        transcript = result.transcript
        hello = Hello.for_params(params, transcript.cauchy_x, transcript.cauchy_y)
        queries = [len(encode_query(r.query)) for r in transcript.rounds]
        assert max(queries) == queries[0]
        assert max_client_payload(params) == max(len(encode_hello(hello)), queries[0])


def test_frame_readers_share_header_checks(monkeypatch):
    """read_frame rejects what decode_frame rejects, without calling it (and
    the other way round), so a wrapper on either sees each frame once."""
    good = encode_frame(FRAME_QUERY, b"xy")
    for bad, match in (
        (b"NOPE" + good[4:], "magic"),
        (b"OPIR\x02" + good[5:], "version"),
        (b"OPIR\x01\x66" + good[6:], "frame type"),
    ):
        with pytest.raises(DecodeError, match=match):
            decode_frame(bad)
        with pytest.raises(DecodeError, match=match):
            read_frame(io.BytesIO(bad))

    def nested(*args):
        raise AssertionError("one frame reader called the other")

    monkeypatch.setattr(wire, "decode_frame", nested)
    assert read_frame(io.BytesIO(good)) == (FRAME_QUERY, b"xy")
    monkeypatch.setattr(wire, "decode_frame", decode_frame)
    monkeypatch.setattr(wire, "read_frame", nested)
    assert decode_frame(good) == (FRAME_QUERY, b"xy", len(good))


# ---------------------------------------------------------------------------
# query codec
# ---------------------------------------------------------------------------

def test_query_roundtrip_preserves_block_order():
    # order carries information, so the codec must not normalize it
    query = PartitionQuery.of(1, [(4, 5, 6), (1, 2, 3), (10, 11, 12), (7, 8, 9)])
    again = decode_query(encode_query(query))
    assert again == query
    assert again.blocks[0] == (4, 5, 6)


def test_query_bytes_are_pinned():
    query = PartitionQuery.of(1, [(2,), (1,)])
    assert encode_query(query) == bytes(
        [1, 0, 2, 0, 1, 0, 2, 0, 1, 0, 1, 0]
    )


def test_query_decode_rejections():
    """decode_query checks format only; partitions are block_owners' to judge."""
    good = encode_query(PartitionQuery.of(2, [(1, 2), (3, 4)]))
    with pytest.raises(DecodeError, match="truncated"):
        decode_query(b"")
    with pytest.raises(DecodeError, match="round"):
        decode_query(bytes([0, 0]) + good[2:])
    with pytest.raises(DecodeError, match="sorted"):
        decode_query(bytes([1, 0, 1, 0, 2, 0, 2, 0, 1, 0]))
    with pytest.raises(DecodeError, match="trailing"):
        decode_query(good + b"\x00")


# Round-1 blocks at K=12 that are no partition of [1..12], each with the
# fault block_owners names.
NON_PARTITIONS = [
    ([(1, 2, 3), (3, 4, 5), (6, 7, 8), (9, 10, 11, 12)], "index 3 lies in two blocks"),
    ([(1, 2), (4, 5, 6), (7, 8, 9), (10, 11, 12)], "index 3 lies in no block"),
    ([(1, 2, 3), (4, 5, 6), (), (7, 8, 9, 10, 11, 12)], "block 3 is empty"),
    ([], "index 1 lies in no block"),
    ([(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 13)], "index 13 lies outside it"),
]


@pytest.mark.parametrize(
    "blocks, fault", NON_PARTITIONS, ids=["overlap", "gap", "empty-block", "no-blocks", "past-k"]
)
def test_transcript_query_must_partition(golden, blocks, fault):
    """The reader passes a well-formed non-partition through; the transcript
    reader refuses it with block_owners' fault."""
    _, _, result = golden
    t = result.transcript
    query = PartitionQuery.of(1, blocks)
    assert decode_query(encode_query(query)) == query
    bad = dataclasses.replace(t.rounds[0], query=query)
    data = transcript_to_bytes(dataclasses.replace(t, rounds=(bad,) + t.rounds[1:]))
    with pytest.raises(DecodeError, match=rf"does not partition \[1\.\.12\]: {fault}"):
        transcript_from_bytes(data)


# ---------------------------------------------------------------------------
# answer codec
# ---------------------------------------------------------------------------

def test_answer_roundtrip():
    answer = RoundAnswer(2, ((3, 16), (0, 9), (12, 1)))
    assert decode_answer(encode_answer(answer), 17) == answer


def test_answer_payload_size_is_pinned():
    # round (2) + count (2) + symbols (2) + 2 packets x 1 symbol x 4 bytes
    answer = RoundAnswer(3, ((5,), (11,)))
    payload = encode_answer(answer)
    assert len(payload) == 14
    assert payload[:6] == bytes([3, 0, 2, 0, 1, 0])


def test_encode_answer_refuses_what_decode_answer_refuses():
    """The header's width is the one width of every packet: packets of
    differing widths, or none, cannot be written."""
    for packets in (((1, 2), (3,)), ((1,), (2, 3)), ()):
        with pytest.raises(ValueError, match="one width"):
            encode_answer(RoundAnswer(1, packets))


def test_answer_decode_rejections():
    answer = RoundAnswer(1, ((16,),))
    payload = encode_answer(answer)
    assert decode_answer(payload, 17).packets == ((16,),)
    # 16 is a residue mod 17 but 17 itself is not canonical
    with pytest.raises(DecodeError, match="residue"):
        decode_answer(encode_answer(RoundAnswer(1, ((17,),))), 17)
    with pytest.raises(DecodeError, match="round"):
        decode_answer(bytes([0, 0]) + payload[2:], 17)
    with pytest.raises(DecodeError, match="at least one packet"):
        decode_answer(bytes([1, 0, 0, 0, 1, 0]), 17)
    with pytest.raises(DecodeError, match="at least one packet"):
        decode_answer(bytes([1, 0, 1, 0, 0, 0]), 17)
    with pytest.raises(DecodeError, match="trailing"):
        decode_answer(payload + b"\x00", 17)
    with pytest.raises(DecodeError, match="truncated"):
        decode_answer(payload[:-1], 17)


# ---------------------------------------------------------------------------
# hello codec
# ---------------------------------------------------------------------------

def test_hello_roundtrip_without_points():
    hello = Hello(k=12, m=2, l=2, q=17, symbols=1)
    again = decode_hello(encode_hello(hello))
    assert again == hello
    assert not again.has_points
    assert again.params() == ProtocolParams(k=12, m=2, q=17, symbols=1)


def test_hello_roundtrip_with_points():
    params = ProtocolParams.create(4, 1, q=11)
    hello = Hello.for_params(params, (1, 2, 3, 4), (7, 8))
    again = decode_hello(encode_hello(hello))
    assert again == hello
    assert again.has_points
    assert again.x_points == (1, 2, 3, 4)


def test_hello_wildcards_cannot_build_params():
    # zero means "use the peer's value"; a full param set needs no zeros
    hello = Hello(k=12, m=2, l=2, q=0, symbols=1)
    assert decode_hello(encode_hello(hello)) == hello
    with pytest.raises(DecodeError, match="unspecified"):
        hello.params()


def test_hello_l_must_match_k_and_m():
    with pytest.raises(InvalidParams, match=r"K must equal \(M\+1\)\*2\^l"):
        Hello(k=12, m=2, l=1, q=17, symbols=1).params()
    with pytest.raises(InvalidParams, match="power of two"):
        Hello(k=12, m=3, l=2, q=17, symbols=1).params()


def _peak_bytes(call):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParams):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hello_l_is_never_an_exponent():
    """A huge l read from a HELLO is compared with the derived one, never
    raised to as a power of two."""
    hello = Hello(k=12, m=2, l=2**24, q=17, symbols=1)
    data = encode_frame(FRAME_HELLO, encode_hello(hello))
    assert len(data) == 31
    assert _peak_bytes(hello.params) < 1 << 20
    assert _peak_bytes(lambda: transcript_from_bytes(data)) < 1 << 20


def test_hello_session_returns_params_and_points():
    params = ProtocolParams.create(4, 1, q=11)
    hello = Hello.for_params(params, (1, 2, 3, 4), (7, 8))
    assert hello.session() == (params, (1, 2, 3, 4), (7, 8))


def test_hello_session_needs_the_coding_points():
    params = ProtocolParams.create(4, 1, q=11)
    for hello in (
        Hello.for_params(params),
        Hello.for_params(params, (1, 2, 3, 4), None),
        Hello.for_params(params, None, (7, 8)),
    ):
        with pytest.raises(DecodeError, match="missing the coding points"):
            hello.session()
    for xs, ys in [((1, 2, 3), (7, 8)), ((1, 2, 3, 4), (7, 8, 9)), ((1, 2, 3, 4, 5), (7,))]:
        with pytest.raises(DecodeError, match="point counts"):
            Hello.for_params(params, xs, ys).session()


def test_hello_decode_rejections():
    hello = Hello.for_params(ProtocolParams.create(4, 1), (1, 2, 3, 4), (5, 6))
    payload = encode_hello(hello)
    with pytest.raises(DecodeError, match="truncated"):
        decode_hello(payload[:-1])
    with pytest.raises(DecodeError, match="trailing"):
        decode_hello(payload + b"\x00")


def test_every_proper_prefix_is_a_decode_error(tmp_path):
    """Truncation anywhere, even inside a bulk-read run of integers, is a
    DecodeError, never a struct.error or IndexError."""
    query = encode_query(PartitionQuery.of(2, [(1, 2, 5, 6), (3, 4, 7, 8)]))
    answer = encode_answer(RoundAnswer(2, ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))))
    hello = encode_hello(Hello.for_params(ProtocolParams.create(4, 1), (1, 2, 3, 4), (5, 6)))
    decoders = [(query, decode_query), (answer, lambda p: decode_answer(p, 17)),
                (hello, decode_hello)]
    for payload, decode in decoders:
        decode(payload)
        for cut in range(len(payload)):
            with pytest.raises(DecodeError):
                decode(payload[:cut])
    path = tmp_path / "db.bin"
    write_database(Database(q=17, messages=((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))), str(path))
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(DecodeError):
            read_database(str(path))


def test_answer_residue_checked_at_every_position():
    packets = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert decode_answer(encode_answer(RoundAnswer(2, packets)), 17).packets == packets
    for p in range(3):
        for s in range(3):
            for bad in (17, 2**32 - 1):
                rows = [list(packet) for packet in packets]
                rows[p][s] = bad
                payload = encode_answer(RoundAnswer(2, tuple(map(tuple, rows))))
                with pytest.raises(DecodeError, match="residue"):
                    decode_answer(payload, 17)


# ---------------------------------------------------------------------------
# error codec
# ---------------------------------------------------------------------------

def test_error_roundtrip():
    payload = encode_error(ERR_MALFORMED_QUERY, "blocks overlap ✗")
    assert decode_error(payload) == (ERR_MALFORMED_QUERY, "blocks overlap ✗")


def test_error_code_mapping_is_pinned():
    assert error_code_for(ParamMismatch("x")) == ERR_PARAM_MISMATCH == 1
    assert error_code_for(ProtocolOrder("x")) == ERR_PROTOCOL_ORDER == 2
    assert error_code_for(MalformedQuery("x")) == ERR_MALFORMED_QUERY == 3
    assert error_code_for(RoundsExhausted("x")) == ERR_ROUNDS_EXHAUSTED == 4
    assert error_code_for(ValueError("x")) == ERR_INTERNAL == 5


def test_exception_for_reverses_codes():
    assert isinstance(exception_for(ERR_PARAM_MISMATCH, "r"), ParamMismatch)
    assert isinstance(exception_for(ERR_PROTOCOL_ORDER, "r"), ProtocolOrder)
    assert isinstance(exception_for(ERR_MALFORMED_QUERY, "r"), MalformedQuery)
    assert isinstance(exception_for(ERR_ROUNDS_EXHAUSTED, "r"), RoundsExhausted)
    # internal and unknown codes degrade to a decode failure on our side
    assert isinstance(exception_for(ERR_INTERNAL, "r"), DecodeError)
    assert isinstance(exception_for(250, "r"), DecodeError)
    assert "r" in str(exception_for(ERR_PARAM_MISMATCH, "r"))


# ---------------------------------------------------------------------------
# transcript files
# ---------------------------------------------------------------------------

def test_transcript_roundtrip_golden(golden):
    _, _, result = golden
    data = transcript_to_bytes(result.transcript)
    again = transcript_from_bytes(data)
    assert again == result.transcript
    # and serialization is deterministic
    assert transcript_to_bytes(again) == data


def test_transcript_roundtrip_across_shapes():
    for (k, m), seed in (((4, 1), 5), ((8, 3), 6), ((16, 3), 7)):
        _, _, _, _, result = random_session(k, m, seed, symbols=3)
        assert transcript_from_bytes(transcript_to_bytes(result.transcript)) \
            == result.transcript


def test_transcript_must_start_with_hello(golden):
    _, _, result = golden
    rnd = result.transcript.rounds[0]
    data = encode_frame(FRAME_QUERY, encode_query(rnd.query))
    with pytest.raises(DecodeError, match="parameter header"):
        transcript_from_bytes(data)


def test_transcript_requires_coding_points(golden):
    params, _, result = golden
    hello = Hello.for_params(params)  # no points
    data = encode_frame(FRAME_HELLO, encode_hello(hello))
    for rnd in result.transcript.rounds:
        data += encode_frame(FRAME_QUERY, encode_query(rnd.query))
        data += encode_frame(FRAME_ANSWER, encode_answer(rnd.answer))
    with pytest.raises(DecodeError, match="coding points"):
        transcript_from_bytes(data)


def test_transcript_point_counts_must_match(golden):
    params, _, result = golden
    t = result.transcript
    hello = Hello.for_params(params, t.cauchy_x[:-1], t.cauchy_y)
    data = encode_frame(FRAME_HELLO, encode_hello(hello))
    with pytest.raises(DecodeError, match="point counts"):
        transcript_from_bytes(data)


def test_transcript_points_must_be_canonical(golden):
    """x_1 = 22 at q = 17 would build the same matrix as x_1 = 5, so one
    session would have two encodings; a point at or above q is refused."""
    params, _, result = golden
    t = result.transcript
    assert t.cauchy_x[0] == 5
    for xs, ys in [((22,) + t.cauchy_x[1:], t.cauchy_y), (t.cauchy_x, t.cauchy_y[:-1] + (17,))]:
        hello = Hello.for_params(params, xs, ys)
        with pytest.raises(DecodeError, match="coding point"):
            hello.session()
        data = transcript_to_bytes(dataclasses.replace(t, cauchy_x=xs, cauchy_y=ys))
        with pytest.raises(DecodeError, match="coding point"):
            transcript_from_bytes(data)


def test_transcript_points_must_be_distinct(golden):
    """A repeated x point, or a y point that is also an x point, is a
    DecodeError at read time, before any matrix is built."""
    params, _, result = golden
    t = result.transcript
    xs, ys = t.cauchy_x, t.cauchy_y
    for bad_x, bad_y in [((xs[1],) + xs[1:], ys), (xs, (xs[0],) + ys[1:])]:
        with pytest.raises(DecodeError, match="distinct"):
            Hello.for_params(params, bad_x, bad_y).session()
        data = transcript_to_bytes(dataclasses.replace(t, cauchy_x=bad_x, cauchy_y=bad_y))
        with pytest.raises(DecodeError, match="distinct"):
            transcript_from_bytes(data)


def _frames(transcript):
    hello = Hello.for_params(
        transcript.params, transcript.cauchy_x, transcript.cauchy_y
    )
    frames = [encode_frame(FRAME_HELLO, encode_hello(hello))]
    for rnd in transcript.rounds:
        frames.append(encode_frame(FRAME_QUERY, encode_query(rnd.query)))
        frames.append(encode_frame(FRAME_ANSWER, encode_answer(rnd.answer)))
    return frames


def test_transcript_rejects_malformed_frame_orders(golden):
    _, _, result = golden
    hello, q1, a1, q2, a2, q3, a3 = _frames(result.transcript)
    with pytest.raises(DecodeError, match="two queries"):
        transcript_from_bytes(hello + q1 + q2)
    with pytest.raises(DecodeError, match="without a preceding query"):
        transcript_from_bytes(hello + a1)
    with pytest.raises(DecodeError, match="round does not match"):
        transcript_from_bytes(hello + q1 + a2)
    with pytest.raises(DecodeError, match="unanswered query"):
        transcript_from_bytes(hello + q1 + a1 + q2)
    with pytest.raises(DecodeError, match="only contain query/answer"):
        transcript_from_bytes(hello + q1 + a1 + encode_frame(FRAME_BYE))


# ---------------------------------------------------------------------------
# database files
# ---------------------------------------------------------------------------

def test_database_file_roundtrip(tmp_path):
    database = counting_database()
    path = tmp_path / "db.bin"
    write_database(database, str(path))
    again = read_database(str(path))
    assert again == database
    # header is K | symbols | q, then 12 single-symbol messages
    assert path.stat().st_size == 12 + 12 * 4


def test_database_file_rejects_bad_elements(tmp_path):
    path = tmp_path / "db.bin"
    write_database(counting_database(), str(path))
    data = bytearray(path.read_bytes())
    data[12:16] = (17).to_bytes(4, "little")  # first element, q is 17
    path.write_bytes(bytes(data))
    with pytest.raises(DecodeError, match="residue"):
        read_database(str(path))


def test_database_file_rejects_truncation_and_bad_header(tmp_path):
    path = tmp_path / "db.bin"
    write_database(counting_database(), str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-2])
    with pytest.raises(DecodeError, match="truncated"):
        read_database(str(path))
    path.write_bytes(b"\x00" * len(data))
    with pytest.raises(DecodeError, match="plausible"):
        read_database(str(path))


# ---------------------------------------------------------------------------
# wire vs. in-process session
# ---------------------------------------------------------------------------

def test_golden_transcript_serializes_the_session_verbatim():
    params = ProtocolParams.create(12, 2, q=17)
    database = counting_database()
    result = run_session(params, database, [2, 3], [1, 4, 7], seed=GOLDEN_SEED)
    data = transcript_to_bytes(result.transcript)
    # one hello plus a query/answer pair per round
    kinds = []
    offset = 0
    while offset < len(data):
        frame_type, _, offset = decode_frame(data, offset)
        kinds.append(frame_type)
    assert kinds == [
        FRAME_HELLO,
        FRAME_QUERY, FRAME_ANSWER,
        FRAME_QUERY, FRAME_ANSWER,
        FRAME_QUERY, FRAME_ANSWER,
    ]

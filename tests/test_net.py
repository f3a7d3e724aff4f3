"""TCP transport: loopback equivalence, error frames, session lifecycle."""

import json
import random
import socket
import socketserver
import threading

import pytest

from opir import (
    Database,
    DecodeError,
    InvalidParams,
    ParamMismatch,
    PartitionQuery,
    ProtocolParams,
    RoundsExhausted,
    SideInformation,
    create_server,
    run_remote_session,
    run_session,
)
from opir.cauchy import canonical_points
from opir.net import RemoteSession, read_config
from opir import net, wire
from conftest import GOLDEN_SEED, counting_database


@pytest.fixture
def golden_server():
    """A live loopback server holding the 12-message counting database."""
    params = ProtocolParams.create(12, 2, q=17)
    server = create_server(counting_database(), params)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
    )
    thread.start()
    try:
        yield server.server_address, params
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _raw_hello(address):
    """Open a socket and perform the hello exchange by hand."""
    sock = socket.create_connection(address, timeout=5.0)
    f = sock.makefile("rwb")
    f.write(wire.encode_frame(wire.FRAME_HELLO, wire.encode_hello(wire.Hello())))
    f.flush()
    frame_type, payload = wire.read_frame(f)
    assert frame_type == wire.FRAME_HELLO
    return sock, f, wire.decode_hello(payload)


def _send_frame(f, frame_type, payload=b""):
    f.write(wire.encode_frame(frame_type, payload))
    f.flush()


def _expect_error(f, code):
    frame_type, payload = wire.read_frame(f)
    assert frame_type == wire.FRAME_ERROR
    got, reason = wire.decode_error(payload)
    assert got == code
    return reason


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------

def test_loopback_transcript_matches_in_process(golden_server):
    address, params = golden_server
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    remote = run_remote_session(address, side, [1, 4, 7], seed=GOLDEN_SEED)
    local = run_session(params, database, [2, 3], [1, 4, 7], seed=GOLDEN_SEED)
    assert remote.recovered == local.recovered
    assert wire.transcript_to_bytes(remote.transcript) == wire.transcript_to_bytes(
        local.transcript
    )


def test_server_hello_announces_params_and_points(golden_server):
    address, params = golden_server
    sock, f, hello = _raw_hello(address)
    try:
        assert hello.params() == params
        assert hello.has_points
        assert len(hello.x_points) == params.k
        assert len(hello.y_points) == params.m * params.l + 1
    finally:
        sock.close()


def test_full_remote_run_recovers_whole_database():
    # default parameters, so the searched point set crosses the wire
    params = ProtocolParams.create(8, 1, symbols=2)
    rng = random.Random(42)
    database = Database.random(8, 2, params.q, rng)
    server = create_server(database, params)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
    )
    thread.start()
    try:
        side_indices = [3]
        side = SideInformation.from_database(database, side_indices)
        with RemoteSession(server.server_address, side, seed=7) as session:
            for _ in range(params.max_rounds):
                unknown = [
                    i for i in range(1, 9) if i not in session.client.known
                ]
                session.retrieve(rng.choice(unknown))
            known = session.client.known
        assert known == {
            i: database.message(i) for i in range(1, 9)
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_sequential_sessions_on_one_server(golden_server):
    # demand sequences past round 1 are seed-dependent, so keep these short
    address, _ = golden_server
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    first = run_remote_session(address, side, [1], seed=1)
    second = run_remote_session(address, side, [5], seed=2)
    assert first.recovered[0][1] == (1,)
    assert second.recovered[0][5] == (5,)


def test_concurrent_sessions_are_independent(golden_server):
    address, _ = golden_server
    database = counting_database()
    side_a = SideInformation.from_database(database, [2, 3])
    side_b = SideInformation.from_database(database, [5, 9])
    with RemoteSession(address, side_a, seed=1) as a:
        with RemoteSession(address, side_b, seed=2) as b:
            got_a = a.retrieve(1)
            got_b = b.retrieve(11)
    assert got_a[1] == (1,)
    assert got_b[11] == (11,)


def test_client_refuses_fourth_round_locally(golden_server):
    address, _ = golden_server
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    with RemoteSession(address, side, seed=GOLDEN_SEED) as session:
        for demand in (1, 4, 7):
            session.retrieve(demand)
        with pytest.raises(RoundsExhausted):
            session.retrieve(10)


# ---------------------------------------------------------------------------
# parameter negotiation
# ---------------------------------------------------------------------------

def test_param_mismatch_raised_locally(golden_server):
    address, _ = golden_server
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    with pytest.raises(ParamMismatch, match="k=8"):
        RemoteSession(address, side, expect={"k": 8})
    with pytest.raises(ParamMismatch, match="q=19"):
        RemoteSession(address, side, expect={"q": 19})
    with pytest.raises(ParamMismatch, match="m=3 requested, server has 2"):
        RemoteSession(address, side, expect={"m": 3})
    with pytest.raises(ParamMismatch, match="l=3 requested, server has 2"):
        RemoteSession(address, side, expect={"l": 3})
    with pytest.raises(ParamMismatch, match="symbols=2 requested, server has 1"):
        RemoteSession(address, side, expect={"symbols": 2})


def _refuse_hello_from_fake_server(reply, side, expect=None):
    """Connect a RemoteSession to a server that answers every HELLO with
    `reply`; returns the exception the constructor raised."""
    listener = socket.create_server(("127.0.0.1", 0))

    def fake_server():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as f:
            wire.read_frame(f)
            _send_frame(f, wire.FRAME_HELLO, wire.encode_hello(reply))
            f.read()  # until the client hangs up

    thread = threading.Thread(target=fake_server, daemon=True)
    thread.start()
    try:
        with pytest.raises(Exception) as info:
            RemoteSession(listener.getsockname(), side, expect=expect)
        return info.value
    finally:
        thread.join(timeout=5)
        listener.close()


def test_client_refuses_server_hello_with_huge_l():
    """A server HELLO whose l is not the one K and M imply is InvalidParams,
    decided without raising 2 to that l."""
    reply = wire.Hello(
        k=12, m=2, l=2**24, q=17, symbols=1,
        x_points=tuple(range(20, 32)), y_points=tuple(range(5)),
    )
    side = SideInformation.from_database(counting_database(), [2, 3])
    exc = _refuse_hello_from_fake_server(reply, side)
    assert isinstance(exc, InvalidParams)
    assert "K must equal" in str(exc)


def test_client_refuses_unexpected_server_shape_before_building(monkeypatch):
    """A client that expects K=16, M=3 refuses a valid K=2048, M=1023 HELLO
    with matching points as ParamMismatch, without building its 2048 x 1024
    coding matrix."""
    builds = []
    monkeypatch.setattr(net, "build_cauchy", lambda *args: builds.append(args))
    q = 2**31 - 1
    reply = wire.Hello(
        k=2048, m=1023, l=1, q=q, symbols=1,
        x_points=tuple(range(1, 2049)), y_points=tuple(range(3000, 4024)),
    )
    database = Database.random(16, 1, q, random.Random(1))
    side = SideInformation.from_database(database, [1, 2, 3])
    exc = _refuse_hello_from_fake_server(reply, side, expect={"k": 16, "m": 3})
    assert isinstance(exc, ParamMismatch)
    assert str(exc) == "k=16 requested, server has 2048"
    assert builds == []


def test_client_hello_names_the_shape_of_its_side_information(monkeypatch):
    """Without `expect`, a client holding M=2 one-symbol messages asks for
    M=2 and one symbol, so a valid K=2048, M=1023 HELLO with matching points
    is ParamMismatch before its 2048 x 1024 coding matrix is built."""
    builds = []
    monkeypatch.setattr(net, "build_cauchy", lambda *args: builds.append(args))
    reply = wire.Hello(
        k=2048, m=1023, l=1, q=2**31 - 1, symbols=1,
        x_points=tuple(range(1, 2049)), y_points=tuple(range(3000, 4024)),
    )
    side = SideInformation.from_database(counting_database(), [2, 3])
    exc = _refuse_hello_from_fake_server(reply, side)
    assert isinstance(exc, ParamMismatch)
    assert str(exc) == "m=2 requested, server has 1023"
    assert builds == []
    # keys in `expect` override the ones the side information fixes
    exc = _refuse_hello_from_fake_server(reply, side, expect={"m": 1023, "symbols": 2})
    assert str(exc) == "symbols=2 requested, server has 1"


def test_client_refuses_non_canonical_coding_points(monkeypatch):
    """A server HELLO with x_1 = 22 at q = 17 (the canonical x_1 is 5) is a
    DecodeError before any matrix is built, so a client's saved transcript
    can only hold the points the server sent."""
    builds = []
    monkeypatch.setattr(net, "build_cauchy", lambda *args: builds.append(args))
    xs, ys = canonical_points(17, 12, 2, 2)
    assert xs[0] == 5
    reply = wire.Hello(k=12, m=2, l=2, q=17, symbols=1, x_points=(22,) + xs[1:], y_points=ys)
    side = SideInformation.from_database(counting_database(), [2, 3])
    exc = _refuse_hello_from_fake_server(reply, side)
    assert isinstance(exc, DecodeError)
    assert "coding point" in str(exc)
    assert builds == []


def test_matching_expectations_are_accepted(golden_server):
    address, params = golden_server
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    expect = {"k": 12, "m": 2, "q": 17}
    with RemoteSession(address, side, seed=3, expect=expect) as session:
        assert session.params == params
        assert session.retrieve(6)[6] == (6,)


# ---------------------------------------------------------------------------
# protocol violations over the wire
# ---------------------------------------------------------------------------

def test_hello_must_come_first(golden_server):
    address, _ = golden_server
    sock = socket.create_connection(address, timeout=5.0)
    f = sock.makefile("rwb")
    try:
        query = PartitionQuery.of(
            1, [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)]
        )
        _send_frame(f, wire.FRAME_QUERY, wire.encode_query(query))
        reason = _expect_error(f, wire.ERR_PARAM_MISMATCH)
        assert "hello" in reason
    finally:
        sock.close()


def test_out_of_order_round_gets_protocol_order_error(golden_server):
    address, _ = golden_server
    sock, f, _ = _raw_hello(address)
    try:
        early = PartitionQuery.of(2, [tuple(range(1, 7)), tuple(range(7, 13))])
        _send_frame(f, wire.FRAME_QUERY, wire.encode_query(early))
        reason = _expect_error(f, wire.ERR_PROTOCOL_ORDER)
        assert "expected round 1" in reason
    finally:
        sock.close()


def test_undecodable_query_gets_malformed_error(golden_server):
    address, _ = golden_server
    sock, f, _ = _raw_hello(address)
    try:
        # round 1 for K=12, M=2: four blocks of three, but {3,4,5} overlaps
        # {1,2,3} and 12 lies in no block.  It decodes; validate_query refuses it.
        bad = PartitionQuery.of(1, [(1, 2, 3), (3, 4, 5), (6, 7, 8), (9, 10, 11)])
        _send_frame(f, wire.FRAME_QUERY, wire.encode_query(bad))
        reason = _expect_error(f, wire.ERR_MALFORMED_QUERY)
        assert "partition" in reason
    finally:
        sock.close()


def test_wrong_block_shape_gets_malformed_error(golden_server):
    address, _ = golden_server
    sock, f, _ = _raw_hello(address)
    try:
        # decodes fine but round 1 for K=12, M=2 needs four blocks of three
        flat = PartitionQuery.of(1, [tuple(range(1, 7)), tuple(range(7, 13))])
        _send_frame(f, wire.FRAME_QUERY, wire.encode_query(flat))
        reason = _expect_error(f, wire.ERR_MALFORMED_QUERY)
        assert "blocks" in reason
    finally:
        sock.close()


def test_round_past_schedule_gets_malformed_error(golden_server):
    address, params = golden_server
    database = counting_database()
    local = run_session(params, database, [2, 3], [1, 4, 7], seed=GOLDEN_SEED)
    sock, f, _ = _raw_hello(address)
    try:
        for rnd in local.transcript.rounds:
            _send_frame(f, wire.FRAME_QUERY, wire.encode_query(rnd.query))
            frame_type, payload = wire.read_frame(f)
            assert frame_type == wire.FRAME_ANSWER
            assert wire.decode_answer(payload, params.q) == rnd.answer
        fourth = PartitionQuery.of(4, [tuple(range(1, 13))])
        _send_frame(f, wire.FRAME_QUERY, wire.encode_query(fourth))
        reason = _expect_error(f, wire.ERR_MALFORMED_QUERY)
        assert "outside" in reason
    finally:
        sock.close()


def test_non_query_frame_mid_session_is_rejected(golden_server):
    address, _ = golden_server
    sock, f, _ = _raw_hello(address)
    try:
        _send_frame(f, wire.FRAME_HELLO, wire.encode_hello(wire.Hello()))
        _expect_error(f, wire.ERR_INTERNAL)
    finally:
        sock.close()


def test_oversized_frame_header_closes_the_connection(golden_server):
    """A QUERY header that claims 2^31 bytes ends the session before any of
    the payload is read: the server closes the socket instead of waiting."""
    address, _ = golden_server
    sock, f, _ = _raw_hello(address)
    try:
        sock.settimeout(2.0)
        f.write(wire.HEADER.pack(wire.MAGIC, wire.VERSION, wire.FRAME_QUERY, 2**31))
        f.flush()
        assert f.read(1) == b""
    finally:
        sock.close()


def test_stalled_peer_is_closed_after_the_timeout(golden_server, monkeypatch):
    """A peer that sends half a frame header and stops loses its session once
    a read has waited the server's timeout, which is finite by default."""
    assert net._SessionHandler.timeout == net.SERVER_TIMEOUT < float("inf")
    monkeypatch.setattr(net._SessionHandler, "timeout", 0.2)
    address, _ = golden_server
    sock, f, _ = _raw_hello(address)
    try:
        sock.settimeout(3.0)
        f.write(wire.HEADER.pack(wire.MAGIC, wire.VERSION, wire.FRAME_QUERY, 8)[:5])
        f.flush()
        assert f.read(1) == b""
    finally:
        sock.close()


def test_bye_closes_the_connection(golden_server):
    address, _ = golden_server
    sock, f, _ = _raw_hello(address)
    try:
        _send_frame(f, wire.FRAME_BYE)
        # server closes without another frame
        assert f.read(1) == b""
    finally:
        sock.close()


# ---------------------------------------------------------------------------
# server configuration
# ---------------------------------------------------------------------------

def test_session_config_from_file(tmp_path):
    db_path = tmp_path / "db.bin"
    wire.write_database(counting_database(), str(db_path))
    config_path = tmp_path / "server.json"
    config_path.write_text(
        json.dumps({"k": 12, "m": 2, "q": 17, "database": str(db_path)})
    )
    assert read_config(str(config_path)) == (ProtocolParams.create(12, 2, q=17), str(db_path))


def test_session_config_rejects_bad_files(tmp_path):
    path = tmp_path / "server.json"
    path.write_text(json.dumps({"k": 12, "m": 2, "database": "x", "bogus": 1}))
    with pytest.raises(InvalidParams, match="bogus"):
        read_config(str(path))
    path.write_text(json.dumps({"k": 12, "m": 2}))
    with pytest.raises(InvalidParams, match="database"):
        read_config(str(path))
    path.write_text('{"k": 12, "m": 2,')
    with pytest.raises(InvalidParams, match="not valid JSON"):
        read_config(str(path))
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InvalidParams, match="not valid JSON"):
        read_config(str(path))
    for top in ("[12, 2]", '"k"', "null"):
        path.write_text(top)
        with pytest.raises(InvalidParams, match="JSON object"):
            read_config(str(path))
    # wrongly typed values, which used to escape as TypeError tracebacks
    good = {"k": 12, "m": 2, "q": 17, "database": "db.bin"}
    for key, value in [
        ("k", "12"), ("m", True), ("q", 17.0), ("q", None), ("symbols", [1]),
        ("database", 5), ("x_points", 5), ("y_points", [1, "2"]), ("x_points", [True]),
    ]:
        path.write_text(json.dumps({**good, key: value}))
        with pytest.raises(InvalidParams, match=key):
            read_config(str(path))
    # coding points are not configurable, even as well-typed lists
    for key in ("x_points", "y_points"):
        path.write_text(json.dumps({**good, key: [1, 2, 3]}))
        with pytest.raises(InvalidParams, match=f"unknown config keys: \\['{key}'\\]"):
            read_config(str(path))


@pytest.mark.parametrize("entry", ["create_server", "server_from_config"])
@pytest.mark.parametrize("field", ["k", "symbols", "q"])
def test_server_refuses_mismatched_database(tmp_path, monkeypatch, entry, field):
    """A database whose K, symbols or q differ from the parameters is refused
    before any socket is bound."""
    k, symbols, q = {"k": (16, 1, 17), "symbols": (12, 2, 17), "q": (12, 1, 19)}[field]
    database = Database.random(k, symbols, q, random.Random(3))
    params = ProtocolParams.create(12, 2, q=17)

    def refuse_bind(self):
        raise AssertionError("bound a socket for a mismatched database")

    monkeypatch.setattr(socketserver.TCPServer, "server_bind", refuse_bind)
    if entry == "create_server":
        with pytest.raises(InvalidParams):
            create_server(database, params)
    else:
        db_path = tmp_path / "db.bin"
        wire.write_database(database, str(db_path))
        config_path = tmp_path / "server.json"
        config_path.write_text(json.dumps({"k": 12, "m": 2, "q": 17, "database": str(db_path)}))
        params, database_path = read_config(str(config_path))
        with pytest.raises(InvalidParams):
            create_server(wire.read_database(database_path), params)

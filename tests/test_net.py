"""TCP transport: loopback equivalence, error frames, session lifecycle."""

import contextlib
import json
import random
import select
import socket
import socketserver
import struct
import sys
import threading
import time

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
from opir import cauchy as cauchy_module
from opir.cauchy import canonical_points
from opir.protocol import session_cauchy
from opir.net import RemoteSession, read_config
from opir import net, wire
from conftest import GOLDEN_SEED, counting_database


@contextlib.contextmanager
def serving(database, params):
    """A live loopback server on a free port, shut down and closed on exit."""
    server = create_server(database, params)
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def golden_server():
    """A live loopback server holding the 12-message counting database."""
    params = ProtocolParams.create(12, 2, q=17)
    with serving(counting_database(), params) as server:
        yield server.server_address, params


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
    with serving(database, params) as server:
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


def test_client_refuses_a_huge_matrix_it_did_not_ask_for(monkeypatch):
    """A client with 100 side messages names M=100 but no K, so a valid
    K=51,712, M=100 (l=9) HELLO would cost a 46.6-million-entry matrix: it
    is ParamMismatch before build_cauchy runs."""
    builds = []
    monkeypatch.setattr(net, "build_cauchy", lambda *args: builds.append(args))
    k, m, l = 51_712, 100, 9
    reply = wire.Hello(
        k=k, m=m, l=l, q=2**31 - 1, symbols=1,
        x_points=tuple(range(1, k + 1)), y_points=tuple(range(k + 1, k + m * l + 2)),
    )
    database = Database.random(128, 1, 2**31 - 1, random.Random(1))
    side = SideInformation.from_database(database, range(1, 101))
    exc = _refuse_hello_from_fake_server(reply, side)
    assert isinstance(exc, ParamMismatch)
    assert "46592512-entry" in str(exc)
    assert k * (m * l + 1) > net.MAX_UNASKED_ENTRIES
    assert builds == []


def test_client_builds_a_large_matrix_whose_k_it_named(monkeypatch):
    """The bound is for a K the client did not name: a shape past it that
    `expect` asks for reaches build_cauchy."""
    builds = []
    monkeypatch.setattr(net, "build_cauchy", lambda *args: builds.append(args))
    monkeypatch.setattr(net, "MAX_UNASKED_ENTRIES", 12 * 5 - 1)
    xs, ys = canonical_points(17, 12, 2, 2)
    reply = wire.Hello(k=12, m=2, l=2, q=17, symbols=1, x_points=xs, y_points=ys)
    side = SideInformation.from_database(counting_database(), [2, 3])
    assert isinstance(_refuse_hello_from_fake_server(reply, side), ParamMismatch)
    assert builds == []
    _refuse_hello_from_fake_server(reply, side, expect={"k": 12})
    assert builds == [(12, 2, 2, 17, xs, ys)]


def test_remote_sessions_share_one_matrix(monkeypatch):
    """A server and every connection to it use one coding matrix, built
    once, with one batch inversion per column."""
    inversions = []
    batch_inverse = cauchy_module._batch_inverse

    def counting(values, q):
        inversions.append(len(values))
        return batch_inverse(values, q)

    monkeypatch.setattr(cauchy_module, "_batch_inverse", counting)
    cauchy_module._cauchy_on.cache_clear()
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    with serving(database, ProtocolParams.create(12, 2, q=17)) as server:
        with RemoteSession(server.server_address, side, seed=1) as a:
            a.retrieve(1)
        with RemoteSession(server.server_address, side, seed=2) as b:
            b.retrieve(5)
    assert inversions == [12] * 5
    assert a.client.cauchy is b.client.cauchy is server.cauchy


def test_live_sessions_read_the_columns_alone():
    """Coding and decoding read only the matrix's column table: after a
    loopback RemoteSession and an in-process session, each to the last
    round, the one shared matrix has never built its row form."""
    cauchy_module._cauchy_on.cache_clear()  # the memo shares one matrix across tests
    params = ProtocolParams.create(16, 3, symbols=2)
    database = Database.random(params.k, params.symbols, params.q, random.Random(4))
    side = SideInformation.from_database(database, [2, 3, 5])
    demands = []
    with serving(database, params) as server:
        with RemoteSession(server.server_address, side, seed=1) as remote:
            for _ in range(params.max_rounds):
                demands.append(min(set(range(1, params.k + 1)) - set(remote.client.known)))
                remote.retrieve(demands[-1])
    local = run_session(params, database, [2, 3, 5], demands, seed=1)
    assert local.transcript == remote.transcript()
    assert remote.client.cauchy is server.cauchy is session_cauchy(params)
    assert "matrix" not in vars(server.cauchy)


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


@pytest.mark.parametrize("stage", ["hello", "answer"])
@pytest.mark.parametrize("expect", [None, {"k": 12}])
def test_client_refuses_a_huge_frame_before_reading_it(monkeypatch, stage, expect):
    """A server that claims a 1 GiB HELLO, or answers the HELLO and then
    claims a 1 GiB ANSWER, sends 64 bytes of it and waits: the client raises
    DecodeError at once instead of waiting for the payload."""
    # A client that waits for the payload fails the test in 2 s, not 10.
    monkeypatch.setattr(net, "CLIENT_TIMEOUT", 2.0)
    params = ProtocolParams.create(12, 2, q=17)
    cauchy = session_cauchy(params)
    hello = wire.Hello.for_params(params, cauchy.x_points, cauchy.y_points)
    listener = socket.create_server(("127.0.0.1", 0))

    def huge(frame_type):
        return wire.HEADER.pack(wire.MAGIC, wire.VERSION, frame_type, 2**30) + bytes(64)

    def hostile_server():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as f:
            wire.read_frame(f)
            if stage == "hello":
                f.write(huge(wire.FRAME_HELLO))
            else:
                _send_frame(f, wire.FRAME_HELLO, wire.encode_hello(hello))
                wire.read_frame(f)  # the round-1 query
                f.write(huge(wire.FRAME_ANSWER))
            f.flush()
            f.read()  # until the client hangs up

    thread = threading.Thread(target=hostile_server, daemon=True)
    thread.start()
    side = SideInformation.from_database(counting_database(), [2, 3])
    try:
        with pytest.raises(DecodeError, match="exceeds the limit"):
            with RemoteSession(listener.getsockname(), side, seed=3, expect=expect) as session:
                assert stage == "answer"
                session.retrieve(1)
    finally:
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()


def test_second_connection_checks_the_points_once(golden_server, monkeypatch):
    """A RemoteSession checks the HELLO's coding points in Hello.session();
    build_cauchy finds that call in its memo and does not check it again."""
    address, _ = golden_server
    side = SideInformation.from_database(counting_database(), [2, 3])
    with RemoteSession(address, side, seed=1):
        pass
    check_points, calls = cauchy_module.check_points, []

    def counting(*args):
        calls.append(args)
        return check_points(*args)

    for owner in (cauchy_module, wire):
        monkeypatch.setattr(owner, "check_points", counting)
    with RemoteSession(address, side, seed=2) as session:
        assert session.retrieve(1) == {1: (1,)}
    assert len(calls) == 1


def _socket_timeout(sock, option=socket.SO_RCVTIMEO):
    """A socket's kernel timeout (SO_RCVTIMEO or SO_SNDTIMEO) in seconds; 0 is none."""
    if sys.platform == "win32":
        return sock.getsockopt(socket.SOL_SOCKET, option) / 1000
    timeval = struct.Struct("@ll")
    seconds, micros = timeval.unpack(sock.getsockopt(socket.SOL_SOCKET, option, timeval.size))
    return seconds + micros / 1e6


@pytest.mark.parametrize("stage", ["hello", "answer"])
def test_client_times_out_on_a_silent_server(monkeypatch, stage):
    """A server that reads the HELLO and never replies, or answers it and
    then goes silent, makes the client raise TimeoutError once a read has
    waited CLIENT_TIMEOUT, as the kernel times it."""
    monkeypatch.setattr(net, "CLIENT_TIMEOUT", 0.2)
    params = ProtocolParams.create(12, 2, q=17)
    cauchy = session_cauchy(params)
    hello = wire.Hello.for_params(params, cauchy.x_points, cauchy.y_points)
    listener = socket.create_server(("127.0.0.1", 0))

    def silent_server():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as f:
            wire.read_frame(f)
            if stage == "answer":
                _send_frame(f, wire.FRAME_HELLO, wire.encode_hello(hello))
            f.read()  # until the client hangs up

    thread = threading.Thread(target=silent_server, daemon=True)
    thread.start()
    side = SideInformation.from_database(counting_database(), [2, 3])
    started = time.monotonic()
    try:
        with pytest.raises(TimeoutError):
            with RemoteSession(listener.getsockname(), side, seed=3) as session:
                assert stage == "answer"
                session.retrieve(1)
    finally:
        thread.join(timeout=5)
        listener.close()
    assert 0.15 < time.monotonic() - started < 2.0
    assert not thread.is_alive()


def test_connection_sockets_time_out_in_the_kernel(monkeypatch):
    """Both ends' connection sockets block (no CPython timeout, which polls
    before every recv and send) and carry their configured timeouts in the
    kernel: CLIENT_TIMEOUT on the client, _SessionHandler.timeout on the
    server once the HELLO is read."""
    monkeypatch.setattr(net, "CLIENT_TIMEOUT", 4.0)
    monkeypatch.setattr(net._SessionHandler, "timeout", 6.0)
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    with serving(database, ProtocolParams.create(12, 2, q=17)) as server:
        with RemoteSession(server.server_address, side, seed=1) as session:
            _wait_for_sessions(server, 1)
            (conn,) = server._sessions
            for sock, seconds in ((session._frames.sock, 4.0), (conn, 6.0)):
                assert sock.gettimeout() is None
                for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
                    assert _socket_timeout(sock, option) == pytest.approx(seconds, abs=0.01)
            assert session.retrieve(1) == {1: (1,)}


@pytest.mark.parametrize("seconds", [0, -1.0, float("nan")])
def test_kernel_timeouts_refuse_non_positive_seconds(seconds):
    """A kernel timeout of 0 means "never", so the helper refuses 0, a
    negative value and NaN, and leaves the socket as it was."""
    with socket.socket() as sock:
        sock.settimeout(5.0)
        with pytest.raises(ValueError, match="must be positive"):
            net._kernel_timeouts(sock, seconds)
        assert sock.gettimeout() == 5.0
        assert _socket_timeout(sock) == 0


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
# the worker pool
# ---------------------------------------------------------------------------

def _workers():
    return [t for t in threading.enumerate() if t.name.startswith("opir-worker-")]


def test_pool_bounds_concurrent_sessions(monkeypatch):
    """With two workers, a third connection's HELLO waits in the backlog
    until one of the two sessions in progress closes."""
    monkeypatch.setattr(net, "SERVER_WORKERS", 2)
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    with serving(database, ProtocolParams.create(12, 2, q=17)) as server:
        address = server.server_address
        with RemoteSession(address, side, seed=1) as first:
            with RemoteSession(address, side, seed=2):
                assert len(_workers()) == 1  # the serving thread is the other
                third = socket.create_connection(address, timeout=5.0)
                with third, third.makefile("rwb") as f:
                    _send_frame(f, wire.FRAME_HELLO, wire.encode_hello(wire.Hello()))
                    assert select.select([third], [], [], 0.3)[0] == []
                    first.close()
                    assert select.select([third], [], [], 5.0)[0] == [third]
                    assert wire.read_frame(f)[0] == wire.FRAME_HELLO


def test_shutdown_stops_every_worker(monkeypatch):
    """Three sessions at once keep all three workers busy; once they end,
    shutdown() and server_close() leave no worker alive."""
    monkeypatch.setattr(net, "SERVER_WORKERS", 3)
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    with serving(database, ProtocolParams.create(12, 2, q=17)) as server:
        with contextlib.ExitStack() as sessions:
            for seed in range(3):
                sessions.enter_context(RemoteSession(server.server_address, side, seed=seed))
            assert len(_workers()) == 2
    assert _workers() == []


def _silent_peer(address, hello=True):
    """A connected socket that sends its HELLO (or nothing) and then
    nothing more; its reader, and whether it got the HELLO reply."""
    peer = socket.create_connection(address, timeout=5.0)
    f = peer.makefile("rwb")
    if hello:
        _send_frame(f, wire.FRAME_HELLO, wire.encode_hello(wire.Hello()))
        assert wire.read_frame(f)[0] == wire.FRAME_HELLO
    return peer, f


def test_interrupt_does_not_wait_for_sessions_in_progress(monkeypatch):
    """A KeyboardInterrupt in serve_forever's own thread ends it at once,
    though a peer that went silent after its HELLO holds the other worker:
    that session is cut and its worker stops."""
    monkeypatch.setattr(net, "SERVER_WORKERS", 2)
    work = net.OpirTCPServer._work
    peer_waiting = threading.Event()

    def interrupted_work(server, poll_interval):
        if threading.current_thread().name.startswith("opir-worker-"):
            return work(server, poll_interval)
        peer_waiting.wait(5)
        raise KeyboardInterrupt

    monkeypatch.setattr(net.OpirTCPServer, "_work", interrupted_work)
    server = create_server(counting_database(), ProtocolParams.create(12, 2, q=17))
    raised = []

    def serve():
        try:
            server.serve_forever(poll_interval=0.05)
        except KeyboardInterrupt as exc:
            raised.append(exc)

    thread = threading.Thread(target=serve)
    thread.start()
    peer, f = _silent_peer(server.server_address)
    with server, peer, f:
        peer_waiting.set()
        thread.join(timeout=5)
        assert raised and not thread.is_alive()
        assert f.read(1) == b""
    for worker in _workers():
        worker.join(timeout=5)
    assert _workers() == []


def _wait_for_sessions(server, n):
    """Wait until the server has accepted n connections that are in session."""
    deadline = time.monotonic() + 5.0
    while len(server._sessions) < n:
        assert time.monotonic() < deadline
        time.sleep(0.01)


@pytest.mark.parametrize("hello", [True, False], ids=["after-hello", "before-hello"])
def test_shutdown_cuts_silent_sessions(monkeypatch, hello):
    """shutdown() returns within a few poll intervals while silent peers
    hold every worker, serve_forever's own thread included: it cuts their
    sessions, and no worker is left alive."""
    monkeypatch.setattr(net, "SERVER_WORKERS", 2)
    with contextlib.ExitStack() as stack:
        with serving(counting_database(), ProtocolParams.create(12, 2, q=17)) as server:
            peers = []
            for _ in range(2):
                peer, f = _silent_peer(server.server_address, hello)
                stack.enter_context(peer)
                peers.append(stack.enter_context(f))
            _wait_for_sessions(server, 2)
            started = time.monotonic()
            server.shutdown()
            assert time.monotonic() - started < 1.0
        for f in peers:
            assert f.read(1) == b""
    assert _workers() == []


def test_silent_peers_do_not_deny_service(monkeypatch):
    """Peers that connect and send nothing hold a worker only for
    HELLO_TIMEOUT: with every worker held by one, a further client is still
    served well within its own timeout, and the silent peers are closed."""
    assert net.HELLO_TIMEOUT < net.CLIENT_TIMEOUT
    monkeypatch.setattr(net, "SERVER_WORKERS", 2)
    monkeypatch.setattr(net, "HELLO_TIMEOUT", 0.2)
    monkeypatch.setattr(net, "CLIENT_TIMEOUT", 3.0)  # far below SERVER_TIMEOUT
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    with serving(database, ProtocolParams.create(12, 2, q=17)) as server:
        with contextlib.ExitStack() as stack:
            silent = []
            for _ in range(2):
                peer, f = _silent_peer(server.server_address, hello=False)
                stack.enter_context(peer)
                silent.append(stack.enter_context(f))
            _wait_for_sessions(server, 2)
            result = run_remote_session(server.server_address, side, [1], seed=1)
            for f in silent:
                assert f.read(1) == b""
    assert result.recovered[0][1] == (1,)


def test_concurrent_sessions_under_a_short_switch_interval(monkeypatch):
    """Eight client threads share four workers and one freshly built coding
    matrix while the interpreter switches threads every microsecond: every session's transcript and recovered
    values equal the in-process session's."""
    monkeypatch.setattr(net, "SERVER_WORKERS", 4)
    cauchy_module._cauchy_on.cache_clear()
    params = ProtocolParams.create(12, 2, q=17)
    database = counting_database()
    jobs = []
    for seed in range(16):
        # each round demands the smallest message the seed's session lacks
        demands = []
        for _ in range(params.max_rounds):
            known = {2, 3}.union(*run_session(params, database, [2, 3], demands, seed).recovered)
            demands.append(min(set(range(1, 13)) - known))
        jobs.append(([2, 3], demands, seed))
    expected = [run_session(params, database, *job) for job in jobs]
    got = [None] * len(jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serving(database, params) as server:

            def client(n):
                for i in range(n, len(jobs), 8):
                    side, demands, seed = jobs[i]
                    side_info = SideInformation.from_database(database, side)
                    got[i] = run_remote_session(server.server_address, side_info, demands, seed)

            threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    for remote, local in zip(got, expected):
        assert remote is not None
        assert remote.recovered == local.recovered
        assert wire.transcript_to_bytes(remote.transcript) == wire.transcript_to_bytes(
            local.transcript
        )


def test_failed_session_does_not_shrink_the_pool(monkeypatch):
    """A handler that raises something other than OpirError or OSError costs
    its connection, not the worker: one worker serves the next session."""
    monkeypatch.setattr(net, "SERVER_WORKERS", 1)
    monkeypatch.setattr(net, "CLIENT_TIMEOUT", 2.0)  # a dead pool fails, not hangs
    session = net._SessionHandler._session
    failures = []

    def fail_once(handler):
        if not failures:
            failures.append(handler)
            raise RuntimeError("handler bug")
        return session(handler)

    monkeypatch.setattr(net._SessionHandler, "_session", fail_once)
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    with serving(database, ProtocolParams.create(12, 2, q=17)) as server:
        # The worker closes the connection before or after the client's HELLO.
        with pytest.raises((DecodeError, ConnectionError)):
            RemoteSession(server.server_address, side, seed=1)
        result = run_remote_session(server.server_address, side, [1], seed=1)
    assert len(failures) == 1
    assert result.recovered[0][1] == (1,)


def test_accept_error_does_not_shrink_the_pool(monkeypatch):
    """An accept that fails (a peer that reset before it was accepted, or no
    file descriptor left) costs one wait, not the worker."""
    monkeypatch.setattr(net, "SERVER_WORKERS", 1)
    monkeypatch.setattr(net, "CLIENT_TIMEOUT", 2.0)
    get_request = socketserver.TCPServer.get_request
    failures = []

    def abort_once(server):
        if not failures:
            failures.append(server)
            raise ConnectionAbortedError("peer reset before accept")
        return get_request(server)

    monkeypatch.setattr(net.OpirTCPServer, "get_request", abort_once)
    database = counting_database()
    side = SideInformation.from_database(database, [2, 3])
    with serving(database, ProtocolParams.create(12, 2, q=17)) as server:
        result = run_remote_session(server.server_address, side, [1], seed=1)
    assert len(failures) == 1
    assert result.recovered[0][1] == (1,)


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

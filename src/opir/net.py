"""TCP transport: a worker-pool server and a socket client for the protocol.

Connection lifecycle: the client sends a HELLO naming the parameters it
expects (zeros mean "whatever you have"; by default a RemoteSession names
the M and symbol count of its side information); the server checks them against its own,
replies with a fully specified HELLO including the coding points, and then
answers QUERY frames in order until BYE or an error.  Every failure is
raised inside the session and handled in one place: a garbage or truncated
frame, one claiming more than wire.max_client_payload, or an undecodable
HELLO closes the session unanswered; any other refusal is sent as one ERROR
frame with its reason code before the close; a socket error, or a read or
write that waits longer than SERVER_TIMEOUT, just closes.  A server's shape is
its ProtocolParams, which read_config reads from a JSON file.

A server runs SERVER_WORKERS threads, each of which accepts one connection
and serves its session to the end before it accepts the next, so at most
that many sessions run at once and further connections wait in the listen
backlog.  A peer gets HELLO_TIMEOUT, not SERVER_TIMEOUT, to send its first
frame, so peers that connect and stay silent hold a worker only briefly.
shutdown() cuts every session in progress, so it returns within about
poll_interval.  A client builds its coding matrix with build_cauchy, which
keeps small matrices per call, so connections to one server build it and
check its points there once; a HELLO that names a matrix of more than
MAX_UNASKED_ENTRIES entries is refused before it is built unless the
client's expect named that K.  Both ends' sockets block and time out in
the kernel (_kernel_timeouts), and a connection's frames go out with one
sendall each and come in through one buffer that recv fills (_Connection).

The server never learns anything beyond the queries; side information and
demands live only in the client process.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import sys
import threading

from .cauchy import build_cauchy
from .errors import DecodeError, InvalidParams, MalformedQuery, OpirError, ParamMismatch
from .protocol import (
    Client,
    Database,
    ProtocolParams,
    SessionResult,
    SideInformation,
    Transcript,
    Server as ProtocolServer,
    session_cauchy,
)
from . import wire

# Seconds a RemoteSession waits to connect, and then for each read from the server.
CLIENT_TIMEOUT = 10.0
# Seconds a server session waits for each read or write before it closes.
SERVER_TIMEOUT = 30.0
# Seconds a server session waits for the peer's first frame.  A
# RemoteSession sends its HELLO as soon as it connects, so the frame is
# normally waiting when the connection is accepted; 2 s leaves room for one
# lost segment.  A client queued behind up to 4 * SERVER_WORKERS silent
# peers is still answered within its CLIENT_TIMEOUT.
HELLO_TIMEOUT = 2.0
# Sessions a server runs at once, one per worker thread.  No measured
# concurrent traffic sets this value; the listen backlog (request_queue_size)
# holds the connections beyond it.
SERVER_WORKERS = 16
# Most coding-matrix entries a RemoteSession builds for a server whose K it
# did not name in its HELLO (at SESSION_PRIME, 2^20 entries hold about
# 42 MB, and building them peaks near 48 MB, by tracemalloc).
MAX_UNASKED_ENTRIES = 2**20


def read_config(path: str) -> tuple[ProtocolParams, str]:
    """A server config file's parameters and database path.

    The coding points are never configured: the server uses session_cauchy.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise InvalidParams(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidParams(f"config {path} must hold a JSON object")
    unknown = set(raw) - {"k", "m", "q", "symbols", "database"}
    if unknown:
        raise InvalidParams(f"unknown config keys: {sorted(unknown)}")
    for key in ("k", "m", "database"):
        if key not in raw:
            raise InvalidParams(f"config is missing required key '{key}'")
    for key in ("k", "m", "symbols", "q"):
        # JSON true/false load as bool, an int subclass that type() tells apart.
        if key in raw and type(raw[key]) is not int:
            raise InvalidParams(f"config key '{key}' must be an integer")
    if not isinstance(raw["database"], str):
        raise InvalidParams("config key 'database' must be a string")
    q, symbols = raw.get("q"), raw.get("symbols", 1)
    return ProtocolParams.create(raw["k"], raw["m"], q=q, symbols=symbols), raw["database"]


class OpirTCPServer(socketserver.TCPServer):
    """One session per connection, served by a fixed pool of accept-loop
    workers; database and session_cauchy matrix shared read-only."""

    allow_reuse_address = True
    # Connections beyond the SERVER_WORKERS in session wait in the kernel.
    request_queue_size = 64

    def __init__(
        self,
        address: tuple[str, int],
        database: Database,
        params: ProtocolParams,
    ):
        self.database = database
        self.params = params
        self.cauchy = session_cauchy(params)
        # A peer's frame may not claim more than a legal client frame holds.
        self.frame_limit = wire.max_client_payload(params)
        # Fail before accepting connections, not inside a worker.
        ProtocolServer(database, params, self.cauchy)
        # Every session's HELLO reply is the same payload, so it is encoded once.
        self.hello_reply = wire.encode_hello(
            wire.Hello.for_params(params, self.cauchy.x_points, self.cauchy.y_points)
        )
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._accepting = threading.Lock()
        # Connections in session, so that _stop() can cut them.
        self._sessions: set[socket.socket] = set()
        self._sessions_lock = threading.Lock()
        super().__init__(address, _SessionHandler)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve on SERVER_WORKERS threads, this one included, until shutdown().

        Each worker waits at most poll_interval in accept before it looks
        for a shutdown.  However this thread stops (shutdown(), a closed
        listener, KeyboardInterrupt), every session in progress is cut, so
        no session outlives serve_forever.
        """
        self._stopped.clear()
        self.socket.settimeout(poll_interval)
        workers = [
            threading.Thread(target=self._work, args=(poll_interval,),
                             name=f"opir-worker-{n}", daemon=True)
            for n in range(1, SERVER_WORKERS)
        ]
        try:
            try:
                for worker in workers:
                    worker.start()
                self._work(poll_interval)
            finally:
                self._stop()
            for worker in workers:
                worker.join()
            self._stopping.clear()
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop serve_forever and wait for it; call it from another thread."""
        self._stop()
        self._stopped.wait()

    def _stop(self) -> None:
        """Tell every worker to stop and cut the sessions in progress: a
        worker's blocked read then sees the end of its stream."""
        self._stopping.set()
        with self._sessions_lock:
            for request in self._sessions:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer has already gone

    def shutdown_request(self, request: socket.socket) -> None:
        # Forget the connection before it is closed, under the lock that
        # _stop() holds, so _stop() never touches a closed socket.
        with self._sessions_lock:
            self._sessions.discard(request)
        super().shutdown_request(request)

    def _work(self, poll_interval: float) -> None:
        """Accept and serve connections one at a time until shutdown() or
        until the listener is closed; no failure of one connection ends it."""
        while not self._stopping.is_set():
            # Idle workers take turns in accept: all of them polling the
            # listener would wake every one for each connection.
            if not self._accepting.acquire(timeout=poll_interval):
                continue
            try:
                request, client_address = self.get_request()
            except TimeoutError:
                continue
            except OSError:
                if self.socket.fileno() < 0:
                    return
                # ECONNABORTED, EMFILE and the like: wait a little, go on.
                self._stopping.wait(poll_interval)
                continue
            finally:
                self._accepting.release()
            with self._sessions_lock:
                # A connection accepted as _stop() ran is not served.
                stopping = self._stopping.is_set()
                if not stopping:
                    self._sessions.add(request)
            if stopping:
                self.shutdown_request(request)
                return
            try:
                self.process_request(request, client_address)
            except Exception:
                # As socketserver does; _SessionHandler has already handled
                # every OpirError and OSError.
                self.handle_error(request, client_address)
                self.shutdown_request(request)
            except BaseException:
                self.shutdown_request(request)
                raise


def _kernel_timeouts(sock: socket.socket, seconds: float) -> None:
    """Make a connection socket block, and time out its reads and writes
    in the kernel after `seconds` (SO_RCVTIMEO and SO_SNDTIMEO), where a
    CPython timeout polls before every recv and send.  Linux and macOS take
    a struct timeval, Windows a DWORD of milliseconds, each at least 1.
    ValueError unless seconds > 0: a kernel timeout of 0 means "never"."""
    if not seconds > 0:
        raise ValueError(f"a socket timeout must be positive, got {seconds}")
    sock.settimeout(None)
    if sys.platform == "win32":
        value = struct.pack("@L", max(1, round(seconds * 1000)))
    else:
        value = struct.pack("@ll", *divmod(max(1, round(seconds * 1_000_000)), 1_000_000))
    for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
        sock.setsockopt(socket.SOL_SOCKET, option, value)


class _Connection:
    """Frame I/O on one connection socket: a frame goes out with one
    sendall, and wire.read_frame reads through read(), whose one buffer
    recv fills with whatever the kernel holds.  A kernel timeout fails
    the call with EAGAIN, which is raised as TimeoutError."""

    def __init__(self, sock: socket.socket):
        self.sock, self._buffer = sock, b""

    def read(self, n: int) -> bytes:
        """At most n bytes, and none only once the peer has closed."""
        data = self._buffer
        if not data:
            try:
                data = self.sock.recv(max(n, 1 << 16))
            except BlockingIOError:
                raise TimeoutError("timed out") from None
        self._buffer = data[n:]
        return data[:n]

    def send(self, frame_type: int, payload: bytes = b"") -> None:
        try:
            self.sock.sendall(wire.encode_frame(frame_type, payload))
        except BlockingIOError:
            raise TimeoutError("timed out") from None


class _SessionHandler(socketserver.BaseRequestHandler):
    server: OpirTCPServer
    # A read or write that waits longer raises TimeoutError, an OSError, so
    # a stalled peer frees its worker.  The first frame gets HELLO_TIMEOUT.
    timeout = SERVER_TIMEOUT

    def handle(self) -> None:
        self.frames = _Connection(self.request)
        try:
            try:
                self._session()
            except DecodeError:
                return  # a bad, oversized or truncated frame: close unanswered
            except OpirError as exc:
                reply = wire.encode_error(wire.error_code_for(exc), str(exc))
                self.frames.send(wire.FRAME_ERROR, reply)
        except OSError:
            return  # the peer vanished or stalled past the timeout

    def _session(self) -> None:
        """HELLO, then QUERY frames until BYE; any refusal raises."""
        params, cauchy, limit = self.server.params, self.server.cauchy, self.server.frame_limit
        frames = self.frames
        _kernel_timeouts(self.request, HELLO_TIMEOUT)
        frame_type, payload = wire.read_frame(frames, limit)
        _kernel_timeouts(self.request, self.timeout)
        if frame_type != wire.FRAME_HELLO:
            raise ParamMismatch("expected a hello frame first")
        wire.decode_hello(payload).require(params)
        frames.send(wire.FRAME_HELLO, self.server.hello_reply)
        session = ProtocolServer(self.server.database, params, cauchy)
        while True:
            frame_type, payload = wire.read_frame(frames, limit)
            if frame_type == wire.FRAME_BYE:
                return
            if frame_type != wire.FRAME_QUERY:
                raise OpirError("expected a query or bye frame")
            try:
                query = wire.decode_query(payload)
            except DecodeError as exc:
                raise MalformedQuery(str(exc)) from None
            frames.send(wire.FRAME_ANSWER, wire.encode_answer(session.answer(query)))


def create_server(
    database: Database,
    params: ProtocolParams,
    host: str = "127.0.0.1",
    port: int = 0,
) -> OpirTCPServer:
    """Bind a server (port 0 picks a free one); caller runs serve_forever."""
    return OpirTCPServer((host, port), database, params)


class RemoteSession:
    """Client half of one TCP session; raises the server's errors locally."""

    def __init__(
        self,
        address: tuple[str, int],
        side: SideInformation,
        seed: int | None = None,
        expect: dict[str, int] | None = None,
    ):
        self._frames = _Connection(socket.create_connection(address, timeout=CLIENT_TIMEOUT))
        try:
            _kernel_timeouts(self._frames.sock, CLIENT_TIMEOUT)
            # The side information fixes M and the symbol count, so the
            # HELLO names them too; keys in `expect` override them.
            symbols = len(side.values[0][1]) if side.values else 0
            hello = wire.Hello(**{"m": len(side.values), "symbols": symbols, **(expect or {})})
            self._frames.send(wire.FRAME_HELLO, wire.encode_hello(hello))
            # A frame longer than the longest legal one is refused unread.
            self._limit = wire.max_hello_reply(hello.k, hello.m)
            frame_type, payload = self._read()
            if frame_type != wire.FRAME_HELLO:
                raise DecodeError("server did not answer the hello")
            reply = wire.decode_hello(payload)
            # The server names K and M, and build_cauchy's cost grows with
            # K·M, so a shape other than the requested one is refused first,
            # and so is a large matrix whose K the client did not name.
            hello.require(reply)
            self.params, x_points, y_points = reply.session()
            self._limit = wire.max_server_payload(self.params)
            p = self.params
            entries = p.k * (p.m * p.l + 1)
            if not hello.k and entries > MAX_UNASKED_ENTRIES:
                raise ParamMismatch(
                    f"server has K={p.k}, M={p.m}: its {entries}-entry coding matrix "
                    f"exceeds {MAX_UNASKED_ENTRIES}; name its k to accept it"
                )
            cauchy = build_cauchy(p.k, p.m, p.l, p.q, x_points, y_points)
            self.client = Client(self.params, side, cauchy, seed=seed)
        except BaseException:
            self.close()
            raise

    def _read(self) -> tuple[int, bytes]:
        frame_type, payload = wire.read_frame(self._frames, self._limit)
        if frame_type == wire.FRAME_ERROR:
            code, reason = wire.decode_error(payload)
            raise wire.exception_for(code, reason)
        return frame_type, payload

    def retrieve(self, demand: int) -> dict[int, tuple[int, ...]]:
        """Run one round for one demand; returns the newly recovered messages."""
        query = self.client.build_query(demand)
        self._frames.send(wire.FRAME_QUERY, wire.encode_query(query))
        frame_type, payload = self._read()
        if frame_type != wire.FRAME_ANSWER:
            raise DecodeError("server did not answer the query")
        return self.client.decode_answer(wire.decode_answer(payload, self.params.q))

    def transcript(self) -> Transcript:
        return self.client.transcript()

    def close(self) -> None:
        try:
            self._frames.send(wire.FRAME_BYE)
        except OSError:
            pass  # the server has gone
        self._frames.sock.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_remote_session(
    address: tuple[str, int],
    side: SideInformation,
    demands,
    seed: int | None = None,
    expect: dict[str, int] | None = None,
) -> SessionResult:
    """Full client session over TCP; mirrors run_session's result shape."""
    with RemoteSession(address, side, seed=seed, expect=expect) as session:
        recovered = tuple(session.retrieve(d) for d in demands)
        return SessionResult(transcript=session.transcript(), recovered=recovered)

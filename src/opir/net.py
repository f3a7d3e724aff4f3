"""TCP transport: a threaded server and a socket client for the protocol.

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

The server never learns anything beyond the queries; side information and
demands live only in the client process.
"""

from __future__ import annotations

import json
import socket
import socketserver

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


class OpirTCPServer(socketserver.ThreadingTCPServer):
    """One session per connection; database and session_cauchy matrix shared read-only."""

    allow_reuse_address = True
    daemon_threads = True

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
        # Fail before accepting connections, not inside a handler thread.
        ProtocolServer(database, params, self.cauchy)
        super().__init__(address, _SessionHandler)


class _SessionHandler(socketserver.StreamRequestHandler):
    server: OpirTCPServer
    # setup() puts this on the socket: a read or write that waits longer
    # raises TimeoutError, an OSError, so a stalled peer frees its thread.
    timeout = SERVER_TIMEOUT

    def handle(self) -> None:
        try:
            try:
                self._session()
            except DecodeError:
                return  # a bad, oversized or truncated frame: close unanswered
            except OpirError as exc:
                reply = wire.encode_error(wire.error_code_for(exc), str(exc))
                self._send(wire.FRAME_ERROR, reply)
        except OSError:
            return  # the peer vanished or stalled past the timeout

    def _send(self, frame_type: int, payload: bytes = b"") -> None:
        self.wfile.write(wire.encode_frame(frame_type, payload))
        self.wfile.flush()

    def _session(self) -> None:
        """HELLO, then QUERY frames until BYE; any refusal raises."""
        params, cauchy, limit = self.server.params, self.server.cauchy, self.server.frame_limit
        frame_type, payload = wire.read_frame(self.rfile, limit)
        if frame_type != wire.FRAME_HELLO:
            raise ParamMismatch("expected a hello frame first")
        wire.decode_hello(payload).require(params)
        reply = wire.Hello.for_params(params, cauchy.x_points, cauchy.y_points)
        self._send(wire.FRAME_HELLO, wire.encode_hello(reply))
        session = ProtocolServer(self.server.database, params, cauchy)
        while True:
            frame_type, payload = wire.read_frame(self.rfile, limit)
            if frame_type == wire.FRAME_BYE:
                return
            if frame_type != wire.FRAME_QUERY:
                raise OpirError("expected a query or bye frame")
            try:
                query = wire.decode_query(payload)
            except DecodeError as exc:
                raise MalformedQuery(str(exc)) from None
            self._send(wire.FRAME_ANSWER, wire.encode_answer(session.answer(query)))


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
        self._sock = socket.create_connection(address, timeout=CLIENT_TIMEOUT)
        self._file = self._sock.makefile("rwb")
        try:
            # The side information fixes M and the symbol count, so the
            # HELLO names them too; keys in `expect` override them.
            symbols = len(side.values[0][1]) if side.values else 0
            hello = wire.Hello(**{"m": len(side.values), "symbols": symbols, **(expect or {})})
            self._write(wire.FRAME_HELLO, wire.encode_hello(hello))
            # A frame longer than the longest legal one is refused unread.
            self._limit = wire.max_hello_reply(hello.k, hello.m)
            frame_type, payload = self._read()
            if frame_type != wire.FRAME_HELLO:
                raise DecodeError("server did not answer the hello")
            reply = wire.decode_hello(payload)
            # The server names K and M, and build_cauchy's cost grows with
            # K·M, so a shape other than the requested one is refused first.
            hello.require(reply)
            self.params, x_points, y_points = reply.session()
            self._limit = wire.max_server_payload(self.params)
            p = self.params
            cauchy = build_cauchy(p.k, p.m, p.l, p.q, x_points, y_points)
            self.client = Client(self.params, side, cauchy, seed=seed)
        except BaseException:
            self.close()
            raise

    def _write(self, frame_type: int, payload: bytes = b"") -> None:
        self._file.write(wire.encode_frame(frame_type, payload))
        self._file.flush()

    def _read(self) -> tuple[int, bytes]:
        frame_type, payload = wire.read_frame(self._file, self._limit)
        if frame_type == wire.FRAME_ERROR:
            code, reason = wire.decode_error(payload)
            raise wire.exception_for(code, reason)
        return frame_type, payload

    def retrieve(self, demand: int) -> dict[int, tuple[int, ...]]:
        """Run one round for one demand; returns the newly recovered messages."""
        query = self.client.build_query(demand)
        self._write(wire.FRAME_QUERY, wire.encode_query(query))
        frame_type, payload = self._read()
        if frame_type != wire.FRAME_ANSWER:
            raise DecodeError("server did not answer the query")
        return self.client.decode_answer(wire.decode_answer(payload, self.params.q))

    def transcript(self) -> Transcript:
        return self.client.transcript()

    def close(self) -> None:
        try:
            self._write(wire.FRAME_BYE)
        except (OpirError, ConnectionError, OSError, ValueError):
            pass
        try:
            self._file.close()
        finally:
            self._sock.close()

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

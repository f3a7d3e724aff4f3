"""TCP transport: a threaded server and a socket client for the protocol.

Connection lifecycle: the client sends a HELLO naming the parameters it
expects (zeros mean "whatever you have"); the server checks them against
its own, replies with a fully specified HELLO including the coding points,
and then answers QUERY frames in order until BYE or an error.  Violations
are reported as ERROR frames carrying a reason code, after which the
server closes the session.

The server never learns anything beyond the queries; side information and
demands live only in the client process.
"""

from __future__ import annotations

import json
import socket
import socketserver
from dataclasses import dataclass

from .cauchy import CauchyMatrix, build_cauchy
from .errors import DecodeError, InvalidParams, MalformedQuery, OpirError, ParamMismatch
from .protocol import (
    Client,
    Database,
    ProtocolParams,
    SessionResult,
    SideInformation,
    Transcript,
    TranscriptRound,
    Server as ProtocolServer,
    session_cauchy,
)
from . import wire


@dataclass(frozen=True)
class SessionConfig:
    """Server-side configuration: parameters plus where the data lives."""

    k: int
    m: int
    q: int | None = None
    symbols: int = 1
    database_path: str | None = None
    x_points: tuple[int, ...] | None = None
    y_points: tuple[int, ...] | None = None

    @classmethod
    def from_file(cls, path: str) -> "SessionConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise InvalidParams(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InvalidParams(f"config {path} must hold a JSON object")
        known = {"k", "m", "q", "symbols", "database", "x_points", "y_points"}
        unknown = set(raw) - known
        if unknown:
            raise InvalidParams(f"unknown config keys: {sorted(unknown)}")
        for key in ("k", "m", "database"):
            if key not in raw:
                raise InvalidParams(f"config is missing required key '{key}'")
        return cls(
            k=raw["k"],
            m=raw["m"],
            q=raw.get("q"),
            symbols=raw.get("symbols", 1),
            database_path=raw["database"],
            x_points=tuple(raw["x_points"]) if "x_points" in raw else None,
            y_points=tuple(raw["y_points"]) if "y_points" in raw else None,
        )

    def params(self) -> ProtocolParams:
        return ProtocolParams.create(self.k, self.m, q=self.q, symbols=self.symbols)


class OpirTCPServer(socketserver.ThreadingTCPServer):
    """One protocol session per connection; database and matrix shared read-only."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        database: Database,
        params: ProtocolParams,
        cauchy: CauchyMatrix | None = None,
    ):
        self.database = database
        self.params = params
        self.cauchy = cauchy if cauchy is not None else session_cauchy(params)
        # Fail before accepting connections, not inside a handler thread.
        ProtocolServer(database, params, self.cauchy)
        super().__init__(address, _SessionHandler)


class _SessionHandler(socketserver.StreamRequestHandler):
    server: OpirTCPServer

    def handle(self) -> None:
        try:
            if not self._hello():
                return
            self._serve_rounds()
        except (DecodeError, ConnectionError, OSError):
            # Peer vanished or sent garbage mid-frame; nothing to clean up.
            return

    def _send(self, frame_type: int, payload: bytes = b"") -> None:
        self.wfile.write(wire.encode_frame(frame_type, payload))
        self.wfile.flush()

    def _send_error(self, exc: Exception) -> None:
        code = wire.error_code_for(exc)
        try:
            self._send(wire.FRAME_ERROR, wire.encode_error(code, str(exc)))
        except (ConnectionError, OSError):
            pass

    def _hello(self) -> bool:
        frame_type, payload = wire.read_frame(self.rfile)
        if frame_type != wire.FRAME_HELLO:
            self._send_error(ParamMismatch("expected a hello frame first"))
            return False
        hello = wire.decode_hello(payload)
        params = self.server.params
        mine = {
            "k": params.k,
            "m": params.m,
            "l": params.l,
            "q": params.q,
            "symbols": params.symbols,
        }
        theirs = {
            "k": hello.k,
            "m": hello.m,
            "l": hello.l,
            "q": hello.q,
            "symbols": hello.symbols,
        }
        for name, value in theirs.items():
            if value and value != mine[name]:
                self._send_error(
                    ParamMismatch(f"{name}={value} requested, server has {mine[name]}")
                )
                return False
        reply = wire.Hello.for_params(
            params, self.server.cauchy.x_points, self.server.cauchy.y_points
        )
        self._send(wire.FRAME_HELLO, wire.encode_hello(reply))
        return True

    def _serve_rounds(self) -> None:
        session = ProtocolServer(self.server.database, self.server.params, self.server.cauchy)
        while True:
            frame_type, payload = wire.read_frame(self.rfile)
            if frame_type == wire.FRAME_BYE:
                return
            if frame_type != wire.FRAME_QUERY:
                self._send_error(OpirError("expected a query or bye frame"))
                return
            try:
                query = wire.decode_query(payload)
            except DecodeError as exc:
                self._send_error(MalformedQuery(str(exc)))
                return
            try:
                answer = session.answer(query)
            except OpirError as exc:
                self._send_error(exc)
                return
            self._send(wire.FRAME_ANSWER, wire.encode_answer(answer))


def create_server(
    database: Database,
    params: ProtocolParams,
    cauchy: CauchyMatrix | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> OpirTCPServer:
    """Bind a server (port 0 picks a free one); caller runs serve_forever."""
    return OpirTCPServer((host, port), database, params, cauchy)


def server_from_config(config: SessionConfig, listen: tuple[str, int]) -> OpirTCPServer:
    """Load the database, then check and bind; caller runs serve_forever."""
    if config.database_path is None:
        raise InvalidParams("server config needs a database path")
    database = wire.read_database(config.database_path)
    params = config.params()
    cauchy = None
    if config.x_points is not None or config.y_points is not None:
        cauchy = build_cauchy(
            params.k, params.m, params.l, params.q, config.x_points, config.y_points
        )
    return create_server(database, params, cauchy, *listen)


class RemoteSession:
    """Client half of one TCP session; raises the server's errors locally."""

    def __init__(
        self,
        address: tuple[str, int],
        side: SideInformation,
        seed: int | None = None,
        expect: dict[str, int] | None = None,
        timeout: float = 10.0,
    ):
        self._sock = socket.create_connection(address, timeout=timeout)
        self._file = self._sock.makefile("rwb")
        try:
            hello = wire.Hello(**(expect or {}))
            self._write(wire.FRAME_HELLO, wire.encode_hello(hello))
            frame_type, payload = self._read()
            if frame_type != wire.FRAME_HELLO:
                raise DecodeError("server did not answer the hello")
            reply = wire.decode_hello(payload)
            self.params = reply.params()
            if not reply.has_points:
                raise DecodeError("server hello is missing the coding points")
            assert reply.x_points is not None and reply.y_points is not None
            cauchy = build_cauchy(
                self.params.k,
                self.params.m,
                self.params.l,
                self.params.q,
                reply.x_points,
                reply.y_points,
            )
            self.client = Client(self.params, side, cauchy, seed=seed)
            self._rounds: list[TranscriptRound] = []
        except BaseException:
            self.close()
            raise

    def _write(self, frame_type: int, payload: bytes = b"") -> None:
        self._file.write(wire.encode_frame(frame_type, payload))
        self._file.flush()

    def _read(self) -> tuple[int, bytes]:
        frame_type, payload = wire.read_frame(self._file)
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
        answer = wire.decode_answer(payload, self.params.q)
        recovered = self.client.decode_answer(answer)
        self._rounds.append(TranscriptRound(query, answer))
        return recovered

    def transcript(self) -> Transcript:
        return Transcript(
            params=self.params,
            cauchy_x=self.client.cauchy.x_points,
            cauchy_y=self.client.cauchy.y_points,
            rounds=tuple(self._rounds),
        )

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

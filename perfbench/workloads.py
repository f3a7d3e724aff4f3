"""The three workloads: one op shape each, set up from the workload seed.

Each workload is a closed loop with one client.  `draw()` makes the next
op's input from the seeded stream (a fresh side set and demand order),
`op()` is the timed call into opir, and `check()` compares the op's
outputs with perfbench.oracle outside the timed span.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import time

import oracle
from opir import audit, net, protocol, wire

HERE = os.path.dirname(os.path.abspath(__file__))


def _rows(rng: random.Random, k: int, symbols: int, q: int) -> list[tuple[int, ...]]:
    return [tuple(rng.randrange(q) for _ in range(symbols)) for _ in range(k)]


def _next_demand(order, known) -> int:
    return next(i for i in order if i not in known)


class _Workload:
    warmup = 2

    def close(self) -> None:
        pass

    def server_pid(self) -> int | None:
        return None


class _Sessions(_Workload):
    """State shared by the session workloads: shape, database, references."""

    k = m = symbols = 0

    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"perfbench:{name}:{seed}")
        self.params = protocol.ProtocolParams.create(self.k, self.m, symbols=self.symbols)
        self.rows = _rows(self.rng, self.k, self.symbols, self.params.q)
        self.database = protocol.Database(q=self.params.q, messages=tuple(self.rows))

    def draw(self):
        side = sorted(self.rng.sample(range(1, self.k + 1), self.m))
        order = [i for i in range(1, self.k + 1) if i not in side]
        self.rng.shuffle(order)
        return side, order

    def check_session(self, known, rounds, x_points, y_points) -> None:
        q = self.params.q
        coeffs = oracle.coefficient_table(x_points, y_points, q)
        oracle.check_schedule([query.round_no for query, _ in rounds], self.k, self.m)
        for query, answer in rounds:
            if answer.round_no != query.round_no:
                raise oracle.CheckFailed("answer round differs from query round")
            oracle.check_answer(
                query.round_no, query.blocks, answer.packets, self.rows, coeffs, q, self.m
            )
        oracle.check_recovered(known, self.rows)


class BulkInproc(_Sessions):
    """Full in-process sessions at K=32, M=1 (5 rounds), 256 symbols."""

    name = "bulk-inproc"
    k, m, symbols = 32, 1, 256

    def __init__(self, seed: int, workdir: str):
        super().__init__(self.name, seed)
        self.cauchy = protocol.session_cauchy(self.params)

    def op(self, side, order):
        server = protocol.Server(self.database, self.params, self.cauchy)
        client = protocol.Client(
            self.params, protocol.SideInformation.from_database(self.database, side), self.cauchy
        )
        rounds = []
        for _ in range(self.params.max_rounds):
            query = client.build_query(_next_demand(order, client.known))
            answer = server.answer(query)
            client.decode_answer(answer)
            rounds.append((query, answer))
        return client.known, rounds

    def check(self, out) -> None:
        known, rounds = out
        self.check_session(known, rounds, self.cauchy.x_points, self.cauchy.y_points)


class TcpSession(_Sessions):
    """Whole sessions over loopback TCP against a separate `opir serve` process.

    K=16, M=3 (3 rounds, pinned coding points), 1 symbol; each op is
    connect, HELLO, three QUERY/ANSWER rounds and BYE on its own connection.
    """

    name = "tcp-session"
    k, m, symbols = 16, 3, 1
    warmup = 20

    def __init__(self, seed: int, workdir: str):
        super().__init__(self.name, seed)
        self.workdir = workdir
        self.db_path = os.path.join(workdir, f"tcp-db-{seed}.bin")
        self.config_path = os.path.join(workdir, f"tcp-config-{seed}.json")
        wire.write_database(self.database, self.db_path)
        with open(self.config_path, "w") as fh:
            json.dump({"k": self.k, "m": self.m, "symbols": self.symbols,
                       "database": self.db_path}, fh)
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.expect = {"k": self.k, "m": self.m, "symbols": self.symbols}

    def start_server(self, trace_path: str | None = None) -> float:
        """Spawn `opir serve` through the launcher; seconds until it answers a HELLO."""
        self.close()
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        command = [sys.executable, os.path.join(HERE, "serve_launcher.py")]
        if trace_path is not None:
            command += ["--trace", trace_path]
        command += ["serve", "--config", self.config_path, "--listen", f"127.0.0.1:{port}"]
        log_path = os.path.join(self.workdir, "serve-stderr.log")
        start = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=log)
        self.address = ("127.0.0.1", port)
        try:
            while time.perf_counter() < start + 60:
                if self.proc.poll() is not None:
                    with open(log_path, "rb") as fh:
                        raise RuntimeError(
                            "opir serve exited during start-up: "
                            + fh.read().decode(errors="replace")[-2000:]
                        )
                if self._answers_hello():
                    return time.perf_counter() - start
                time.sleep(0.002)
            raise RuntimeError("opir serve did not answer a HELLO within 60 s")
        except BaseException:
            self.close()
            raise

    def _answers_hello(self) -> bool:
        try:
            sock = socket.create_connection(self.address, timeout=5)
        except ConnectionRefusedError:
            return False
        with sock, sock.makefile("rwb") as stream:
            stream.write(wire.encode_frame(wire.FRAME_HELLO, wire.encode_hello(wire.Hello())))
            stream.flush()
            frame_type, _ = wire.read_frame(stream)
            stream.write(wire.encode_frame(wire.FRAME_BYE))
            stream.flush()
        return frame_type == wire.FRAME_HELLO

    def op(self, side, order):
        side_info = protocol.SideInformation.from_database(self.database, side)
        with net.RemoteSession(self.address, side_info, expect=self.expect) as session:
            for _ in range(self.params.max_rounds):
                session.retrieve(_next_demand(order, session.client.known))
            return session.client.known, session.transcript()

    def check(self, out) -> None:
        known, transcript = out
        rounds = [(r.query, r.answer) for r in transcript.rounds]
        self.check_session(known, rounds, transcript.cauchy_x, transcript.cauchy_y)

    def server_pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    def close(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=20)


class AuditK32(_Workload):
    """The checks `opir audit` runs, on recorded 5-round transcripts at K=32, M=1."""

    name = "audit-k32"
    k, m, symbols = 32, 1, 1
    transcripts = 8

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        params = protocol.ProtocolParams.create(self.k, self.m, symbols=self.symbols)
        cauchy = protocol.session_cauchy(params)
        rows = _rows(rng, self.k, self.symbols, params.q)
        database = protocol.Database(q=params.q, messages=tuple(rows))
        self.blobs = []
        for _ in range(self.transcripts):
            side = sorted(rng.sample(range(1, self.k + 1), self.m))
            order = [i for i in range(1, self.k + 1) if i not in side]
            rng.shuffle(order)
            client = protocol.Client(
                params, protocol.SideInformation.from_database(database, side), cauchy,
                seed=rng.randrange(2**63),
            )
            server = protocol.Server(database, params, cauchy)
            rounds = []
            for _ in range(params.max_rounds):
                query = client.build_query(_next_demand(order, client.known))
                answer = server.answer(query)
                client.decode_answer(answer)
                rounds.append(protocol.TranscriptRound(query, answer))
            transcript = protocol.Transcript(params, cauchy.x_points, cauchy.y_points, tuple(rounds))
            self.blobs.append(wire.transcript_to_bytes(transcript))
        self.turn = 0

    def draw(self):
        blob = self.blobs[self.turn % len(self.blobs)]
        self.turn += 1
        return (blob,)

    def op(self, blob):
        transcript = wire.transcript_from_bytes(blob)
        table = audit.posterior(transcript)
        p = transcript.params
        rates = [
            (i, audit.measured_rate(transcript, i), audit.capacity(p.k, p.m, i))
            for i in range(1, len(transcript.rounds) + 1)
        ]
        return table, rates, audit.rank_profile(transcript)

    def check(self, out) -> None:
        table, rates, ranks = out
        oracle.check_audit(table.rows, table.hypothesis_count, rates, ranks, self.k, self.m)


WORKLOADS = {w.name: w for w in (BulkInproc, TcpSession, AuditK32)}

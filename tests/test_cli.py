"""Command line: output contracts, exit codes, and the serve/client pair."""

import contextlib
import dataclasses
import json
import random
import re
import secrets
import socket
import subprocess
import sys
import time

import pytest

from opir import Database, PartitionQuery, ProtocolParams, run_session, wire
from opir import cli
from opir.cli import main
from opir.wire import read_database, transcript_from_bytes, transcript_to_bytes, write_database
from opir.protocol import SESSION_PRIME, session_cauchy
from conftest import (
    ANSWER_FAULTS,
    GOLDEN_SEED,
    counting_database,
    random_session,
    two_symbol_session,
)


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_table_output(capsys):
    assert run_cli("capacity", "--k", "12", "--m", "2") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["round 1: 1/4", "round 2: 1/4", "round 3: 1/2"]


def test_capacity_rejects_bad_shape(capsys):
    assert run_cli("capacity", "--k", "10", "--m", "2") == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def golden_args(*extra):
    return (
        "simulate",
        "--k", "12", "--m", "2", "--q", "17",
        "--seed", str(GOLDEN_SEED),
        "--side", "2,3",
        "--demands", "1,4,7",
        *extra,
    )


def test_simulate_golden_run(capsys):
    assert run_cli(*golden_args()) == 0
    out = capsys.readouterr().out
    assert "parameters: K=12 M=2 l=2 q=17 symbols=1" in out
    assert f"seed: {GOLDEN_SEED}" in out
    assert "side information: [2, 3]" in out
    assert "round 1: demand 1, packets 4, rate 1/4, capacity 1/4" in out
    assert "round 2: demand 4, packets 4, rate 1/4, capacity 1/4" in out
    assert "round 3: demand 7, packets 2, rate 1/2, capacity 1/2" in out
    assert "all rounds at capacity" in out


def test_simulate_default_field(capsys):
    assert run_cli(
        "simulate", "--k", "8", "--m", "1", "--seed", "5", "--demands", "1"
    ) == 0
    out = capsys.readouterr().out
    assert "q=2147483647" in out
    assert "all rounds at capacity" in out


def test_simulate_rejects_known_demand(capsys):
    code = run_cli(
        "simulate",
        "--k", "12", "--m", "2", "--q", "17",
        "--seed", "1", "--side", "2,3", "--demands", "2",
    )
    assert code == 1
    assert "already known" in capsys.readouterr().err


def test_simulate_writes_transcript(tmp_path, capsys):
    out_path = tmp_path / "session.bin"
    assert run_cli(*golden_args("--transcript-out", str(out_path))) == 0
    transcript = transcript_from_bytes(out_path.read_bytes())
    assert transcript.params == ProtocolParams.create(12, 2, q=17)
    assert transcript.costs == (4, 4, 2)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_passes_on_honest_transcript(tmp_path, capsys):
    out_path = tmp_path / "session.bin"
    run_cli(*golden_args("--transcript-out", str(out_path)))
    capsys.readouterr()
    assert run_cli("audit", "--transcript", str(out_path)) == 0
    out = capsys.readouterr().out
    assert "hypotheses: 216" in out
    assert "posterior round 1: uniform 1/12 for all 12 indices" in out
    assert "posterior round 3: uniform 1/12 for all 12 indices" in out
    assert "rate round 3: measured 1/2, capacity 1/2 [ok]" in out
    assert "rank round 1: 4, bound 4 [ok]" in out
    assert "PASS" in out


def test_audit_flags_tampered_transcript(tmp_path, capsys):
    out_path = tmp_path / "session.bin"
    run_cli(*golden_args("--transcript-out", str(out_path)))
    capsys.readouterr()
    transcript = transcript_from_bytes(out_path.read_bytes())
    # swap one index between two round-1 blocks; later merges no longer add up
    first = transcript.rounds[0]
    blocks = [list(b) for b in first.query.blocks]
    blocks[0][0], blocks[1][0] = blocks[1][0], blocks[0][0]
    tampered_query = PartitionQuery.of(1, blocks)
    tampered_round = dataclasses.replace(first, query=tampered_query)
    tampered = dataclasses.replace(
        transcript, rounds=(tampered_round,) + transcript.rounds[1:]
    )
    out_path.write_bytes(transcript_to_bytes(tampered))
    assert run_cli("audit", "--transcript", str(out_path)) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("fault", sorted(ANSWER_FAULTS))
def test_audit_refuses_answers_the_client_refuses(tmp_path, capsys, fault):
    """Answers too narrow for the HELLO's symbols, or a round-1 answer one
    packet short: an error line and exit 1, with no posterior line first."""
    *_, result = two_symbol_session()
    path = tmp_path / f"{fault}.bin"
    path.write_bytes(transcript_to_bytes(ANSWER_FAULTS[fault](result.transcript)))
    assert run_cli("audit", "--transcript", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "posterior round" not in captured.out


def test_audit_rejects_garbage_file(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a transcript")
    assert run_cli("audit", "--transcript", str(path)) == 1
    assert "error:" in capsys.readouterr().err


def _cli_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "opir.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )


def _audit_file(path):
    return _cli_process("audit", "--transcript", str(path))


def _hello_only(transcript):
    return wire.transcript_to_bytes(dataclasses.replace(transcript, rounds=()))


def _starts_at_round_2(transcript):
    return wire.transcript_to_bytes(
        dataclasses.replace(transcript, rounds=transcript.rounds[1:])
    )


def _query_beyond_k(transcript):
    """A K=4 transcript whose round-1 QUERY covers 1..6."""
    data = wire.transcript_to_bytes(dataclasses.replace(transcript, rounds=()))
    query = PartitionQuery(1, ((1, 2, 3), (4, 5, 6)))
    answer = transcript.rounds[0].answer
    return (
        data
        + wire.encode_frame(wire.FRAME_QUERY, wire.encode_query(query))
        + wire.encode_frame(wire.FRAME_ANSWER, wire.encode_answer(answer))
    )


@pytest.mark.parametrize("make", [_hello_only, _starts_at_round_2, _query_beyond_k])
def test_audit_reports_malformed_round_sequence(tmp_path, make):
    """No rounds, a first round that is not 1, or a query beyond [1..K]:
    an error line and exit 1, no traceback."""
    params = ProtocolParams.create(4, 1)
    database = Database(q=params.q, messages=((1,), (2,), (3,), (4,)))
    transcript = run_session(params, database, [2], [1, 3], seed=1).transcript
    path = tmp_path / "malformed.bin"
    path.write_bytes(make(transcript))
    proc = _audit_file(path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_audit_reports_huge_l_quickly(tmp_path):
    """A HELLO-only file whose l is 2^32 - 1 is an error line within seconds:
    l is compared with the one K and M imply, never used as an exponent."""
    hello = wire.Hello(
        k=12, m=2, l=2**32 - 1, q=17, symbols=1,
        x_points=tuple(range(20, 32)), y_points=tuple(range(5)),
    )
    path = tmp_path / "huge-l.bin"
    path.write_bytes(wire.encode_frame(wire.FRAME_HELLO, wire.encode_hello(hello)))
    start = time.monotonic()
    proc = _audit_file(path)
    assert time.monotonic() - start < 5
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "K must equal" in proc.stderr
    assert "Traceback" not in proc.stderr


def _assert_error_exit(proc, *words):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    for word in words:
        assert word in proc.stderr


def test_simulate_reports_out_of_range_indices():
    """A demand or side index outside [1..K] is an error line and exit 1."""
    base = ("simulate", "--k", "12", "--m", "2", "--q", "17", "--seed", "1")
    proc = _cli_process(*base, "--side", "2,3", "--demands", "13")
    _assert_error_exit(proc, "demand index 13 outside [1..12]")
    proc = _cli_process(*base, "--side", "2,13", "--demands", "1")
    _assert_error_exit(proc, "message index 13 outside [1..12]")


def test_client_reports_out_of_range_side_before_connecting(tmp_path):
    db_path = tmp_path / "db.bin"
    write_database(counting_database(), str(db_path))
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    proc = _cli_process(
        "client", "--connect", f"127.0.0.1:{port}",
        "--side", "2,13", "--demands", "1", "--db", str(db_path),
    )
    _assert_error_exit(proc, "message index 13 outside [1..12]")


def test_audit_reports_repeated_coding_point(tmp_path):
    """A HELLO whose x points repeat is an error line and exit 1, no traceback.
    The reader refuses it, so no posterior or rate line is printed first."""
    params = ProtocolParams.create(4, 1)
    database = Database(q=params.q, messages=((1,), (2,), (3,), (4,)))
    transcript = run_session(params, database, [2], [1, 3], seed=1).transcript
    xs = transcript.cauchy_x
    bad = dataclasses.replace(transcript, cauchy_x=(xs[0], xs[0]) + xs[2:])
    path = tmp_path / "repeated.bin"
    path.write_bytes(transcript_to_bytes(bad))
    proc = _audit_file(path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "distinct" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "posterior round" not in proc.stdout
    assert "rate round" not in proc.stdout


def test_audit_reports_modulus_above_field_cap(tmp_path):
    """A HELLO naming a prime q >= 2^31 is an error line and exit 1, no traceback."""
    params = ProtocolParams.create(4, 1)
    database = Database(q=params.q, messages=((1,), (2,), (3,), (4,)))
    transcript = run_session(params, database, [2], [1, 3], seed=1).transcript
    data = transcript_to_bytes(transcript)
    _, _, rounds_start = wire.decode_frame(data)
    hello = dataclasses.replace(
        wire.Hello.for_params(params, transcript.cauchy_x, transcript.cauchy_y),
        q=4294967291,  # the largest prime below 2^32
    )
    path = tmp_path / "big-q.bin"
    path.write_bytes(
        wire.encode_frame(wire.FRAME_HELLO, wire.encode_hello(hello)) + data[rounds_start:]
    )
    proc = _audit_file(path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "cap" in proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# gen-db
# ---------------------------------------------------------------------------

def test_gen_db_writes_readable_file(tmp_path, capsys):
    path = tmp_path / "db.bin"
    assert run_cli(
        "gen-db", "--k", "12", "--q", "17", "--seed", "9", "--out", str(path)
    ) == 0
    database = read_database(str(path))
    assert database.k == 12
    assert database.q == 17
    assert database.symbols == 1
    assert "wrote K=12" in capsys.readouterr().out


@pytest.mark.parametrize(
    "option, value",
    [("--m-symbols", "0"), ("--q", "1"), ("--q", "16"), ("--q", "5000000000")],
)
def test_gen_db_refuses_unservable_database(tmp_path, option, value):
    """Zero-symbol messages or a q that is no prime below 2^31: an error
    line and exit 1, no traceback, and no file."""
    path = tmp_path / "db.bin"
    argv = {"--k": "4", "--q": "17", "--seed": "9", "--out": str(path), option: value}
    proc = _cli_process("gen-db", *(part for pair in argv.items() for part in pair))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert not path.exists()


def test_gen_db_is_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.bin", "b.bin", "c.bin"))
    run_cli("gen-db", "--k", "8", "--q", "101", "--seed", "4", "--out", str(a))
    run_cli("gen-db", "--k", "8", "--q", "101", "--seed", "4", "--out", str(b))
    run_cli("gen-db", "--k", "8", "--q", "101", "--seed", "5", "--out", str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


# ---------------------------------------------------------------------------
# seeds and usage errors
# ---------------------------------------------------------------------------

def test_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("OPIR_SEED", str(GOLDEN_SEED))
    args = list(golden_args())
    args.remove("--seed")
    args.remove(str(GOLDEN_SEED))
    assert run_cli(*args) == 0
    assert f"seed: {GOLDEN_SEED}" in capsys.readouterr().out


def test_bad_seed_environment(monkeypatch, capsys):
    monkeypatch.setenv("OPIR_SEED", "not-a-number")
    args = list(golden_args())
    args.remove("--seed")
    args.remove(str(GOLDEN_SEED))
    assert run_cli(*args) == 1
    assert "OPIR_SEED" in capsys.readouterr().err


def test_usage_errors_exit_2():
    for argv in (
        ["simulate", "--k", "12"],
        ["simulate", "--k", "12", "--m", "2", "--demands", "a,b"],
        ["serve", "--config", "x", "--listen", "nonsense"],
        ["no-such-command"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("port", ["65536", "99999"])
@pytest.mark.parametrize("command", ["serve", "client"])
def test_port_outside_range_is_usage_error(command, port, capsys):
    """A port above 65535 would overflow in bind, or be wrapped modulo
    65536 by getaddrinfo and reach another port, so it is a usage error."""
    address = f"127.0.0.1:{port}"
    if command == "serve":
        argv = ["serve", "--config", "x.json", "--listen", address]
    else:
        argv = ["client", "--connect", address, "--side", "2,3", "--demands", "1", "--db", "x"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "0..65535" in capsys.readouterr().err
    assert cli._address("127.0.0.1:65535") == ("127.0.0.1", 65535)
    assert cli._address(":0") == ("127.0.0.1", 0)


def test_client_connection_refused(tmp_path, capsys):
    db_path = tmp_path / "db.bin"
    write_database(counting_database(), str(db_path))
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    code = run_cli(
        "client",
        "--connect", f"127.0.0.1:{port}",
        "--side", "2,3",
        "--demands", "1",
        "--db", str(db_path),
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# serve + client end to end
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def serving(tmp_path, database, **config):
    """An `opir serve` process for the database; yields its port.

    The config is K=12, M=2, q=17 unless keyword arguments replace it.
    """
    db_path = tmp_path / "served.bin"
    write_database(database, str(db_path))
    config_path = tmp_path / "server.json"
    config = config or {"k": 12, "m": 2, "q": 17}
    config_path.write_text(json.dumps({**config, "database": str(db_path)}))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "opir.cli",
            "serve", "--config", str(config_path),
            "--listen", "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # The line comes once the socket is bound, naming the port picked.
        line = proc.stdout.readline()
        assert line.startswith("serving on 127.0.0.1:"), line
        yield int(line.rsplit(":", 1)[1])
    finally:
        proc.terminate()
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate(timeout=5)


def test_serve_client_end_to_end(tmp_path, capsys):
    db_path = tmp_path / "db.bin"
    write_database(counting_database(), str(db_path))
    with serving(tmp_path, counting_database()) as port:
        transcript_path = tmp_path / "remote.bin"
        code = run_cli(
            "client",
            "--connect", f"127.0.0.1:{port}",
            "--side", "2,3",
            "--demands", "1,4,7",
            "--seed", str(GOLDEN_SEED),
            "--db", str(db_path),
            "--transcript-out", str(transcript_path),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "round 3: demand 7, packets 2, rate 1/2, capacity 1/2" in out
        assert "all rounds at capacity" in out

        params = ProtocolParams.create(12, 2, q=17)
        local = run_session(
            params, counting_database(), [2, 3], [1, 4, 7], seed=GOLDEN_SEED
        )
        assert transcript_path.read_bytes() == transcript_to_bytes(local.transcript)

        assert run_cli("audit", "--transcript", str(transcript_path)) == 0
        assert "PASS" in capsys.readouterr().out


def test_serve_sends_default_field_points_at_k32(tmp_path, capsys):
    """`opir serve` at K=32, M=1 with no q: a five-round remote session
    reaches capacity, its transcript equals the in-process one byte for
    byte, it audits PASS, and its HELLO carries session_cauchy's default
    points."""
    params, database, side, demands, local = random_session(32, 1, seed=5)
    assert (params.k, params.m, params.q, params.l) == (32, 1, SESSION_PRIME, 4)
    db_path = tmp_path / "db.bin"
    write_database(database, str(db_path))
    transcript_path = tmp_path / "remote.bin"
    with serving(tmp_path, database, k=32, m=1) as port:
        code = run_cli(
            "client",
            "--connect", f"127.0.0.1:{port}",
            "--side", ",".join(map(str, side)),
            "--demands", ",".join(map(str, demands)),
            "--seed", "5",
            "--db", str(db_path),
            "--transcript-out", str(transcript_path),
        )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all rounds at capacity" in out
    data = transcript_path.read_bytes()
    assert data == transcript_to_bytes(local.transcript)
    transcript = transcript_from_bytes(data)
    cauchy = session_cauchy(params)
    assert (transcript.cauchy_x, transcript.cauchy_y) == (cauchy.x_points, cauchy.y_points)
    assert run_cli("audit", "--transcript", str(transcript_path)) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")


def test_unseeded_client_draws_256_bits_and_replays(tmp_path, monkeypatch, capsys):
    """With no --seed and no OPIR_SEED the seed is 256 bits from secrets, too
    many to search; it is printed, and passing it back replays the run."""
    monkeypatch.delenv("OPIR_SEED", raising=False)
    asked = []
    randbits = secrets.randbits
    monkeypatch.setattr(cli.secrets, "randbits", lambda bits: asked.append(bits) or randbits(bits))
    db_path = tmp_path / "db.bin"
    write_database(counting_database(), str(db_path))
    first, replay = tmp_path / "first.bin", tmp_path / "replay.bin"
    with serving(tmp_path, counting_database()) as port:
        # Two rounds, so that every partition leaves demand 4 unknown after
        # round 1 and every round-2 system is a Cauchy submatrix.
        argv = [
            "client", "--connect", f"127.0.0.1:{port}", "--side", "2,3",
            "--demands", "1,4", "--db", str(db_path),
        ]
        assert run_cli(*argv, "--transcript-out", str(first)) == 0
        assert asked == [256]
        seed = re.search(r"^seed: (\d+)$", capsys.readouterr().out, re.M).group(1)
        assert run_cli(*argv, "--seed", seed, "--transcript-out", str(replay)) == 0
        assert asked == [256]
    assert first.read_bytes() == replay.read_bytes()


def test_client_fails_on_values_not_in_its_database(tmp_path, capsys):
    """Served and local databases share K and q but differ in values."""
    served = Database.random(12, 1, 17, random.Random(4))
    assert served != counting_database()
    db_path = tmp_path / "db.bin"
    write_database(counting_database(), str(db_path))
    with serving(tmp_path, served) as port:
        code = run_cli(
            "client",
            "--connect", f"127.0.0.1:{port}",
            "--side", "2,3",
            "--demands", "1,4",
            "--seed", str(GOLDEN_SEED),
            "--db", str(db_path),
        )
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH" in out
    assert out.rstrip().endswith("FAIL: rate or recovery check failed")

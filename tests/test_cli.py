"""Command line: output contracts, exit codes, and the serve/client pair."""

import contextlib
import dataclasses
import json
import random
import socket
import subprocess
import sys

import pytest

from opir import Database, PartitionQuery, ProtocolParams, run_session
from opir.cli import main
from opir.wire import read_database, transcript_from_bytes, transcript_to_bytes, write_database
from conftest import GOLDEN_SEED, counting_database


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


def test_audit_rejects_garbage_file(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a transcript")
    assert run_cli("audit", "--transcript", str(path)) == 1
    assert "error:" in capsys.readouterr().err


def test_audit_reports_repeated_coding_point(tmp_path):
    """A HELLO whose x points repeat is an error line and exit 1, no traceback."""
    params = ProtocolParams.create(4, 1)
    database = Database(q=params.q, messages=((1,), (2,), (3,), (4,)))
    transcript = run_session(params, database, [2], [1, 3], seed=1).transcript
    xs = transcript.cauchy_x
    bad = dataclasses.replace(transcript, cauchy_x=(xs[0], xs[0]) + xs[2:])
    path = tmp_path / "repeated.bin"
    path.write_bytes(transcript_to_bytes(bad))
    proc = subprocess.run(
        [sys.executable, "-m", "opir.cli", "audit", "--transcript", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "distinct" in proc.stderr
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
def serving(tmp_path, database):
    """An `opir serve` process for a K=12, M=2, q=17 database; yields its port."""
    db_path = tmp_path / "served.bin"
    write_database(database, str(db_path))
    config_path = tmp_path / "server.json"
    config_path.write_text(
        json.dumps({"k": 12, "m": 2, "q": 17, "database": str(db_path)})
    )
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

"""Fast tests of the benchmark itself: its checks catch corrupted outputs,
and it prints exactly the metrics BENCHMARK.json names.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
import run
import workloads
from opir import protocol, wire
from opir.errors import InconsistentTranscript

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


@pytest.fixture(scope="module")
def bulk(tmp_path_factory):
    wl = workloads.BulkInproc(7, str(tmp_path_factory.mktemp("bulk")))
    return wl, wl.op(*wl.draw())


@pytest.fixture(scope="module")
def audit_k32(tmp_path_factory):
    wl = workloads.AuditK32(7, str(tmp_path_factory.mktemp("audit")))
    return wl, wl.op(*wl.draw())


def test_session_passes_its_checks(bulk):
    wl, out = bulk
    wl.check(out)


def test_flipped_recovered_symbol_fails(bulk):
    wl, (known, rounds) = bulk
    corrupted = dict(known)
    first = corrupted[5]
    corrupted[5] = ((first[0] + 1) % wl.params.q,) + first[1:]
    with pytest.raises(oracle.CheckFailed, match="recovered message 5"):
        wl.check((corrupted, rounds))


def test_altered_answer_packet_fails(bulk):
    wl, (known, rounds) = bulk
    query, answer = rounds[2]
    packets = list(answer.packets)
    packets[-1] = packets[-1][:-1] + ((packets[-1][-1] + 1) % wl.params.q,)
    altered = protocol.RoundAnswer(answer.round_no, tuple(packets))
    with pytest.raises(oracle.CheckFailed, match="round 3: packet"):
        wl.check((known, rounds[:2] + [(query, altered)] + rounds[3:]))


def test_missing_packet_fails(bulk):
    wl, (known, rounds) = bulk
    query, answer = rounds[0]
    short = protocol.RoundAnswer(1, answer.packets[:-1])
    with pytest.raises(oracle.CheckFailed, match="packets, expected 16"):
        wl.check((known, [(query, short)] + rounds[1:]))


def test_audit_passes_its_checks(audit_k32):
    wl, out = audit_k32
    wl.check(out)
    assert out[0].hypothesis_count == 32768


def test_non_uniform_posterior_row_fails(audit_k32):
    wl, (table, rates, ranks) = audit_k32
    rows = [list(row) for row in table.rows]
    rows[3][0] += Fraction(1, 64)
    rows[3][1] -= Fraction(1, 64)
    with pytest.raises(oracle.CheckFailed, match="posterior round 4"):
        oracle.check_audit(rows, table.hypothesis_count, rates, ranks, wl.k, wl.m)


def test_wrong_rank_or_rate_fails(audit_k32):
    wl, (table, rates, ranks) = audit_k32
    low_rank = ranks[:-1] + ((ranks[-1][0], ranks[-1][1] - 1),)
    with pytest.raises(oracle.CheckFailed, match="rank"):
        oracle.check_audit(table.rows, table.hypothesis_count, rates, low_rank, wl.k, wl.m)
    round_no, measured, cap = rates[1]
    wrong_rate = [rates[0], (round_no, measured / 2, cap)] + rates[2:]
    with pytest.raises(oracle.CheckFailed, match="rate"):
        oracle.check_audit(table.rows, table.hypothesis_count, wrong_rate, ranks, wl.k, wl.m)


def test_inconsistent_transcript_is_a_failed_op(audit_k32):
    wl, _ = audit_k32
    transcript = wire.transcript_from_bytes(wl.blobs[0])
    second = transcript.rounds[1]
    blocks = [list(b) for b in second.query.blocks]
    blocks[0][0], blocks[1][0] = blocks[1][0], blocks[0][0]
    bad_query = protocol.PartitionQuery.of(2, blocks)
    rounds = (transcript.rounds[0], protocol.TranscriptRound(bad_query, second.answer))
    blob = wire.transcript_to_bytes(
        protocol.Transcript(transcript.params, transcript.cauchy_x, transcript.cauchy_y, rounds)
    )
    with pytest.raises(InconsistentTranscript):
        wl.op(blob)

    class Replay:
        warmup = 0

        def draw(self):
            return (blob,)

        op = staticmethod(wl.op)
        check = staticmethod(wl.check)

    phase = run.Phase()
    run.run_op(Replay(), phase, timed=True)
    assert (phase.attempted, phase.failed, phase.ops) == (1, 1, 0)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_named_in_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tcp-session", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tcp-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

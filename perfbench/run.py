"""Benchmark for opir: whole sessions in process and over TCP, and transcript audits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; opir is imported from ./src.  The
workload seed makes every input: database rows, side sets, demand orders
and the audited transcripts.  Every op's output is checked against
perfbench/oracle.py.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics (from spans, see tracing.py) with --trace 1.
Lines before it start with "#" and describe the run.  Scratch and trace
files go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402

# Fresh set-ups per run, before and after the timed loop so that they span
# the run's drift in machine speed; setup_s is their median.
SETUP_BEFORE = 3
SETUP_AFTER = 4

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "field.solve_calls": "count",
    "field.solve_ms": "ms",
    "field.rank_ms": "ms",
    "cauchy.certify_ms": "ms",
    "cauchy.build_ms": "ms",
    "protocol.build_query_ms": "ms",
    "protocol.answer_ms": "ms",
    "protocol.validate_ms": "ms",
    "protocol.decode_ms": "ms",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.frames": "count",
    "wire.bytes": "B",
    "net.connect_ms": "ms",
    "net.wait_ms": "ms",
    "net.server_cpu_ms": "ms",
    "net.server_rss_mb": "MB",
    "audit.enumerate_ms": "ms",
    "audit.posterior_ms": "ms",
    "audit.hypotheses": "count",
    "cli.serve_ready_ms": "ms",
    "trace.op_ms_p50": "ms",
    "trace.overhead_ms": "ms",
}

FRAME_SPANS = ("wire.encode", "wire.decode", "wire.read")


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# process figures
# ---------------------------------------------------------------------------

def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def loopback_bytes() -> int | None:
    try:
        with open("/proc/net/dev") as fh:
            for line in fh:
                name, _, counters = line.partition(":")
                if name.strip() == "lo":
                    fields = counters.split()
                    return int(fields[0]) + int(fields[8])
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (checkout has no .git)"
    with open(head) as fh:
        ref = fh.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        return ref
    return ref


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def pin_to_one_cpu() -> tuple[set[int], int]:
    """Pin this process, and so every process it starts, to one CPU.

    The client and `opir serve` take turns (one connection, strict
    request/reply), so one CPU loses no parallelism.  Across CPUs each turn
    is a cross-CPU wake-up, which on a 2-vCPU VM measured 0.3-1 ms and
    doubled the TCP session's median with a run-to-run spread of 14 %.
    """
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return allowed, cpu


def print_metadata(args, allowed: set[int], cpu: int) -> None:
    note(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    note(f"python {sys.version.split()[0]} ({sys.implementation.name})")
    note(f"commit {commit()}; src digest {source_digest()}")
    note(
        f"nproc {len(allowed)} (machine {os.cpu_count()}); all processes pinned to CPU {cpu};"
        f" load average {' '.join(f'{v:.2f}' for v in os.getloadavg())}"
    )
    if args.workload == "tcp-session":
        note("transport: TCP to `opir serve` on 127.0.0.1, over the loopback interface")
    else:
        note("transport: in process, no TCP")


# ---------------------------------------------------------------------------
# measuring loop
# ---------------------------------------------------------------------------

class Phase:
    """Outcome of one measuring loop."""

    def __init__(self):
        self.durations_ns: list[int] = []
        self.windows: list[tuple[int, int]] = []
        self.client_cpu_s = 0.0
        self.server_cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.problems: list[str] = []

    @property
    def ops(self) -> int:
        return len(self.durations_ns)

    def p50_ms(self) -> float:
        return statistics.median(self.durations_ns) / 1e6


def run_op(wl, phase: Phase, timed: bool, tracer=None) -> None:
    args = wl.draw()
    phase.attempted += 1
    if tracer is not None and timed:
        tracer.op = phase.ops
    cpu0 = time.process_time()
    t0 = time.perf_counter_ns()
    try:
        out = wl.op(*args)
    except Exception as exc:  # every error is a failed op, never retried
        phase.failed += 1
        if len(phase.problems) < 5:
            phase.problems.append(f"op failed: {type(exc).__name__}: {exc}")
        return
    finally:
        t1 = time.perf_counter_ns()
        cpu1 = time.process_time()
        if tracer is not None:
            tracer.op = None
    if timed:
        phase.durations_ns.append(t1 - t0)
        phase.windows.append((t0, t1))
        phase.client_cpu_s += cpu1 - cpu0
    try:
        wl.check(out)
    except oracle.CheckFailed as exc:
        if len(phase.problems) < 5:
            phase.problems.append(f"check failed: {exc}")
        phase.checks_failed += 1


def measure(sides, seconds: float) -> list[Phase]:
    """Warm-up ops (checked, not timed), then timed ops for `seconds`.

    `sides` is a list of (workload, tracer or None).  Their ops take turns,
    so every side sees the same drift in machine speed; a side's tracer is
    installed for its own ops only.
    """
    phases = [Phase() for _ in sides]

    def turn(timed: bool) -> None:
        for (wl, tracer), phase in zip(sides, phases):
            if tracer is None:
                run_op(wl, phase, timed)
                continue
            tracer.install()
            try:
                run_op(wl, phase, timed, tracer)
            finally:
                tracer.uninstall()

    for _ in range(max(wl.warmup for wl, _ in sides)):
        turn(timed=False)
    pids = [wl.server_pid() for wl, _ in sides]
    server_cpu0 = [proc_cpu_s(pid) if pid else 0.0 for pid in pids]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or any(p.ops == 0 for p in phases):
        turn(timed=True)
        if any(p.attempted > 10 and p.failed == p.attempted for p in phases):
            break
    for phase, pid, cpu0 in zip(phases, pids, server_cpu0):
        if pid:
            phase.server_cpu_s = proc_cpu_s(pid) - cpu0
    return phases


def tail_note(phase: Phase) -> str:
    """The highest percentile with at least ten samples beyond it (reference only)."""
    n = phase.ops
    ordered = sorted(phase.durations_ns)
    for pct in (99.9, 99, 95, 90, 75):
        beyond = int(n * (100 - pct) / 100)
        if n >= 40 and beyond >= 10:
            value = ordered[min(n - 1, int(n * pct / 100))] / 1e6
            return f"p{pct:g} {value:.3f} ms over {n} ops ({beyond} beyond it)"
    return f"median only: {n} ops are too few for a tail percentile"


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_sample(args, workloads, workdir) -> tuple[float, object | None]:
    """Seconds from start until the first op can run, in a fresh process.

    In-process workloads re-run this script with --setup-only and time it
    until it prints "ready".  On tcp-session the fresh process is `opir
    serve`, timed until it answers a HELLO; the workload is returned so that
    the last sample's server can serve the run.
    """
    if args.workload == "tcp-session":
        start = time.perf_counter()
        wl = workloads.TcpSession(args.seed, workdir)
        wl.start_server()
        return time.perf_counter() - start, wl
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up process failed with code {proc.returncode}")
    return elapsed, None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(phase: Phase, server_pid: int | None) -> dict[str, float]:
    rss = self_peak_rss_mb()
    if server_pid:
        rss = max(rss, proc_peak_rss_mb(server_pid))
    return {
        "op_ms_p50": phase.p50_ms(),
        "ops_per_s": phase.ops / (sum(phase.durations_ns) / 1e9),
        "cpu_ms_per_op": (phase.client_cpu_s + phase.server_cpu_s) * 1000 / phase.ops,
        "peak_rss_mb": rss,
    }


def spans_of_timed_connections(spans, windows):
    """Server spans of the connections that served timed ops.

    The server's op id is its connection; a connection belongs to a timed
    op when one of its spans starts inside that op's window.  All its spans
    then count, including the BYE read that follows the client's close.
    """
    starts = [w[0] for w in windows]
    timed = set()
    for span in spans:
        i = bisect.bisect_right(starts, span[tracing.START]) - 1
        if i >= 0 and span[tracing.START] <= windows[i][1]:
            timed.add(span[tracing.OP])
    return [span for span in spans if span[tracing.OP] in timed]


def per_layer(client_spans, server_spans, untraced: Phase, traced: Phase,
              ready_s: float, server_rss_mb: float) -> dict[str, float]:
    """Per-op layer figures of the traced phase (see README.md for each)."""
    n = traced.ops
    sums: dict[str, int] = {}
    timed_client = [s for s in client_spans if s[tracing.OP] is not None]
    for part in (timed_client, spans_of_timed_connections(server_spans, traced.windows)):
        for key, value in tracing.layer_sums(part).items():
            sums[key] = sums.get(key, 0) + value

    def ms(name, kind="total"):
        return sums.get(f"{name}.{kind}_ns", 0) / 1e6 / n

    certify = [s for s in client_spans + server_spans if s[tracing.NAME] == "cauchy.certify"]
    first_certify = min(certify, key=lambda s: s[tracing.START]) if certify else None
    return {
        "field.solve_calls": sums.get("field.solve.calls", 0) / n,
        "field.solve_ms": ms("field.solve"),
        "field.rank_ms": ms("field.rank"),
        "cauchy.certify_ms": (
            (first_certify[tracing.END] - first_certify[tracing.START]) / 1e6
            if first_certify else 0.0
        ),
        "cauchy.build_ms": ms("cauchy.build"),
        "protocol.build_query_ms": ms("protocol.build_query"),
        "protocol.answer_ms": ms("protocol.answer", "self"),
        "protocol.validate_ms": ms("protocol.validate"),
        "protocol.decode_ms": ms("protocol.decode", "self"),
        "wire.encode_ms": ms("wire.encode"),
        "wire.decode_ms": ms("wire.decode"),
        "wire.frames": sum(sums.get(f"{name}.sized", 0) for name in FRAME_SPANS) / n,
        "wire.bytes": sum(sums.get(f"{name}.size", 0) for name in FRAME_SPANS) / n,
        "net.connect_ms": ms("net.connect"),
        "net.wait_ms": ms("net.retrieve", "self"),
        "net.server_cpu_ms": untraced.server_cpu_s * 1000 / untraced.ops,
        "net.server_rss_mb": server_rss_mb,
        "audit.enumerate_ms": ms("audit.enumerate"),
        "audit.posterior_ms": ms("audit.posterior", "self"),
        "audit.hypotheses": sums.get("audit.enumerate.size", 0) / n,
        "cli.serve_ready_ms": ready_s * 1000,
        "trace.op_ms_p50": traced.p50_ms(),
        "trace.overhead_ms": traced.p50_ms() - untraced.p50_ms(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_untraced(args, workloads, workdir):
    samples, wl = [], None
    try:
        for _ in range(SETUP_BEFORE):
            if wl is not None:
                wl.close()
            elapsed, wl = setup_sample(args, workloads, workdir)
            samples.append(elapsed)
        if wl is None:
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        [phase] = measure([(wl, None)], args.seconds)
        metrics = end_to_end(phase, wl.server_pid())
    finally:
        if wl is not None:
            wl.close()
    for _ in range(SETUP_AFTER):
        elapsed, extra = setup_sample(args, workloads, workdir)
        if extra is not None:
            extra.close()
        samples.append(elapsed)
    note("set-up samples (s): " + " ".join(f"{s:.4f}" for s in samples))
    metrics["setup_s"] = statistics.median(samples)
    return [phase], metrics


def run_traced(args, workloads, workdir):
    """Untraced and traced ops in turn, so the overhead is not machine drift.

    On tcp-session each side has its own `opir serve`; the traced one runs
    with the wrappers installed and writes its spans when it stops.
    """
    tracer = tracing.Tracer()
    plain = traced = None
    trace_path = os.path.join(workdir, f"trace-{args.workload}-{args.seed}-server.jsonl")
    try:
        if args.workload == "tcp-session":
            plain = workloads.TcpSession(args.seed, workdir)
            plain.start_server()
            traced = workloads.TcpSession(args.seed, workdir)
            ready_s = traced.start_server(trace_path=trace_path)
        else:
            tracer.install()
            plain = traced = workloads.WORKLOADS[args.workload](args.seed, workdir)
            tracer.uninstall()
            ready_s = 0.0
        phases = measure([(plain, None), (traced, tracer)], args.seconds)
        server_rss = proc_peak_rss_mb(plain.server_pid()) if plain.server_pid() else 0.0
    finally:
        tracer.uninstall()
        for wl in (plain, traced):
            if wl is not None:
                wl.close()
    server_spans = tracing.load(trace_path) if args.workload == "tcp-session" else []
    tracer.dump(os.path.join(workdir, f"trace-{args.workload}-{args.seed}-client.jsonl"))
    metrics = per_layer(tracer.spans, server_spans, *phases, ready_s, server_rss)
    return phases, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import opir from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("ready", flush=True)
        return 0

    # A stop request unwinds like an error, so `opir serve` is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print_metadata(args, *pin_to_one_cpu())
    lo_before = loopback_bytes()
    phases, metrics = (run_traced if args.trace else run_untraced)(args, workloads, workdir)
    lo_after = loopback_bytes()
    if args.workload == "tcp-session" and lo_before is not None:
        note(f"loopback interface moved {lo_after - lo_before} bytes during the run")
    for label, phase in zip(("untraced", "traced"), phases):
        note(f"{label}: {phase.ops} timed ops, op p50 {phase.p50_ms():.3f} ms; {tail_note(phase)}")
    problems = [p for phase in phases for p in phase.problems]
    for problem in problems:
        note(problem)
    checks_failed = sum(phase.checks_failed for phase in phases)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": checks_failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: simulate (in-process run with printed rates and checks),
serve / client (the TCP pair), audit (posterior, rate, and rank checks on
a transcript file), capacity (the closed-form rate table), gen-db (write a
random database file).

Exit codes: 0 success and all checks passing, 1 failed checks or runtime
errors, 2 usage errors.  OPIR_SEED supplies a default seed when --seed is
not given.
"""

from __future__ import annotations

import argparse
import os
import random
import secrets
import sys
from fractions import Fraction

from .audit import capacity, capacity_table, measured_rate, posterior, rank_profile
from .errors import OpirError
from .net import create_server, read_config, run_remote_session
from .protocol import Database, ProtocolParams, SessionResult, SideInformation, run_session
from .wire import read_database, transcript_from_bytes, transcript_to_bytes, write_database


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 0xFFFF:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, port 0..65535, got {text!r}")
    return (host or "127.0.0.1", int(port))


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("OPIR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise OpirError(f"OPIR_SEED must be an integer, got {env!r}")
    # 256 bits, so the seed cannot be searched for; it is printed, so the
    # run still replays from --seed.
    return secrets.randbits(256)


def _derived_rng(seed: int, stream: str) -> random.Random:
    # Separate streams so database contents never depend on how the
    # client's partition randomness is consumed.
    return random.Random(f"{stream}:{seed}")


def _print_params(params: ProtocolParams, suffix: str = "") -> None:
    print(
        f"parameters: K={params.k} M={params.m} l={params.l}"
        f" q={params.q} symbols={params.symbols}{suffix}"
    )


def _report_session(args: argparse.Namespace, database: Database, result: SessionResult) -> int:
    """Print each round, check rate == capacity and every recovered value
    against the database, write the transcript if asked; the exit code."""
    transcript = result.transcript
    params = transcript.params
    ok = True
    for i, (demand, recovered) in enumerate(zip(args.demands, result.recovered), start=1):
        rate = measured_rate(transcript, i)
        cap = capacity(params.k, params.m, i)
        values = ", ".join(f"{index}={list(v)}" for index, v in sorted(recovered.items()))
        print(
            f"round {i}: demand {demand}, packets {transcript.costs[i - 1]},"
            f" rate {rate}, capacity {cap}, recovered {values}"
        )
        if rate != cap:
            ok = False
            print(f"  MISMATCH: rate {rate} differs from capacity {cap}")
        for index, value in recovered.items():
            if value != database.message(index):
                ok = False
                print(f"  MISMATCH: recovered {index} differs from database")
    if args.transcript_out:
        with open(args.transcript_out, "wb") as fh:
            fh.write(transcript_to_bytes(transcript))
        print(f"transcript written to {args.transcript_out}")
    print("all rounds at capacity" if ok else "FAIL: rate or recovery check failed")
    return 0 if ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    params = ProtocolParams.create(args.k, args.m, q=args.q, symbols=args.symbols)
    database = Database.random(
        params.k, params.symbols, params.q, _derived_rng(seed, "db")
    )
    if args.side is not None:
        side_indices = args.side
    else:
        side_indices = sorted(
            _derived_rng(seed, "side").sample(range(1, params.k + 1), params.m)
        )
    _print_params(params)
    print(f"seed: {seed}")
    print(f"side information: {sorted(side_indices)}")
    result = run_session(params, database, side_indices, args.demands, seed=seed)
    return _report_session(args, database, result)


def cmd_serve(args: argparse.Namespace) -> int:
    params, database_path = read_config(args.config)
    try:
        with create_server(read_database(database_path), params, *args.listen) as server:
            # Announce only once bound, with the port picked when --listen asks for 0.
            host, port = server.server_address[:2]
            print(f"serving on {host}:{port}", flush=True)
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    database = read_database(args.db)
    side = SideInformation.from_database(database, args.side)
    # Both ends refuse a session whose shape differs from the local copy,
    # the client before it builds the coding matrix the server's HELLO names.
    # The side information already fixes M and the symbol count.
    expect = {"k": database.k, "q": database.q}
    result = run_remote_session(args.connect, side, args.demands, seed=seed, expect=expect)
    _print_params(result.transcript.params)
    print(f"seed: {seed}")
    return _report_session(args, database, result)


def cmd_audit(args: argparse.Namespace) -> int:
    with open(args.transcript, "rb") as fh:
        transcript = transcript_from_bytes(fh.read())
    params = transcript.params
    _print_params(params, f", rounds={len(transcript.rounds)}")
    table = posterior(transcript)
    print(f"hypotheses: {table.hypothesis_count}")
    ok = True
    uniform = Fraction(1, params.k)
    for j in range(1, table.rounds + 1):
        row = table.row(j)
        if all(p == uniform for p in row):
            print(f"posterior round {j}: uniform 1/{params.k} for all {params.k} indices")
        else:
            ok = False
            entries = " ".join(str(p) for p in row)
            print(f"posterior round {j}: NOT UNIFORM: {entries}")
    for i in range(1, len(transcript.rounds) + 1):
        rate = measured_rate(transcript, i)
        cap = capacity(params.k, params.m, i)
        mark = "ok" if rate == cap else "MISMATCH"
        if rate != cap:
            ok = False
        print(f"rate round {i}: measured {rate}, capacity {cap} [{mark}]")
    for round_no, rank in rank_profile(transcript):
        want = 1 / capacity(params.k, params.m, round_no)
        mark = "ok" if rank == want else "MISMATCH"
        if rank != want:
            ok = False
        print(f"rank round {round_no}: {rank}, bound {want} [{mark}]")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_capacity(args: argparse.Namespace) -> int:
    for round_no, value in capacity_table(args.k, args.m):
        print(f"round {round_no}: {value}")
    return 0


def cmd_gen_db(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    database = Database.random(args.k, args.m_symbols, args.q, _derived_rng(seed, "db"))
    write_database(database, args.out)
    print(f"wrote K={args.k} symbols={args.m_symbols} q={args.q} seed={seed} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opir",
        description="Multi-round private retrieval with hidden side information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a full session in process")
    sim.add_argument("--k", type=int, required=True, help="number of messages")
    sim.add_argument("--m", type=int, required=True, help="side information size")
    sim.add_argument(
        "--q", type=int, default=None,
        help="field modulus (default: the smallest admissible prime when l = 1,"
        " else 2^31-1 with seeded coding points)",
    )
    sim.add_argument("--symbols", type=int, default=1, help="symbols per message")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--demands", type=_int_list, required=True, metavar="i,j,k")
    sim.add_argument("--side", type=_int_list, default=None, metavar="a,b")
    sim.add_argument("--transcript-out", default=None, metavar="FILE")
    sim.set_defaults(func=cmd_simulate)

    srv = sub.add_parser("serve", help="answer queries over TCP")
    srv.add_argument("--config", required=True, metavar="FILE")
    srv.add_argument("--listen", type=_address, required=True, metavar="HOST:PORT")
    srv.set_defaults(func=cmd_serve)

    cli = sub.add_parser("client", help="retrieve messages from a server")
    cli.add_argument("--connect", type=_address, required=True, metavar="HOST:PORT")
    cli.add_argument("--side", type=_int_list, required=True, metavar="a,b")
    cli.add_argument("--demands", type=_int_list, required=True, metavar="i,j,k")
    cli.add_argument("--seed", type=int, default=None)
    cli.add_argument(
        "--db",
        required=True,
        metavar="FILE",
        help="local database copy supplying the side-information values",
    )
    cli.add_argument("--transcript-out", default=None, metavar="FILE")
    cli.set_defaults(func=cmd_client)

    aud = sub.add_parser("audit", help="check privacy, rate, and rank on a transcript")
    aud.add_argument("--transcript", required=True, metavar="FILE")
    aud.set_defaults(func=cmd_audit)

    cap = sub.add_parser("capacity", help="print the per-round rate table")
    cap.add_argument("--k", type=int, required=True)
    cap.add_argument("--m", type=int, required=True)
    cap.set_defaults(func=cmd_capacity)

    gen = sub.add_parser("gen-db", help="write a random database file")
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--m-symbols", type=int, default=1)
    gen.add_argument("--q", type=int, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, metavar="FILE")
    gen.set_defaults(func=cmd_gen_db)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OpirError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

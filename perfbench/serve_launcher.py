"""Run the `opir serve` entry point, optionally with the benchmark's span wrappers.

    python3 perfbench/serve_launcher.py [--trace FILE] serve --config C --listen H:P

SIGTERM stops the server the way Ctrl-C does.  With --trace, the spans the
server recorded are written to FILE after it stops.
"""

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    signal.signal(signal.SIGTERM, _interrupt)
    from opir import cli
    import tracing

    if trace_path is None:
        return cli.main(argv)
    tracer = tracing.Tracer(per_thread_ops=True)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

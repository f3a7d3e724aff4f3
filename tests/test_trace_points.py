"""The benchmark's trace wrappers name attributes the library still has.

perfbench/tracing.py wraps library functions by name when a run is traced
(`perfbench/run.py --trace 1`).  A deleted or renamed library function
would only surface there, so this checks every wrap point from the normal
suite.  The file is compiled from its source, so no bytecode is written
next to it.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_wrap_point_exists():
    points = load_tracing().wrap_points()
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in points
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []

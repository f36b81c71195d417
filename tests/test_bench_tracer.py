"""The names the benchmark's tracer wraps exist in the program."""

import os
import types

import pytest

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


@pytest.mark.skipif(not os.path.exists(TRACING), reason="no benchmark beside the tests")
def test_every_wrapped_name_exists():
    # The tracer skips a name the program no longer has, and its layer then
    # reads 0.  Its source is read and run here, not imported as a file, so
    # nothing is compiled or written beside the benchmark.
    tracing = types.ModuleType("tracing")
    with open(TRACING, encoding="utf-8") as handle:
        exec(compile(handle.read(), TRACING, "exec"), tracing.__dict__)
    targets = tracing._targets(tracing.Tracer(run_id=0))
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in targets
               if getattr(module, attr, None) is None]
    assert targets
    assert missing == []

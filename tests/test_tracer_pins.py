"""The benchmark's tracer (perfbench/tracing.py) wraps nirom's entry points
by module and attribute name. Every one must resolve, so that renaming a
wrapped function fails here rather than only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_is_a_callable():
    pins = _tracing().targets()
    assert pins
    for module, attr, layer, _ in pins:
        assert callable(getattr(module, attr, None)), (
            f"{module.__name__}.{attr}, traced as {layer}")

"""The benchmark's tracer looks gdiff's public names up by name; keep them."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module_name, fn_name in tracer.TRACED:
        module = importlib.import_module(f"gdiff.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"gdiff.{module_name}.{fn_name}"

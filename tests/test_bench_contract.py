"""The traced benchmark pass (perfbench/tracer.py) wraps program functions by
the names callers look them up under; a rename or deletion in crashsev must
not silently drop a span from the traced run."""

import importlib
import importlib.util
from pathlib import Path

import crashsev.tune

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    for target, _, _ in _load_tracer()._counts_table():
        parts = target.split(".")
        owner = importlib.import_module("crashsev." + parts[0])
        for part in parts[1:]:
            assert hasattr(owner, part), f"{target}: no attribute {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), target


def test_fold_pool_class_is_reachable_from_tune():
    assert isinstance(crashsev.tune.ThreadPoolExecutor, type)

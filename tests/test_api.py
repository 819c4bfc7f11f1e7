"""Guards on the public surface: every ``__all__`` entry resolves, and so
does every function the benchmark harness in ``bench/`` calls or traces;
``qgap.arith`` exports nothing that only the tests read."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import qgap
import qgap.arith

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = sorted(f"qgap.{m.name}" for m in pkgutil.iter_modules(qgap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_import(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


def _bench_specs():
    sys.path.insert(0, str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))
    specs = [spec for group in tracing.TARGETS.values() for spec in group]
    return specs + ["qgap.quadratic:validate"], tracing.CACHES


def test_bench_targets_resolve():
    specs, caches = _bench_specs()
    for spec in specs:
        module, _, attr = spec.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"bench target {spec} no longer resolves"
        assert callable(obj), spec
    for spec in caches.values():
        module, _, attr = spec.partition(":")
        assert callable(getattr(importlib.import_module(module), attr).cache_info)


def test_arith_holds_no_oracle_only_code():
    # a name in qgap.arith.__all__ is read somewhere in src/qgap, or traced
    # by the bench; its definition, __all__ and the package re-exports are
    # no readers, and an oracle that only the tests call belongs in tests/
    specs, _ = _bench_specs()
    traced = {spec.partition(":")[2] for spec in specs if spec.startswith("qgap.arith:")}
    read = set()
    for path in Path(qgap.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    unread = set(qgap.arith.__all__) - read - traced
    assert not unread, f"qgap.arith exports names nothing in src/qgap reads: {sorted(unread)}"

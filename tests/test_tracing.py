"""The benchmark tracer's contract: every attribute it patches exists.

``perfbench/tracing.py`` wraps module attributes of perfectsum by name. A
renamed or removed attribute makes ``Tracer().patched()`` raise on entry,
which fails every traced benchmark run; this test fails first.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_enters_and_restores_every_attribute():
    tracing = load_tracing()
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    with tracing.Tracer().patched():
        during = [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    assert all(a is not b for a, b in zip(before, during))
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.PATCHES] == before

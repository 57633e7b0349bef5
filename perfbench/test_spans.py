"""The tracer records nested spans, computes self time and restores what it wraps.

Run from the repository root: ``python3 -m pytest perfbench``.
"""
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def _module():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(mod.inner(x))  # looks inner up at call time
    return mod


def test_nested_spans_have_parents_and_self_time():
    mod = _module()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    with tracer.span("root"):
        assert mod.outer(1) == 3
    names = [sp.name for sp in tracer.spans]
    assert names == ["root", "outer", "inner", "inner"]
    assert [sp.parent for sp in tracer.spans] == [-1, 0, 1, 1]
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    outer = tracer.spans[1]
    children = sum(sp.end - sp.start for sp in tracer.spans[2:])
    assert summary["outer"]["self_s"] == pytest.approx(outer.end - outer.start - children)
    assert summary["inner"]["self_s"] == pytest.approx(summary["inner"]["s"])


def test_uninstall_restores_originals_and_observers_see_results():
    mod = _module()
    original = mod.inner
    seen = []
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.observe("inner", lambda args, kwargs, result, seconds: seen.append(result))
    mod.inner(5)
    tracer.uninstall()
    assert mod.inner is original
    mod.inner(7)
    assert seen == [6]
    assert len(tracer.spans) == 1


def test_a_raising_call_still_closes_its_span():
    mod = _module()
    mod.inner = lambda x: 1 / x
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    with pytest.raises(ZeroDivisionError):
        mod.inner(0)
    assert tracer.spans[0].end >= tracer.spans[0].start > 0
    with tracer.span("next"):
        pass
    assert tracer.spans[1].parent == -1

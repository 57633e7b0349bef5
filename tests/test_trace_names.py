"""Every name the benchmark's tracer wraps exists in the package.

``perfbench/workload.py`` wraps functions at the module attributes their
callers look them up by. A name that a refactor removes would only show
up in a traced benchmark run, so it is checked here, without running one.
"""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workload

    missing = [(owner, attr) for owner, attr, _ in workload.WRAPS
               if not callable(getattr(workload._owner(owner), attr, None))]
    assert missing == []

"""The benchmark's traced run wraps library attributes by name; each must exist."""

import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    # `--trace 1` looks up e.g. immersions.PointState, immersions.cgb_integrand
    # and extrinsic.inner, which those modules keep importable for it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    targets = run.trace_targets(run.load_library())
    assert targets
    for owner, attribute, _ in targets:
        inspect.getattr_static(owner, attribute)

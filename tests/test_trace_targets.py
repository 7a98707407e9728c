"""The layer tracer in perfbench/tracing.py wraps package functions by
module attribute name, so every name it lists must stay importable."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    tracing = load_tracing()
    missing = [(module, attr) for module, attr, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_tracer_installs_and_removes_every_wrapper():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = set(tracing.leftover_wrappers())
    finally:
        tracer.uninstall()
    assert wrapped == {"%s.%s" % (module, attr)
                       for module, attr, _ in tracing.TARGETS}
    assert tracing.leftover_wrappers() == []


def test_traced_plan_sees_every_step(tmp_path):
    """A refactor that calls around a traced name would zero its rows of
    the benchmark's per-layer metrics; a traced plan must see them all."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = importlib.import_module("tropmf.cli").cli_main(
            ["plan", "--block", "5", "2", "-o", str(tmp_path / "plan.txt")])
    finally:
        tracer.uninstall()
    spans = tracer.take()
    metrics = tracing.layer_metrics(spans)
    names = [span[0] for span in spans]
    assert code == 0
    assert metrics["planner.steps"] == (6, "count")
    assert metrics["mutate.certify.calls"] == (6, "count")
    assert names.count("mutate.certificate_to_text") >= 6
    assert names.count("planner.plan_to_text") == 1

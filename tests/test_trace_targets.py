"""The layer tracer in perfbench/tracing.py wraps package functions by
module attribute name, so every name it lists must stay importable."""

import importlib
import importlib.util
from pathlib import Path

from conftest import five_line_matrix
from tropmf import weight_matrix_to_text

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


def traced_cli(argv):
    """(exit code, spans) of one traced cli_main run."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = importlib.import_module("tropmf.cli").cli_main(argv)
    finally:
        tracer.uninstall()
    return code, tracer.take()


def test_traced_plan_sees_every_step(tmp_path):
    """A refactor that calls around a traced name would zero its rows of
    the benchmark's per-layer metrics; a traced plan must see them all.
    Every midpoint of a block-diagonal plan is decided by the cube rule,
    so the plan makes no LP call."""
    code, spans = traced_cli(
        ["plan", "--block", "5", "2", "-o", str(tmp_path / "plan.txt")])
    metrics = load_tracing().layer_metrics(spans)
    names = [span[0] for span in spans]
    assert code == 0
    assert metrics["lp.calls"] == (0, "count")
    assert metrics["polytope.member.calls"] == (0, "count")
    assert metrics["planner.steps"] == (6, "count")
    assert metrics["mutate.certify.calls"] == (6, "count")
    assert names.count("mutate.certificate_to_text") >= 6
    assert names.count("planner.plan_to_text") == 1


def test_traced_mutate_runs_one_infeasible_lp_per_failure(tmp_path):
    """Only a "no" of the cube rule reaches the LP, which must confirm it:
    the five-line (3, 4) certificate lists one k3 and one k4 failure."""
    path = tmp_path / "five.txt"
    path.write_text(weight_matrix_to_text(five_line_matrix()))
    out = tmp_path / "cert.txt"
    code, spans = traced_cli(["mutate", "-m", str(path), "-i", "3", "-j", "4",
                              "-o", str(out)])
    metrics = load_tracing().layer_metrics(spans)
    text = out.read_text()
    assert code == 1
    assert "k3-fail-count: 1\n" in text and "k4-fail-count: 1\n" in text
    assert metrics["lp.calls"] == metrics["lp.infeasible"] == (2, "count")

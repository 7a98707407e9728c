"""The layer tracer in perfbench/tracing.py wraps package functions by
module attribute name, so every name it lists must stay importable."""

import importlib
import importlib.util
import re
from pathlib import Path

from conftest import GOLDEN, five_line_matrix
from test_byte_pins import seeded_matrices
from tropmf import certificate_to_text, certify, parse_certificate

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_every_tracer_only_import_is_a_trace_target():
    """A name imported only for the tracer (# noqa: F401) must be one the
    tracer wraps in that module; any other such import is dead code."""
    targets = {(module, attr) for module, attr, _ in load_tracing().TARGETS}
    imports = [("tropmf." + path.stem, line)
               for path in sorted((ROOT / "src" / "tropmf").glob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines()
               if "# noqa: F401" in line]
    untraced = [(module, line) for module, line in imports
                if not (m := re.match(r"from \S+ import (\w+)  #", line))
                or (module, m.group(1)) not in targets]
    assert imports and untraced == []


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
    Every midpoint of a block-diagonal plan is decided by a witness pair
    in the hull, so the plan makes no LP call."""
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
    # One full induce at the start and one at the endpoint; every step
    # gets the field its predecessor's re-check proved.
    assert metrics["mfcore.induce.calls"] == (2, "count")


def test_traced_mutate_proves_each_failure_without_lp(tmp_path):
    """A "no" of the cube rule is proved by its checked separator, so
    certify never reaches the LP: the five-line (3, 4) certificate lists
    one k3 and one k4 failure and makes no LP or member call."""
    path = tmp_path / "five.txt"
    path.write_text(five_line_matrix().text)
    out = tmp_path / "cert.txt"
    code, spans = traced_cli(["mutate", "-m", str(path), "-i", "3", "-j", "4",
                              "-o", str(out)])
    metrics = load_tracing().layer_metrics(spans)
    text = out.read_text()
    assert code == 1
    assert "k3-fail-count: 1\n" in text and "k4-fail-count: 1\n" in text
    assert metrics["lp.calls"] == (0, "count")
    assert metrics["polytope.member.calls"] == (0, "count")
    # One certify, whose only induce is of the start matrix: the landed
    # swap is re-checked on the triples through i.
    assert metrics["mutate.certify.calls"] == (1, "count")
    assert metrics["mfcore.induce.calls"] == (1, "count")


def test_traced_certify_counts_its_classification(tmp_path):
    """certify classifies through the traced name regions.classify, once
    per certificate that reaches the regions: 6 on the (5, 2) block plan
    and 1 on the five-line mutate.  Its induce counts stay 2 and 1."""
    out = tmp_path / "out.txt"
    matrix = tmp_path / "five.txt"
    matrix.write_text(five_line_matrix().text)
    for argv, calls, induces in (
            (["plan", "--block", "5", "2"], 6, 2),
            (["mutate", "-m", str(matrix), "-i", "3", "-j", "4"], 1, 1)):
        _, spans = traced_cli(argv + ["-o", str(out)])
        metrics = load_tracing().layer_metrics(spans)
        assert metrics["regions.classify.calls"] == (calls, "count")
        assert metrics["mfcore.induce.calls"] == (induces, "count")


def test_reading_certificates_records_no_span():
    """perfbench's traced pass checks outputs with parse_certificate while
    the tracer is installed, and fails when a count moves between
    passes; so the reader calls no traced name."""
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(GOLDEN.glob("mutate_*.txt"))]
    texts += [certificate_to_text(certify(M, i, j))
              for M in seeded_matrices()
              for i in range(1, M.n + 1) for j in range(1, M.n + 1) if i != j]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for text in texts:
            parse_certificate(text)
    finally:
        tracer.uninstall()
    assert tracer.take() == []

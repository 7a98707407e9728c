"""One workload in a fresh process; started by run.py, not by hand.

Set-up (import tropmf from the checkout's src/, generate the inputs,
write the input files) ends with a READY line on stdout.  The process
then either exits (--setup-only), runs timed passes (--trace 0), or
runs a traced run (--trace 1), and prints one JSON line with its result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from hashlib import sha256
from math import exp, log, log1p
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import tracing  # noqa: E402
import workloads  # noqa: E402


def import_tropmf():
    sys.path.insert(0, str(SRC))
    import tropmf.cli
    if Path(tropmf.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit("tropmf was imported from %s, not from %s"
                         % (tropmf.__file__, SRC))
    return tropmf.cli


def write_inputs(units, work: Path) -> list:
    """CLI argument lists, one per unit, with input files written to `work`."""
    out = str(work / "out.txt")
    argvs = []
    for idx, unit in enumerate(units):
        argv = list(unit.args)
        if unit.matrix is not None:
            path = work / ("in%03d.wm" % idx)
            path.write_text(unit.matrix, encoding="utf-8")
            argv += ["-m", str(path)]
        argvs.append(argv + ["-o", out])
    return argvs


def run_unit(cli, argv):
    """(exit code or None if it raised, output text, seconds in cli_main)."""
    out = argv[-1]
    if os.path.exists(out):
        os.remove(out)
    start = perf_counter()
    try:
        rc = cli.cli_main(argv)
    except (Exception, SystemExit):
        elapsed = perf_counter() - start
        traceback.print_exc()
        return None, "", elapsed
    elapsed = perf_counter() - start
    try:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        text = ""
    return rc, text, elapsed


def measure(cli, unit, argv, expected, first: dict):
    """(answer, seconds, problems) for one run of one unit.  The first
    answer for each input is checked in full; later ones must repeat it
    byte for byte."""
    rc, text, elapsed = run_unit(cli, argv)
    answer = (sha256(text.encode()).hexdigest(), rc)
    if unit.key in first:
        problems = [] if first[unit.key] == answer else [
            "output differs from the first answer for this input"]
    else:
        problems = workloads.check(unit, rc, text, expected)
        first[unit.key] = answer
    for problem in problems:
        print("FAILED %s: %s" % (unit.key, problem), file=sys.stderr)
    return answer, elapsed, problems


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted mean of all order statistics.  Unit latencies here have one
    mode per input size, and a single order statistic (the plain median)
    jumps between modes from run to run; this estimate moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    steps = 100 * n
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k * n // steps] += exp((a - 1) * log(t) + (b - 1) * log1p(-t))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def timed_run(cli, units, argvs, expected, seconds) -> dict:
    """Whole passes over the input set, so every run measures the same mix
    of inputs: as many as bring the measured time nearest to `seconds`,
    and at least one.  Latency quantiles are taken over the inputs, each
    at its mean time over the passes, so they do not depend on how many
    passes ran."""
    first, per_unit = {}, [[] for _ in units]
    failed = passes = 0
    elapsed = 0.0
    while passes == 0 or elapsed + elapsed / passes / 2 < seconds:
        for idx, (unit, argv) in enumerate(zip(units, argvs)):
            _, dt, problems = measure(cli, unit, argv, expected, first)
            failed += bool(problems)
            per_unit[idx].append(dt)
            elapsed += dt
        passes += 1
    means = [sum(t) / len(t) for t in per_unit]
    metrics = {
        "units_per_s": (passes * len(units) / elapsed, "1/s"),
        "unit_p50_ms": (quantile(means, 0.5) * 1000, "ms"),
        "unit_p90_ms": (quantile(means, 0.9) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print("%d passes of %d units, %.1f s measured" % (passes, len(units), elapsed),
          file=sys.stderr)
    return {"correct": failed == 0, "attempted": passes * len(units), "failed": failed,
            "metrics": metrics}


def traced_run(cli, units, argvs, expected, workload) -> dict:
    """Pass 1 runs each unit untraced and traced back to back, alternating
    which goes first, so the overhead compares runs close in time; its
    spans give the per-layer metrics and are written to .bench_out/.
    Pass 2 runs every unit traced again: every count must repeat exactly,
    every output must equal the untraced one byte for byte, and no
    wrapper may be left installed."""
    first, tracer = {}, tracing.Tracer()
    failed = attempted = 0
    plain_s = traced_s = 0.0
    answers = [], [], []
    for idx, (unit, argv) in enumerate(zip(units, argvs)):
        for traced in ((False, True) if idx % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                answer, dt, problems = measure(cli, unit, argv, expected, first)
            finally:
                tracer.uninstall()
            answers[traced].append(answer)
            if traced:
                traced_s += dt
            else:
                plain_s += dt
            failed += bool(problems)
            attempted += 1
    spans = tracer.take()
    metrics = tracing.layer_metrics(spans)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracing.write_spans(spans, out_dir / ("trace-%s.jsonl" % workload))
    del spans
    tracer.install()
    try:
        for unit, argv in zip(units, argvs):
            answer, _, problems = measure(cli, unit, argv, expected, first)
            answers[2].append(answer)
            failed += bool(problems)
            attempted += 1
    finally:
        tracer.uninstall()
    again = tracing.layer_metrics(tracer.take())
    problems = []
    if answers[1] != answers[0] or answers[2] != answers[0]:
        problems.append("traced outputs differ from the untraced ones")
    for name, (value, unit) in metrics.items():
        if unit == "count" and again[name] != (value, unit):
            problems.append("%s changed between traced passes: %s then %s"
                            % (name, metrics[name][0], again[name][0]))
    left = tracing.leftover_wrappers()
    if left:
        problems.append("wrappers left installed: %s" % ", ".join(left))
    for problem in problems:
        print("SELF-TEST FAILED: %s" % problem, file=sys.stderr)
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    failed += len(problems)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = import_tropmf()
    units = workloads.make_units(args.workload, args.seed)
    expected = workloads.load_expected()
    work = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        work.mkdir(parents=True)
        argvs = write_inputs(units, work)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            result = traced_run(cli, units, argvs, expected, args.workload)
        else:
            result = timed_run(cli, units, argvs, expected, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

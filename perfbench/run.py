"""tropmf benchmark.

    python3 perfbench/run.py --workload plan-block --seed 1 --seconds 15 --trace 0

Runs one workload in a fresh worker process and prints, as the last
line of stdout, one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
setup_s is the median over several worker start-ups.  With --trace 1
they are the per-layer ones from a traced run.  See README.md beside
this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# Worker start-ups timed per run; the last one goes on to the measured passes.
SETUP_SAMPLES = 9
# Everything, set-up included, must end within this many seconds.
DEADLINE_S = 170.0


def start_worker(args, deadline: float):
    """(seconds from spawn to the worker's READY line, its last stdout line).

    The worker is killed at the deadline, and always waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError("worker %s exited with %s before finishing" % (args, code))
    return setup, rest[-1] if rest else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tropmf" / "__init__.py").is_file():
        print("error: no tropmf sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(start_worker(common + ["--setup-only"], deadline)[0])
        setup, line = start_worker(common, deadline)
        result = json.loads(line)
    except (RuntimeError, ValueError, TypeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(setup)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, m in sorted(result["metrics"].items()):
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Records the known answers in expected.json.

    python3 perfbench/record_expected.py

Runs every unit of every workload once, checks the outputs, and stores
each unit's output SHA-256 digest and exit code under the unit's input
key.  Run it only on
a commit whose outputs are the reference: the benchmark then requires
the same bytes from every later commit.
"""

from __future__ import annotations

import json
import shutil
import sys
from hashlib import sha256

import workloads
from worker import ROOT, import_tropmf, run_unit, write_inputs


def main() -> int:
    cli = import_tropmf()
    recorded, bad = {}, 0
    work = ROOT / ".bench_work" / "record"
    try:
        for name in workloads.WORKLOADS:
            units = workloads.make_units(name, 0)
            work.mkdir(parents=True, exist_ok=True)
            for unit, argv in zip(units, write_inputs(units, work)):
                rc, text, _ = run_unit(cli, argv)
                problems = workloads.check(unit, rc, text, {})
                if problems:
                    bad += 1
                    print("FAILED %s: %s" % (unit.key, "; ".join(problems)),
                          file=sys.stderr)
                recorded[unit.key] = [sha256(text.encode()).hexdigest(), rc]
            print("%s: %d units" % (name, len(units)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bad:
        return 1
    with open(workloads.HERE / "expected.json", "w", encoding="utf-8") as fh:
        fh.write('{"units": {\n')
        fh.write(",\n".join("  %s: %s" % (json.dumps(key), json.dumps(recorded[key]))
                            for key in sorted(recorded)))
        fh.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

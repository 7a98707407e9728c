"""Span tracing of tropmf from outside the package.

Each traced function is replaced, for the length of a traced pass, by a
wrapper stored under the module attribute its caller looks up, so the
package itself is unchanged.  A span is (name, parent, start, end, note)
with parent the index of the enclosing span, or -1.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

# (module, attribute, span name).  A function imported into several
# modules is wrapped in each module that calls it.
TARGETS = (
    ("tropmf.cli", "cli_main", "cli.cli_main"),
    ("tropmf.cli", "certify", "mutate.certify"),
    ("tropmf.cli", "certificate_to_text", "mutate.certificate_to_text"),
    ("tropmf.cli", "induce_geometric", "arrange.induce_geometric"),
    ("tropmf.mfcore", "induce", "mfcore.induce"),
    ("tropmf.planner", "plan_block_to_diagonal", "planner.plan_block_to_diagonal"),
    ("tropmf.planner", "plan_to_order", "planner.plan_to_order"),
    ("tropmf.planner", "plan_to_text", "planner.plan_to_text"),
    ("tropmf.planner", "certify", "mutate.certify"),
    ("tropmf.planner", "certificate_to_text", "mutate.certificate_to_text"),
    ("tropmf.planner", "induce", "mfcore.induce"),
    ("tropmf.mutate", "member", "polytope.member"),
    ("tropmf.mutate", "swap", "mutate.swap"),
    ("tropmf.mutate", "genericity", "mfcore.genericity"),
    ("tropmf.mutate", "induce", "mfcore.induce"),
    ("tropmf.mutate", "classify", "regions.classify"),
    ("tropmf.mutate", "star", "regions.star"),
    ("tropmf.mutate", "witness_table", "mutate.witness_table"),
    ("tropmf.lp", "feasible_combination", "lp.feasible_combination"),
    ("tropmf.arrange", "cell111", "arrange.cell111"),
    ("tropmf.arrange", "covector_at", "arrange.covector_at"),
)

_MARK = "_perfbench_span"


def _lp_note(args, result):
    columns, rhs = args
    return {"cells": len(rhs) * len(columns), "feasible": bool(result[0])}


class Tracer:
    """Installs the wrappers and collects the spans of one pass at a time."""

    def __init__(self):
        self.spans = []
        self.parent = -1
        self._saved = []

    def _wrap(self, name, fn):
        note = _lp_note if name == "lp.feasible_combination" else None

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent, self.parent = self.parent, idx
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.spans[idx] = (name, parent, start, perf_counter(),
                                   {"raised": type(e).__name__})
                raise
            finally:
                self.parent = parent
            self.spans[idx] = (name, parent, start, perf_counter(),
                               note(args, result) if note else None)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def leftover_wrappers() -> list:
    """Module attributes of tropmf that are still trace wrappers."""
    found = []
    for module_name in sorted({m for m, _, _ in TARGETS} | {"tropmf"}):
        module = importlib.import_module(module_name)
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append("%s.%s" % (module_name, attr))
    return found


def write_spans(spans, path):
    """One JSON array per line: index, parent, name, start, end, note."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, parent, start, end, note) in enumerate(spans):
            fh.write(json.dumps([idx, parent, name, start, end, note]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    calls, busy, child = {}, {}, [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        if parent >= 0:
            child[parent] += end - start
    self_time = {}
    for idx, (name, _, start, end, _) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[idx]
    lp = [s[4] for s in spans
          if s[0] == "lp.feasible_combination" and s[4] and "cells" in s[4]]
    swaps = [s for s in spans if s[0] == "mutate.swap"]
    halvings = sum(1 for s in spans if s[0] == "mfcore.genericity"
                   and s[1] >= 0 and spans[s[1]][0] == "mutate.swap")
    steps = sum(1 for s in spans if s[0] == "mutate.certify"
                and s[1] >= 0 and spans[s[1]][0] == "planner.plan_to_order")

    def n(name):
        return calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "lp.calls": (n("lp.feasible_combination"), "count"),
        "lp.busy_s": (busy.get("lp.feasible_combination", 0.0), "s"),
        "lp.cells": (sum(note["cells"] for note in lp), "count"),
        "lp.infeasible": (sum(1 for note in lp if not note["feasible"]), "count"),
        "polytope.member.calls": (n("polytope.member"), "count"),
        "polytope.member.self_s": (self_time.get("polytope.member", 0.0), "s"),
        "mutate.certify.calls": (n("mutate.certify"), "count"),
        "mutate.certify.self_s": (self_time.get("mutate.certify", 0.0), "s"),
        "mutate.witness_table.busy_s": (busy.get("mutate.witness_table", 0.0), "s"),
        "mutate.certificate_to_text.busy_s":
            (busy.get("mutate.certificate_to_text", 0.0), "s"),
        "mutate.swap.busy_s": (busy.get("mutate.swap", 0.0), "s"),
        "mutate.swap.halvings": (halvings, "count"),
        "mutate.swap.accept_ratio":
            (ratio(sum(1 for s in swaps if s[4] is None), len(swaps)), "ratio"),
        "mfcore.genericity.calls": (n("mfcore.genericity"), "count"),
        "mfcore.genericity.busy_s": (busy.get("mfcore.genericity", 0.0), "s"),
        "mfcore.induce.calls": (n("mfcore.induce"), "count"),
        "mfcore.induce.busy_s": (busy.get("mfcore.induce", 0.0), "s"),
        "regions.classify.calls": (n("regions.classify"), "count"),
        "regions.star.calls": (n("regions.star"), "count"),
        "arrange.induce_geometric.busy_s":
            (busy.get("arrange.induce_geometric", 0.0), "s"),
        "arrange.cell111.calls": (n("arrange.cell111"), "count"),
        "arrange.cell111.busy_s": (busy.get("arrange.cell111", 0.0), "s"),
        "arrange.covector_at.calls": (n("arrange.covector_at"), "count"),
        "arrange.probes_per_triple":
            (ratio(n("arrange.covector_at"), n("arrange.cell111")), "ratio"),
        "planner.plan_to_order.self_s":
            (self_time.get("planner.plan_to_order", 0.0), "s"),
        "planner.plan_to_text.busy_s": (busy.get("planner.plan_to_text", 0.0), "s"),
        "planner.steps": (steps, "count"),
        "cli.cli_main.self_s": (self_time.get("cli.cli_main", 0.0), "s"),
    }

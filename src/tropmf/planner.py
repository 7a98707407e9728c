"""Chains of certified adjacent swaps.

A plan drives an arrangement from its current left-to-right order to a
target order by repeatedly swapping the leftmost adjacent pair that is
inverted relative to the target, certifying every step.  The step count
is the inversion count between the two orders, and the scheduling rule
makes plans reproducible byte for byte.  A REFUTED step does not stop a
plan (the arrangement-level swap and the field diff stay well defined)
unless strict mode is on; a step that cannot produce a swapped matrix
always stops it, with the partial plan attached.

A plan holds its steps as the certificates themselves: each carries
the swapped pair, the matrix after the swap and the x order after it.
The final field and the SUMMARY counts are derived from them.  While it
runs, the plan loop hands each step, in a mutate._Carry, the field the
step before it proved and that field's vertex set; while it writes,
plan_to_text hands every step's certificate_to_text one
mutate._TableauText, so each tableau is formatted once per plan.  Both
live only as long as the call; neither is kept in Plan.steps.  A plan
file has one writer, plan_to_text, and one reader, parse_plan, which
takes the source, initial matrix and target by their keys, runs the
plan again from them (so reading a plan costs what running it costs)
and accepts only the exact bytes plan_to_text writes for that run; the
layout is checked by that comparison alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mfcore import (MatchingField, WeightMatrix, block_diagonal_weights,
                     diagonal, induce)
from .mutate import (_KINDS, _VERDICTS, _Carry, _check_written,
                     _matrix_block, _read_matrix, _TableauText, _value,
                     certificate_to_text, certify)

_SUMMARY_KEYS = tuple(word.lower() for word in _KINDS + _VERDICTS)


@dataclass
class Plan:
    initial: WeightMatrix
    target: tuple
    steps: list          # MutationCertificate per step, in order

    @property
    def final_field(self) -> MatchingField:
        return induce(self.steps[-1].matrix_after if self.steps
                      else self.initial)

    def summary(self) -> dict:
        counts = dict.fromkeys(_SUMMARY_KEYS, 0)
        for cert in self.steps:
            if cert.kind is not None:
                counts[cert.kind.lower()] += 1
            counts[cert.verdict.lower()] += 1
        return counts


class PlanError(RuntimeError):
    """A step could not continue; carries the partial plan."""

    def __init__(self, message: str, partial: Plan):
        self.partial = partial
        super().__init__(message)


class EndpointMismatch(RuntimeError):
    """The plan finished but the final field is not the expected one."""


def _leftmost_inversion(order, target):
    position = {line: t for t, line in enumerate(target)}
    for t in range(len(order) - 1):
        if position[order[t]] > position[order[t + 1]]:
            return t
    return None


def plan_to_order(M: WeightMatrix, target, strict: bool = False) -> Plan:
    """Swap the leftmost inverted adjacent pair until the x order matches
    the target permutation.  A start M with tied apex x coordinates or
    tied placements raises TiedX or TieError before any certify call.
    The start's field is induced once; each step's certify gets, in a
    carry the plan drops when it ends, the field the step before it
    proved (the one before, with the red flips applied) and that field's
    vertex set, so a plan makes no other induce and builds each field's
    vertex set once; each matrix sorts its x order once, the start here
    and a landed one in its step's re-check."""
    target = tuple(target)
    if sorted(target) != list(range(1, M.n + 1)):
        raise ValueError("target must be a permutation of 1..%d" % M.n)
    order = M.x_order
    L = induce(M)   # a non-generic start raises TieError here, before any step
    plan = Plan(initial=M, target=target, steps=[])
    current, carry = M, _Carry()
    while True:
        t = _leftmost_inversion(order, target)
        if t is None:
            break
        i, j = order[t], order[t + 1]
        cert = certify(current, i, j, field=L, carry=carry)
        if cert.matrix_after is None:
            raise PlanError("step %d (%d, %d): %s"
                            % (len(plan.steps) + 1, i, j, cert.reason), plan)
        plan.steps.append(cert)
        current, order, L = cert.matrix_after, cert.order_after, carry.field
        if strict and cert.verdict == "REFUTED":
            raise PlanError("step %d (%d, %d) refuted"
                            % (len(plan.steps), i, j), plan)
    return plan


def plan_block_to_diagonal(n: int, ell: int, strict: bool = False) -> Plan:
    """Plan from the block-diagonal weight matrix to the diagonal order
    (n, n-1, .., 1), and check the endpoint field exactly."""
    M = block_diagonal_weights(n, ell)
    target = tuple(range(n, 0, -1))
    plan = plan_to_order(M, target, strict=strict)
    if plan.final_field != diagonal(n):
        raise EndpointMismatch("final field differs from the diagonal field")
    return plan


# ---------------------------------------------------------------------------
# plan text format

def plan_to_text(plan: Plan, source: str = "matrix") -> str:
    """The plan file: source, initial matrix and target, each step's
    certificate and the SUMMARY counts of the steps' cached verdicts.
    The steps share one _TableauText, so each tableau is formatted once
    per plan; the table lives as long as this call."""
    tabs = _TableauText()
    out = ["PLAN\nn: %d\nsource: %s\n%s\ntarget: %s\nsteps: %d\n"
           % (plan.initial.n, source, _matrix_block(plan.initial, "matrix"),
              " ".join(map(str, plan.target)), len(plan.steps))]
    for idx, cert in enumerate(plan.steps, start=1):
        out.append("STEP %d\n" % idx)
        out.append(certificate_to_text(cert, tabs))
    out.append("SUMMARY\n")
    out.extend("%s: %d\n" % item for item in plan.summary().items())
    out.append("END-PLAN\n")
    return "".join(out)


def parse_plan(text: str) -> tuple:
    """Inverse of plan_to_text: (plan, source).  It refuses a text whose
    first line is not PLAN or whose last line is not END-PLAN, then takes
    the source, the initial matrix and the target each from the first
    line that carries its key, runs plan_to_order on them (keeping the
    partial plan of a PlanError), and raises ValueError, naming the
    first differing line and its step, unless text is exactly what
    plan_to_text writes for that plan.  A strict-mode partial plan that
    stopped on a REFUTED step reads back only if the default mode writes
    the same text."""
    if not (text.startswith("PLAN\n") and text.endswith("\nEND-PLAN\n")):
        raise ValueError("a plan text must start with the line PLAN and "
                         "end with the line END-PLAN")
    lines = text.splitlines()
    source = _value(lines, "source")
    initial = _read_matrix(lines, "matrix")
    target = tuple(int(t) for t in _value(lines, "target").split())
    try:
        plan = plan_to_order(initial, target)
    except PlanError as e:
        plan = e.partial
    _check_written(text, plan_to_text(plan, source))
    return plan, source

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
The final field and the SUMMARY counts are derived from them.  A plan
file has one writer, plan_to_text, and one reader, parse_plan, which
reads each step with the certificate reader and accepts only the exact
bytes plan_to_text writes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrange import apexes, x_order
from .mfcore import (MatchingField, WeightMatrix, block_diagonal_weights,
                     diagonal, induce)
from .mutate import (_KINDS, _VERDICTS, _check_written, _matrix_lines,
                     _read_certificate, _Reader, certificate_to_text, certify,
                     matrix_digest)

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
    tied placements raises TiedX or TieError before any certify call."""
    target = tuple(target)
    if sorted(target) != list(range(1, M.n + 1)):
        raise ValueError("target must be a permutation of 1..%d" % M.n)
    order = x_order(apexes(M))
    induce(M)   # a non-generic start raises TieError here, before any step
    plan = Plan(initial=M, target=target, steps=[])
    current = M
    while True:
        t = _leftmost_inversion(order, target)
        if t is None:
            break
        i, j = order[t], order[t + 1]
        cert = certify(current, i, j)
        if cert.matrix_after is None:
            raise PlanError("step %d (%d, %d): %s"
                            % (len(plan.steps) + 1, i, j, cert.reason), plan)
        plan.steps.append(cert)
        current = cert.matrix_after
        order = cert.order_after
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
    out = ["PLAN", "n: %d" % plan.initial.n, "source: %s" % source]
    out.extend(_matrix_lines(plan.initial, "matrix"))
    out.append("target: %s" % " ".join(str(x) for x in plan.target))
    out.append("steps: %d" % len(plan.steps))
    for idx, cert in enumerate(plan.steps, start=1):
        out.append("STEP %d" % idx)
        out.append(certificate_to_text(cert).rstrip("\n"))
    out.append("SUMMARY")
    out.extend("%s: %d" % item for item in plan.summary().items())
    out.append("END-PLAN")
    return "\n".join(out) + "\n"


def parse_plan(text: str) -> tuple:
    """Inverse of plan_to_text: (plan, source).  ValueError unless text is
    exactly what plan_to_text writes for them; the n line and the SUMMARY
    block are derived, so the re-write checks them.  The steps must chain:
    each step's digest is that of the matrix before it (the previous
    step's matrix-after, or the initial matrix), and each order-before
    is the previous step's order-after."""
    rd = _Reader(text)
    rd.expect("PLAN")
    rd.value("n")
    source = rd.value("source")
    rd.value("matrix")
    plan = Plan(initial=rd.matrix(),
                target=tuple(int(t) for t in rd.value("target").split()),
                steps=[])
    for k in range(1, int(rd.value("steps")) + 1):
        rd.expect("STEP %d" % k)
        cert = _read_certificate(rd)
        if cert.matrix_after is None:   # plan_to_order stops before such a step
            raise ValueError("plan step %d has no matrix-after" % k)
        before = plan.steps[-1] if plan.steps else None
        if cert.digest != matrix_digest(before.matrix_after if before
                                         else plan.initial):
            raise ValueError("plan step %d: digest is not that of the "
                             "matrix before it" % k)
        if before and cert.order_before != before.order_after:
            raise ValueError("plan step %d: order-before is not step %d's "
                             "order-after" % (k, k - 1))
        plan.steps.append(cert)
    _check_written(text, plan_to_text(plan, source))
    return plan, source

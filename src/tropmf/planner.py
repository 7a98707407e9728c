"""Chains of certified adjacent swaps.

A plan drives an arrangement from its current left-to-right order to a
target order by repeatedly swapping the leftmost adjacent pair that is
inverted relative to the target, certifying every step.  The step count
is the inversion count between the two orders, and the scheduling rule
makes plans reproducible byte for byte.  A REFUTED step does not stop a
plan (the arrangement-level swap and the field diff stay well defined)
unless strict mode is on; a step that cannot produce a swapped matrix
always stops it, with the partial plan attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrange import apexes, x_order
from .mfcore import (MatchingField, WeightMatrix, _rational,
                     block_diagonal_weights, diagonal, induce,
                     weight_matrix_to_text)
from .mutate import (MutationCertificate, _Reader, certificate_to_text,
                     certify, parse_certificate)

_SUMMARY_KEYS = ("noop", "shear", "mutation", "verified", "refuted",
                 "inapplicable")


@dataclass(frozen=True)
class PlanStep:
    i: int
    j: int
    certificate: MutationCertificate
    matrix_after: WeightMatrix


@dataclass
class Plan:
    initial: WeightMatrix
    target: tuple
    steps: list
    final_field: MatchingField

    def summary(self) -> dict:
        counts = dict.fromkeys(_SUMMARY_KEYS, 0)
        for s in self.steps:
            kind = (s.certificate.kind or "").lower()
            if kind in counts:
                counts[kind] += 1
            counts[s.certificate.verdict.lower()] += 1
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
    steps = []
    current = M

    def partial():
        return Plan(initial=M, target=target, steps=steps,
                    final_field=induce(current))

    while True:
        t = _leftmost_inversion(order, target)
        if t is None:
            break
        i, j = order[t], order[t + 1]
        cert = certify(current, i, j)
        if cert.matrix_after is None:
            raise PlanError("step %d (%d, %d): %s"
                            % (len(steps) + 1, i, j, cert.reason), partial())
        steps.append(PlanStep(i=i, j=j, certificate=cert,
                              matrix_after=cert.matrix_after))
        current = cert.matrix_after
        order = cert.order_after
        if strict and cert.verdict == "REFUTED":
            raise PlanError("step %d (%d, %d) refuted" % (len(steps), i, j),
                            partial())
    return partial()


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

def _write_plan(n: int, source: str, matrix: WeightMatrix, target,
                certificates, summary: dict) -> str:
    out = ["PLAN", "n: %d" % n, "source: %s" % source, "matrix:"]
    out.extend("  " + ln for ln in weight_matrix_to_text(matrix).splitlines())
    out.append("target: %s" % " ".join(str(x) for x in target))
    out.append("steps: %d" % len(certificates))
    for idx, cert in enumerate(certificates, start=1):
        out.append("STEP %d" % idx)
        out.append(certificate_to_text(cert).rstrip("\n"))
    out.append("SUMMARY")
    for key in _SUMMARY_KEYS:
        out.append("%s: %d" % (key, summary[key]))
    out.append("END-PLAN")
    return "\n".join(out) + "\n"


def plan_to_text(plan: Plan, source: str = "matrix") -> str:
    return _write_plan(plan.initial.n, source, plan.initial, plan.target,
                       [s.certificate for s in plan.steps], plan.summary())


@dataclass
class ParsedPlan:
    n: int
    source: str
    matrix: WeightMatrix
    target: tuple
    certificates: list
    summary: dict


def parse_plan(text: str) -> ParsedPlan:
    """Inverse of plan_to_text (on its exact output format)."""
    rd = _Reader(text.splitlines())
    rd.expect("PLAN")
    n = int(rd.value("n"))
    source = rd.value("source")
    rd.value("matrix")
    rows = [rd.take().strip() for _ in range(4)]
    matrix = WeightMatrix.from_rows([[_rational(t) for t in row.split()]
                                     for row in rows[1:]])
    target = tuple(int(t) for t in rd.value("target").split())
    count = int(rd.value("steps"))
    certificates = []
    for k in range(1, count + 1):
        rd.expect("STEP %d" % k)
        start = rd.pos
        while rd.take() != "END":
            pass
        certificates.append(parse_certificate(
            "\n".join(rd.lines[start:rd.pos]) + "\n"))
    rd.expect("SUMMARY")
    summary = {key: int(rd.value(key)) for key in _SUMMARY_KEYS}
    rd.expect("END-PLAN")
    return ParsedPlan(n=n, source=source, matrix=matrix, target=target,
                      certificates=certificates, summary=summary)


def parsed_plan_to_text(p: ParsedPlan) -> str:
    return _write_plan(p.n, p.source, p.matrix, p.target, p.certificates,
                       p.summary)

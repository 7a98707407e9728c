"""Command-line frontend and SVG rendering.

Subcommands: induce, weights, polytope, check-covectors, star, mutate,
plan, render.  Exit codes: 0 success (or VERIFIED), 1 a refuted
verification or endpoint/cross-check mismatch, 2 bad input, genericity,
adjacency, or unswappable-pair errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import mfcore, planner, polytope
from .arrange import Arrangement, apexes, induce_geometric
from .mfcore import TieError, WeightMatrix
from .mutate import (NotSwappable, PatternMismatch, _landing_gap, build_wf,
                     certificate_to_text, certify, swap)
from .regions import (Boundary, NotAdjacent, Region, _check_pair, _left_first,
                      classify, region_halfplanes)

# Every typed input error of the package (TieError, BadSize, NotAdjacent,
# TiedX, NotSwappable, ...) is a ValueError.
_INPUT_ERRORS = (ValueError, OSError)


@dataclass(frozen=True)
class RenderOptions:
    pair: tuple | None = None
    draw_regions: bool = False
    xscale: Fraction = Fraction(1)
    yscale: Fraction = Fraction(1)


def _dec(x) -> str:
    """Exact 4-place fixed-point decimal string of a rational (display only)."""
    scaled = round(x * 10 ** 4)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10 ** 4)
    return "%s%d.%04d" % (sign, whole, frac)


def _clip(polygon, halfplane):
    """Sutherland-Hodgman step, exact: keep p*x + q*y <= c.  The points
    of a convex polygon of positive area stay distinct: kept vertices
    and points strictly inside its edges."""
    p, q, c = halfplane
    out = []
    values = [p * x + q * y - c for x, y in polygon]
    for a, b, fa, fb in zip(polygon, polygon[1:] + polygon[:1],
                            values, values[1:] + values[:1]):
        if fa <= 0:
            out.append(a)
        if (fa < 0 < fb) or (fb < 0 < fa):
            t = fa / (fa - fb)
            out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
    return out


def _area2(polygon) -> Fraction:
    total = Fraction(0)
    m = len(polygon)
    for idx in range(m):
        ax, ay = polygon[idx]
        bx, by = polygon[(idx + 1) % m]
        total += ax * by - bx * ay
    return total


def render(A: Arrangement, opts: RenderOptions) -> str:
    """Deterministic SVG 1.1 picture of the arrangement.

    One group per line with three ray segments clipped to the frame and
    an index label under the downward ray; for a highlighted adjacent
    pair, a dashed copy of line i at its landing spot just right of j and
    optionally the six region fills.  Raises ValueError on a pair that
    is not two distinct lines of A or on a scale that is not positive.
    """
    if opts.xscale <= 0 or opts.yscale <= 0:
        raise ValueError("scales must be > 0, got %s and %s"
                         % (opts.xscale, opts.yscale))
    pts = [line.apex for line in A.lines]
    target_apex = None
    if opts.pair is not None:
        _check_pair(A.n, *opts.pair, ValueError)
        i, j = _left_first(A, *opts.pair)
        try:
            _, eps = swap(A.source, i, j)
        except (NotSwappable, PatternMismatch, TieError, NotAdjacent,
                Boundary):
            eps = Fraction(_landing_gap(A, j), 2 * A.D)
        target_apex = (A.apex(j)[0] + eps, A.apex(i)[1])
        pts.append(target_apex)
    else:
        i = j = None
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    padx = (max(xs) - min(xs)) / 4 + 1
    pady = (max(ys) - min(ys)) / 4 + 1
    x0, x1 = min(xs) - padx, max(xs) + padx
    y0, y1 = min(ys) - pady, max(ys) + pady
    sx = Fraction(40) * opts.xscale
    sy = Fraction(40) * opts.yscale

    def px(x):
        return _dec((x - x0) * sx)

    def py(y):
        return _dec((y1 - y) * sy)

    width = _dec((x1 - x0) * sx)
    label_strip = 18
    height_frac = (y1 - y0) * sy
    height = _dec(height_frac + label_strip)
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           'width="%s" height="%s" viewBox="0 0 %s %s">' % (width, height, width, height),
           '<rect x="0" y="0" width="%s" height="%s" fill="white"/>' % (width, height)]
    if opts.pair is not None and opts.draw_regions:
        frame = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        halfplanes = region_halfplanes(A, i, j)
        out.append('<g id="regions">')
        for region in Region:
            poly = frame
            for hp in halfplanes[region]:
                poly = _clip(poly, hp)
                if len(poly) < 3:
                    break
            if len(poly) >= 3 and _area2(poly) != 0:
                coords = " ".join("%s,%s" % (px(x), py(y)) for x, y in poly)
                out.append('<polygon class="region region-%s" points="%s" '
                           'fill="%s" fill-opacity="0.5" stroke="none"/>'
                           % (region.value, coords, region.value))
        out.append('</g>')

    def ray_lines(a, b, style):
        segs = [(a, b, x0, b), (a, b, a, y0)]
        t = min(x1 - a, y1 - b)
        segs.append((a, b, a + t, b + t))
        return ["<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\"%s/>"
                % (px(p1), py(q1), px(p2), py(q2), style)
                for p1, q1, p2, q2 in segs]

    for line in A.lines:
        a, b = line.apex
        emphasis = (opts.pair is not None and line.index in (i, j))
        stroke = ' stroke="black" stroke-width="%s"' % ("2" if emphasis else "1")
        out.append('<g class="tropline" id="line-%d">' % line.index)
        out.extend(ray_lines(a, b, stroke))
        out.append('<circle cx="%s" cy="%s" r="2.5" fill="black"/>' % (px(a), py(b)))
        out.append('<text x="%s" y="%s" font-size="12" text-anchor="middle">%d</text>'
                   % (px(a), _dec(height_frac + 14), line.index))
        out.append('</g>')
    if target_apex is not None:
        a, b = target_apex
        dashed = ' stroke="black" stroke-width="1" stroke-dasharray="6 4"'
        out.append('<g class="target" id="target">')
        out.extend(ray_lines(a, b, dashed))
        out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _load_matrix(path: str) -> WeightMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        M = mfcore.weight_matrix_from_text(fh.read())
    if M.n < 3:
        raise mfcore.BadSize("need n >= 3 columns, got %d" % M.n)
    return M


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_induce(args) -> int:
    L = mfcore.induce(_load_matrix(args.matrix))
    _emit(mfcore.matching_field_to_text(L), args.output)
    return 0


def _cmd_weights(args) -> int:
    M = _load_matrix(args.matrix)
    weights = mfcore.plucker_weights(M)
    lines = ["%d %d %d : %s" % (T + (w,)) for T, w in sorted(weights.items())]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_polytope(args) -> int:
    M = _load_matrix(args.matrix)
    L = mfcore.induce(M)
    lines = ["%d %d %d" % tab for _, tab in L.items()]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_check_covectors(args) -> int:
    M = _load_matrix(args.matrix)
    A = apexes(M)
    algebraic = mfcore.induce(M)
    geometric = induce_geometric(A)
    total = agree = 0
    lines = []
    for T, tab in algebraic.items():
        geo = geometric[T]
        ok = geo == tab
        total += 1
        agree += ok
        lines.append("%d %d %d : algebraic %d %d %d | geometric %d %d %d | %s"
                     % (T + tab + geo + ("ok" if ok else "MISMATCH",)))
    lines.append("%d/%d triples agree" % (agree, total))
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if agree == total else 1


def _cmd_star(args) -> int:
    M = _load_matrix(args.matrix)
    A = apexes(M)
    _check_pair(M.n, args.i, args.j, ValueError)
    i, j = _left_first(A, args.i, args.j)
    R = classify(A, i, j)
    S = build_wf(A, i, j, R)
    lines = ["pair: %d %d" % (i, j), "case: %s" % R.case.value]
    for region in Region:
        members = sorted(k for k, r in R.colors.items() if r is region)
        lines.append("%s: %s" % (region.value,
                                 " ".join(str(k) for k in members) if members else "-"))
    flags = "a=%s b=%s c=%s d=%s overall=%s" % tuple(
        "true" if v else "false" for v in (S.a, S.b, S.c, S.d, S.overall))
    lines.append(flags)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_mutate(args) -> int:
    M = _load_matrix(args.matrix)
    cert = certify(M, args.i, args.j)
    _emit(certificate_to_text(cert), args.output)
    return {"VERIFIED": 0, "REFUTED": 1}.get(cert.verdict, 2)


def _cmd_plan(args) -> int:
    if not (args.block or args.matrix):
        print("plan needs -m FILE or --block N L", file=sys.stderr)
        return 2
    if args.block and args.matrix:
        print("plan takes -m FILE or --block N L, not both", file=sys.stderr)
        return 2
    try:
        if args.block:
            n, ell = args.block
            source = "block-diagonal %d %d" % (n, ell)
            plan = planner.plan_block_to_diagonal(n, ell, strict=args.strict)
        else:
            M = _load_matrix(args.matrix)
            source = "file %s" % args.matrix
            plan = planner.plan_to_order(M, tuple(range(M.n, 0, -1)),
                                         strict=args.strict)
    except (planner.EndpointMismatch, planner.PlanError) as e:
        print(str(e), file=sys.stderr)
        return 1 if isinstance(e, planner.EndpointMismatch) else 2
    _emit(planner.plan_to_text(plan, source), args.output)
    return 1 if plan.summary()["refuted"] else 0


def _parse_pair(text: str):
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError("expected a pair like 3,4")
    return int(parts[0]), int(parts[1])


def _cmd_render(args) -> int:
    M = _load_matrix(args.matrix)
    A = apexes(M)
    opts = RenderOptions(pair=_parse_pair(args.pair) if args.pair else None,
                         draw_regions=args.regions,
                         xscale=mfcore._rational(args.xscale),
                         yscale=mfcore._rational(args.yscale))
    _emit(render(A, opts), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tropmf", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, output_default=None):
        p.add_argument("-m", "--matrix", required=True,
                       help="weight matrix file ('3 n' header plus 3 rows)")
        p.add_argument("-o", "--output", default=output_default,
                       help="output file (default: stdout)")

    p = sub.add_parser("induce", help="print the induced matching field")
    common(p)
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("weights", help="print the minimum placement weights")
    common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("polytope", help="print the polytope vertex tableaux")
    common(p)
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("check-covectors",
                       help="compare the geometric and algebraic fields")
    common(p)
    p.set_defaults(func=_cmd_check_covectors)

    p = sub.add_parser("star", help="region classification and star report")
    common(p)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("mutate", help="certify one adjacent swap")
    common(p)
    p.add_argument("-i", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("plan", help="chain certified swaps to the diagonal order")
    p.add_argument("-m", "--matrix")
    p.add_argument("-o", "--output")
    p.add_argument("--block", nargs=2, type=int, metavar=("N", "L"))
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("render", help="draw the arrangement as SVG")
    common(p)
    p.add_argument("--pair", help="highlighted adjacent pair, e.g. 3,4")
    p.add_argument("--regions", action="store_true",
                   help="fill the six regions of the pair")
    p.add_argument("--xscale", default="1")
    p.add_argument("--yscale", default="1")
    p.set_defaults(func=_cmd_render)
    return top


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

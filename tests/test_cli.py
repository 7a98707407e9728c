"""Command line behaviour: outputs, exit codes, file round-trips, SVG."""

import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (blue_obstruction_matrix, diag6_matrix,
                      five_line_matrix, three_line_matrix, tied_start_matrix,
                      write_matrix)
from tropmf import (WeightMatrix, induce, matching_field_from_text,
                    parse_certificate)
from tropmf.cli import RenderOptions, _area2, _clip, cli_main, render

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights_output(tmp_path, capsys):
    path = write_matrix(tmp_path, "diag6.wm", diag6_matrix())
    code, out, _ = run_cli(capsys, "weights", "-m", path)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "1 2 3 : 12"
    assert lines[1] == "1 2 4 : 10"
    assert lines[-1] == "4 5 6 : 3"
    assert len(lines) == 20


def test_induce_roundtrip(tmp_path, capsys):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    out_path = tmp_path / "five.mf"
    code, _, _ = run_cli(capsys, "induce", "-m", path, "-o", str(out_path))
    assert code == 0
    parsed = matching_field_from_text(out_path.read_text())
    assert parsed == induce(five_line_matrix())


def test_induce_nongeneric_exit_2(tmp_path, capsys):
    M = WeightMatrix.from_rows([[0] * 3] * 3)
    path = write_matrix(tmp_path, "zeros.wm", M)
    code, out, err = run_cli(capsys, "induce", "-m", path)
    assert code == 2
    assert err == "TieError: tie at triple 1 2 3\n"
    assert out == ""


def test_polytope_lists_tableaux(tmp_path, capsys):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    code, out, _ = run_cli(capsys, "polytope", "-m", path)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert "4 3 1" in lines
    assert "5 2 4" in lines


def test_check_covectors(tmp_path, capsys):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    code, out, _ = run_cli(capsys, "check-covectors", "-m", path)
    assert code == 0
    assert out.splitlines()[-1] == "10/10 triples agree"


def test_check_covectors_tied_matrix_exit_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "zero.wm",
                        WeightMatrix.from_rows([[0] * 3] * 3))
    code, out, err = run_cli(capsys, "check-covectors", "-m", path)
    assert code == 2
    assert out == ""
    assert err == "TieError: tie at triple 1 2 3\n"


def test_check_covectors_fractional_entries(tmp_path, capsys):
    path = tmp_path / "frac.wm"
    path.write_text("3 4\n0 0 0 0\n1/2 -3/4 2/3 5\n7/6 0 -1/5 3\n",
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, "check-covectors", "-m", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "4/4 triples agree"
    assert all(line.endswith("| ok") for line in lines[:-1])


def test_star_output(tmp_path, capsys):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    code, out, _ = run_cli(capsys, "star", "-m", path, "-i", "3", "-j", "4")
    assert code == 0
    lines = out.splitlines()
    assert "red: 1" in lines
    assert "purple: 2" in lines
    assert "yellow: 5" in lines
    assert lines[-1] == "a=true b=true c=true d=true overall=true"


def test_mutate_writes_certificate_and_signals_refuted(tmp_path, capsys):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    cert_path = tmp_path / "cert.txt"
    code, _, _ = run_cli(capsys, "mutate", "-m", path, "-i", "3", "-j", "4",
                         "-o", str(cert_path))
    assert code == 1
    cert = parse_certificate(cert_path.read_text())
    assert cert.verdict == "REFUTED"
    assert cert.epsilon == 1


def test_mutate_verified_exit_0(tmp_path, capsys):
    path = write_matrix(tmp_path, "diag6.wm", diag6_matrix())
    code, out, _ = run_cli(capsys, "mutate", "-m", path, "-i", "6", "-j", "5")
    assert code == 0
    assert "verdict: VERIFIED" in out


def test_mutate_inapplicable_exit_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    code, out, _ = run_cli(capsys, "mutate", "-m", path, "-i", "2", "-j", "4")
    assert code == 2
    assert "verdict: INAPPLICABLE" in out


def test_plan_block_command(tmp_path, capsys):
    out_path = tmp_path / "plan.txt"
    code, _, _ = run_cli(capsys, "plan", "--block", "6", "2",
                         "-o", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "steps: 8" in text
    assert "mutation: 4" in text
    code2, out2, _ = run_cli(capsys, "plan", "--block", "6", "2")
    assert code2 == 0
    assert out2 == text


def test_plan_from_matrix_file(tmp_path, capsys):
    from tropmf import block_diagonal_weights
    path = write_matrix(tmp_path, "b62.wm", block_diagonal_weights(6, 2))
    code, out, _ = run_cli(capsys, "plan", "-m", path)
    assert code == 0
    assert "steps: 8" in out


def test_plan_has_no_target_option(capsys):
    with pytest.raises(SystemExit) as err:
        cli_main(["plan", "--block", "5", "2", "--target", "diagonal"])
    assert err.value.code == 2
    assert "--target" in capsys.readouterr().err


def test_render_has_no_dashed_target_option(tmp_path, capsys):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    with pytest.raises(SystemExit) as err:
        cli_main(["render", "-m", path, "--pair", "3,4", "--no-dashed-target"])
    assert err.value.code == 2
    assert "--no-dashed-target" in capsys.readouterr().err


def test_plan_non_generic_start_exit_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "tie.wm", tied_start_matrix())
    code, out, err = run_cli(capsys, "plan", "-m", path)
    assert code == 2
    assert out == ""
    assert err == "TieError: tie at triple 1 2 4\n"


def test_plan_without_a_source_exit_2(capsys):
    code, out, err = run_cli(capsys, "plan")
    assert code == 2
    assert out == ""
    assert err == "plan needs -m FILE or --block N L\n"


def test_plan_with_both_sources_exit_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "diag6.wm", diag6_matrix())
    code, out, err = run_cli(capsys, "plan", "--block", "4", "1", "-m", path)
    assert code == 2
    assert out == ""
    assert err == "plan takes -m FILE or --block N L, not both\n"


@pytest.mark.parametrize("n, ell", [("2", "1"), ("5", "6")])
def test_plan_block_out_of_range_exit_2(capsys, n, ell):
    assert run_cli(capsys, "plan", "--block", n, ell) == (
        2, "", "BadSize: need n >= 3 and 0 <= ell <= n\n")


def test_plan_stopped_step_exit_2(tmp_path, capsys):
    path = write_matrix(tmp_path, "blue.wm", blue_obstruction_matrix())
    code, out, err = run_cli(capsys, "plan", "-m", path)
    assert code == 2
    assert out == ""
    assert err == ("step 1 (1, 2): no landing offset in (0, 2) realizes the "
                   "swap of lines 1 and 2\n")


def test_exponent_token_exit_2(tmp_path, capsys):
    path = tmp_path / "exp.wm"
    path.write_text("3 3\n0 0 0\n0 1e3 2\n0 2 4\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "mutate", "-m", str(path), "-i", "1",
                             "-j", "2")
    assert code == 2
    assert out == ""
    assert "1e3" in err


def test_zero_denominator_exit_2(tmp_path, capsys):
    path = tmp_path / "zero.wm"
    path.write_text("3 3\n0 0 0\n0 1/0 2\n0 2 4\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "induce", "-m", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("ValueError: ") and "1/0" in err


@pytest.mark.parametrize("command", [
    ["induce"], ["weights"], ["polytope"], ["check-covectors"],
    ["star", "-i", "1", "-j", "2"], ["mutate", "-i", "1", "-j", "2"],
    ["plan"], ["render"]], ids=lambda command: command[0])
def test_two_column_matrix_exit_2(tmp_path, capsys, command):
    # Gr(3, n) needs n >= 3; the parser itself accepts width 2.
    M = WeightMatrix.from_rows([[0, 0], [1, 2], [3, 4]])
    path = write_matrix(tmp_path, "two.wm", M)
    code, out, err = run_cli(capsys, *command, "-m", path)
    assert (code, out, err) == (2, "", "BadSize: need n >= 3 columns, got 2\n")


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "weights", "-m", "/nonexistent/x.wm")
    assert code == 2
    assert err


# --- render ------------------------------------------------------------------

def count_elements(svg_text):
    root = ET.fromstring(svg_text)
    groups = [g for g in root.iter(SVG_NS + "g")
              if g.get("class") == "tropline"]
    rays = [ln for g in groups for ln in g.findall(SVG_NS + "line")]
    regions = [p for p in root.iter(SVG_NS + "polygon")
               if "region" in (p.get("class") or "")]
    targets = [g for g in root.iter(SVG_NS + "g") if g.get("class") == "target"]
    return groups, rays, regions, targets


def test_render_structure_diag6():
    svg = render(diag6_matrix(), RenderOptions())
    groups, rays, regions, targets = count_elements(svg)
    assert len(groups) == 6
    assert len(rays) == 18
    assert regions == [] and targets == []


def test_render_pair_regions_five():
    svg = render(five_line_matrix(),
                 RenderOptions(pair=(3, 4), draw_regions=True))
    groups, rays, regions, targets = count_elements(svg)
    assert len(groups) == 5 and len(rays) == 15
    assert len(regions) == 6
    assert len(targets) == 1
    assert len(targets[0].findall(SVG_NS + "line")) == 3


def test_render_deterministic():
    opts = RenderOptions(pair=(3, 4), draw_regions=True)
    a = render(five_line_matrix(), opts)
    b = render(five_line_matrix(), opts)
    assert a == b


def test_render_minimal_three_line_parses():
    svg = render(three_line_matrix(), RenderOptions())
    root = ET.fromstring(svg)
    assert root.tag == SVG_NS + "svg"
    assert root.get("version") == "1.1"


def test_render_yscale(tmp_path, capsys):
    path = write_matrix(tmp_path, "diag6.wm", diag6_matrix())
    out_path = tmp_path / "pic.svg"
    code, _, _ = run_cli(capsys, "render", "-m", path, "-o", str(out_path),
                         "--yscale", "1/4")
    assert code == 0
    root = ET.fromstring(out_path.read_text())
    assert root.tag == SVG_NS + "svg"


def test_render_cli_bytes_identical(tmp_path, capsys):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (p1, p2):
        code, _, _ = run_cli(capsys, "render", "-m", path, "-o", str(out),
                             "--pair", "3,4", "--regions")
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("extra", [["--pair", "3,9"], ["--pair", "3,3"],
                                   ["--pair", "0,1"], ["--xscale", "0"],
                                   ["--xscale", "-1"], ["--yscale", "0"],
                                   ["--xscale", "1/0"]])
def test_render_rejects_bad_arguments(tmp_path, capsys, extra):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    out_path = tmp_path / "pic.svg"
    code, _, err = run_cli(capsys, "render", "-m", path, "-o", str(out_path),
                           *extra)
    assert code == 2
    assert err.startswith("ValueError: ")
    assert not out_path.exists()


def test_render_rejects_a_single_line_pair(tmp_path, capsys):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    assert run_cli(capsys, "render", "-m", path, "--pair", "3") == (
        2, "", "ValueError: expected a pair like 3,4\n")


@pytest.mark.parametrize("i, j", [(3, 3), (0, 1), (1, 6)])
def test_pair_commands_reject_a_bad_pair(tmp_path, capsys, i, j):
    path = write_matrix(tmp_path, "five.wm", five_line_matrix())
    for argv in (["star", "-i", str(i), "-j", str(j)],
                 ["mutate", "-i", str(i), "-j", str(j)],
                 ["render", "--pair", "%d,%d" % (i, j)]):
        assert run_cli(capsys, *argv, "-m", path) == (
            2, "", "ValueError: bad pair (%d, %d) for 5 columns\n" % (i, j))


RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def convex_hull(points):
    """Andrew's monotone chain: the hull's corners, counter-clockwise,
    with no three in a row collinear."""
    def turns_left(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) > (b[1] - a[1]) * (c[0] - a[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and not turns_left(out[-2], out[-1], p):
                out.pop()
            out.append(p)
        return out[:-1]
    pts = sorted(set(points))
    return half(pts) + half(pts[::-1])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=3, max_size=8),
       st.booleans(), st.data())
def test_clip_of_a_positive_area_polygon_has_distinct_points(points, flip,
                                                             data):
    # render relies on this and does not de-duplicate: a convex polygon of
    # positive area gives its kept corners and points inside its edges.
    poly = convex_hull(points)[::-1 if flip else 1]
    assume(len(poly) >= 3)
    for _ in range(3):
        p, q = data.draw(st.tuples(RATIONALS, RATIONALS).filter(any))
        c = data.draw(st.one_of(RATIONALS, st.sampled_from(
            [p * x + q * y for x, y in poly])))
        poly = _clip(poly, (p, q, c))
        assert len(set(poly)) == len(poly)
        if len(poly) < 3 or _area2(poly) == 0:
            break

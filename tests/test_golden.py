"""Byte-exact CLI outputs, compared against the files in tests/golden/.

Each case runs `cli_main` on a fixture and checks the exit code and
every byte written to the output file.  To re-record the files after an
intended output change, run `PYTHONPATH=src:tests python
tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from conftest import (blue_obstruction_matrix, closer_threshold_matrix,
                      five_line_matrix, shear_matrix, write_matrix)
from tropmf import lp
from tropmf.cli import cli_main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (matrix fixture or None, arguments before -m/-o, exit code)
CASES = {
    "mutate_five_3_4.txt": (five_line_matrix, ["mutate", "-i", "3", "-j", "4"], 1),
    "mutate_shear_3_4.txt": (shear_matrix, ["mutate", "-i", "3", "-j", "4"], 0),
    # REFUTED with epsilon 1/2: the landing offset must stay below a
    # flip threshold inside the landing gap.
    "mutate_closer_3_4.txt": (closer_threshold_matrix,
                              ["mutate", "-i", "3", "-j", "4"], 1),
    # INAPPLICABLE: no landing offset realizes the swap.
    "mutate_blue_1_2.txt": (blue_obstruction_matrix,
                            ["mutate", "-i", "1", "-j", "2"], 2),
    "plan_block_6_2.txt": (None, ["plan", "--block", "6", "2"], 0),
    "plan_block_7_2.txt": (None, ["plan", "--block", "7", "2"], 0),
    "render_five_3_4_regions.svg": (five_line_matrix,
                                    ["render", "--pair", "3,4", "--regions"], 0),
    # Lines 2 and 3 are not adjacent, so the dashed target comes from the
    # landing-gap fallback rather than from a realized swap.
    "render_five_2_3.svg": (five_line_matrix, ["render", "--pair", "2,3"], 0),
}


def run_case(name: str, workdir: Path):
    matrix, argv, _ = CASES[name]
    argv = list(argv)
    if matrix is not None:
        argv += ["-m", write_matrix(workdir, "input.wm", matrix())]
    out = workdir / name
    argv += ["-o", str(out)]
    code = cli_main(argv)
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, data = run_case(name, tmp_path)
    assert code == CASES[name][2]
    assert data == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith(".txt")))
def test_certificates_need_no_lp(name, tmp_path, monkeypatch):
    # Each midpoint "no" is proved by the cube rule's own separator, so
    # certificates and plans keep their bytes with the LP switched off.
    def refuse(columns, rhs):
        raise AssertionError("certify reached the LP")

    monkeypatch.setattr(lp, "feasible_combination", refuse)
    code, data = run_case(name, tmp_path)
    assert code == CASES[name][2]
    assert data == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("names", [
    ("mutate_five_3_4.txt", "render_five_3_4_regions.svg", "render_five_2_3.svg"),
    ("render_five_2_3.svg", "render_five_3_4_regions.svg", "mutate_five_3_4.txt"),
], ids=["mutate-first", "render-first"])
def test_runs_in_one_process_keep_their_outputs(names, tmp_path):
    # cli_main builds its parser once; no run may see another's options.
    for name in names:
        assert run_case(name, tmp_path) == (CASES[name][2],
                                            (GOLDEN / name).read_bytes())


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            code, data = run_case(case, Path(tmp))
        if code != CASES[case][2]:
            sys.exit("%s: exit code %d, expected %d" % (case, code, CASES[case][2]))
        (GOLDEN / case).write_bytes(data)
        print("wrote", GOLDEN / case)

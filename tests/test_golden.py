"""The golden sweep set, regenerated, against the committed one."""

import csv
import shutil
import subprocess
import sys

import pytest

import golden_diff

VALIDATE = "table1_validate.csv"
ROW = "prob_rate_exceeds sigma=10 theta_db=0"


def test_golden_set_matches(tmp_path):
    # Analytic cells agree within golden_diff.ANALYTIC_RTOL; text and
    # Monte Carlo cells are byte-identical, and validate's signed_diff and
    # z_score read as recomputed from their row. A change that moves a cell
    # beyond that records the set again (`golden_diff.py --record`).
    golden_diff.write_set(tmp_path)
    _, violations = golden_diff.diff(golden_diff.GOLDEN, tmp_path)
    assert not violations, "\n".join(violations)


def _edited_validate(tmp_path, edit):
    """(old, new): directories holding the golden validate CSV, and a copy
    of it with ``edit`` applied to ``ROW`` (column -> cell)."""
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    shutil.copy(golden_diff.GOLDEN / VALIDATE, old / VALIDATE)
    with (old / VALIDATE).open(newline="") as fh:
        lines = list(csv.reader(fh))
    header = lines[1]
    for line in lines[2:]:
        if line[0] == ROW:
            cells = dict(zip(header, line))
            edit(cells)
            line[:] = [cells[column] for column in header]
    with (new / VALIDATE).open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(lines)
    return old, new


def test_analytic_shift_carries_its_derived_cells(tmp_path):
    # signed_diff and z_score are analytic - MC: a 1e-14 analytic shift
    # moves both, and consistent cells stay inside the gate.
    def shift(cells):
        analytic = float(cells["analytic"]) * (1 + 1e-14)
        signed = analytic - float(cells["mc_mean"])
        cells.update(analytic=repr(analytic), signed_diff=repr(signed),
                     z_score=repr(signed / (float(cells["mc_hw95"]) / 1.96)))

    moved, violations = golden_diff.diff(*_edited_validate(tmp_path, shift))
    assert {column for _, _, column, *_ in moved} == {"analytic", "signed_diff", "z_score"}
    assert not violations


def test_derived_cell_changed_alone_fails(tmp_path):
    def nudge(cells):
        cells["signed_diff"] = repr(float(cells["signed_diff"]) * (1 + 1e-14))

    moved, violations = golden_diff.diff(*_edited_validate(tmp_path, nudge))
    assert [column for _, _, column, *_ in moved] == ["signed_diff"]
    assert len(violations) == 1 and "signed_diff" in violations[0]


@pytest.mark.skipif(not (shutil.which("git") and (golden_diff.REPO / ".git").exists()),
                    reason="needs git and a git checkout of this repository")
def test_revision_against_itself_moves_nothing(tmp_path):
    # A revision's src/ is archived and its set written as a source tree's.
    proc = subprocess.run([sys.executable, golden_diff.__file__, "HEAD", "HEAD"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("0 cells moved; 0 outside the gate\n")

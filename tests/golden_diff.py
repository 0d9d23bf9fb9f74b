"""The golden sweep set and a cell-by-cell diff of two copies of it.

The set (``tests/golden/``) is the CSVs of the Table-1 sweeps over beta
{0, 0.5, 1, 1.5, 2}, n_bar {0.5, 1, 2, 5, 10, 20, 40} and theta
{0.1, 0.5, 1, 2, 10} through the offload, energy and delay tasks at
seed 1, and of ``clustercache validate --mc-trials 50000 --seed 1``.

    python tests/golden_diff.py OLD NEW   # print every moved cell
    python tests/golden_diff.py HEAD .    # the parent check of a change
    PYTHONPATH=src python tests/golden_diff.py --record   # rewrite tests/golden/
    PYTHONPATH=src python tests/golden_diff.py --write DIR

OLD and NEW are directories of the set's CSVs, source trees (a
directory holding ``src/clustercache``) or git revisions of this
repository. The set of a source tree is first written to a temporary
directory by that tree's package; a revision's ``src/`` is first
archived to a temporary directory and written as a tree's. The diff
prints each moved cell with its absolute and relative shift, then the
largest relative shift per column, then every cell outside the gate:

* text cells, and the Monte Carlo cells of ``validate`` (``MC_COLUMNS``
  and the ``analytic`` cell of the exact-vs-approx row), must be
  byte-identical;
* ``validate``'s ``signed_diff`` and ``z_score`` (``DERIVED_COLUMNS``)
  must read as ``validate`` computes them from the new row's
  ``analytic``, ``mc_mean`` and ``mc_hw95`` cells: the cells are ``repr``
  floats, so the recomputation is exact;
* every other number is analytic and must agree within ``ANALYTIC_RTOL``
  relative.

The exit code is 1 when a cell is outside the gate. A change that moves
a cell beyond it records the set again with ``--record``.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
REPO = GOLDEN.parents[1]
ANALYTIC_RTOL = 1e-9
SWEEPS = {
    "beta": (0.0, 0.5, 1.0, 1.5, 2.0),
    "n_bar": (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0),
    "theta": (0.1, 0.5, 1.0, 2.0, 10.0),
}
MC_COLUMNS = ("mc_mean", "mc_hw95", "pass")
DERIVED_COLUMNS = ("signed_diff", "z_score")
# The validate row whose analytic cell is itself a Monte Carlo mean; its
# z_score is empty.
MC_ROW = "conditional_coverage k=5 (exact vs approx)"


def write_set(out: Path) -> None:
    """Write the golden set's CSVs to ``out`` with the importable package."""
    from clustercache import cli

    out = Path(out)
    table1 = cli.default_table1()
    for variable, grid in SWEEPS.items():
        cli.run_scenario(replace(table1, name=variable, sweep_variable=variable,
                                 grid=grid, tasks=("offload", "energy", "delay"),
                                 seed=1, output_dir=str(out)))
    cli.run_scenario(replace(table1, tasks=("validate",), mc_trials=50_000, seed=1,
                             output_dir=str(out)))
    for summary in out.glob("*_summary.json"):
        summary.unlink()


def _read(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _derived_cells(row: dict) -> dict:
    """``signed_diff`` and ``z_score`` as ``validate`` writes them for a
    row (column -> cell) with its ``analytic``, ``mc_mean`` and
    ``mc_hw95`` cells."""
    signed_diff = float(row["analytic"]) - float(row["mc_mean"])
    half_width = float(row["mc_hw95"])
    z_score = ("" if half_width <= 0 or row["quantity"] == MC_ROW
               else repr(signed_diff / (half_width / 1.96)))
    return {"signed_diff": repr(signed_diff), "z_score": z_score}


def diff(old: Path, new: Path) -> tuple:
    """(moved, violations) between two copies of the set.

    ``moved`` lists (file, row key, column, old cell, new cell, absolute
    shift, relative shift) for every cell whose bytes differ, the shifts
    None where a side is not a number; ``violations`` lists the
    differences outside the gate as strings.
    """
    old, new = Path(old), Path(new)
    moved, violations = [], []
    names = sorted({p.name for p in old.glob("*.csv")} | {p.name for p in new.glob("*.csv")})
    for name in names:
        if not (old / name).exists() or not (new / name).exists():
            violations.append(f"{name}: only in {new if (new / name).exists() else old}")
            continue
        a, b = _read(old / name), _read(new / name)
        if len(a) != len(b) or a[:2] != b[:2]:
            violations.append(f"{name}: the schema line, the header or the row count differs")
            continue
        header = a[1]
        for row_a, row_b in zip(a[2:], b[2:]):
            key = row_a[0]
            if len(row_a) != len(row_b) or key != row_b[0]:
                violations.append(f"{name}: row {key!r} differs in shape or key")
                continue
            derived = (_derived_cells(dict(zip(header, row_b)))
                       if set(DERIVED_COLUMNS) <= set(header) else {})
            for column, x, y in zip(header, row_a, row_b):
                if column in derived and y != derived[column]:
                    violations.append(f"{name} [{key}] {column}: {y} is not "
                                      f"{derived[column]!r}, recomputed from the row")
                if x == y:
                    continue
                fx, fy = _float(x), _float(y)
                shift = rel = None
                if fx is not None and fy is not None:
                    shift = abs(fy - fx)
                    rel = shift / abs(fx) if fx else math.inf
                moved.append((name, key, column, x, y, shift, rel))
                if column in derived:
                    continue
                monte_carlo = column in MC_COLUMNS or (column == "analytic" and key == MC_ROW)
                if (monte_carlo or rel is None
                        or not shift <= ANALYTIC_RTOL * max(abs(fx), abs(fy))):
                    violations.append(f"{name} [{key}] {column}: {x} -> {y}")
    return moved, violations


def _source_of(revision: str, scratch: str) -> Path:
    """A temporary source tree holding ``src/`` of a git revision of this
    repository."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", revision, "src"],
                             capture_output=True)
    if archive.returncode:
        sys.exit(f"{revision!r} is neither a directory nor a revision of {REPO}: "
                 f"{archive.stderr.decode().strip()}")
    tree = Path(tempfile.mkdtemp(dir=scratch))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def _set_of(arg: str, scratch: str) -> Path:
    """``arg`` itself, or the set written by the source tree at ``arg``
    or by the git revision ``arg``."""
    path = Path(arg) if Path(arg).is_dir() else _source_of(arg, scratch)
    if not (path / "src" / "clustercache").is_dir():
        return path
    out = Path(tempfile.mkdtemp(dir=scratch))
    env = {**os.environ, "PYTHONPATH": str((path / "src").resolve()),
           "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, __file__, "--write", str(out)], env=env, check=True)
    return out


def _report(moved: list, violations: list) -> None:
    for name, key, column, x, y, shift, rel in moved:
        shifts = f"abs {shift:.2g}  rel {rel:.2g}" if shift is not None else "text"
        print(f"{name} [{key}] {column}: {x} -> {y}  ({shifts})")
    largest = {}
    for name, key, column, _, _, _, rel in moved:
        if rel is not None and rel > largest.get((name, column), (-1.0,))[0]:
            largest[name, column] = (rel, key)
    if largest:
        print("\nlargest relative shift per column:")
        for (name, column), (rel, key) in sorted(largest.items()):
            print(f"  {name} {column}: {rel:.2g} at {key}")
    print(f"\n{len(moved)} cells moved; {len(violations)} outside the gate")
    for line in violations:
        print(f"  {line}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--record"]:
        GOLDEN.mkdir(exist_ok=True)
        for stale in GOLDEN.glob("*.csv"):
            stale.unlink()
        write_set(GOLDEN)
        return 0
    if len(args) == 2 and args[0] == "--write":
        write_set(Path(args[1]))
        return 0
    if len(args) != 2 or any(a.startswith("-") for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        moved, violations = diff(*(_set_of(a, scratch) for a in args))
    _report(moved, violations)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness of a sample's CSV files against the recorded reference.

A row is attempted once per sample and fails when any of these hold:

* its ``error`` cell is non-empty, or its ``pass`` cell is ``false``;
* it has no counterpart in the reference (matched on ``value`` or
  ``quantity``), or a checked cell misses the reference:
  - analytic cells (``TWO_SIDED``) must agree within ``RTOL``;
  - optimiser objectives are one-sided: a minimised one (``NOT_ABOVE``)
    may fall and a maximised one (``NOT_BELOW``) may rise freely, but
    neither may worsen by more than ``RTOL``;
  - Monte Carlo cells, including the ``analytic`` cell of the
    ``MC_ANALYTIC_ROWS``, are checked only through the program's own
    ``pass`` column, because a new simulation stream changes them;
* its bytes differ from the same row of the first sample of the run
  (same workload, same seed).

The largest relative deviation of any checked cell, either direction,
is reported as ``max_rel_dev`` (1 for a cell that should be a number
and is not).
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

RTOL = 1e-6
TWO_SIDED = ("prob_r1_gt_r0", "po_zipf", "po_cpf", "e_zipf_j", "e_cpf_j",
             "d_zipf_eqsplit_s", "analytic")
NOT_ABOVE = ("d_bcd_s", "e_pc_j")
NOT_BELOW = ("po_pc",)
_KEYS = ("value", "quantity")
# Validate rows whose ``analytic`` column holds a simulation of the exact
# model rather than a closed form or quadrature.
MC_ANALYTIC_ROWS = ("conditional_coverage k=5 (exact vs approx)",)


def parse_csv(text: str) -> list[dict]:
    """Rows of a clustercache CSV (the ``# schema`` line is skipped)."""
    lines = text.splitlines()
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _key(row: dict) -> str:
    return next(row[k] for k in _KEYS if k in row)


def cell_deviation(column: str, value: str, reference: str) -> tuple[bool, float]:
    """(passes, relative deviation) of one checked cell."""
    if value == reference:
        return True, 0.0
    try:
        x, r = float(value), float(reference)
    except ValueError:
        return False, 1.0
    scale = abs(r) if r != 0.0 else 1.0
    dev = abs(x - r) / scale
    worse = (x - r) / scale
    if column in NOT_ABOVE:
        return worse <= RTOL, dev
    if column in NOT_BELOW:
        return -worse <= RTOL, dev
    return dev <= RTOL, dev


def check_rows(rows: list[dict], reference: list[dict]) -> tuple[list[bool], float]:
    """Per-row pass flags of ``rows`` against ``reference``, and the max deviation."""
    by_key = {_key(r): r for r in reference}
    flags, max_dev = [], 0.0
    for row in rows:
        ok = not row.get("error") and row.get("pass") != "false"
        ref = by_key.get(_key(row))
        if ref is None:
            ok = False
        else:
            for column in TWO_SIDED + NOT_ABOVE + NOT_BELOW:
                if column in row and not (
                    column == "analytic" and row["quantity"] in MC_ANALYTIC_ROWS
                ):
                    passes, dev = cell_deviation(column, row[column], ref.get(column, ""))
                    ok = ok and passes
                    max_dev = max(max_dev, dev)
        flags.append(ok)
    return flags, max_dev


def check_sample(names, sample_out: Path, reference_dir: Path,
                 first_out: Path | None) -> dict:
    """Check every CSV of one sample; ``first_out`` is the run's first sample."""
    attempted = failed = 0
    max_dev = 0.0
    problems = []
    for name in names:
        reference = parse_csv((reference_dir / name).read_text())
        path = sample_out / name
        if not path.is_file():
            attempted += len(reference)
            failed += len(reference)
            problems.append(f"{name}: missing")
            continue
        text = path.read_text()
        rows = parse_csv(text)
        flags, dev = check_rows(rows, reference)
        max_dev = max(max_dev, dev)
        if len(rows) < len(reference):
            flags += [False] * (len(reference) - len(rows))
        if first_out is not None:
            first = (first_out / name).read_text().splitlines()[2:]
            lines = text.splitlines()[2:]
            for i in range(len(lines)):
                if i >= len(first) or lines[i] != first[i]:
                    flags[i] = False
                    problems.append(f"{name}: row {i + 1} differs from the first sample")
        bad = flags.count(False)
        if bad:
            problems.append(f"{name}: {bad} of {len(flags)} rows failed")
        attempted += len(flags)
        failed += bad
    return {"attempted": attempted, "failed": failed, "max_rel_dev": max_dev,
            "problems": problems}

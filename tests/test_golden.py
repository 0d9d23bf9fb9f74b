"""The golden sweep set, regenerated, against the committed one."""

import golden_diff


def test_golden_set_matches(tmp_path):
    # Analytic cells agree within golden_diff.ANALYTIC_RTOL; text and
    # Monte Carlo cells are byte-identical. A change that moves a cell
    # beyond that records the set again (`golden_diff.py --record`).
    golden_diff.write_set(tmp_path)
    _, violations = golden_diff.diff(golden_diff.GOLDEN, tmp_path)
    assert not violations, "\n".join(violations)

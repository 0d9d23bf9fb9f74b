"""The reference checker: one-sided objective rules, analytic tolerance, determinism."""

import pytest

import check

HEADER = "# schema=1\nvalue,prob_r1_gt_r0,po_pc,po_zipf,po_cpf,error\n"
REF_ROW = "10.0,0.9,0.4,0.35,0.43,\n"


@pytest.mark.parametrize("column, value, ok", [
    ("d_bcd_s", "0.9", True),           # minimised objective fell: allowed
    ("d_bcd_s", "1.0000005", True),     # within RTOL
    ("d_bcd_s", "1.00001", False),      # rose
    ("e_pc_j", "0.5", True),
    ("e_pc_j", "1.1", False),
    ("po_pc", "1.1", True),             # maximised objective rose: allowed
    ("po_pc", "0.99999", False),        # fell
    ("prob_r1_gt_r0", "1.0000005", True),
    ("prob_r1_gt_r0", "0.99999", False),  # two-sided
    ("prob_r1_gt_r0", "1.00001", False),
    ("analytic", "", False),
])
def test_cell_rules(column, value, ok):
    passes, dev = check.cell_deviation(column, value, "1.0")
    assert passes is ok
    assert dev >= 0.0


def test_deviation_is_reported_in_both_directions():
    assert check.cell_deviation("po_pc", "1.5", "1.0") == (True, 0.5)
    assert check.cell_deviation("d_bcd_s", "0.5", "1.0") == (True, 0.5)


def test_rows_fail_on_error_pass_and_unknown_key():
    ref = [{"quantity": "a", "analytic": "0.5", "pass": "true", "error": ""},
           {"quantity": "b", "analytic": "0.5", "pass": "true", "error": ""}]
    rows = [{"quantity": "a", "analytic": "0.5", "pass": "false", "error": ""},
            {"quantity": "b", "analytic": "0.5", "pass": "true", "error": "boom"},
            {"quantity": "c", "analytic": "0.5", "pass": "true", "error": ""}]
    flags, dev = check.check_rows(rows, ref)
    assert flags == [False, False, False]
    assert dev == 0.0


def test_simulated_analytic_cell_is_not_compared():
    name = check.MC_ANALYTIC_ROWS[0]
    ref = [{"quantity": name, "analytic": "0.80", "pass": "true", "error": ""}]
    rows = [{"quantity": name, "analytic": "0.79", "pass": "true", "error": ""}]
    assert check.check_rows(rows, ref) == ([True], 0.0)


def _write(directory, text):
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "w_offload.csv").write_text(text)


def test_sample_matching_reference_and_first_sample(tmp_path):
    _write(tmp_path / "ref", HEADER + REF_ROW)
    _write(tmp_path / "s0", HEADER + REF_ROW)
    _write(tmp_path / "s1", HEADER + REF_ROW)
    verdict = check.check_sample(["w_offload.csv"], tmp_path / "s1",
                                 tmp_path / "ref", tmp_path / "s0")
    assert verdict == {"attempted": 1, "failed": 0, "max_rel_dev": 0.0, "problems": []}


def test_sample_differing_from_first_sample_fails(tmp_path):
    better = "10.0,0.9,0.41,0.35,0.43,\n"  # po_pc rose: fine against the reference
    _write(tmp_path / "ref", HEADER + REF_ROW)
    _write(tmp_path / "s0", HEADER + REF_ROW)
    _write(tmp_path / "s1", HEADER + better)
    verdict = check.check_sample(["w_offload.csv"], tmp_path / "s1",
                                 tmp_path / "ref", None)
    assert verdict["failed"] == 0
    assert verdict["max_rel_dev"] == pytest.approx(0.025)
    verdict = check.check_sample(["w_offload.csv"], tmp_path / "s1",
                                 tmp_path / "ref", tmp_path / "s0")
    assert verdict["failed"] == 1


def test_missing_csv_fails_every_reference_row(tmp_path):
    _write(tmp_path / "ref", HEADER + REF_ROW + REF_ROW.replace("10.0", "20.0"))
    (tmp_path / "s0").mkdir()
    verdict = check.check_sample(["w_offload.csv"], tmp_path / "s0",
                                 tmp_path / "ref", None)
    assert (verdict["attempted"], verdict["failed"]) == (2, 2)

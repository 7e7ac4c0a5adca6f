"""Byte-for-byte oracle: the reproduction CSV and the budget rows.

The files under tests/data/ were written by `toolkit reproduce-paper --out`
with TOOLKIT_SEED=12345 and by `toolkit budget --scenario paper_yb.scenario`
for each target (every stdout line but the last). They were last regenerated
when the cooling and Lamb-Dicke budgets moved from charge bisections to a
closed-form inverse. A change to any byte of them must be deliberate:
regenerate the files and say why.
"""

from pathlib import Path

from cavitycharge.cli import main
from cavitycharge.reports import BUDGET_TARGETS

DATA = Path(__file__).resolve().parent / "data"


def test_reproduce_paper_csv_is_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TOOLKIT_SEED", "12345")
    out = tmp_path / "report.csv"
    assert main(["reproduce-paper", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / "reproduce_paper_seed12345.csv").read_bytes()


def test_budget_rows_are_byte_identical(tmp_path, capsys):
    blocks = []
    for target in BUDGET_TARGETS:
        out = tmp_path / f"{target}.csv"
        argv = ["budget", "--scenario", "paper_yb.scenario", "--target", target,
                "--out", str(out)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"# sweep written to {out} (200 points)"
        blocks.extend(lines[:-1])
    expected = (DATA / "budget_rows_paper_yb.txt").read_text(encoding="utf-8")
    assert "\n".join(blocks) + "\n" == expected

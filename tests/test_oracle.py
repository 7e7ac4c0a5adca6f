"""Byte-for-byte oracle: the reproduction CSVs, the budget rows and sweeps.

The files under tests/data/ were written by `toolkit reproduce-paper --out`
(reproduce_paper.csv, the same whatever TOOLKIT_SEED holds) and by
`toolkit budget --scenario paper_yb.scenario` for each target (every
stdout line but the last). reproduce_paper.csv was written when the
finesse-sigma row took its sigma from Gauss-Hermite cubature instead of a
seeded Monte Carlo, so the report draws no random numbers; it replaced
reproduce_paper_seed12345.csv, the TOOLKIT_SEED=12345 output, from which
it differs only in that row's label, computed, relative_deviation and
note cells. It was regenerated when the cubature summed on floats by
math.fsum and took each film extinction's sigma from its two independent
factors: two sigma cells moved, kappa_zno_69d 3.078634175337653e-05 to
...652e-05 and kappa_ann_69d 1.0710906918671595e-05 to ...593e-05, both
below 4e-16 relative. That pin was last regenerated before then when the five
film-extinction rows took their sigma from cubature instead of a Monte
Carlo, and their excess loss without cancellation: their computed values
moved by at most 5.6e-12 relative. The budget files were last
regenerated when the cooling budget's bisection in the modulation index gave way to an exact root by Newton's
method: the three cooling rows and the cooling sweep moved by about 1.4e-7
relative. budget_sweeps_paper_yb.sha256 holds the sha256 of each
target's default sweep CSV, as written when every sweep was one array call.
A change to any byte of them must be deliberate: regenerate the files and
say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import cavitycharge
from cavitycharge.cli import main
from cavitycharge.reports import BUDGET_TARGETS

DATA = Path(__file__).resolve().parent / "data"


def _pinned_sweep_hashes() -> dict:
    lines = (DATA / "budget_sweeps_paper_yb.sha256").read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def _sweep_hashes(directory: Path) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in directory.glob("*.csv")}


def test_reproduce_paper_csv_is_byte_identical(tmp_path, monkeypatch, capsys):
    # the same bytes under any TOOLKIT_SEED, which the CLI ignores, or none:
    # the report draws no random numbers
    for seed in (None, "0", "12345", "-1", "not-a-seed"):
        if seed is None:
            monkeypatch.delenv("TOOLKIT_SEED", raising=False)
        else:
            monkeypatch.setenv("TOOLKIT_SEED", seed)
        out = tmp_path / f"report_{seed}.csv"
        assert main(["reproduce-paper", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (DATA / "reproduce_paper.csv").read_bytes(), seed


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
    assert _sweep_hashes(tmp_path) == _pinned_sweep_hashes()


def test_numpy_free_budget_sweeps_match_the_pinned_hashes(tmp_path):
    # a fresh interpreter never loads numpy, so each sweep is called point by point
    probe = (
        "import sys\n"
        "from cavitycharge import BUDGET_TARGETS, cli\n"
        "for target in BUDGET_TARGETS:\n"
        "    argv = ['budget', '--scenario', 'paper_yb.scenario', '--target', target,\n"
        "            '--out', f'{target}.csv']\n"
        "    assert cli.main(argv) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(cavitycharge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=path), check=True, timeout=60)
    assert _sweep_hashes(tmp_path) == _pinned_sweep_hashes()

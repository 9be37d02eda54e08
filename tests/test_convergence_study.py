import csv
import runpy
import sys
from pathlib import Path

from levybarrier.cases import CONVERGENCE_CASES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"


def test_writes_one_csv_per_case(tmp_path, monkeypatch):
    argv = [str(SCRIPT), "--mmin", "8", "--mmax", "9", "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(CONVERGENCE_CASES)
    labels = {"fgm": "none", "fl": "none", "fgm-f": "exp(p=12)", "fl-f": "exp(p=12)"}
    for name in CONVERGENCE_CASES:
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert len(lines) == 1 + 8  # four methods, two grid sizes
        for row in csv.DictReader(lines):
            assert row["filter"] == labels[row["method"]]

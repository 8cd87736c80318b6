import math
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_rotation_discrepancy_report(capsys):
    report = runpy.run_path(str(SCRIPTS / "rotation_discrepancy.py"))["report"]
    report()
    gaps = [float(line.rsplit("=", 1)[1])
            for line in capsys.readouterr().out.splitlines()
            if "max|diff| =" in line]
    assert len(gaps) == 5
    assert all(math.isfinite(g) for g in gaps)

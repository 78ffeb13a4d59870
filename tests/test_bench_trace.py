"""The benchmark's traced child still installs its tracer on the library.

perfbench/tracer.py patches library functions by name (module globals,
class attributes such as ``RatSeries.__mul__``) and reads ``.coeffs``,
``.log_coeff`` and ``MirrorData.__dataclass_fields__``.  A traced child
that fails counts as a failed benchmark operation, so each traced job here
must exit 0, print its golden bytes and leave a report with spans and the
series product counter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

JOBS = {
    "cli-mix/elliptic-2-11.out": ["cli", "--format", "json", "compute",
                                  "elliptic", "--genus", "2", "--parts", "1,1"],
    "genus4-hae/genus4-hae.out": ["genus4-hae", "local"],
}


@pytest.mark.parametrize("golden", sorted(JOBS))
def test_traced_child_matches_golden(golden, tmp_path):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(report), "--trace",
         *JOBS[golden]],
        cwd=ROOT, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (BENCH / "golden" / golden).read_bytes()
    data = json.loads(report.read_text())
    assert data["spans"]
    assert data["counts"]["series.mul.calls"] > 0

"""The benchmark's traced child still installs its tracer on the library.

perfbench/tracer.py patches library functions by name (module globals,
class attributes such as ``RatSeries.__mul__``) and reads ``.coeffs``,
``.log_coeff`` and ``MirrorData.__dataclass_fields__``, which the frozen
namedtuple record ``MirrorData`` sets to its field names for the tracer
alone (it is not a dataclass).  A traced child that fails counts as a
failed benchmark operation, so each traced job here must exit 0, print its
golden bytes and leave a report with spans and the series product counter;
the job that builds mirror data must also report the size its hook reads
from those fields.
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
    "cli-mix/ramanujan-50.out": ["cli", "verify", "ramanujan", "--order", "50"],
}


def run_traced(job, golden: Path, tmp_path):
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(report), "--trace", *job],
        cwd=ROOT, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == golden.read_bytes()
    data = json.loads(report.read_text())
    assert data["spans"]
    assert data["counts"]["series.mul.calls"] > 0
    return data


@pytest.mark.parametrize("golden", sorted(JOBS))
def test_traced_child_matches_golden(golden, tmp_path):
    run_traced(JOBS[golden], BENCH / "golden" / golden, tmp_path)


def test_traced_mirror_hook_reads_the_dataclass_fields(tmp_path):
    golden = "genus4-hae/genus4-hae.out"
    data = run_traced(JOBS[golden], BENCH / "golden" / golden, tmp_path)
    assert data["maxima"]["mirror.build_mirror_data.maxbits"] > 0


def test_traced_check_path_matches_golden(tmp_path):
    # the consistency triangle compares the two routes as ring elements,
    # so the only bm_eval calls are those of the printed flat expansions
    data = run_traced(["cli", "--format", "json", "solve", "--genus", "3",
                       "--target", "both"],
                      ROOT / "tests" / "golden" / "solve-g3-both-json.out",
                      tmp_path)
    names = [name for name, *_ in data["spans"]]
    # the two flat expansions printed
    assert names.count("mirror.bm_eval") == 2
    # one correction value per elliptic label: 3 at genus 2, 11 at genus 3
    assert names.count("locrel.correction_value") == 14


def test_traced_emitters_span_once_per_printed_object(tmp_path):
    # generators, quasimodular form, q-series and flat expansion: a
    # wrapper that the tracer reached twice would record more spans
    data = run_traced(["cli", "--format", "json", "compute", "relative",
                       "--genus", "2"],
                      ROOT / "tests" / "golden" / "relative-g2-json.out",
                      tmp_path)
    names = [name for name, *_ in data["spans"]]
    assert names.count("cli.emit") == 4
    # the element is expanded in q once; the flat expansion is read from
    # that q-series
    assert names.count("mirror.bm_eval") == 1

"""The golden and bad-data runs of the command line, and a runner for them.

A golden run's stdout must equal its golden file byte for byte, with its
exit status and nothing on stderr; a bad-data run must exit 2 with one
``error:`` line on stderr and nothing on stdout.  Each golden was recorded
before the change that the comment above it names, so any change in a
printed number or its formatting fails.  tests/test_cli.py runs the table
in process; run as a script, this file runs each command in a fresh
interpreter and prints one PASS or FAIL line per run:

    python tests/goldens.py                   # the installed package
    PYTHONPATH=src python tests/goldens.py    # the source tree

Every command starts in one fresh directory that holds the files
``write_inputs`` makes, so paths in an argv are relative to it.  A new
golden is one line in GOLDEN_RUNS.  Stdlib only: the newer interpreters
that run it have no pytest.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
T = "tests/golden/"
BENCH = "perfbench/golden/"


class Run(namedtuple("Run", "golden argv status", defaults=(0,))):
    """``localp2 argv`` exits ``status`` and writes the golden file, a path
    from the repo root, to stdout or to the file its --out flag names."""

    __slots__ = ()

    @property
    def name(self) -> str:
        """The golden's path under its golden/ directory, and how it is
        written when that is not stdout."""
        return self.golden.split("golden/", 1)[1] + (" via --out" if self.out else "")

    @property
    def out(self) -> str | None:
        """The file the run writes its output to, or None for stdout."""
        return self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None


GOLDEN_RUNS = [
    # before the integer-numerator series kernel
    Run(T + "solve-g3-both-json.out", ["--format", "json", "solve", "--genus", "3",
                                       "--target", "both"]),
    Run(T + "solve-g4-both.out", ["solve", "--genus", "4", "--target", "both"]),
    Run(T + "relative-g2-csv.out", ["--format", "csv", "compute", "relative",
                                    "--genus", "2"]),
    # before the shared graded-polynomial core: 71 elliptic labels through
    # EPoly, and the BModElement, QModElement and EPoly printouts
    Run(T + "solve-g5-both.out", ["solve", "--genus", "5", "--target", "both"]),
    Run(T + "relative-g3.out", ["compute", "relative", "--genus", "3"]),
    Run(T + "elliptic-g3-211.out", ["compute", "elliptic", "--genus", "3",
                                    "--parts", "2,1,1"]),
    Run(T + "elliptic-g3-211-json.out", ["--format", "json", "compute", "elliptic",
                                         "--genus", "3", "--parts", "2,1,1"]),
    # before local-side commands stopped building the relative tower
    Run(T + "verify-hae-g4-local.out", ["verify", "hae", "--genus", "4", "--target",
                                        "local"]),
    Run(T + "verify-gap-g4-local.out", ["verify", "gap", "--genus", "4", "--target",
                                        "local"]),
    # before the polar-only conifold expansion, the q -> Q power table and
    # theta_u by its coefficient formula
    Run(T + "solve-g8-local.out", ["solve", "--genus", "8", "--target", "local"]),
    Run(T + "selftest.out", ["selftest"]),
    # recorded when the CSV format began to print the Eisenstein polynomial
    # as a CSV block instead of a text line
    Run(T + "elliptic-g2-11-csv.out", ["--format", "csv", "compute", "elliptic",
                                       "--genus", "2", "--parts", "1,1"]),
    # before one writer took over every JSON and CSV printout: the
    # quasimodular form in JSON, and a nonzero log slot in JSON and CSV; the
    # genus-1 correspondence reads f1_empty, the log of the Euler product
    Run(T + "relative-g2-json.out", ["--format", "json", "compute", "relative",
                                     "--genus", "2"]),
    Run(T + "relative-g1-json.out", ["--format", "json", "compute", "relative",
                                     "--genus", "1"]),
    Run(T + "relative-g1-csv.out", ["--format", "csv", "compute", "relative",
                                    "--genus", "1"]),
    # before the flat conifold coordinate was solved by the closed form of
    # the operator on u^k: the coordinate `that` through u^32
    Run(T + "mirror-o32-json.out", ["--format", "json", "compute", "mirror",
                                    "--order", "32"]),
    # before the genus rows of the sheaf side were read in closed form:
    # rows above genus 2
    Run(T + "ns-compare-g4-d2.out", ["ns", "compare", "--gmax", "4", "--dmax", "2"]),
    # before the ambiguity's gap rows were read from the conifold frame:
    # the relative tower through the correspondence at genus 4
    Run(T + "verify-gap-g4-relative.out", ["verify", "gap", "--genus", "4",
                                           "--target", "relative"]),
    # before the anomaly solver was keyed by (n, g): the relative right
    # side, which has no loop term
    Run(T + "verify-hae-g4-relative.out", ["verify", "hae", "--genus", "4",
                                           "--target", "relative"]),
    # before the periods and the conifold coordinate were read from their
    # hypergeometric closed forms: the least mirror order, and order 78
    Run(T + "mirror-o5.out", ["compute", "mirror", "--order", "5"]),
    Run(T + "mirror-o78-csv.out", ["--format", "csv", "compute", "mirror",
                                   "--order", "78"]),
    # the config reader: the two relative routes are compared as ring
    # elements, so genus 3 both runs at the least q_order, 5
    Run(T + "solve-g3-both-q5.out", ["--config", "q5.cfg", "solve", "--genus", "3",
                                     "--target", "both"]),
    # a sheaf table that disagrees with the curve counts is a failed check,
    # not bad data: six cells DIFFER, exit 1
    Run(T + "ns-compare-skew-omega.out", ["ns", "compare", "--omega",
                                          "skew-omega.json"], 1),
    # the commands of the benchmark, against its goldens
    Run(BENCH + "elliptic-4pt/label-3-1111.out", [
        "--format", "json", "compute", "elliptic", "--genus", "3", "--parts",
        "1,1,1,1", "--order", "9"]),
    Run(BENCH + "cli-mix/ns-compare-2-2.out", ["ns", "compare", "--gmax", "2",
                                               "--dmax", "2"]),
    Run(BENCH + "cli-mix/elliptic-2-11.out", ["--format", "json", "compute",
                                              "elliptic", "--genus", "2",
                                              "--parts", "1,1"]),
    Run(BENCH + "cli-mix/elliptic-3-211.out", ["compute", "elliptic", "--genus",
                                               "3", "--parts", "2,1,1"]),
    Run(BENCH + "cli-mix/ramanujan-50.out", ["verify", "ramanujan", "--order", "50"]),
    Run(BENCH + "cli-mix/ramanujan-50.out", ["--out", "ramanujan-50.out", "verify",
                                             "ramanujan", "--order", "50"]),
    Run(BENCH + "cli-mix/relative-2-csv.out", ["--format", "csv", "compute",
                                               "relative", "--genus", "2"]),
    Run(BENCH + "cli-mix/mirror-32.out", ["--format", "json", "compute", "mirror",
                                          "--order", "32"]),
]

# argv -> the one line it writes to stderr, as a regular expression; each
# exits 2 before any work
BAD_DATA_RUNS = [
    # an integer flag is ASCII -?[0-9]+
    (["verify", "ramanujan", "--order", "1_0"],
     r"error: argument --order: invalid integer value: '1_0'"),
    # a sheaf table that is not there
    (["ns", "compare", "--omega", "missing.json"],
     r"error: cannot read sheaf table missing\.json: .*"),
    # an empty path names no file, so the shipped table is not read instead
    (["ns", "compare", "--omega="], r"error: argument --omega: empty value"),
    # a table of the wrong shape: the message names the field
    (["ns", "compare", "--omega", "bad-omega.json"],
     r"error: cannot read sheaf table bad-omega\.json: .*'entries'.*"),
]


def write_inputs(where: Path):
    """The files the runs read: a config at q_order 5, a sheaf table of
    the wrong shape, and the shipped table with degree 1's y^0 coefficient
    2, not 1."""
    (where / "q5.cfg").write_text("q_order = 5\n", encoding="utf-8")
    (where / "bad-omega.json").write_text('{"entries": 5}\n', encoding="utf-8")
    table = json.loads((ROOT / "src/localp2/data/omega_p2.json").read_text(
        encoding="utf-8"))
    degree1 = next(e for e in table["entries"] if e["degree"] == 1)
    next(c for c in degree1["coeffs"] if c["exp2"] == 0)["c"] = "2"
    (where / "skew-omega.json").write_text(json.dumps(table), encoding="utf-8")


def main() -> int:
    # each child starts in the inputs' directory, so a relative PYTHONPATH
    # (src) is made absolute first
    env = dict(os.environ)
    if env.get("PYTHONPATH"):
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep) if p)
    code = "import sys; from localp2.cli import main; sys.exit(main(sys.argv[1:]))"
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))

        def localp2(argv):
            p = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp, env=env,
                               capture_output=True)
            return p.returncode, p.stdout, p.stderr

        def verdict(name, ok):
            nonlocal failed
            failed += not ok
            print(f"{name}: {'PASS' if ok else 'FAIL'}", flush=True)

        for run in GOLDEN_RUNS:
            status, stdout, err = localp2(run.argv)
            written = (Path(tmp) / run.out).read_bytes() if run.out else stdout
            verdict(run.name, (status, written, err) == (
                run.status, (ROOT / run.golden).read_bytes(), b"")
                and (stdout == b"" or not run.out))
        for argv, line in BAD_DATA_RUNS:
            status, out, err = localp2(argv)
            verdict(" ".join(argv), status == 2 and out == b"" and re.fullmatch(
                line + "\n", err.decode("utf-8")) is not None)
    print(f"{len(GOLDEN_RUNS) + len(BAD_DATA_RUNS) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

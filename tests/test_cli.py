import json
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

import localp2.acceptance
from localp2 import cli, elliptic
from localp2.cli import RunConfig, load_config, main
from localp2.graded import GradedError
from localp2.hae import GapError
from localp2.mirror import BModError
from localp2.quasimod import QModElement
from localp2.series import RatSeries, SeriesError


def run(argv, capsys):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def _computing(*args, **kwargs):
    raise AssertionError("bad input reached a computation")


def run_rejected(argv, capsys, monkeypatch):
    """Run argv with every entry point into the mathematics replaced by a
    failure (which main reports as exit 3); argparse errors exit via
    SystemExit."""
    for name in ("build_mirror_data", "connected_extract", "solve_towers",
                 "solve_genus"):
        monkeypatch.setattr(cli, name, _computing)
    monkeypatch.setattr(localp2.acceptance, "run_report", _computing)
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    out = capsys.readouterr()
    return status, out.out, out.err


class TestConfig:
    def test_defaults_valid(self):
        RunConfig().validate()

    def test_order_floor(self):
        with pytest.raises(ValueError):
            RunConfig(q_order=3).validate()

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nq_order = 40\nformat = json\n")
        cfg = load_config(str(p))
        assert cfg.q_order == 40 and cfg.format == "json"

    def test_fields(self):
        assert RunConfig._fields == ("q_order", "format", "omega")

    def test_unknown_key(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "run.cfg"
        p.write_text("bogus = 1\n")
        status, out, err = run_rejected(["--config", str(p), "verify",
                                         "ramanujan"], capsys, monkeypatch)
        assert (status, out) == (2, "")
        assert "unknown config key 'bogus'" in err

    def test_missing_file(self, tmp_path, capsys, monkeypatch):
        status, out, err = run_rejected(
            ["--config", str(tmp_path / "p.cfg"), "verify", "ramanujan"],
            capsys, monkeypatch)
        assert (status, out) == (2, "")
        assert "cannot read config" in err


def emitted_json(emit, obj) -> dict:
    lines = []
    emit("x", obj, RunConfig(format="json"), lines.append)
    assert len(lines) == 1
    return json.loads(lines[0])


def frac(d: dict) -> F:
    assert isinstance(d["num"], str) and isinstance(d["den"], str)
    return F(int(d["num"]), int(d["den"]))


class TestJson:
    def test_series_roundtrip(self):
        s = RatSeries("q", -1, [0, F(1, 3), -2], F(-1, 24))
        d = emitted_json(cli.emit_series, s)
        assert d["log_coeff"] == {"num": "-1", "den": "24"}
        t = RatSeries.from_pairs(d["variable"],
                                 {c["exp"]: frac(c) for c in d["coeffs"]},
                                 d["trunc_order"], frac(d["log_coeff"]))
        assert t == s

    def test_qmod_roundtrip(self):
        e = QModElement(2, {(6, 0, 0): F(-37, 11520), (0, 0, 2): F(-16, 11520)})
        d = emitted_json(cli.emit_qmod, e)
        assert d["c_pole"] == 2 and d["weight"] == 0
        back = QModElement(d["c_pole"], {
            (t["a"], t["b"], t["c"]): frac(t) for t in d["terms"]})
        assert back == e


# argv (with {tmp} for a scratch directory) -> a fragment of the message
BAD_INPUT = [
    (["solve", "--genus", "1", "--target", "local"], "must be >= 2"),
    (["compute", "local", "--genus", "-1"], "must be >= 0"),
    (["verify", "gap", "--genus", "0", "--target", "relative"], "must be >= 2"),
    (["verify", "hae", "--genus", "1", "--target", "local"], "must be >= 2"),
    (["verify", "ramanujan", "--order", "-1"], "must be >= 0"),
    (["compute", "mirror", "--order", "3"], "must be >= 5"),
    (["compute", "mirror", "--order", "x"], "invalid integer value"),
    (["--config", "{tmp}/q.cfg", "compute", "mirror"], "q_order must be >= 5"),
    (["--config", "{tmp}/text.cfg", "compute", "mirror"], "needs an integer"),
    (["--config", "{tmp}/margin.cfg", "compute", "mirror"],
     "unknown config key 'margin'"),
    (["--config", "{tmp}/missing.cfg", "compute", "mirror"],
     "cannot read config"),
    (["ns", "compare", "--omega", "{tmp}/missing.json"], "cannot read sheaf"),
    (["ns", "compare", "--omega", "{tmp}/lopsided.json"], "not palindromic"),
    (["ns", "compare", "--omega", "{tmp}/fractional.json", "--gmax", "0"],
     "degree 1 coefficient 1.9 is not an integer"),
    (["ns", "compare", "--dmax", "3"], "degrees [3]"),
    # the flat expansions are known through Q^q_order only
    (["--config", "{tmp}/q5.cfg", "ns", "compare", "--omega",
      "{tmp}/seven.json", "--gmax", "1", "--dmax", "7"],
     "--dmax 7 needs q_order >= 7, got 5"),
    (["compute", "elliptic", "--genus", "2", "--parts", "1"], "sum to 2"),
    (["compute", "elliptic", "--genus", "2", "--parts", "1,x"], "a1,a2"),
    (["compute", "elliptic", "--genus", "2", "--parts", "2,-1"], "a1,a2"),
    (["compute", "elliptic", "--genus", "2", "--parts", "1,1", "--order", "2"],
     "--order must be >= 3"),
    # every command that solves a tower checks q_order against the genus
    (["--config", "{tmp}/q6.cfg", "compute", "local", "--genus", "5"],
     "genus 5 needs q_order >= 8, got 6"),
    (["--config", "{tmp}/q6.cfg", "compute", "relative", "--genus", "5"],
     "genus 5 needs q_order >= 8, got 6"),
    (["--config", "{tmp}/q6.cfg", "verify", "hae", "--genus", "5", "--target",
      "local"], "genus 5 needs q_order >= 8, got 6"),
    (["--config", "{tmp}/q6.cfg", "verify", "gap", "--genus", "5", "--target",
      "relative"], "genus 5 needs q_order >= 8, got 6"),
    (["--config", "{tmp}/q6.cfg", "ns", "compare", "--gmax", "5"],
     "genus 5 needs q_order >= 8, got 6"),
    (["--config", "{tmp}/q6.cfg", "solve", "--genus", "5", "--target",
      "local"], "genus 5 needs q_order >= 8, got 6"),
    # flags that did nothing and are gone
    (["--threads=2", "compute", "mirror"], "unrecognized"),
    (["compute", "local", "--genus", "2", "--order", "8"], "unrecognized"),
    (["compute", "local", "--genus", "2", "--method", "hae"], "unrecognized"),
    (["compute", "relative", "--genus", "2", "--method", "hae"], "unrecognized"),
    (["solve", "--genus", "2", "--target", "local", "--order", "8"],
     "unrecognized"),
    (["selftest", "--out", "{tmp}/report.txt"], "unrecognized"),
]


@pytest.mark.parametrize("argv,message", BAD_INPUT,
                         ids=[" ".join(a) for a, _ in BAD_INPUT])
def test_bad_input_exits_2_before_computing(argv, message, tmp_path, capsys,
                                            monkeypatch):
    (tmp_path / "q.cfg").write_text("q_order = 3\n")
    (tmp_path / "q5.cfg").write_text("q_order = 5\n")
    (tmp_path / "q6.cfg").write_text("q_order = 6\n")
    (tmp_path / "text.cfg").write_text("q_order = ten\n")
    (tmp_path / "margin.cfg").write_text("margin = 10\n")
    (tmp_path / "lopsided.json").write_text(json.dumps({"entries": [
        {"degree": 1, "coeffs": [{"exp2": -2, "c": "1"}, {"exp2": 0, "c": "1"}]},
        {"degree": 2, "coeffs": [{"exp2": 0, "c": "1"}]}]}))
    (tmp_path / "fractional.json").write_text(json.dumps({"entries": [
        {"degree": 1, "coeffs": [{"exp2": -2, "c": 1.9}, {"exp2": 0, "c": 1},
                                 {"exp2": 2, "c": 1.9}]},
        {"degree": 2, "coeffs": [{"exp2": 0, "c": 1}]}]}))
    (tmp_path / "seven.json").write_text(json.dumps({"entries": [
        {"degree": d, "coeffs": [{"exp2": 0, "c": 1}]} for d in range(1, 8)]}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    status, out, err = run_rejected(argv, capsys, monkeypatch)
    assert (status, out) == (2, "")
    assert message in err


def test_internal_error_exits_3_with_traceback(capsys, monkeypatch):
    def broken(args, cfg, sink):
        sink("partial output")
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_verify_ramanujan", broken)
    status, out, err = run(["verify", "ramanujan"], capsys)
    assert (status, out) == (3, "")
    assert "Traceback" in err and "KeyError: 'bug'" in err


# a command has checked its orders before it reads a series, so a read past
# a series' truncation order is a bug, not a failed check
@pytest.mark.parametrize("read,message", [
    (lambda s: s.coeff(4), "coefficient of q^4 beyond truncation order 3"),
    (lambda s: s.truncate(4), "cannot extend truncation order"),
], ids=["coeff", "truncate"])
def test_read_past_truncation_exits_3_with_traceback(read, message, capsys,
                                                     monkeypatch):
    def broken(args, cfg, sink):
        sink("partial output")
        read(RatSeries.one("q", 3))

    monkeypatch.setattr(cli, "cmd_verify_ramanujan", broken)
    status, out, err = run(["verify", "ramanujan"], capsys)
    assert (status, out) == (3, "")
    assert "Traceback" in err and f"TruncationError: {message}" in err


@pytest.mark.parametrize("error", [GapError, BModError, GradedError,
                                   SeriesError])
def test_failed_check_exits_1_without_traceback(error, capsys, monkeypatch):
    def fails(args, cfg, sink):
        sink("partial output")
        raise error("check failed")

    monkeypatch.setattr(cli, "cmd_verify_ramanujan", fails)
    assert run(["verify", "ramanujan"], capsys) == \
        (1, "", "error: check failed\n")


class TestCommands:
    def test_compute_mirror_json(self, capsys):
        status, out, _ = run(["--format", "json", "compute", "mirror",
                              "--order", "8"], capsys)
        assert status == 0
        blob = "[" + out.replace("}\n{", "},{") + "]"
        docs = json.loads(blob)
        names = {d["name"] for d in docs}
        assert {"ibar1", "I11", "J", "X", "S", "Qofq", "qofQ",
                "cQofq", "that"} <= names
        qofq = next(d for d in docs if d["name"] == "Qofq")
        assert qofq["coeffs"][0] == {"exp": 1, "num": "1", "den": "1"}
        assert qofq["coeffs"][1] == {"exp": 2, "num": "-6", "den": "1"}

    def test_verify_ramanujan(self, capsys):
        status, out, _ = run(["verify", "ramanujan", "--order", "50"], capsys)
        assert status == 0
        assert out.count("PASS") == 3

    def test_out_replaces_stdout(self, capsys, tmp_path):
        p = tmp_path / "report.txt"
        status, out, _ = run(["--out", str(p), "verify", "ramanujan"], capsys)
        assert (status, out) == (0, "")
        assert p.read_text().count("PASS (order 50)") == 3

    @pytest.mark.parametrize("where", ["dir", "dir/missing/report.txt"])
    def test_unwritable_out_exits_2(self, where, capsys, tmp_path):
        (tmp_path / "dir").mkdir()
        p = tmp_path / where
        status, out, err = run(["--out", str(p), "compute", "mirror",
                                "--order", "5"], capsys)
        assert (status, out) == (2, "")
        assert err.startswith(f"error: cannot write {p}: ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_compute_elliptic(self, capsys):
        status, out, _ = run(["compute", "elliptic", "--genus", "1",
                              "--parts", "0"], capsys)
        assert status == 0
        assert "eisenstein_polynomial" in out
        assert "(-1/24)*E2^1E4^0E6^0" in out

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "mirror", "--bogus"])
        assert exc.value.code == 2

    def test_bad_config_value(self, capsys, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("q_order = 3\n")
        status, _, err = run(["--config", str(p), "verify", "ramanujan"], capsys)
        assert status == 2
        assert "q_order" in err


class TestHeavyCommands:
    def test_compute_relative_genus2(self, capsys):
        status, out, _ = run(["compute", "relative", "--genus", "2"], capsys)
        assert status == 0
        assert "29/640" in out

    def test_verify_gap_genus2(self, capsys):
        status, out, _ = run(["verify", "gap", "--genus", "2",
                              "--target", "local"], capsys)
        assert status == 0
        assert "t^-2: -1/80" in out
        assert "PASS" in out

    def test_verify_hae_genus2(self, capsys):
        status, out, _ = run(["verify", "hae", "--genus", "2",
                              "--target", "relative"], capsys)
        assert status == 0
        assert "PASS" in out

    def test_ns_compare(self, capsys):
        status, out, _ = run(["ns", "compare", "--gmax", "2", "--dmax", "2"],
                             capsys)
        assert status == 0
        assert out.count("EQUAL") == 6
        assert "PASS" in out

    def test_six_point_elliptic_label(self, capsys):
        status, out, _ = run(["--format", "json", "compute", "elliptic",
                              "--genus", "4", "--parts", "1,1,1,1,1,1"], capsys)
        assert status == 0
        poly = json.loads(out[out.index('{\n  "name": "eisenstein_polynomial"'):])
        assert poly["weight"] == 18 and poly["terms"]

    def test_genus4_consistency_triangle(self, capsys):
        status, out, _ = run(["solve", "--genus", "4", "--target", "both"],
                             capsys)
        assert status == 0
        assert out.splitlines()[-1] == "consistency triangle at genus 4: PASS"


GOLDEN = Path(__file__).parent / "golden"

# golden file -> argv; each file is the stdout of `localp2 <argv>` (exit 0)
# recorded before the change that the comment names, so any change in a
# printed number or its formatting fails here
GOLDEN_RUNS = {
    # before the integer-numerator series kernel
    "solve-g3-both-json.out": ["--format", "json", "solve", "--genus", "3",
                               "--target", "both"],
    "solve-g4-both.out": ["solve", "--genus", "4", "--target", "both"],
    "relative-g2-csv.out": ["--format", "csv", "compute", "relative",
                            "--genus", "2"],
    # before the shared graded-polynomial core: 71 elliptic labels through
    # EPoly, and the BModElement, QModElement and EPoly printouts
    "solve-g5-both.out": ["solve", "--genus", "5", "--target", "both"],
    "relative-g3.out": ["compute", "relative", "--genus", "3"],
    "elliptic-g3-211.out": ["compute", "elliptic", "--genus", "3",
                            "--parts", "2,1,1"],
    "elliptic-g3-211-json.out": ["--format", "json", "compute", "elliptic",
                                 "--genus", "3", "--parts", "2,1,1"],
    # before local-side commands stopped building the relative tower
    "verify-hae-g4-local.out": ["verify", "hae", "--genus", "4", "--target",
                                "local"],
    "verify-gap-g4-local.out": ["verify", "gap", "--genus", "4", "--target",
                                "local"],
    # before the polar-only conifold expansion, the q -> Q power table and
    # theta_u by its coefficient formula
    "solve-g8-local.out": ["solve", "--genus", "8", "--target", "local"],
    "selftest.out": ["selftest"],
    # recorded when the CSV format began to print the Eisenstein polynomial
    # as a CSV block instead of a text line
    "elliptic-g2-11-csv.out": ["--format", "csv", "compute", "elliptic",
                               "--genus", "2", "--parts", "1,1"],
    # before one writer took over every JSON and CSV printout: the
    # quasimodular form in JSON, and a nonzero log slot in JSON and CSV
    "relative-g2-json.out": ["--format", "json", "compute", "relative",
                             "--genus", "2"],
    "relative-g1-json.out": ["--format", "json", "compute", "relative",
                             "--genus", "1"],
    "relative-g1-csv.out": ["--format", "csv", "compute", "relative",
                            "--genus", "1"],
    # before the flat conifold coordinate was solved by the closed form of
    # the operator on u^k: the coordinate `that` through u^32
    "mirror-o32-json.out": ["--format", "json", "compute", "mirror",
                            "--order", "32"],
    # before the genus rows of the sheaf side were read in closed form:
    # rows above genus 2
    "ns-compare-g4-d2.out": ["ns", "compare", "--gmax", "4", "--dmax", "2"],
    # before the ambiguity's gap rows were read from the conifold frame:
    # the relative tower through the correspondence at genus 4
    "verify-gap-g4-relative.out": ["verify", "gap", "--genus", "4",
                                   "--target", "relative"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden(name, capsys):
    status, out, _ = run(GOLDEN_RUNS[name], capsys)
    assert status == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("g", [4, 5, 6])
def test_solve_local_is_the_local_half_of_both(g, capsys):
    status, out, _ = run(["solve", "--genus", str(g), "--target", "local"],
                         capsys)
    both = (GOLDEN / f"solve-g{g}-both.out").read_text()
    assert status == 0
    assert out == "".join(both.splitlines(keepends=True)[:2])


LOCAL_SIDE = [["solve", "--genus", "3", "--target", "local"],
              ["verify", "hae", "--genus", "3", "--target", "local"],
              ["verify", "gap", "--genus", "3", "--target", "local"]]


@pytest.mark.parametrize("argv", LOCAL_SIDE, ids=" ".join)
def test_local_side_does_no_elliptic_work(argv, capsys, monkeypatch):
    monkeypatch.setattr(elliptic, "connected_extract", _computing)
    status, _, err = run(argv, capsys)
    assert (status, err) == (0, "")


@pytest.mark.parametrize("what", ["hae", "gap"])
def test_verify_local_genus8(what, capsys):
    status, out, _ = run(["verify", what, "--genus", "8", "--target",
                          "local"], capsys)
    assert status == 0
    assert out.splitlines()[-1].endswith("genus 8 local: PASS")


# q_order -> genus -> (exit status, stderr, golden stdout or None) of
# `localp2 --config <q_order = n> solve --genus g --target both`.  Genus g
# needs q_order >= 2g - 2 (hae.least_q_order), and the consistency triangle
# reads Q^8: below that the input is rejected before any work (exit 2).  The
# goldens at orders 8 and 11 were recorded before the q_order check, and
# solve-g4-both-q8.out before the floor moved from 4g - 5 to 2g - 2.
SMALL_ORDER_RUNS = {
    (5, 3): (2, "error: genus 3 needs q_order >= 8, got 5\n", None),
    (8, 4): (0, "", "solve-g4-both-q8.out"),
    (8, 3): (0, "", "solve-g3-both-q8.out"),
    (11, 4): (0, "", "solve-g4-both-q11.out"),
}


@pytest.mark.parametrize("q_order,genus", sorted(SMALL_ORDER_RUNS))
def test_solve_at_small_q_order(q_order, genus, capsys, tmp_path):
    cfg = tmp_path / "q.cfg"
    cfg.write_text(f"q_order = {q_order}\n")
    status, out, err = run(["--config", str(cfg), "solve", "--genus",
                            str(genus), "--target", "both"], capsys)
    want_status, want_err, golden = SMALL_ORDER_RUNS[q_order, genus]
    assert (status, err) == (want_status, want_err)
    assert out == ((GOLDEN / golden).read_text() if golden else "")


def generator_blocks(text: str) -> list:
    """The *_generators lines of a text-format solve report."""
    return [ln for ln in text.splitlines() if "_generators: " in ln]


@pytest.mark.parametrize("golden", ["solve-g4-both-q8.out",
                                    "solve-g4-both-q11.out"])
def test_generators_do_not_depend_on_q_order(golden):
    # only the flat expansions are cut at q_order
    full = (GOLDEN / "solve-g4-both.out").read_text()
    assert generator_blocks((GOLDEN / golden).read_text()) == \
        generator_blocks(full) != []


@pytest.mark.parametrize("side", ["local", "relative", "both"])
@pytest.mark.parametrize("g", range(2, 9))
def test_least_q_order_accepted_and_next_rejected(g, side, monkeypatch):
    least = max(5, 2 * g - 2, 8 if side == "both" and g >= 3 else 0)
    monkeypatch.setattr(cli, "build_mirror_data", lambda q: q)
    monkeypatch.setattr(cli, "solve_towers", lambda md, g, relative: relative)
    assert cli.solved_towers(RunConfig(q_order=least), g, side) == \
        (least, side != "local")
    if least > 5:
        with pytest.raises(cli.UsageError, match=f"genus {g} needs q_order "
                                                 f">= {least}, got {least - 1}"):
            cli.solved_towers(RunConfig(q_order=least - 1), g, side)


def test_readme_command_lines_parse():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines() if ln.strip()]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        prog, *argv = shlex.split(line.partition("#")[0])
        assert prog == "localp2"
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")

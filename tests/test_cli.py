import json
import re
import shlex
from fractions import Fraction as F
from itertools import takewhile
from pathlib import Path

import pytest

import localp2.acceptance
from localp2 import cli, elliptic
from localp2.cli import RunConfig, load_config, main
from localp2.graded import recognize
from localp2.hae import assert_finite_generation
from localp2.mirror import BModElement, bm_to_qmod, build_mirror_data
from localp2.quasimod import QModElement
from localp2.series import Localp2Error, Powers, RatSeries


def run(argv, capsys):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def _computing(*args, **kwargs):
    raise AssertionError("bad input reached a computation")


def replace_handler(monkeypatch, words, handler):
    """Run ``handler`` for the command ``words``, with the same flags."""
    monkeypatch.setitem(cli.COMMANDS, words, (handler, cli.COMMANDS[words][1]))


def run_rejected(argv, capsys, monkeypatch):
    """Run argv with every entry point into the mathematics replaced by a
    failure (which main reports as exit 3)."""
    for module, name in ((cli.mirror, "build_mirror_data"),
                         (cli.elliptic, "connected_extract"),
                         (cli.hae, "solve_towers"), (cli.hae, "solve_genus")):
        monkeypatch.setattr(module, name, _computing)
    monkeypatch.setattr(localp2.acceptance, "run_report", _computing)
    return run(argv, capsys)


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
                                 d["trunc_order"]).with_log(frac(d["log_coeff"]))
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
    (["solve", "--genus", "1", "--target", "local"], "must be >= 2, got 1"),
    (["solve", "--genus=1", "--target", "local"], "--genus: must be >= 2, got 1"),
    (["compute", "local", "--genus", "-1"], "must be >= 0"),
    (["verify", "gap", "--genus", "0", "--target", "relative"], "must be >= 2"),
    (["verify", "hae", "--genus", "1", "--target", "local"], "must be >= 2"),
    (["verify", "ramanujan", "--order", "-1"], "must be >= 0"),
    (["compute", "mirror", "--order", "3"], "must be >= 5"),
    (["compute", "mirror", "--order", "x"], "invalid integer value"),
    # an integer is ASCII -?[0-9]+, as in the sheaf table: no other digits,
    # no underscores, no sign but "-", no spaces
    (["compute", "local", "--genus", "٢"],
     "argument --genus: invalid integer value: '٢'"),
    (["verify", "ramanujan", "--order", "1_0"],
     "argument --order: invalid integer value: '1_0'"),
    (["verify", "ramanujan", "--order", "+10"], "invalid integer value: '+10'"),
    (["verify", "ramanujan", "--order= 10"], "invalid integer value: ' 10'"),
    (["compute", "elliptic", "--genus", "2", "--parts", "1,１"], "a1,a2"),
    (["--config", "{tmp}/wide.cfg", "compute", "mirror"],
     "config key 'q_order' needs an integer"),
    (["solve", "--genus", "3", "--target", "all"], "invalid choice: 'all'"),
    (["--format", "xml", "compute", "mirror"], "unknown output format 'xml'"),
    # a missing flag, flag value or command word, and an unknown word
    (["solve", "--genus", "3"], "required: --target"),
    (["solve", "--target", "local", "--genus"], "--genus: expected one argument"),
    (["compute"], "'localp2 compute' is not a command"),
    ([], "'localp2' is not a command"),
    (["compute", "bogus"], "'localp2 compute bogus' is not a command"),
    (["bogus", "--genus", "2"], "'localp2 bogus 2' is not a command"),
    (["--config", "{tmp}/q.cfg", "compute", "mirror"], "q_order must be >= 5"),
    (["--config", "{tmp}/text.cfg", "compute", "mirror"], "needs an integer"),
    (["--config", "{tmp}/margin.cfg", "compute", "mirror"],
     "unknown config key 'margin'"),
    (["--config", "{tmp}/missing.cfg", "compute", "mirror"],
     "cannot read config"),
    (["--config", "{tmp}/bytes.cfg", "compute", "mirror"],
     "cannot read config"),
    (["ns", "compare", "--omega", "{tmp}/missing.json"], "cannot read sheaf"),
    # an empty path names no file: it is not read as "not given" (the
    # shipped sheaf table, no config file, stdout)
    (["ns", "compare", "--omega=", "--gmax", "1", "--dmax", "1"],
     "argument --omega: empty value"),
    (["ns", "compare", "--omega", ""], "argument --omega: empty value"),
    (["--config", "{tmp}/empty-omega.cfg", "ns", "compare"],
     "config key 'omega' needs a value"),
    (["--config=", "compute", "mirror"], "argument --config: empty value"),
    (["--out=", "compute", "mirror"], "argument --out: empty value"),
    (["--config", "{tmp}/nul.cfg", "ns", "compare"],
     "cannot read sheaf table a\0b.json: embedded null byte"),
    (["ns", "compare", "--omega", "{tmp}/lopsided.json"], "not palindromic"),
    (["ns", "compare", "--omega", "{tmp}/fractional.json", "--gmax", "0"],
     "degree 1 coefficient 1.9 is not an integer"),
    (["ns", "compare", "--dmax", "5"], "degrees [5]"),
    (["compute", "elliptic", "--genus", "2", "--parts", "1"], "sum to 2"),
    (["compute", "elliptic", "--genus", "2", "--parts", "1,x"], "a1,a2"),
    (["compute", "elliptic", "--genus", "2", "--parts", "2,-1"], "a1,a2"),
    (["compute", "elliptic", "--genus", "2", "--parts", "1,1", "--order", "2"],
     "--order must be >= 3"),
    # a command that prints a solved tower's series, cut at q_order, checks
    # q_order against the genus; verify and ns compare print none (see
    # test_a_check_runs_at_its_least_order)
    (["--config", "{tmp}/q6.cfg", "compute", "local", "--genus", "5"],
     "genus 5 needs q_order >= 8, got 6"),
    (["--config", "{tmp}/q6.cfg", "compute", "relative", "--genus", "5"],
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
    # global flags come before the command words, and no flag is abbreviated
    (["compute", "mirror", "--format", "json"], "unrecognized arguments: --format json"),
    (["compute", "mirror", "--ord", "8"], "unrecognized arguments: --ord 8"),
]


@pytest.mark.parametrize("argv,message", BAD_INPUT,
                         ids=[" ".join(a) for a, _ in BAD_INPUT])
def test_bad_input_exits_2_before_computing(argv, message, tmp_path, capsys,
                                            monkeypatch):
    (tmp_path / "q.cfg").write_text("q_order = 3\n")
    (tmp_path / "q6.cfg").write_text("q_order = 6\n")
    (tmp_path / "text.cfg").write_text("q_order = ten\n")
    (tmp_path / "wide.cfg").write_text("q_order = ３２\n", encoding="utf-8")
    (tmp_path / "bytes.cfg").write_bytes(b"q_order = \xff\n")
    (tmp_path / "margin.cfg").write_text("margin = 10\n")
    (tmp_path / "nul.cfg").write_text("omega = a\0b.json\n")
    (tmp_path / "empty-omega.cfg").write_text("omega =\n")
    (tmp_path / "lopsided.json").write_text(json.dumps({"entries": [
        {"degree": 1, "coeffs": [{"exp2": -2, "c": "1"}, {"exp2": 0, "c": "1"}]},
        {"degree": 2, "coeffs": [{"exp2": 0, "c": "1"}]}]}))
    (tmp_path / "fractional.json").write_text(json.dumps({"entries": [
        {"degree": 1, "coeffs": [{"exp2": -2, "c": 1.9}, {"exp2": 0, "c": 1},
                                 {"exp2": 2, "c": 1.9}]},
        {"degree": 2, "coeffs": [{"exp2": 0, "c": 1}]}]}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    status, out, err = run_rejected(argv, capsys, monkeypatch)
    assert (status, out) == (2, "")
    # one line: no usage block before it
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


def run_broken(capsys, monkeypatch, call):
    """Run a command whose handler prints a line, then calls ``call``."""
    def broken(args, cfg, sink):
        sink("partial output")
        call()

    replace_handler(monkeypatch, ("verify", "ramanujan"), broken)
    return run(["verify", "ramanujan"], capsys)


def bug(*args):
    raise KeyError("bug")


# a bug in a handler, or in the sheaf-table loader that ns compare calls
# inside its own try: the command line turns only bad data into exit 2
@pytest.mark.parametrize("where", ["handler", "ns.load_omega"])
def test_internal_error_exits_3_with_traceback(where, capsys, monkeypatch):
    if where == "handler":
        status, out, err = run_broken(capsys, monkeypatch, bug)
    else:
        monkeypatch.setattr(cli.ns, "load_omega", bug)
        status, out, err = run_rejected(["ns", "compare"], capsys, monkeypatch)
    assert (status, out) == (3, "")
    assert "Traceback" in err and err.splitlines()[-1] == "KeyError: 'bug'"


# a command has checked its orders before it reads a series, so a read past
# a series' truncation order is a bug, not a failed check
@pytest.mark.parametrize("read,message", [
    (lambda s: s.coeff(4), "IndexError: coefficient of q^4 beyond truncation order 3"),
    (lambda s: s.truncate(4), "ValueError: cannot extend truncation order"),
], ids=["coeff", "truncate"])
def test_read_past_truncation_exits_3_with_traceback(read, message, capsys,
                                                     monkeypatch):
    status, out, err = run_broken(capsys, monkeypatch,
                                  lambda: read(RatSeries.one("q", 3)))
    assert (status, out) == (3, "")
    assert "Traceback" in err and err.splitlines()[-1] == message


# the command line checks its input before any work, so a broken
# precondition of the library is a bug: it is never shown as "error:"
@pytest.mark.parametrize("call,message", [
    (lambda: RatSeries.one("q", 3) * RatSeries.one("Q", 3),
     "ValueError: variable mismatch: q vs Q"),
    (lambda: BModElement(0, {(-1, 0): 1}), "ValueError: negative S exponent"),
], ids=["variable", "s-exponent"])
def test_broken_precondition_exits_3_with_traceback(call, message, capsys,
                                                    monkeypatch):
    status, out, err = run_broken(capsys, monkeypatch, call)
    assert (status, out) == (3, "")
    assert "Traceback" in err and err.splitlines()[-1] == message
    assert not any(line.startswith("error:") for line in err.splitlines())


def fail_check():
    """The failed check that series.py, which defines Localp2Error, stands for."""
    raise Localp2Error("check failed")


# one failed exact check from each module that had an error class of its own
# before Localp2Error became the one class; the ids keep those class names
@pytest.mark.parametrize("call,message", [
    (lambda: assert_finite_generation(BModElement(0, {(0, 5): 1}), 0, 2),
     "S^0 X^5 is outside the span"),
    (lambda: bm_to_qmod(BModElement(0, {(0, -1): 1})),
     "element not regular at the orbifold point: {(-3, 0, 1): Fraction(1, 1)}"),
    (lambda: recognize(RatSeries.one("q", 3), (1,), 1,
                       Powers(RatSeries("q", 1, [1, 0, 0]))),
     "series not in the weight-1 span: inconsistent system"),
    (fail_check, "check failed"),
], ids=["GapError", "BModError", "GradedError", "SeriesError"])
def test_failed_check_exits_1_without_traceback(call, message, capsys,
                                                monkeypatch):
    assert run_broken(capsys, monkeypatch, call) == \
        (1, "", f"error: {message}\n")


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
        assert run(["compute", "mirror", "--bogus"], capsys) == \
            (2, "", "error: unrecognized arguments: --bogus\n")

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

    @pytest.mark.parametrize("g", [3, 4])
    def test_consistency_triangle_fails_on_a_wrong_gap_target(self, g, capsys,
                                                              monkeypatch):
        # scale the gap target of F^(g,0), the relative genus g, alone: the route by anomaly +
        # gap then differs from the one through the correspondence
        gamma = cli.hae.gamma

        def skewed(n, genus):
            t = gamma(n, genus)
            return t * (1 + F(1, 10 ** 6)) if (n, genus) == (g, 0) else t
        monkeypatch.setattr(cli.hae, "gamma", skewed)
        # and solve on fresh mirror data, not on those an earlier test left:
        # the conifold propagator goes with its mirror data
        build_mirror_data.cache_clear()
        status, out, _ = run(["solve", "--genus", str(g), "--target", "both"],
                             capsys)
        assert status == 1
        assert out.splitlines()[-1] == f"consistency triangle at genus {g}: FAIL"


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
    # before the anomaly solver was keyed by (n, g): the relative right
    # side, which has no loop term
    "verify-hae-g4-relative.out": ["verify", "hae", "--genus", "4",
                                   "--target", "relative"],
    # before the periods and the conifold coordinate were read from their
    # hypergeometric closed forms: the least mirror order, and order 78
    "mirror-o5.out": ["compute", "mirror", "--order", "5"],
    "mirror-o78-csv.out": ["--format", "csv", "compute", "mirror",
                           "--order", "78"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_golden(name, capsys):
    status, out, _ = run(GOLDEN_RUNS[name], capsys)
    assert status == 0
    assert out == (GOLDEN / name).read_text()


CLI_MIX_GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden" / "cli-mix"


def falsify(monkeypatch, module, name, spoil):
    """Replace ``module.name`` by ``spoil`` of its result."""
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: spoil(fn(*args)))


def ramanujan_b_false(monkeypatch, tmp_path):
    falsify(monkeypatch, cli.quasimod, "derivation_identities", lambda d: {**d, "B": False})
    return ["verify", "ramanujan", "--order", "50"]


def hae_false(monkeypatch, tmp_path):
    falsify(monkeypatch, cli.hae, "verify_hae", lambda rep: {**rep, "ok": False})
    return ["verify", "hae", "--genus", "4", "--target", "relative"]


def gap_doubled(monkeypatch, tmp_path):
    # the solve does not read conifold_expand; only the check does
    falsify(monkeypatch, cli.hae, "conifold_expand", lambda con: con * 2)
    return ["verify", "gap", "--genus", "4", "--target", "local"]


def omega_skewed(monkeypatch, tmp_path):
    # the shipped sheaf table with degree 1's y^0 coefficient 2, not 1
    path = Path(cli.ns.default_omega_path())
    table = json.loads(path.read_text(encoding="utf-8"))
    entry = next(e for e in table["entries"] if e["degree"] == 1)
    next(c for c in entry["coeffs"] if c["exp2"] == 0)["c"] = "2"
    skewed = tmp_path / "skew-omega.json"
    skewed.write_text(json.dumps(table), encoding="utf-8")
    return ["ns", "compare", "--omega", str(skewed)]


def criterion_2_false(monkeypatch, tmp_path):
    criteria = list(localp2.acceptance.ALL_CRITERIA)
    name, fn = criteria[1]
    criteria[1] = name, lambda: (False, fn()[1])
    monkeypatch.setattr(localp2.acceptance, "ALL_CRITERIA", criteria)
    return ["selftest"]


# a check command -> (a patch that makes one of its checks false and returns
# the argv to run, the golden stdout of that argv unpatched, the labels of
# the verdicts that must then read FAIL)
FAIL_CASES = {
    "verify ramanujan": (ramanujan_b_false, CLI_MIX_GOLDEN / "ramanujan-50.out",
                         {"derivation identity for B"}),
    "verify hae": (hae_false, GOLDEN / "verify-hae-g4-relative.out",
                   {"anomaly equation genus 4 relative"}),
    "verify gap": (gap_doubled, GOLDEN / "verify-gap-g4-local.out",
                   {"gap condition genus 4 local"}),
    "ns compare": (omega_skewed, CLI_MIX_GOLDEN / "ns-compare-2-2.out", {"comparison"}),
    # criterion 12 requires every other criterion to pass
    "selftest": (criterion_2_false, GOLDEN / "selftest.out",
                 {"criterion 02 [quasimodular generators and derivation]",
                  "criterion 12 [determinism]"}),
}
VERDICT = re.compile(r"(.*): (PASS|FAIL)(| \(.*\))")


def verdict_rows(text: str) -> list:
    return [m.groups() for m in map(VERDICT.fullmatch, text.splitlines()) if m]


@pytest.mark.parametrize("command", sorted(FAIL_CASES))
def test_one_false_check_fails_the_command(command, capsys, monkeypatch,
                                           tmp_path):
    spoil, golden, failing = FAIL_CASES[command]
    status, out, err = run(spoil(monkeypatch, tmp_path), capsys)
    passing = verdict_rows(golden.read_text())
    assert {what for what, *_ in passing} >= failing
    assert (status, err) == (1, "")
    assert verdict_rows(out) == [
        (what, "FAIL" if what in failing else ok, detail)
        for what, ok, detail in passing]


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
# needs q_order >= 2g - 2 (hae.least_q_order), on every side.  The
# goldens at orders 8 and 11 were recorded before the q_order check,
# solve-g4-both-q8.out before the floor moved from 4g - 5 to 2g - 2, and
# solve-g3-both-q5.out when the two relative routes began to be compared as
# ring elements rather than in flat Q^0..Q^8: its flat lines are those of
# `compute local|relative --genus 3` at q_order 5 before that change.
SMALL_ORDER_RUNS = {
    (5, 3): (0, "", "solve-g3-both-q5.out"),
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


# golden at a small q_order -> the same command's golden at a larger one
SAME_GENERATORS = {"solve-g4-both-q8.out": "solve-g4-both.out",
                   "solve-g4-both-q11.out": "solve-g4-both.out",
                   "solve-g3-both-q5.out": "solve-g3-both-q8.out"}


@pytest.mark.parametrize("golden", sorted(SAME_GENERATORS))
def test_generators_do_not_depend_on_q_order(golden):
    # only the flat expansions are cut at q_order
    full = (GOLDEN / SAME_GENERATORS[golden]).read_text()
    assert generator_blocks((GOLDEN / golden).read_text()) == \
        generator_blocks(full) != []


@pytest.mark.parametrize("side", ["local", "relative", "both"])
@pytest.mark.parametrize("g", range(2, 9))
def test_least_q_order_accepted_and_next_rejected(g, side, monkeypatch):
    least = max(5, 2 * g - 2)
    monkeypatch.setattr(cli.mirror, "build_mirror_data", lambda q: q)
    monkeypatch.setattr(cli.hae, "solve_towers",
                        lambda md, g, relative: relative)
    assert cli.solved_towers(least, g, side) == (least, side != "local")
    if least > 5:
        with pytest.raises(cli.UsageError, match=f"genus {g} needs q_order "
                                                 f">= {least}, got {least - 1}"):
            cli.solved_towers(least - 1, g, side)


class Built(Exception):
    pass


# a command that prints no series -> the mirror order it builds, whatever
# q_order is: the least that solves its genus, and at least its --dmax
LEAST_ORDER_RUNS = [
    (["verify", "hae", "--genus", "2", "--target", "local"], 5),
    (["verify", "gap", "--genus", "4", "--target", "relative"], 6),
    (["verify", "hae", "--genus", "9", "--target", "relative"], 16),
    (["ns", "compare", "--gmax", "0", "--dmax", "1"], 5),
    (["ns", "compare", "--gmax", "6", "--dmax", "4"], 10),
    (["ns", "compare", "--omega", "{tmp}/seven.json", "--gmax", "3", "--dmax",
      "7"], 7),
]


@pytest.mark.parametrize("argv,order", LEAST_ORDER_RUNS,
                         ids=[" ".join(a) for a, _ in LEAST_ORDER_RUNS])
@pytest.mark.parametrize("q_order", [5, 40])
def test_a_check_runs_at_its_least_order(argv, order, q_order, tmp_path,
                                         monkeypatch):
    (tmp_path / "seven.json").write_text(json.dumps({"entries": [
        {"degree": d, "coeffs": [{"exp2": 0, "c": 1}]} for d in range(1, 8)]}))
    built = []

    def build(q):
        built.append(q)
        raise Built

    monkeypatch.setattr(cli.mirror, "build_mirror_data", build)
    args = cli.parse_args([a.format(tmp=tmp_path) for a in argv])
    with pytest.raises(Built):
        cli.COMMANDS[args.words][0](args, RunConfig(q_order=q_order), print)
    assert built == [order]


# goldens recorded at the default q_order, 32, of commands that print no series
CHECK_GOLDENS = ["verify-hae-g4-local.out", "verify-hae-g4-relative.out",
                 "verify-gap-g4-local.out", "verify-gap-g4-relative.out",
                 "ns-compare-g4-d2.out"]


@pytest.mark.parametrize("name", CHECK_GOLDENS)
def test_a_check_prints_its_golden_at_q_order_5(name, capsys, tmp_path):
    (tmp_path / "q5.cfg").write_text("q_order = 5\n")
    status, out, _ = run(["--config", str(tmp_path / "q5.cfg"),
                          *GOLDEN_RUNS[name]], capsys)
    assert status == 0
    assert out == (GOLDEN / name).read_text()


def test_readme_command_lines_parse():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [ln for ln in block.split("```", 1)[0].splitlines() if ln.strip()]
    assert len(lines) >= 10
    for line in lines:
        prog, *argv = shlex.split(line.partition("#")[0])
        assert prog == "localp2"
        try:
            cli.parse_args(argv)
        except cli.UsageError as exc:
            pytest.fail(f"README command does not parse: {line}: {exc}")


class TestParse:
    def test_flag_forms_and_defaults(self):
        args = cli.parse_args(["--format=csv", "verify", "gap", "--genus=2",
                               "--target", "local"])
        assert (args.words, args.format, args.genus, args.target, args.config,
                args.out) == (("verify", "gap"), "csv", 2, "local", None, None)
        assert vars(cli.parse_args(["ns", "compare"])) == {
            "words": ("ns", "compare"), "config": None, "format": None,
            "out": None, "omega": None, "gmax": 2, "dmax": 2}

    def test_last_repeated_flag_counts(self):
        args = cli.parse_args(["--format", "json", "--format", "text", "compute",
                               "local", "--genus", "5", "--genus=1"])
        assert (args.format, args.genus) == ("text", 1)

    def test_value_may_begin_with_a_dash(self):
        args = cli.parse_args(["ns", "compare", "--omega", "-table.json"])
        assert args.omega == "-table.json"

    @pytest.mark.parametrize("side", ["local", "relative"])
    def test_compute_side_reads_its_side_from_the_words(self, side, capsys):
        # one handler serves both sides
        _, computed, _ = run(["compute", side, "--genus", "2"], capsys)
        _, solved, _ = run(["solve", "--genus", "2", "--target", side], capsys)
        first = solved.splitlines()[0]
        assert first.startswith(f"{side}_generators: ")
        assert computed.splitlines()[0] == first.replace(f"{side}_", "", 1)


MODULE_DOC = cli.__doc__


@pytest.mark.parametrize("argv", [["--help"], ["compute", "elliptic", "-h"],
                                  ["compute", "bogus", "--genus", "x", "--help"]],
                         ids=" ".join)
def test_help_prints_the_module_docstring(argv, capsys):
    assert run(argv, capsys) == (0, MODULE_DOC, "")


def docstring_commands() -> dict:
    """The Subcommands block of the module docstring: words -> flags."""
    block = MODULE_DOC.split("\nSubcommands\n", 1)[1].split("\n\n", 1)[0]
    out = {}
    for line in block.splitlines():
        words = takewhile(lambda w: w[0] not in "-[", line.split())
        out[tuple(words)] = re.findall(r"--[a-z]+", line)
    return out


def test_help_lists_every_command_and_flag():
    assert docstring_commands() == {
        words: list(flags) for words, (_, flags) in cli.COMMANDS.items()}
    global_part = MODULE_DOC.split("Global flags", 1)[1].split("A flag's", 1)[0]
    assert re.findall(r"--[a-z]+", global_part) == list(cli.GLOBAL_FLAGS)

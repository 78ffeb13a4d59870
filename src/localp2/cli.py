"""Command line: localp2 [global flags] command words [flags].

Subcommands
    compute mirror    [--order N]
    compute local     --genus G
    compute relative  --genus G
    compute elliptic  --genus H --parts a1,a2,... [--order N]
    solve             --genus G --target local|relative|both
    verify ramanujan  [--order N]
    verify hae        --genus G --target local|relative
    verify gap        --genus G --target local|relative
    ns compare        [--omega PATH] [--gmax G] [--dmax D]
    selftest

Global flags, before the command words: --config FILE, a flat key = value
file setting q_order, format and omega (flags override it); --format
json|csv|text; --out PATH.  A flag's value follows it or its "=", flags are
spelled in full, and -h or --help, anywhere, prints this text.  An integer,
in a flag or the config file, is ASCII -?[0-9]+.
compute and solve print series through q_order, which must be >= 2g - 2
at genus g; verify hae|gap and ns compare print none, so they build mirror
data at the least order their checks read.
compute elliptic takes its nome order from --order, by default the number
of E2/E4/E6 monomials of the label's weight plus 10.

Exit status: 0 on success; 1 when an exact verification fails; 2 on bad
flags or command words or a bad config or data file, before anything is
computed (one "error:" line), or on an --out path that cannot be written,
after it is; 3 on an internal error, whose traceback goes to stderr.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

# the library modules are lazy (see __init__.py): each executes on the first
# read of one of its attributes, so this import reads none and a command
# compiles only the modules it runs.  acceptance is imported by selftest,
# traceback on an internal error and json by --format json and ns.load_omega;
# no module imports argparse or dataclasses (MirrorData is a namedtuple)
from . import elliptic, hae, locrel, mirror, ns, quasimod
from .series import Localp2Error, RatSeries, integer

VERIFY_ERROR = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


class UsageError(Localp2Error):
    """Bad flags or a bad config or data file, found before any work."""


class RunConfig(namedtuple("RunConfig", "q_order format omega",
                           defaults=(32, "text", ""))):
    """The settable values; a config key is an integer when its default is."""

    __slots__ = ()

    def validate(self):
        if self.q_order < 5:
            raise UsageError("q_order must be >= 5")
        if self.format not in ("json", "csv", "text"):
            raise UsageError(f"unknown output format {self.format!r}")


def load_config(path: str | None) -> RunConfig:
    if not path:
        return RunConfig()
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        key, eq, val = (part.strip() for part in line.partition("="))
        if not line.strip() or key.startswith("#"):
            continue
        if not eq:
            raise UsageError(f"config line {lineno} is not key=value")
        if key not in RunConfig._fields:
            raise UsageError(f"unknown config key {key!r}")
        is_int = type(RunConfig._field_defaults[key]) is int
        try:
            values[key] = integer(val) if is_int else val
        except ValueError:
            raise UsageError(f"config key {key!r} needs an integer") from None
    return RunConfig(**values)


# -- emission -------------------------------------------------------------------------

def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write_rows(name: str, obj, cfg: RunConfig, sink, head: dict,
               csv_head: dict, keys, rows, listed: str = "terms"):
    """Print ``obj`` as one JSON object (``head``, then the rows under
    ``listed``), as a ``# name k=v ...`` CSV line and one ``e1,...,num,den``
    line per row, or as ``name: repr``.  ``rows`` are (exponents, Fraction)
    pairs; ``keys`` name the exponents in JSON."""
    if cfg.format == "text":
        sink(f"{name}: {obj!r}")
    elif cfg.format == "json":
        import json
        sink(json.dumps({"name": name, **head, listed: [
            {**dict(zip(keys, exps)), "num": str(v.numerator),
             "den": str(v.denominator)} for exps, v in sorted(rows)]},
            indent=2))
    else:
        sink(" ".join([f"# {name}", *(f"{k}={v}" for k, v in csv_head.items())]))
        for exps, v in sorted(rows):
            sink(",".join(map(str, (*exps, v.numerator, v.denominator))))


def emit_series(name: str, s: RatSeries, cfg: RunConfig, sink):
    lc = s.log_coeff
    _write_rows(name, s, cfg, sink,
                {"variable": s.var, "min_exp": s.min_exp, "trunc_order": s.trunc_order,
                 "log_coeff": {"num": str(lc.numerator), "den": str(lc.denominator)}},
                {"variable": s.var, "log_num": lc.numerator, "log_den": lc.denominator},
                ("exp",), (((k,), Fraction(x, s.den))
                           for k, x in enumerate(s.nums, s.min_exp) if x),
                listed="coeffs")


def _emit_graded(name: str, e, cfg: RunConfig, sink):
    head = {f: getattr(e, f) for f in e.header}
    _write_rows(name, e, cfg, sink, head, head,
                [n.lower() for n in e.names], e.terms.items())


# two functions, not one: the benchmark tracer spans each emitter by name
def emit_qmod(name: str, e: quasimod.QModElement, cfg: RunConfig, sink):
    _emit_graded(name, e, cfg, sink)


def emit_bmod(name: str, e: mirror.BModElement, cfg: RunConfig, sink):
    _emit_graded(name, e, cfg, sink)


# -- command implementations -----------------------------------------------------------

def solved_towers(order: int, g: int, side: str):
    """Mirror data at ``order`` and the towers through genus g, for a
    command that prints or checks ``side`` (local, relative or both).  Only
    a command that needs the relative tower builds it, through the
    correspondence.  An order too small to solve genus g is rejected
    before any work."""
    least = hae.least_q_order(g)
    if order < least:
        raise UsageError(f"genus {g} needs q_order >= {least}, got {order}")
    md = mirror.build_mirror_data(order)
    return md, hae.solve_towers(md, g, side != "local")


def least_order(g: int) -> int:
    """The mirror order for genus g of a command that prints no series."""
    return max(5, 2 * g - 2)


def cmd_compute_mirror(args, cfg, sink) -> int:
    md = mirror.build_mirror_data(args.order or cfg.q_order)
    for name in ("ibar1", "I11", "J", "X", "S", "Qofq", "qofQ", "cQofq", "that"):
        emit_series(name, getattr(md, name), cfg, sink)
    return 0


def cmd_compute_side(args, cfg, sink) -> int:
    g, side = args.genus, args.words[1]
    md, corr = solved_towers(cfg.q_order, g, side)
    if g == 0:
        emit_series("flat_expansion", locrel.flat_expansion(corr, 0, side),
                    cfg, sink)
        return 0
    if g >= 2:
        elt = corr.tower(side).elements[g]
        emit_bmod("generators", elt, cfg, sink)
        emit_qmod("quasimodular_form", mirror.bm_to_qmod(elt), cfg, sink)
    # the flat expansion, read from the printed q-series: one expansion
    ser = locrel.genus_series(corr, g, side)
    emit_series("q_series", ser, cfg, sink)
    emit_series("flat_expansion", mirror.q_to_Q(ser, md), cfg, sink)
    return 0


def cmd_compute_elliptic(args, cfg, sink) -> int:
    label = elliptic.StationaryLabel(args.genus, args.parts)
    if sum(label.parts) != 2 * label.h - 2:
        raise UsageError(f"--parts must sum to 2*genus - 2 = {2 * label.h - 2}")
    least = elliptic.monomial_count(label.weight)
    if args.order is not None and args.order < least:
        raise UsageError(f"--order must be >= {least}, the number of "
                         f"E2/E4/E6 monomials of weight {label.weight}")
    got = elliptic.connected_extract(label, qorder=args.order)
    emit_series("nome_series", got.series, cfg, sink)
    _emit_graded("eisenstein_polynomial", got.value, cfg, sink)
    return 0


def verdicts(sink, rows) -> int:
    """Print one ``what: PASS|FAIL`` line per ``(what, ok[, detail])`` row,
    with `` (detail)`` after it when the row has one: the one place a check
    becomes a verdict and an exit status (0 when every row passes)."""
    status = 0
    for what, ok, *detail in rows:
        sink(f"{what}: {'PASS' if ok else 'FAIL'}" + "".join(f" ({d})" for d in detail))
        status = status if ok else VERIFY_ERROR
    return status


def cmd_solve(args, cfg, sink) -> int:
    g = args.genus
    md, corr = solved_towers(cfg.q_order, g, args.target)
    targets = ("local", "relative") if args.target == "both" else (args.target,)
    for side in targets:
        elt = corr.tower(side).elements[g]
        emit_bmod(f"{side}_generators", elt, cfg, sink)
        emit_series(f"{side}_flat", locrel.flat_expansion(corr, g, side),
                    cfg, sink)
        if side == "relative" and g >= 3:
            sink(f"note: relative genus {g} gap condition is conjectural; "
                 f"cross-route check follows")
    if args.target == "both" and g >= 3:
        # the two routes to the relative series, as ring elements
        agree = corr.relative.elements[g] == hae.solve_genus(g, "relative", md)
        return verdicts(sink, [(f"consistency triangle at genus {g}", agree)])
    return 0


def cmd_verify_ramanujan(args, cfg, sink) -> int:
    checks = quasimod.derivation_identities(args.order)
    return verdicts(sink, [(f"derivation identity for {name}", ok, f"order {args.order}")
                           for name, ok in checks.items()])


def cmd_verify_hae(args, cfg, sink) -> int:
    # no series is printed: the least order that solves the genus will do
    corr = solved_towers(least_order(args.genus), args.genus, args.target)[1]
    rep = hae.verify_hae(*corr.tower(args.target).key(args.genus), corr.grid)
    emit_bmod("anomaly_lhs", rep["lhs"], cfg, sink)
    emit_bmod("anomaly_rhs", rep["rhs"], cfg, sink)
    return verdicts(sink, [(f"anomaly equation genus {args.genus} {args.target}",
                            rep["ok"])])


def cmd_verify_gap(args, cfg, sink) -> int:
    M = 2 * args.genus - 2
    md, corr = solved_towers(least_order(args.genus), args.genus, args.target)
    tower = corr.tower(args.target)
    frame = hae.build_conifold_frame(md)
    con = hae.conifold_expand(tower.elements[args.genus], frame, M)
    ok = [con.coeff(-j) for j in range(1, M + 1)] == \
        hae.gap_conditions(*tower.key(args.genus))
    for j in range(M, 0, -1):
        sink(f"coefficient of t^-{j}: {_frac_str(con.coeff(-j))}")
    return verdicts(sink, [(f"gap condition genus {args.genus} {args.target}", ok)])


def cmd_ns_compare(args, cfg, sink) -> int:
    omega_path = args.omega or cfg.omega or ns.default_omega_path()
    try:
        table = ns.load_omega(omega_path)
    except (OSError, Localp2Error) as exc:
        raise UsageError(f"cannot read sheaf table {omega_path}: {exc}") from exc
    missing = [d for d in range(1, args.dmax + 1) if d not in table]
    if missing:
        raise UsageError(f"--dmax {args.dmax} needs sheaf invariants in "
                         f"degrees {missing}, which {omega_path} lacks")
    corr = solved_towers(max(args.dmax, least_order(args.gmax)), args.gmax,
                         "relative")[1]
    flat = {g: locrel.flat_expansion(corr, g, "relative")
            for g in range(args.gmax + 1)}
    report = ns.compare_ns_relative(table, args.dmax, flat)
    for (g, d), cell in sorted(report["cells"].items()):
        sink(f"g={g} d={d}: sheaf {_frac_str(cell['ns'])} "
             f"vs curve-count {_frac_str(cell['gw'])} "
             f"{'EQUAL' if cell['equal'] else 'DIFFER'}")
    return verdicts(sink, [("comparison", report["ok"])])


def cmd_selftest(args, cfg, sink) -> int:
    from . import acceptance
    rows = acceptance.run_report()
    return verdicts(sink, [*rows, acceptance.criterion_12_determinism(rows)])


# -- command line ----------------------------------------------------------------------

def _value(kind, text):
    """``text`` as a flag's value of ``kind``: a least integer, a tuple of
    choices or a converter."""
    if text is None:
        raise UsageError("expected one argument")
    if isinstance(kind, tuple):
        if text not in kind:
            raise UsageError(f"invalid choice: {text!r} (choose from {', '.join(kind)})")
        return text
    if not isinstance(kind, int):
        return kind(text)
    try:
        value = integer(text)
    except ValueError:
        raise UsageError(f"invalid integer value: {text!r}") from None
    if value < kind:
        raise UsageError(f"must be >= {kind}, got {value}")
    return value


def parts(text: str) -> tuple:
    """``--parts``: comma-separated descendent exponents, each >= 0."""
    try:
        return tuple(_value(0, a) for a in text.split(","))
    except UsageError:
        raise UsageError(f"need exponents >= 0 as a1,a2,...: {text!r}") from None


REQUIRED = "required"
ANY_GENUS = {"--genus": (0, REQUIRED)}
GENUS_SIDE = {"--genus": (2, REQUIRED), "--target": (("local", "relative"), REQUIRED)}
GLOBAL_FLAGS = {"--config": (str, None), "--format": (str, None), "--out": (str, None)}
# command words -> (its handler, {flag: (the kind of its value, see _value;
# its default, or REQUIRED)})
COMMANDS = {
    ("compute", "mirror"): (cmd_compute_mirror, {"--order": (5, None)}),
    ("compute", "local"): (cmd_compute_side, ANY_GENUS),
    ("compute", "relative"): (cmd_compute_side, ANY_GENUS),
    ("compute", "elliptic"): (cmd_compute_elliptic, {
        **ANY_GENUS, "--parts": (parts, REQUIRED), "--order": (1, None)}),
    ("solve",): (cmd_solve, {**GENUS_SIDE, "--target": (
        ("local", "relative", "both"), REQUIRED)}),
    ("verify", "ramanujan"): (cmd_verify_ramanujan, {"--order": (0, 50)}),
    ("verify", "hae"): (cmd_verify_hae, GENUS_SIDE),
    ("verify", "gap"): (cmd_verify_gap, GENUS_SIDE),
    ("ns", "compare"): (cmd_ns_compare, {
        "--omega": (str, None), "--gmax": (0, 2), "--dmax": (1, 2)}),
    ("selftest",): (cmd_selftest, {}),
}


def parse_args(argv) -> SimpleNamespace:
    """The global flags, the command words and the command's flags, as
    ``words`` and one attribute per flag (``--dmax`` as ``dmax``)."""
    words, flags, values, extra = (), GLOBAL_FLAGS, {}, []
    tokens = iter(argv)
    for tok in tokens:
        name, eq, text = tok.partition("=")
        if name in flags:
            try:  # the value follows the flag or its "="; the last one counts
                values[name] = _value(flags[name][0], text if eq else next(tokens, None))
            except UsageError as exc:
                raise UsageError(f"argument {name}: {exc}") from None
        elif tok.startswith("-") or words in COMMANDS:
            extra.append(tok)
        else:
            words += (tok,)
            flags = COMMANDS.get(words, (None, {}))[1]
    if words not in COMMANDS:
        raise UsageError(f"{' '.join(('localp2', *words))!r} is not a command; see --help")
    missing = [f for f, (_, d) in flags.items() if d == REQUIRED and f not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(words=words, **{f[2:]: values.get(f, default) for f, (
        _, default) in {**GLOBAL_FLAGS, **flags}.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__ or "")  # None under python -OO
        return 0
    lines: list[str] = []
    try:
        args = parse_args(argv)
        cfg = load_config(args.config)
        if args.format is not None:
            cfg = cfg._replace(format=args.format)
        cfg.validate()
        status = COMMANDS[args.words][0](args, cfg, lines.append)
    except Localp2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, UsageError) else VERIFY_ERROR
    except Exception:
        # a bug, a read past a checked truncation order among them: keep its traceback
        import traceback
        traceback.print_exc()
        return INTERNAL_ERROR
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())

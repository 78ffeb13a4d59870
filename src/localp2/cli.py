"""Command-line surface.

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

Global flags: --config FILE, a flat key = value file setting q_order,
format and omega (flags override it); --format json|csv|text; --out PATH.
Solving genus g needs q_order >= 2g - 2; ns compare --dmax D needs
q_order >= D; compute elliptic takes its nome order from --order, by
default the number of E2/E4/E6 monomials of the label's weight plus 10.

Exit status: 0 on success; 1 when an exact verification fails; 2 on bad
flags or a bad config or data file, before anything is computed, or on an
--out path that cannot be written, after it is; 3 on an internal error,
whose traceback goes to stderr.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction

# the library modules are lazy (see __init__.py): each executes on the
# first read of one of its attributes, so this import reads none and a
# command compiles only the modules it runs.  argparse is imported by
# build_parser, acceptance by selftest, traceback on an internal error and
# json by --format json and ns.load_omega; files go through the builtin
# open, and no module imports dataclasses (MirrorData is a namedtuple)
from . import elliptic, hae, locrel, mirror, ns, quasimod
from .series import Localp2Error, RatSeries, TruncationError

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
    cfg = RunConfig()
    if not path:
        return cfg
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    values = {}
    int_fields = {k for k, v in RunConfig._field_defaults.items()
                  if isinstance(v, int)}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not key=value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in RunConfig._fields:
            raise UsageError(f"unknown config key {key!r}")
        try:
            values[key] = int(val) if key in int_fields else val
        except ValueError:
            raise UsageError(f"config key {key!r} needs an integer") from None
    return cfg._replace(**values)


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
                {"variable": s.var, "min_exp": s.min_exp,
                 "trunc_order": s.trunc_order,
                 "log_coeff": {"num": str(lc.numerator),
                               "den": str(lc.denominator)}},
                {"variable": s.var, "log_num": lc.numerator,
                 "log_den": lc.denominator},
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

def solved_towers(cfg: RunConfig, g: int, side: str):
    """Mirror data and the towers through genus g, for a command that
    prints or checks ``side`` (local, relative or both).  Only a command
    that needs the relative tower builds it, through the correspondence.
    A q_order too small to solve genus g is rejected before any work."""
    least = hae.least_q_order(g)
    if cfg.q_order < least:
        raise UsageError(f"genus {g} needs q_order >= {least}, "
                         f"got {cfg.q_order}")
    md = mirror.build_mirror_data(cfg.q_order)
    return md, hae.solve_towers(md, g, side != "local")


def cmd_compute_mirror(args, cfg, sink) -> int:
    md = mirror.build_mirror_data(args.order or cfg.q_order)
    for name in ("ibar1", "I11", "J", "X", "S", "Qofq", "qofQ", "cQofq", "that"):
        emit_series(name, getattr(md, name), cfg, sink)
    return 0


def cmd_compute_side(args, cfg, sink, side: str) -> int:
    g = args.genus
    md, corr = solved_towers(cfg, g, side)
    if g == 0:
        emit_series("flat_expansion", locrel.genus0_flat_expansion(md), cfg, sink)
        return 0
    if g == 1:
        ser = locrel.f1_local_series(md)
        if side == "relative":
            ser = corr.solve_relative(1, ser)
        emit_series("q_series", ser, cfg, sink)
        emit_series("flat_expansion", mirror.q_to_Q(ser, md), cfg, sink)
        return 0
    elt = corr.tower(side).elements[g]
    emit_bmod("generators", elt, cfg, sink)
    emit_qmod("quasimodular_form", mirror.bm_to_qmod(elt), cfg, sink)
    emit_series("q_series", mirror.bm_eval(elt, md), cfg, sink)
    emit_series("flat_expansion", mirror.bm_eval(elt, md, target="Q"),
                cfg, sink)
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


def cmd_solve(args, cfg, sink) -> int:
    g = args.genus
    md, corr = solved_towers(cfg, g, args.target)
    status = 0
    targets = ("local", "relative") if args.target == "both" else (args.target,)
    for side in targets:
        elt = corr.tower(side).elements[g]
        emit_bmod(f"{side}_generators", elt, cfg, sink)
        emit_series(f"{side}_flat", mirror.bm_eval(elt, md, target="Q"), cfg,
                    sink)
        if side == "relative" and g >= 3:
            sink(f"note: relative genus {g} gap condition is conjectural; "
                 f"cross-route check follows")
    if args.target == "both" and g >= 3:
        # the two routes to the relative series, as ring elements
        agree = corr.relative.elements[g] == hae.solve_genus(g, "relative", md)
        sink(f"consistency triangle at genus {g}: "
             f"{'PASS' if agree else 'FAIL'}")
        if not agree:
            status = VERIFY_ERROR
    return status


def cmd_verify_ramanujan(args, cfg, sink) -> int:
    checks = quasimod.derivation_identities(args.order)
    for name, ok in checks.items():
        sink(f"derivation identity for {name}: {'PASS' if ok else 'FAIL'} "
             f"(order {args.order})")
    return 0 if all(checks.values()) else VERIFY_ERROR


def cmd_verify_hae(args, cfg, sink) -> int:
    tower = solved_towers(cfg, args.genus, args.target)[1].tower(args.target)
    rep = hae.verify_hae(args.genus, args.target, tower)
    emit_bmod("anomaly_lhs", rep["lhs"], cfg, sink)
    emit_bmod("anomaly_rhs", rep["rhs"], cfg, sink)
    sink(f"anomaly equation genus {args.genus} {args.target}: "
         f"{'PASS' if rep['ok'] else 'FAIL'}")
    return 0 if rep["ok"] else VERIFY_ERROR


def cmd_verify_gap(args, cfg, sink) -> int:
    md, corr = solved_towers(cfg, args.genus, args.target)
    elt = corr.tower(args.target).elements[args.genus]
    frame = hae.build_conifold_frame(md)
    M = 2 * args.genus - 2
    con = hae.conifold_expand(elt, frame, M)
    ok = [con.coeff(-j) for j in range(1, M + 1)] == \
        hae.gap_conditions(args.genus, args.target)
    for j in range(M, 0, -1):
        sink(f"coefficient of t^-{j}: {_frac_str(con.coeff(-j))}")
    sink(f"gap condition genus {args.genus} {args.target}: "
         f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else VERIFY_ERROR


def cmd_ns_compare(args, cfg, sink) -> int:
    if args.dmax > cfg.q_order:
        raise UsageError(f"--dmax {args.dmax} needs q_order >= {args.dmax}, "
                         f"got {cfg.q_order}")
    omega_path = args.omega or cfg.omega or ns.default_omega_path()
    try:
        table = ns.load_omega(omega_path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot read sheaf table {omega_path}: {exc}") from exc
    missing = [d for d in range(1, args.dmax + 1) if d not in table]
    if missing:
        raise UsageError(f"--dmax {args.dmax} needs sheaf invariants in "
                         f"degrees {missing}, which {omega_path} lacks")
    flat = locrel.relative_flat_tower(
        solved_towers(cfg, args.gmax, "relative")[1], args.gmax)
    report = ns.compare_ns_relative(table, args.gmax, args.dmax, flat)
    for (g, d), cell in sorted(report["cells"].items()):
        sink(f"g={g} d={d}: sheaf {_frac_str(cell['ns'])} "
             f"vs curve-count {_frac_str(cell['gw'])} "
             f"{'EQUAL' if cell['equal'] else 'DIFFER'}")
    sink(f"comparison: {'PASS' if report['ok'] else 'FAIL'}")
    return 0 if report["ok"] else VERIFY_ERROR


def cmd_selftest(args, cfg, sink) -> int:
    from . import acceptance
    report = acceptance.run_report()
    ok12, detail = acceptance.criterion_12_determinism(report)
    report += f"criterion 12 [determinism]: {'PASS' if ok12 else 'FAIL'} " \
              f"({detail})\n"
    sink(report.rstrip("\n"))
    return 0 if ("FAIL" not in report) else VERIFY_ERROR


# -- parser ------------------------------------------------------------------------------

def build_parser():
    """The argparse parser of every command; argparse is imported here, on
    the one path that parses a command line."""
    import argparse

    def int_at_least(least: int):
        """argparse type: an integer >= least."""
        def integer(text: str) -> int:
            value = int(text)  # argparse reports a ValueError as an invalid value
            if value < least:
                raise argparse.ArgumentTypeError(
                    f"must be >= {least}, got {value}")
            return value
        return integer

    def parts(text: str) -> tuple:
        """argparse type: comma-separated descendent exponents, each >= 0."""
        try:
            return tuple(int_at_least(0)(a) for a in text.split(","))
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                f"need exponents >= 0 as a1,a2,...: {text!r}") from None

    p = argparse.ArgumentParser(prog="localp2", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--format", choices=("json", "csv", "text"), default=None)
    p.add_argument("--out", help="write output to a file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="series computations")
    csub = comp.add_subparsers(dest="what", required=True)
    m = csub.add_parser("mirror")
    m.add_argument("--order", type=int_at_least(5), default=None)
    m.set_defaults(fn=cmd_compute_mirror)
    for side in ("local", "relative"):
        c = csub.add_parser(side)
        c.add_argument("--genus", type=int_at_least(0), required=True)
        c.set_defaults(fn=lambda a, cf, s, side=side: cmd_compute_side(a, cf, s, side))
    e = csub.add_parser("elliptic")
    e.add_argument("--genus", type=int_at_least(0), required=True)
    e.add_argument("--parts", type=parts, required=True)
    e.add_argument("--order", type=int, default=None)
    e.set_defaults(fn=cmd_compute_elliptic)

    s = sub.add_parser("solve", help="anomaly + gap determination")
    s.add_argument("--genus", type=int_at_least(2), required=True)
    s.add_argument("--target", choices=("local", "relative", "both"),
                   required=True)
    s.set_defaults(fn=cmd_solve)

    v = sub.add_parser("verify", help="exact identity checks")
    vsub = v.add_subparsers(dest="what", required=True)
    vr = vsub.add_parser("ramanujan")
    vr.add_argument("--order", type=int_at_least(0), default=50)
    vr.set_defaults(fn=cmd_verify_ramanujan)
    for what, fn in (("hae", cmd_verify_hae), ("gap", cmd_verify_gap)):
        vx = vsub.add_parser(what)
        vx.add_argument("--genus", type=int_at_least(2), required=True)
        vx.add_argument("--target", choices=("local", "relative"),
                        required=True)
        vx.set_defaults(fn=fn)

    n = sub.add_parser("ns", help="sheaf-counting comparisons")
    nsub = n.add_subparsers(dest="what", required=True)
    nc = nsub.add_parser("compare")
    nc.add_argument("--omega", default=None)
    nc.add_argument("--gmax", type=int_at_least(0), default=2)
    nc.add_argument("--dmax", type=int_at_least(1), default=2)
    nc.set_defaults(fn=cmd_ns_compare)

    st = sub.add_parser("selftest", help="run all acceptance criteria")
    st.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    lines: list[str] = []
    try:
        cfg = load_config(args.config)
        if args.format is not None:
            cfg = cfg._replace(format=args.format)
        cfg.validate()
        status = args.fn(args, cfg, lines.append)
    except Exception as exc:
        if isinstance(exc, Localp2Error) and not isinstance(exc, TruncationError):
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR if isinstance(exc, UsageError) else VERIFY_ERROR
        # a bug, a read past a checked truncation order among them: keep
        # its traceback
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

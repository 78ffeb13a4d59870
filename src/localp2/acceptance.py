"""End-to-end verification criteria.

Each criterion returns (ok, detail); the detail strings are deterministic
so that reports can be compared row for row across runs.  All
comparisons are exact rational equality.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod

from .elliptic import (
    EPoly,
    StationaryLabel,
    connected_extract,
    stationary_value,
)
from .hae import (
    build_conifold_frame,
    conifold_expand,
    gap_conditions,
    solve_genus,
    solve_towers,
    verify_hae,
)
from .locrel import (
    D3F0,
    Correspondence,
    f1_relative_series,
    flat_expansion,
    genus_series,
)
from .mirror import (
    BModElement,
    bm_derive_D,
    bm_eval,
    bm_to_qmod,
    build_mirror_data,
    cq_change,
)
from .ns import compare_ns_relative, default_omega_path, load_omega
from .quasimod import (
    QModElement,
    derivation_identities,
    generator_series,
    qm_to_qseries,
)
from .series import RatSeries

F = Fraction

MIRROR_ORDER = 32

F2_LOCAL = BModElement(0, {(3, -1): F(5, 8), (2, 0): F(1, 8), (1, 1): F(1, 96),
                           (0, 2): F(1, 4320), (0, 1): F(1, 4320),
                           (0, 0): F(-1, 2160)})
F2_RELATIVE = BModElement(0, {(1, 1): F(1, 384), (0, 2): F(-1, 360),
                              (0, 1): F(1, 240), (0, 0): F(-1, 720)})


@lru_cache(maxsize=1)
def context():
    """Shared expensive state ``(md, corr, direct)``: mirror data, both
    towers through genus 3 (``corr``: local by anomaly + gap, relative
    through the correspondence), and the relative tower through genus 3
    solved directly by anomaly + gap (``direct.relative``)."""
    md = build_mirror_data(MIRROR_ORDER)
    corr = solve_towers(md, 3, True)
    direct = Correspondence(md)
    solve_genus(3, "relative", md, direct)
    return md, corr, direct


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# -- holomorphic anomaly equation for the curve --------------------------------------

def elliptic_hae_check(label: StationaryLabel) -> dict:
    """Verify -24 d/dE2 F_{h,a} against the loop + splitting - gluing
    combination dictated by the anomaly equation, in Q[E2,E4,E6].

    Each term sums over the label's values a with multiplicities m_a: an
    ordered pair of values (a, b) stands for m_a m_b pairs of points, or
    m_a (m_a - 1) when a = b, and a sub-multiset k for prod_a C(m_a, k_a)
    splittings.  Returns a report dict; report["ok"] is the verdict.
    """
    # connected_extract rejects a label off the dimension constraint and
    # the one unstable label that meets it, (1, ())
    lhs = connected_extract(label).value.partial("E2") * (-24)
    h, parts = label
    mult = Counter(parts)

    def value(g, side, out, into):  # side with the values out replaced by into
        return stationary_value(g, [*(side - Counter(out) + Counter(into)).elements()])

    def lowered(g, side):  # summed over the points of side, lowered by one
        return sum((m * value(g, side, [a], [a - 1]) for a, m in side.items()),
                   EPoly.zero())

    loop = split = glue = EPoly.zero()
    for a, m in mult.items():
        loop += m * value(h - 1, mult, [a], [a - 2])
        for b, n in mult.items():
            if w := m * (n - (a == b)):
                loop += w * value(h - 1, mult, [a, b], [a - 1, b - 1])
                glue += w * comb(a + b + 1, a) * value(h, mult, [a, b], [a + b])
    if (h, parts) == (1, (0,)):
        # the unstable genus-zero three-point value survives the string
        # equation reduction and contributes exactly 1
        loop += 1
    for ks in product(*(range(m + 1) for m in mult.values())):
        side = Counter({a: k for a, k in zip(mult, ks) if k})
        s1 = sum(a * k for a, k in side.items()) - 1
        if side and side != mult and s1 % 2 == 0:
            h1 = s1 // 2 + 1
            split += (prod(map(comb, mult.values(), ks)) * lowered(h1, side)
                      * lowered(h - h1, mult - side))

    rhs = loop + split - 2 * glue
    return {"label": (h, parts), "lhs": lhs, "rhs": rhs, "loop": loop,
            "split": split, "glue": glue, "ok": lhs == rhs}


# -- criteria ---------------------------------------------------------------------------

def criterion_1_mirror_map():
    md = context()[0]
    got_q = md.Qofq.coeff_list(1, 6)
    got_inv = md.qofQ.coeff_list(1, 6)
    want_q = [1, -6, 63, -866, 13899, -246366]
    want_inv = [1, 6, 9, 56, -300, 3942]
    ok = got_q == want_q and got_inv == want_inv
    return ok, (f"flat map [{', '.join(map(_fmt, got_q))}], "
                f"inverse [{', '.join(map(_fmt, got_inv))}]")


def criterion_2_quasimodular_generators():
    a = generator_series("A", 9).coeff_list(0, 9)
    c = generator_series("C", 7).coeff_list(0, 7)
    cusp = ((QModElement.gen("A") ** 3 - QModElement.gen("C")) / 27)
    cusp_exp = qm_to_qseries(cusp, 7).coeff_list(0, 7)
    ok = (a == [1, 6, 0, 6, 6, 0, 0, 12, 0, 6]
          and c == [1, -9, 27, -9, -117, 216, 27, -450]
          and cusp_exp == [0, 1, 3, 9, 13, 24, 27, 50])
    ok = ok and all(derivation_identities(50).values())
    return ok, "generator expansions and derivation identities to order 50"


def criterion_3_period_bridge():
    md = context()[0]
    order = 30
    ok = cq_change(generator_series("A", order), md).agrees_with(md.I11, order)
    rhs_b = md.I11 ** 2 * (md.X + 6 * md.S) / md.X
    ok = ok and cq_change(generator_series("B", order), md).agrees_with(rhs_b, order)
    rhs_c = md.I11 ** 3 / md.X
    ok = ok and cq_change(generator_series("C", order), md).agrees_with(rhs_c, order)
    return ok, "A, B, C pull back to I11, I11^2(X+6S)/X, I11^3/X through q^30"


def criterion_4_genus0():
    md, corr, _ = context()
    # the third derivative against the period ratio route
    lhs = bm_eval(D3F0, md)
    i12_ratio = (md.J / md.I11)
    rhs = (RatSeries.one("q", md.order) + i12_ratio.theta()) * (-9) / md.I11
    ok = lhs.agrees_with(rhs, md.order - 4)
    ok = ok and bm_derive_D(D3F0) == BModElement.monomial(81, 1, 1, i11_degree=4)
    flat = flat_expansion(corr, 0, "local")
    want = [F(3), F(-45, 8), F(244, 9), F(-12333, 64), F(211878, 125)]
    got = flat.coeff_list(1, 5)
    ok = ok and got == want
    return ok, "flat genus-0 coefficients " + ", ".join(map(_fmt, got))


def criterion_5_elliptic_tower():
    e2, e4, e6 = EPoly.gen(2), EPoly.gen(4), EPoly.gen(6)
    checks = [
        (StationaryLabel(1, (0,)), e2 * F(-1, 24)),
        (StationaryLabel(1, (0, 0)), (e2 * e2 - e4) * F(-1, 288)),
        (StationaryLabel(2, (1, 1)),
         (2 * e6 + 3 * e2 * e4 - 5 * e2 ** 3) * F(-1, 25920)),
        (StationaryLabel(2, (2,)), (2 * e4 + 5 * e2 ** 2) / 5760),
    ]
    ok = all(connected_extract(lbl).value == want for lbl, want in checks)
    ok = ok and elliptic_hae_check(StationaryLabel(2, (1, 1)))["ok"]
    ok = ok and elliptic_hae_check(StationaryLabel(2, (2,)))["ok"]
    return ok, "four stationary extractions and two anomaly identities"


def criterion_6_genus1():
    md = context()[0]
    corr = Correspondence(md)
    got = genus_series(corr, 1, "relative")
    expect = f1_relative_series(md)
    ok = got.agrees_with(expect, md.order - 1)
    flat = flat_expansion(corr, 1, "relative")
    want = [F(7, 8), F(-129, 16), F(589, 6), F(-43009, 32), F(392691, 20)]
    coeffs = flat.coeff_list(1, 5)
    ok = ok and coeffs == want and flat.log_coeff == F(-1, 24)
    return ok, "genus-1 solve, flat coefficients " + ", ".join(map(_fmt, coeffs))


def criterion_7_genus2():
    md = context()[0]
    corr = Correspondence(md)
    d = corr.relative.D
    # the genus-2 labels, one term each: ((h, parts, leg coefficient), value)
    inter = [
        ((1, (0,), d(1, 2)), BModElement(
            0, {(2, 0): F(-1, 16), (1, 1): F(5, 192), (1, 0): F(-1, 24),
                (0, 2): F(1, 96), (0, 1): F(-1, 96)})),
        ((2, (1, 1), d(0, 3) * d(0, 3)), BModElement(
            0, {(3, -1): F(-1, 2), (2, 0): F(-3, 8), (1, 1): F(-11, 120),
                (1, 0): F(1, 60), (0, 2): F(-1, 135), (0, 1): F(7, 1080),
                (0, 0): F(1, 1080)})),
        ((2, (2,), -d(0, 4)), BModElement(
            0, {(3, -1): F(9, 8), (2, 0): F(9, 16), (1, 1): F(47, 640),
                (1, 0): F(1, 40)})),
    ]
    ok = all(corr.correction_value(*label) == want
             for label, want in inter)
    ok = ok and corr.solve_relative(2, F2_LOCAL) == F2_RELATIVE
    flat = flat_expansion(corr, 2, "relative")
    want = [F(29, 640), F(-207, 64), F(18447, 160), F(-526859, 160),
            F(5385429, 64)]
    got = flat.coeff_list(1, 5)
    ok = ok and got == want
    return ok, "three intermediates, closed form, flat coefficients " + \
        ", ".join(map(_fmt, got))


def criterion_8_anomaly_genus2():
    _, corr, direct = context()
    rep_rel = verify_hae(2, 0, direct.grid)
    rep_loc = verify_hae(0, 2, corr.grid)
    ok = rep_rel["ok"] and rep_loc["ok"]
    return ok, "polynomial anomaly identities at genus 2, both theories"


def criterion_9_conifold_gap():
    md = context()[0]
    frame = build_conifold_frame(md)
    loc = conifold_expand(F2_LOCAL, frame, 2)
    rel = conifold_expand(F2_RELATIVE, frame, 2)
    ok = (loc.coeff(-1) == 0 and loc.coeff(-2) == F(-1, 80)
          and rel.coeff(-1) == 0 and rel.coeff(-2) == F(-7, 1920))
    ok = ok and gap_conditions(0, 2) == [0, F(-1, 80)]
    ok = ok and gap_conditions(2, 0) == [0, F(-7, 1920)]
    return ok, (f"local pole pair ({_fmt(loc.coeff(-2))}, {_fmt(loc.coeff(-1))}), "
                f"relative pole pair ({_fmt(rel.coeff(-2))}, {_fmt(rel.coeff(-1))})")


def criterion_10_genus3_triangle():
    md, corr, direct = context()
    ok = corr.relative.elements[3] == direct.relative.elements[3]
    qm = bm_to_qmod(direct.relative.elements[3])
    ok = ok and qm.c_pole <= 4 and qm.weight == 0
    ok = ok and all(bexp <= 3 for _, bexp, _ in qm.terms)
    flat = flat_expansion(corr, 3, "relative")
    head = ", ".join(_fmt(flat.coeff(k)) for k in range(1, 5))
    return ok, f"two routes agree; flat head {head}; pole {qm.c_pole}, " \
        f"B-degree {max((b for _, b, _ in qm.terms), default=0)}"


def criterion_11_ns_limit():
    direct = context()[2]
    table = load_omega(default_omega_path())
    report = compare_ns_relative(
        table, 2, {g: flat_expansion(direct, g, "relative") for g in range(3)})
    cells = ", ".join(f"(g={g},d={d}):{'=' if report['cells'][(g, d)]['equal'] else '!'}"
                      for g in range(3) for d in (1, 2))
    return report["ok"], cells


ALL_CRITERIA = [
    ("mirror map coefficients", criterion_1_mirror_map),
    ("quasimodular generators and derivation", criterion_2_quasimodular_generators),
    ("period bridge", criterion_3_period_bridge),
    ("genus 0 derivatives and flat expansion", criterion_4_genus0),
    ("elliptic stationary tower", criterion_5_elliptic_tower),
    ("genus 1 correspondence", criterion_6_genus1),
    ("genus 2 correspondence", criterion_7_genus2),
    ("anomaly equations at genus 2", criterion_8_anomaly_genus2),
    ("conifold gap at genus 2", criterion_9_conifold_gap),
    ("genus 3 consistency triangle", criterion_10_genus3_triangle),
    ("sheaf-counting limit", criterion_11_ns_limit),
]


def run_report() -> list:
    """The ``(label, ok, detail)`` rows of criteria 1-11, in a fixed order."""
    return [(f"criterion {idx:02d} [{name}]", *fn())
            for idx, (name, fn) in enumerate(ALL_CRITERIA, start=1)]


def criterion_12_determinism(first: list) -> tuple:
    """The row of criterion 12: every row of the process's first
    (cold-cache) report, ``first``, passes, and one warm rerun that reuses
    every cache the first run filled gives the same rows."""
    return ("criterion 12 [determinism]",
            all(ok for _, ok, _ in first) and run_report() == first,
            "first report and a warm-cache rerun compared")

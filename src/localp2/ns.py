"""Free energy in the Nekrasov-Shatashvili limit from refined sheaf
invariants.

For each degree d, the input is a palindromic Laurent polynomial in the
half-integer variable y^(1/2) whose value at y = 1 is the genus-0 BPS
number.  The degree-D column of the free energy is

    sum over k*d = D of  (1/k^2) * Omega_d(e^{i k hbar / 2}) / (2 sin(k hbar / 2)),

an odd Laurent series in hbar with a first-order pole, expanded exactly
over the rationals (the palindromic symmetry turns every evaluation into a
cosine sum).  The multicover weight 1/k^2 is forced by the genus-0
specialization: the hbar^(-1) row must reproduce the 1/k^3 Aspinwall-
Morrison structure of the flat genus-0 expansion.  Genus rows follow from

    F = sum_g (-1)^g F_g hbar^(2g-1).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

from .series import Localp2Error, RatSeries

F = Fraction

HBAR = "hbar"


class OmegaError(Localp2Error):
    pass


def load_omega(path) -> dict:
    """Read the JSON table as {degree: {exponent in half-units: integer
    coefficient}}; each degree must be palindromic."""
    entries: dict = {}
    for item in json.loads(Path(path).read_text())["entries"]:
        d = int(item["degree"])
        pairs = {int(c["exp2"]): int(c["c"]) for c in item["coeffs"]}
        entries[d] = out = {e: c for e, c in pairs.items() if c}
        for e, c in out.items():
            if out.get(-e) != c:
                raise OmegaError(f"degree {d} invariants are not palindromic "
                                 f"at half-exponent {e}")
    return entries


def default_omega_path() -> Path:
    return Path(__file__).parent / "data" / "omega_p2.json"


# -- exact trigonometric series -------------------------------------------------------

def _cos_series(a: Fraction, order: int) -> RatSeries:
    coeffs = [F(0)] * (order + 1)
    for m in range(0, order // 2 + 1):
        coeffs[2 * m] = (-1) ** m * a ** (2 * m) / factorial(2 * m)
    return RatSeries(HBAR, 0, coeffs)


def _inv_2sin_half(k: int, order: int) -> RatSeries:
    """1/(2 sin(k hbar / 2)) as an exact Laurent series."""
    coeffs = [F(0)] * (order + 2)
    for m in range(0, (order + 1) // 2 + 1):
        e = 2 * m + 1
        if e <= order + 1:
            coeffs[e] = 2 * (-1) ** m * F(k, 2) ** e / factorial(e)
    s = RatSeries(HBAR, 0, coeffs).trim()
    return RatSeries.one(HBAR, order + 1) / s


def omega_cosine_sum(poly: dict, k: int, order: int) -> RatSeries:
    """Omega_d evaluated at e^{i k hbar / 2}: the palindromic pairs become
    2 cos(e k hbar / 2)."""
    out = RatSeries.zero(HBAR, order)
    if 0 in poly:
        out = out + RatSeries.const(HBAR, poly[0], order)
    for e in sorted(x for x in poly if x > 0):
        out = out + 2 * poly[e] * _cos_series(F(e * k, 2), order)
    return out


def ns_free_energy(table: dict, dmax: int, hbar_order: int) -> dict:
    """Degree columns of the free energy, exact odd Laurent series."""
    out: dict[int, RatSeries] = {}
    for D in range(1, dmax + 1):
        col = RatSeries(HBAR, -1, [F(0)] * (hbar_order + 2))
        for k in range(1, D + 1):
            if D % k:
                continue
            d = D // k
            if d not in table:
                raise OmegaError(f"degree {d} missing from the sheaf table")
            term = omega_cosine_sum(table[d], k, hbar_order + 1) \
                * _inv_2sin_half(k, hbar_order) * F(1, k * k)
            col = col + term
        out[D] = col
    return out


def ns_genus(table: dict, g: int, dmax: int) -> RatSeries:
    """(-1)^g-normalized coefficient of hbar^(2g-1) as a flat-degree series."""
    cols = ns_free_energy(table, dmax, 2 * g + 1)
    coeffs = [F(0)] * (dmax + 1)
    for D, col in cols.items():
        coeffs[D] = (-1) ** g * col.coeff(2 * g - 1)
    return RatSeries("Q", 0, coeffs)


def compare_ns_relative(table: dict, gmax: int, dmax: int,
                        relative_flat: dict) -> dict:
    """Per-(g, d) equality verdicts against the log-free flat expansions of
    the relative tower (a dict g -> RatSeries in Q)."""
    verdicts = {}
    ok = True
    for g in range(0, gmax + 1):
        ns_row = ns_genus(table, g, dmax)
        flat = relative_flat[g]
        for d in range(1, dmax + 1):
            lhs = ns_row.coeff(d)
            rhs = flat.coeff(d)
            verdicts[(g, d)] = {"ns": lhs, "gw": rhs, "equal": lhs == rhs}
            ok = ok and lhs == rhs
    return {"ok": ok, "cells": verdicts}

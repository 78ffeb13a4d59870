"""Free energy in the Nekrasov-Shatashvili limit from refined sheaf
invariants.

For each degree d, the input is a palindromic Laurent polynomial
Omega_d = sum_e c_e y^(e/2) whose value at y = 1 is the genus-0 BPS
number.  The degree-D column of the free energy is

    sum over k*d = D of  (1/k^2) * Omega_d(e^{i k hbar / 2}) / (2 sin(k hbar / 2)),

an odd Laurent series in hbar with a first-order pole.  The multicover
weight 1/k^2 is forced by the genus-0 specialization: the hbar^(-1) row
must reproduce the 1/k^3 Aspinwall-Morrison structure of the flat genus-0
expansion.  Genus rows follow from F = sum_g (-1)^g F_g hbar^(2g-1); each
term is a function of z = i k hbar, so the (-1)^g cancels and no
hbar-series is built:

    F_g(D) = sum_{k | D} k^(2g-3) R_g(Omega_{D/k}),
    R_g(Omega) = [z^(2g-1)] Omega(e^(z/2)) / (2 sinh(z/2))
               = sum_{m=0..g} (sum_e c_e e^(2m)) / (4^m (2m)!) * p(2g-2m-1),

where p(j) = [z^j] 1/(2 sinh(z/2)) is ``quasimod.inv_2sinh``.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from math import factorial

from .quasimod import inv_2sinh
from .series import Localp2Error, RatSeries

F = Fraction


class OmegaError(Localp2Error):
    pass


def _integer(value, what: str) -> int:
    """A JSON integer (not a bool) or a string of one."""
    if type(value) is int or (isinstance(value, str)
                              and re.fullmatch(r"-?[0-9]+", value)):
        return int(value)
    raise OmegaError(f"{what} {value!r} is not an integer")


def load_omega(path) -> dict:
    """Read the JSON table as {degree: {exponent in half-units: integer
    coefficient}}; degrees are distinct and >= 1, exponents distinct within
    a degree, and each degree is palindromic."""
    import json

    with open(path) as f:
        table = json.load(f)
    entries: dict = {}
    for item in table["entries"]:
        d = _integer(item["degree"], "degree")
        if d < 1 or d in entries:
            why = "repeated" if d in entries else "below 1"
            raise OmegaError(f"degree {d} is {why}")
        pairs: dict = {}
        for c in item["coeffs"]:
            e = _integer(c["exp2"], f"degree {d} half-exponent")
            if e in pairs:
                raise OmegaError(f"degree {d} repeats half-exponent {e}")
            pairs[e] = _integer(c["c"], f"degree {d} coefficient")
        entries[d] = out = {e: c for e, c in pairs.items() if c}
        for e, c in out.items():
            if out.get(-e) != c:
                raise OmegaError(f"degree {d} invariants are not palindromic "
                                 f"at half-exponent {e}")
    return entries


def default_omega_path() -> str:
    return os.path.join(os.path.dirname(__file__), "data", "omega_p2.json")


def _sheaf_row(poly: dict, g: int) -> Fraction:
    """R_g(Omega) = [z^(2g-1)] Omega(e^(z/2)) / (2 sinh(z/2)); the power
    sums stay integers, one Fraction per m."""
    return sum((F(sum(c * e ** (2 * m) for e, c in poly.items()),
                  4 ** m * factorial(2 * m)) * inv_2sinh(2 * g - 2 * m - 1)
                for m in range(g + 1)), F(0))


def ns_genus(table: dict, g: int, dmax: int) -> RatSeries:
    """F_g, the (-1)^g-normalized coefficient of hbar^(2g-1), as a
    flat-degree series through Q^dmax."""
    rows = {}
    for d in range(1, dmax + 1):
        if d not in table:
            raise OmegaError(f"degree {d} missing from the sheaf table")
        rows[d] = _sheaf_row(table[d], g)
    return RatSeries("Q", 0, [F(0)] + [
        sum(F(k) ** (2 * g - 3) * rows[D // k]
            for k in range(1, D + 1) if D % k == 0)
        for D in range(1, dmax + 1)])


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

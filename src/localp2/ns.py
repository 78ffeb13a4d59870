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

The sheaf table is a UTF-8 JSON object whose "entries" list holds one
object per degree, {"degree": d, "coeffs": [{"exp2": e, "c": c}, ...]};
other keys, such as "provenance", are ignored.  Every integer field is a
JSON integer or a string that the command line's one integer rule,
``series.integer``, reads.  ``load_omega`` decides what a bad table is: it
raises Localp2Error for each, naming the entry and the field.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial

from .quasimod import inv_2sinh
from .series import Localp2Error, RatSeries, integer

F = Fraction


# the JSON kind of each type that json.loads returns
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a number", bool: "a boolean", type(None): "null"}


def _integer(value, what: str) -> int:
    """A JSON integer (not a bool) or a string of one."""
    try:
        return value if type(value) is int else integer(value)
    except ValueError:
        raise Localp2Error(f"{what} {value!r} is not an integer") from None


def _field(obj, key: str, where: str, is_list: bool = False):
    """The value of ``key`` in ``obj``, the JSON object at ``where`` in the
    table, and a list when ``is_list``; any other shape raises Localp2Error
    naming ``where`` and ``key``."""
    if type(obj) is not dict:
        raise Localp2Error(f"{where} is {_KINDS[type(obj)]}, not an object "
                           f"with field {key!r}")
    if key not in obj:
        raise Localp2Error(f"{where} has no field {key!r}")
    value = obj[key]
    if is_list and type(value) is not list:
        raise Localp2Error(f"field {key!r} of {where} is "
                           f"{_KINDS[type(value)]}, not a list")
    return value


def load_omega(path) -> dict:
    """Read the JSON table as {degree: {exponent in half-units: integer
    coefficient}}; degrees are distinct and >= 1, exponents distinct within
    a degree, and each degree is palindromic."""
    import json

    try:
        with open(path, "rb") as f:
            data = f.read()
    except ValueError as exc:  # a NUL in the path, such as from a config file
        raise Localp2Error(str(exc)) from None
    try:
        table = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise Localp2Error(f"not UTF-8 at byte {exc.start}") from None
    except (ValueError, RecursionError) as exc:  # bad, too long or too deep
        raise Localp2Error(f"not JSON: {exc}") from None
    entries: dict = {}
    for i, item in enumerate(_field(table, "entries", "the top level", True)):
        d = _integer(_field(item, "degree", f"entries[{i}]"), "degree")
        if d < 1 or d in entries:
            why = "repeated" if d in entries else "below 1"
            raise Localp2Error(f"degree {d} is {why}")
        pairs: dict = {}
        for j, c in enumerate(_field(item, "coeffs", f"degree {d}", True)):
            where = f"degree {d} coeffs[{j}]"
            e = _integer(_field(c, "exp2", where), f"degree {d} half-exponent")
            if e in pairs:
                raise Localp2Error(f"degree {d} repeats half-exponent {e}")
            pairs[e] = _integer(_field(c, "c", where), f"degree {d} coefficient")
        entries[d] = out = {e: c for e, c in pairs.items() if c}
        for e, c in out.items():
            if out.get(-e) != c:
                raise Localp2Error(f"degree {d} invariants are not palindromic "
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
            raise ValueError(f"degree {d} missing from the sheaf table")
        rows[d] = _sheaf_row(table[d], g)
    return RatSeries("Q", 0, [F(0)] + [
        sum(F(k) ** (2 * g - 3) * rows[D // k]
            for k in range(1, D + 1) if D % k == 0)
        for D in range(1, dmax + 1)])


def compare_ns_relative(table: dict, dmax: int, relative_flat: dict) -> dict:
    """Per-(g, d) equality verdicts against the log-free flat expansions of
    the relative tower (a dict g -> RatSeries in Q), at every genus the
    dict holds."""
    verdicts = {}
    ok = True
    for g, flat in relative_flat.items():
        ns_row = ns_genus(table, g, dmax)
        for d in range(1, dmax + 1):
            lhs = ns_row.coeff(d)
            rhs = flat.coeff(d)
            verdicts[(g, d)] = {"ns": lhs, "gw": rhs, "equal": lhs == rhs}
            ok = ok and lhs == rhs
    return {"ok": ok, "cells": verdicts}

"""Out-of-package tracing for localp2.

Nothing inside ``localp2`` knows about this module.  :func:`install` wraps
selected library functions by replacing every attribute through which a
caller looks them up: the defining module's global, each module that
imported the name, or the class attribute for methods.  Spans and counters
stay in memory in a :class:`Tracer`; the child process writes them to a
report file when its run ends, never to stdout.

A span is ``[name, parent_index, start_ns, end_ns]``; ``parent_index`` is the
index of the innermost open span when it started, or -1 at top level.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# Functions recorded as spans: span name -> "module:qualified.attribute".
# Several attributes may share one span name (the three emitters).
SPANNED = (
    ("elliptic.stationary_value", "elliptic:stationary_value"),
    ("elliptic.connected_extract", "elliptic:connected_extract"),
    ("elliptic.npoint_disconnected", "elliptic:npoint_disconnected"),
    ("hae.solve_genus", "hae:solve_genus"),
    ("hae.build_conifold_frame", "hae:build_conifold_frame"),
    ("hae.conifold_expand", "hae:conifold_expand"),
    ("hae.gap_fix", "hae:gap_fix"),
    ("linalg.solve_unique", "linalg:solve_unique"),
    ("mirror.build_mirror_data", "mirror:build_mirror_data"),
    ("mirror.bm_eval", "mirror:bm_eval"),
    ("mirror.bm_to_qmod", "mirror:bm_to_qmod"),
    ("series.revert", "series:RatSeries.revert"),
    ("series.compose", "series:RatSeries.compose"),
    ("series.truediv", "series:RatSeries.__truediv__"),
    ("locrel.solve_relative", "locrel:Correspondence.solve_relative"),
    ("locrel.correction_value", "locrel:Correspondence.correction_value"),
    ("quasimod.qm_to_qseries", "quasimod:qm_to_qseries"),
    ("ns.compare_ns_relative", "ns:compare_ns_relative"),
    ("cli.emit", "cli:emit_series"),
    ("cli.emit", "cli:emit_qmod"),
    ("cli.emit", "cli:emit_bmod"),
)

# Hot functions that only count calls: a span per call would dominate.
COUNTED = (
    ("series.mul.calls", "series:RatSeries.__mul__"),
    ("series.mul.calls", "series:RatSeries.__rmul__"),
    ("series.exp.calls", "series:RatSeries.exp"),
)

# lru_caches whose cache_info() is read when the run ends.
CACHED = (
    ("mirror.build_mirror_data", "mirror:build_mirror_data"),
    ("elliptic.npoint_disconnected", "elliptic:npoint_disconnected"),
    ("elliptic.theta_z", "elliptic:theta_z"),
    ("quasimod.generator_series", "quasimod:generator_series"),
)


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def series_bits(s) -> int:
    """Largest numerator or denominator bit-length of a RatSeries."""
    return max(_bits(s.log_coeff), max(map(_bits, s.coeffs)))


def bmod_bits(e) -> int:
    """Largest numerator or denominator bit-length of a BModElement."""
    return max(map(_bits, e.terms.values()), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, key: str, n: int):
        self.counts[key] = self.counts.get(key, 0) + n

    def top(self, key: str, n: int):
        self.maxima[key] = max(self.maxima.get(key, n), n)

    def spanned(self, name: str, fn, hook=None):
        """Wrap fn in a span; hook(tracer, args, result) records sizes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


# -- size hooks ---------------------------------------------------------------

def _solved(tracer: Tracer, args, elt):
    tracer.add("hae.solve_genus.terms", len(elt.terms))
    tracer.top("hae.solve_genus.maxbits", bmod_bits(elt))


def _mirror(tracer: Tracer, args, md):
    tracer.top("mirror.build_mirror_data.maxbits",
               max(series_bits(getattr(md, f)) for f in md.__dataclass_fields__
                   if f != "order"))


def _npoint(tracer: Tracer, args, result):
    tracer.top("elliptic.npoint_disconnected.max_n", args[0])


HOOKS = {
    "hae.solve_genus": _solved,
    "mirror.build_mirror_data": _mirror,
    "elliptic.npoint_disconnected": _npoint,
}


def _emitter(tracer: Tracer, fn):
    """Span around an emit_* call that also counts the bytes it emits."""
    def emit(name, obj, cfg, sink):
        def counting_sink(line):
            tracer.add("cli.emit.out_bytes", len(line.encode()) + 1)
            sink(line)
        return fn(name, obj, cfg, counting_sink)
    return tracer.spanned("cli.emit", functools.wraps(fn)(emit))


# -- installation -------------------------------------------------------------

def _resolve(target: str):
    """Return (owner, attribute, value) for "module:Qual.attr"."""
    mod, _, qual = target.partition(":")
    owner = sys.modules[f"localp2.{mod}"]
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _replace(owner, attr, original, wrapper):
    """Point every lookup of ``original`` at ``wrapper``: the owner's
    attribute, and any module that imported the name."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for modname, mod in list(sys.modules.items()):
        if modname == "localp2" or modname.startswith("localp2."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)


def install(tracer: Tracer) -> dict:
    """Wrap every SPANNED and COUNTED target; return the original cached
    functions, keyed by name, for :func:`cache_stats`."""
    import localp2.cli  # noqa: F401  (loads every module that is patched)

    caches = {name: _resolve(target)[2] for name, target in CACHED}
    for name, target in SPANNED:
        owner, attr, fn = _resolve(target)
        if name == "cli.emit":
            wrapper = _emitter(tracer, fn)
        else:
            wrapper = tracer.spanned(name, fn, HOOKS.get(name))
        _replace(owner, attr, fn, wrapper)
    for name, target in COUNTED:
        owner, attr, fn = _resolve(target)
        _replace(owner, attr, fn, tracer.counted(name, fn))
    return caches


def cache_stats(caches: dict) -> dict:
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    return out


# -- analysis (run by the parent on the child's report) -----------------------

def self_times(spans) -> dict:
    """Per span name: [calls, self_ns], where a span's self time is its
    duration minus the part of it that its direct child spans cover."""
    children: dict[int, list] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        covered, reach = 0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        agg = out.setdefault(name, [0, 0])
        agg[0] += 1
        agg[1] += (end - start) - covered
    return out


def top_level_ns(spans) -> int:
    """Time covered by spans that have no parent span."""
    return sum(end - start for _, parent, start, end in spans if parent < 0)

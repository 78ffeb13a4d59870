"""One cold localp2 process, as the benchmark runs it.

    python3 perfbench/child.py REPORT [--trace] cli ARG...
    python3 perfbench/child.py REPORT [--trace] genus4-hae local|relative
    python3 perfbench/child.py REPORT setup

The timer starts before anything else; ``import_s`` is the time until
``import localp2.cli`` returns.  The job's stdout is exactly what the
library or CLI prints.  The report (import time, peak RSS and, with
--trace, spans, counters and cache statistics) goes to the REPORT file as
JSON.
"""

import time

T0 = time.perf_counter()
import os  # noqa: E402  (already loaded by the interpreter; costs nothing)
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import localp2.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import json  # noqa: E402


def genus4_hae(first: str) -> int:
    """Both towers through genus 4 by anomaly + gap alone (no elliptic
    corrections).  ``first`` picks which tower is solved first; the output
    order is fixed, so it is the same either way."""
    from localp2 import cli, hae, locrel, mirror

    md = mirror.build_mirror_data(32)
    kinds = ("local", "relative")
    solved = {}
    for kind in kinds if first == "local" else kinds[::-1]:
        corr = locrel.Correspondence(md)
        for g in range(2, 5):
            solved[kind, g] = hae.solve_genus(g, kind, md, corr)
    cfg = cli.RunConfig(format="json")
    lines: list[str] = []
    frame = hae.build_conifold_frame(md)
    for kind in kinds:
        for g in range(2, 5):
            elt = solved[kind, g]
            cli.emit_bmod(f"{kind}_g{g}_generators", elt, cfg, lines.append)
            cli.emit_series(f"{kind}_g{g}_flat",
                            mirror.bm_eval(elt, md, target="Q"), cfg,
                            lines.append)
            M = 2 * g - 2
            con = hae.conifold_expand(elt, frame, M)
            for j in range(M, 0, -1):
                c = con.coeff(-j)
                lines.append(f"{kind} g={g} coefficient of t^-{j}: "
                             f"{c.numerator}/{c.denominator}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def peak_rss_kb() -> int:
    """VmHWM of this process.  Unlike ru_maxrss it starts afresh at exec,
    so the benchmark's own memory does not leak into it."""
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))


def run_job(job: str, args: list[str]) -> int:
    if job == "cli":
        return localp2.cli.main(args)
    if job == "genus4-hae":
        return genus4_hae(args[0])
    if job == "setup":
        return 0
    raise SystemExit(f"unknown job {job!r}")


def main() -> int:
    report_path, *rest = sys.argv[1:]
    traced = rest[0] == "--trace"
    if traced:
        rest = rest[1:]
    job, args = rest[0], rest[1:]
    report = {"import_s": IMPORT_S}
    if traced:
        import tracer as tr  # sits next to this file, so it is on sys.path

        tracer = tr.Tracer()
        caches = tr.install(tracer)
        start = time.perf_counter_ns()
    try:
        return run_job(job, args)
    finally:  # a SystemExit from the CLI still leaves a report
        sys.stdout.flush()
        if traced:
            report.update(spans=tracer.spans, counts=tracer.counts,
                          maxima=tracer.maxima, caches=tr.cache_stats(caches),
                          job_ns=time.perf_counter_ns() - start)
        report["peak_rss_kb"] = peak_rss_kb()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    raise SystemExit(main())

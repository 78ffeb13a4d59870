"""localp2 benchmark: cold time-to-solution, checked byte-for-byte.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every operation is one or more
fresh child processes (closed loop: one client, one child at a time), as
every user run of localp2 is a cold process.  Each child's stdout and exit
code must equal the golden output recorded in perfbench/golden; a mismatch
counts as a failed operation.  Times are scaled to a reference machine
speed, sampled throughout each child (see run_child and the README).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced operations and reports per-layer metrics from the traced ones
(spans recorded by perfbench/tracer.py from outside the package).  The last
line of stdout is the JSON result; the environment record and per-operation
lines go to stderr.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
WORK = BENCH / ".work" / str(os.getpid())  # per run: concurrent runs must not share it
CHILD = BENCH / "child.py"

RUN_DEADLINE_S = 170   # a run must end within 180 s; children are killed past this
SETUP_PROBES = 15      # import-only children per run, for the setup_s median
SAMPLE_S = 0.1         # running time of a child between two speed samples
REF_TERMS = 32         # terms of the reference series product
REF_CHUNKS = 3         # reference products per speed sample (median taken)
REF_NOMINAL_S = 0.0023  # a reference product at the recording machine's usual speed


@dataclass(frozen=True)
class Command:
    id: str        # golden file stem
    job: tuple     # child.py job and arguments


ELLIPTIC_4PT = Command("label-3-1111", (
    "cli", "--format", "json", "compute", "elliptic", "--genus", "3",
    "--parts", "1,1,1,1", "--order", "9"))
CLI_MIX = (
    Command("mirror-32", ("cli", "--format", "json", "compute", "mirror",
                          "--order", "32")),
    Command("elliptic-2-11", ("cli", "--format", "json", "compute",
                              "elliptic", "--genus", "2", "--parts", "1,1")),
    Command("elliptic-3-211", ("cli", "compute", "elliptic", "--genus", "3",
                               "--parts", "2,1,1")),
    Command("ramanujan-50", ("cli", "verify", "ramanujan", "--order", "50")),
    Command("relative-2-csv", ("cli", "--format", "csv", "compute",
                               "relative", "--genus", "2")),
    Command("ns-compare-2-2", ("cli", "ns", "compare", "--gmax", "2",
                               "--dmax", "2")),
)
WORKLOADS = ("elliptic-4pt", "genus4-hae", "cli-mix")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

# name, unit, how values of the children of one operation combine
PER_LAYER = tuple(
    [(f"{n}.{s}", "s" if s == "self_s" else "count", "sum") for n, stats in (
        ("elliptic.stationary_value", ("calls", "self_s")),
        ("elliptic.connected_extract", ("calls", "self_s")),
        ("elliptic.npoint_disconnected", ("self_s", "hits", "misses")),
        ("elliptic.theta_z", ("hits", "misses")),
        ("hae.solve_genus", ("calls", "self_s", "terms")),
        ("hae.build_conifold_frame", ("calls", "self_s")),
        ("hae.conifold_expand", ("calls", "self_s")),
        ("hae.gap_fix", ("calls", "self_s")),
        ("linalg.solve_unique", ("calls", "self_s")),
        ("mirror.build_mirror_data", ("calls", "self_s", "hits", "misses")),
        ("mirror.bm_eval", ("calls", "self_s")),
        ("mirror.bm_to_qmod", ("calls", "self_s")),
        ("series.revert", ("calls", "self_s")),
        ("series.compose", ("calls", "self_s")),
        ("series.truediv", ("calls", "self_s")),
        ("series.mul", ("calls",)),
        ("series.exp", ("calls",)),
        ("locrel.solve_relative", ("calls", "self_s")),
        ("locrel.correction_value", ("calls", "self_s")),
        ("quasimod.qm_to_qseries", ("calls", "self_s")),
        ("quasimod.generator_series", ("hits", "misses")),
        ("ns.compare_ns_relative", ("calls", "self_s")),
        ("cli.emit", ("calls", "self_s")),
    ) for s in stats]
    + [
        ("elliptic.npoint_disconnected.max_n", "count", "max"),
        ("hae.solve_genus.maxbits", "bit", "max"),
        ("mirror.build_mirror_data.maxbits", "bit", "max"),
        ("cli.emit.out_bytes", "B", "sum"),
        ("trace.unspanned_s", "s", "sum"),
        ("setup.import_s", "s", "median"),
        ("trace.overhead_frac", "frac", "run"),  # from the whole run
    ])


def plan(workload: str, seed: int) -> list[Command]:
    """The commands of one operation.  The seed orders the cli-mix commands
    and picks the tower genus4-hae solves first; outputs do not depend on it."""
    rng = random.Random(seed)
    if workload == "cli-mix":
        cmds = list(CLI_MIX)
        rng.shuffle(cmds)
        return cmds
    if workload == "genus4-hae":
        return [Command("genus4-hae",
                        ("genus4-hae", rng.choice(("local", "relative"))))]
    if workload == "elliptic-4pt":
        return [ELLIPTIC_4PT]
    raise ValueError(f"unknown workload {workload!r}")


# -- machine speed -----------------------------------------------------------------

def reference_product_s() -> float:
    """Time one fixed truncated product of two exact-rational series, the
    kind of arithmetic localp2 spends its time in, written here without the
    package so that no change to localp2 can move it."""
    t0 = time.perf_counter()
    a = [Fraction(k * k + 1, 2 * k + 3) for k in range(REF_TERMS)]
    b = [Fraction(3 * k + 2, k * k + 5) for k in range(REF_TERMS)]
    [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0))
     for n in range(REF_TERMS)]
    return time.perf_counter() - t0


def reference_s() -> float:
    return statistics.median(reference_product_s()
                             for _ in range(REF_CHUNKS))


# -- one child process -----------------------------------------------------------

@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    scale: float   # scaled over raw running time (see run_child)
    rss_mb: float
    status: int
    stdout: bytes
    report: dict | None
    timed_out: bool


def run_child(job: tuple, traced: bool, deadline: float,
              sampled: bool = True) -> ChildResult:
    """Run child.py to completion (or kill it at ``deadline``, a
    perf_counter value).  CPU time comes from wait4; peak RSS from the
    child's report, because ru_maxrss keeps the forking parent's RSS.

    The speed of this machine drifts with its neighbours' load, so the
    reference product is timed before the child starts and, if ``sampled``,
    every SAMPLE_S while it runs, with the child stopped (SIGSTOP) on the
    one CPU they share.  Each stretch of the child's running time is scaled
    by REF_NOMINAL_S over the mean reference time at its two ends.  Stopped
    time is not counted.  Traced children and set-up probes are not
    stopped, so that the times they take themselves stay whole."""
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, err_path, rep_path = (WORK / "stdout", WORK / "stderr",
                                    WORK / "report.json")
    rep_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(rep_path),
            *(["--trace"] if traced else []), *job]
    ref = reference_s()
    wall = scaled = 0.0
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        reaped = False
        try:
            while True:
                t0 = time.perf_counter()
                wait = max(deadline - t0, 0)
                ready, _, _ = select.select(
                    [pidfd], [], [], min(wait, SAMPLE_S) if sampled else wait)
                if not ready:
                    timed_out = time.perf_counter() >= deadline
                    os.kill(proc.pid,
                            signal.SIGKILL if timed_out else signal.SIGSTOP)
                _, wstatus, ru = os.wait4(proc.pid, os.WUNTRACED)
                reaped = not os.WIFSTOPPED(wstatus)
                wall += (seg := time.perf_counter() - t0)
                ref_end = reference_s()
                scaled += seg * REF_NOMINAL_S / ((ref + ref_end) / 2)
                ref = ref_end
                if reaped:
                    break
                os.kill(proc.pid, signal.SIGCONT)
        finally:  # also on SIGTERM: never leave a child behind
            os.close(pidfd)
            if not reaped:  # not Popen.kill: its poll() could reap the child
                os.kill(proc.pid, signal.SIGKILL)
                _, wstatus, ru = os.wait4(proc.pid, 0)
    proc.returncode = status = os.waitstatus_to_exitcode(wstatus)
    report = json.loads(rep_path.read_text()) if rep_path.exists() else None
    if status != 0 and err_path.stat().st_size:
        sys.stderr.write(err_path.read_text()[-2000:])
    rss_mb = report["peak_rss_kb"] / 1024 if report else 0.0
    return ChildResult(wall, ru.ru_utime + ru.ru_stime, scaled / wall, rss_mb,
                       status, out_path.read_bytes(), report, timed_out)


# -- golden outputs --------------------------------------------------------------

def golden_path(workload: str, cmd_id: str) -> Path:
    return GOLDEN / workload / f"{cmd_id}.out"


def load_golden(workload: str) -> dict:
    """{command id: (stdout bytes, exit code)} for the workload."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())[workload]
    return {cid: (golden_path(workload, cid).read_bytes(), code)
            for cid, code in codes.items()}


def matches(golden: dict, cmd: Command, res: ChildResult) -> bool:
    want_out, want_code = golden[cmd.id]
    return res.stdout == want_out and res.status == want_code


# -- operations and metrics --------------------------------------------------------

@dataclass
class Op:
    wall_s: float
    cpu_s: float
    rss_mb: float
    failed: int
    attempted: int
    reports: list
    timed_out: bool


def run_op(cmds, golden, traced: bool, deadline: float, log) -> Op:
    op = Op(0.0, 0.0, 0.0, 0, 0, [], False)
    for cmd in cmds:
        res = run_child(cmd.job, traced, deadline, sampled=not traced)
        ok = matches(golden, cmd, res)
        op.wall_s += res.wall_s * res.scale
        op.cpu_s += res.cpu_s * res.scale
        op.rss_mb = max(op.rss_mb, res.rss_mb)
        op.attempted += 1
        op.failed += not ok
        if res.report:
            op.reports.append(res.report)
        log({"cmd": cmd.id, "traced": traced, "wall_s": res.wall_s,
             "cpu_s": res.cpu_s, "scale": res.scale, "rss_mb": res.rss_mb,
             "status": res.status, "ok": ok})
        if res.timed_out:
            op.timed_out = True
            break
    return op


def layer_stats(reports) -> dict:
    """Per-layer metrics of one traced operation: its children's reports
    combined as PER_LAYER says."""
    per_child = []
    for rep in reports:
        vals = dict(rep["counts"])
        vals.update(rep["maxima"])
        vals.update(rep["caches"])
        for name, (calls, self_ns) in tracer.self_times(rep["spans"]).items():
            vals[f"{name}.calls"] = calls
            vals[f"{name}.self_s"] = self_ns / 1e9
        vals["trace.unspanned_s"] = (rep["job_ns"]
                                     - tracer.top_level_ns(rep["spans"])) / 1e9
        vals["setup.import_s"] = rep["import_s"]
        per_child.append(vals)
    combine = {"sum": sum, "max": max, "median": statistics.median}
    return {name: combine[how]([v.get(name, 0) for v in per_child])
            for name, _, how in PER_LAYER if how != "run"}


def environment(workload: str, seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "commit": _commit(),
            "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "loadavg_1m": os.getloadavg()[0]}


def _commit() -> str | None:
    """HEAD of the checkout, if it is a git work tree (read without git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    cmds = plan(workload, seed)
    golden = load_golden(workload)

    def log(rec):
        print(json.dumps(rec), file=sys.stderr, flush=True)

    # One CPU for this process and its children, so that the reference
    # product times the CPU the child runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    log({"environment": environment(workload, seed),
         "commands": [c.id for c in cmds]})
    run_child(("setup",), False, deadline)  # writes bytecode caches; not measured
    probes = [run_child(("setup",), False, deadline, sampled=False)
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        plain.append(run_op(cmds, golden, False, deadline, log))
        if trace and not plain[-1].timed_out:
            traced.append(run_op(cmds, golden, True, deadline, log))
        ops = plain + traced
        if any(o.timed_out for o in ops) or \
                time.perf_counter() - start >= seconds:
            break
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    if trace:
        stats = [layer_stats(o.reports) for o in traced
                 if len(o.reports) == o.attempted]
        metrics = {name: statistics.median(s[name] for s in stats)
                   if stats else 0 for name, _, how in PER_LAYER
                   if how != "run"}
        base = statistics.median(o.wall_s for o in plain)
        metrics["trace.overhead_frac"] = (
            statistics.median(o.wall_s for o in traced) - base) / base \
            if traced else 0
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        imports = [p.report["import_s"] * p.scale for p in probes if p.report]
        metrics = {
            "wall_s": statistics.median(o.wall_s for o in plain),
            "cpu_s": statistics.median(o.cpu_s for o in plain),
            "peak_rss_mb": statistics.median(o.rss_mb for o in plain),
            "setup_s": statistics.median(imports),
        }
        units = dict(END_TO_END)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units}}


def check_checkout() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    if not (ROOT / "src" / "localp2" / "__init__.py").is_file():
        return f"no localp2 sources under {ROOT / 'src'}"
    if not (GOLDEN / "exit_codes.json").is_file():
        return f"no golden outputs under {GOLDEN}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    problem = check_checkout()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
import tracer

REPO = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", -1, 0, 100],    # children b, c cover 30 + 20
        ["b", 0, 10, 40],
        ["c", 0, 50, 70],     # child d covers 5
        ["d", 2, 55, 60],
        ["b", -1, 200, 210],  # same name again, at top level
    ]
    assert tracer.self_times(spans) == {
        "a": [1, 50], "b": [2, 40], "c": [1, 15], "d": [1, 5]}
    assert tracer.top_level_ns(spans) == 110


def test_self_time_counts_overlapping_children_once():
    spans = [["p", -1, 0, 10], ["q", 0, 2, 6], ["q", 0, 4, 8]]
    assert tracer.self_times(spans)["p"] == [1, 4]


def test_tracing_leaves_stdout_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    job = ("cli", "--format", "json", "compute", "mirror", "--order", "12")
    deadline = time.perf_counter() + 120
    plain = run.run_child(job, False, deadline)
    traced = run.run_child(job, True, deadline)
    assert plain.status == traced.status == 0
    assert plain.stdout == traced.stdout
    stats = run.layer_stats([traced.report])
    assert stats["mirror.build_mirror_data.calls"] == 1
    assert stats["mirror.build_mirror_data.misses"] == 1
    assert stats["cli.emit.calls"] == 9
    assert stats["cli.emit.out_bytes"] == len(plain.stdout)
    assert stats["series.mul.calls"] > 0
    assert stats["elliptic.npoint_disconnected.self_s"] == 0
    assert set(stats) == {name for name, _, how in run.PER_LAYER
                          if how != "run"}


def test_speed_sampling_stops_the_child_without_changing_it(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SAMPLE_S", 0.02)
    sent = []
    real_kill = run.os.kill

    def kill(pid, sig):
        sent.append(sig)
        real_kill(pid, sig)

    monkeypatch.setattr(run.os, "kill", kill)
    job = ("cli", "--format", "json", "compute", "mirror", "--order", "12")
    deadline = time.perf_counter() + 120
    sampled = run.run_child(job, False, deadline)
    assert sent.count(run.signal.SIGSTOP) == sent.count(run.signal.SIGCONT) > 0
    sent.clear()
    plain = run.run_child(job, False, deadline, sampled=False)
    assert sent == []
    assert sampled.status == plain.status == 0
    assert sampled.stdout == plain.stdout
    assert not sampled.timed_out and sampled.scale > 0


def test_deadline_kills_the_child(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    t0 = time.perf_counter()
    res = run.run_child(run.ELLIPTIC_4PT.job, False, t0 + 0.5)
    assert res.timed_out and res.status == -9
    assert time.perf_counter() - t0 < 10


def test_corrupted_golden_counts_as_failure(tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(run.GOLDEN, golden)
    bad = golden / "cli-mix" / "ramanujan-50.out"
    data = bytearray(bad.read_bytes())
    data[0] ^= 1
    bad.write_bytes(bytes(data))
    monkeypatch.setattr(run, "GOLDEN", golden)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    cmds = [c for c in run.CLI_MIX
            if c.id in ("ramanujan-50", "elliptic-2-11")]
    op = run.run_op(cmds, run.load_golden("cli-mix"), False,
                    time.perf_counter() + 120, lambda rec: None)
    assert (op.attempted, op.failed) == (2, 1)


def test_seed_orders_commands_only():
    for seed in range(5):
        assert run.plan("cli-mix", seed) == run.plan("cli-mix", seed)
        assert sorted(run.plan("cli-mix", seed), key=lambda c: c.id) == \
            sorted(run.CLI_MIX, key=lambda c: c.id)
    towers = {run.plan("genus4-hae", s)[0].job[1] for s in range(20)}
    assert towers == {"local", "relative"}


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    codes = json.loads((run.GOLDEN / "exit_codes.json").read_text())
    for workload in run.WORKLOADS:
        cmds = run.plan(workload, 0)
        assert set(codes[workload]) == {c.id for c in cmds}
        assert all(run.golden_path(workload, c.id).stat().st_size
                   for c in cmds)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout

#!/usr/bin/env python3
"""Benchmark of record for the oic stack.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Builds the repository's library and tools plus the C++ runner in perfbench/src
(CMake, into $CARGO_TARGET_DIR or .bench_build), runs the workload, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports every end-to-end metric
of BENCHMARK.json, --trace 1 every per-layer metric (0 where a layer does
not apply to the workload).

    python3 perfbench/run.py --self-check

runs every workload small, traced and untraced, and validates the emitted
metric names and units against BENCHMARK.json.  See perfbench/README.md.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_BUDGET_S = 170    # every runner attempt of one invocation, after the build
BUILD_BUDGET_S = 840  # the whole build, a from-scratch retry included


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def configure_and_build(bdir, jobs, deadline):
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", str(jobs), "--target", "perfbench", "oic_serve"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            raise RuntimeError("build failed: " + " ".join(cmd))


def build(base):
    """Configure + build (incremental); returns the runner and server paths.

    A failed build is retried once from an empty build tree with fewer
    jobs: that clears a cache configured for another source path and a
    compiler killed for memory.  Missing sources fail both times."""
    bdir = os.path.join(base, "perfbench")
    os.makedirs(base, exist_ok=True)
    deadline = time.monotonic() + BUILD_BUDGET_S
    with open(os.path.join(base, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            configure_and_build(bdir, min(4, os.cpu_count() or 1), deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            log(f"{e}; building once more from scratch")
            shutil.rmtree(bdir, ignore_errors=True)
            configure_and_build(bdir, 2, deadline)
    return os.path.join(bdir, "perfbench"), os.path.join(bdir, "oic", "oic_serve")


def run_once(exe, server, workload, seed, seconds, trace, quick, timeout):
    """Run the C++ runner once; returns its parsed JSON line."""
    work = os.path.join(os.path.dirname(exe), "work", f"{workload}-{os.getpid()}")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work, "--serve-bin", server]
    if quick:
        cmd.append("--quick")
    # Own process group, so a timeout also stops the server the runner spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"runner timed out after {timeout:.0f} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers, if any
        except OSError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"runner exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        raise RuntimeError(f"unreadable runner report: {e}")


def run_bench(exe, server, workload, seed, seconds, trace, quick=False):
    """run_once, repeated once with the same seed if the first attempt
    gives no report (killed, crashed or timed out) and time is left.  A
    report whose checks fail is final."""
    deadline = time.monotonic() + RUN_BUDGET_S
    t0 = time.monotonic()
    try:
        return run_once(exe, server, workload, seed, seconds, trace, quick,
                        deadline - time.monotonic())
    except RuntimeError as e:
        left = deadline - time.monotonic()
        if left < 2 * (time.monotonic() - t0) + 4 * seconds:
            raise
        log(f"{e}; running once more with the same seed")
    return run_once(exe, server, workload, seed, seconds, trace, quick,
                    deadline - time.monotonic())


def shape(spec, raw, trace):
    """The benchmark's result object from the runner's raw report."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = raw["metrics"]
    failed = int(raw["failed"])
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                log(f"end-to-end metric {m['name']} was not measured")
                failed += 1
            value = 0.0  # a layer this workload does not exercise
        else:
            if got["unit"] != m["unit"]:
                log(f"{m['name']}: unit {got['unit']} != {m['unit']}")
                failed += 1
            value = float(got["value"])
        if not math.isfinite(value) or (not trace and value <= 0.0):
            log(f"{m['name']}: implausible value {value}")
            failed += 1
            value = 0.0 if not math.isfinite(value) else value
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = max(1, int(raw["attempted"]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def validate_spec(spec):
    problems = []
    names = set()
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            if not NAME_RE.match(m["name"]) or m["name"] in names:
                problems.append(f"bad or duplicate metric name {m['name']}")
            names.add(m["name"])
            if not UNIT_RE.match(m["unit"]):
                problems.append(f"bad unit {m['unit']}")
            if m.get("better") not in ("lower", "higher"):
                problems.append(f"bad 'better' for {m['name']}")
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bad bound for {m['name']}")
    for w in spec["workloads"]:
        if not NAME_RE.match(w["name"]) or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w['name']}")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        problems.append("setup_s is missing")
    return problems


def self_check(spec, exe, server):
    """Every workload small, both modes; names and units against the spec."""
    problems = validate_spec(spec)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    seen_layer = set()
    for w in spec["workloads"]:
        for trace in (False, True):
            t0 = time.time()
            raw = run_bench(exe, server, w["name"], 1, 1, trace, quick=True)
            res = shape(spec, raw, trace)
            tag = f"{w['name']}/trace{int(trace)}"
            for name, got in raw["metrics"].items():
                if trace:
                    seen_layer.add(name)
                    if name not in declared:
                        problems.append(f"{tag}: undeclared per-layer metric {name}")
                    elif declared[name] != got["unit"]:
                        problems.append(f"{tag}: {name} unit {got['unit']}")
            if not res["correct"]:
                problems.append(f"{tag}: {res['failed']} failed ({raw.get('problems')})")
            log(f"{tag}: {len(raw['metrics'])} metrics, attempted {res['attempted']}, "
                f"failed {res['failed']}, {time.time() - t0:.1f} s")
    for name in declared:
        if name not in seen_layer:
            problems.append(f"per-layer metric {name} is emitted by no workload")
    for p in problems:
        log("self-check: " + p)
    print(json.dumps({"self_check": "pass" if not problems else "fail",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    try:
        exe, server = build(build_base())
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        log(str(e))
        return 1
    if args.self_check:
        return self_check(spec, exe, server)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    try:
        raw = run_bench(exe, server, args.workload, args.seed, args.seconds, args.trace == 1)
    except (RuntimeError, OSError) as e:
        log(str(e))
        return 1
    for p in raw.get("problems", []):
        log("check failed: " + p)
    print(json.dumps(shape(spec, raw, args.trace == 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating-pair comparison of a base revision against the checkout.

    python3 scripts/perf_pairs.py --base <rev> --workload campaign --pairs 10

Exports the base revision into its own tree, snapshots the current
checkout (tracked files and files git does not ignore, uncommitted
changes included) into another, and runs
`python3 perfbench/run.py --workload W --seed S` on each for every pair,
at perfbench's own run length.  The two trees are siblings named
base-<commit> and head-000...0 (as many zeros as the commit has hex
digits), and each builds into the sibling <tree>-build, so both sides
run and build from paths of the same length, and the two processes get
environments and arguments of the same size.  The base build directory
is keyed by its commit, so a reused --work-dir never mixes objects of
two base revisions; the head's keeps one name as HEAD moves, and the
snapshot keeps the checkout's mtimes, so it rebuilds incrementally.
Both sides compile with -ffile-prefix-map=<tree>=. appended to any
inherited CXXFLAGS, so the source paths baked into each binary (__FILE__
in the error macros) do not differ between the trees, and with GIT_DIR
pointing at no repository, so the git SHA the build stamps into the
binaries reads "unknown" on both.  One commit on both sides thus builds
byte-identical binaries; the report prints their sha256 and says so.
The base side runs first on odd pairs and second on even ones.  Pair 1
always uses the held-out seed 9001; the other pairs use seeds
--first-seed, --first-seed + 1, ...

For every end-to-end metric of BENCHMARK.json (per-layer with --trace 1)
it prints each side's median and interquartile range, how many pairs the
head side won (strictly better in the metric's direction) and how many
were identical, and the median gap.  For the claimed metric (--metric,
default periods_per_s) it prints the verdict used to accept a gain: the
head side wins at least 9 of every 10 pairs, and its median beats the base
median by more than the base side's interquartile range.

The exit status is nonzero, and the verdict says why, when
  * a run reports failed operations or no report ("failed runs");
  * the claimed metric regresses under the mirror of the gain rule: the
    head side loses at least 9 of every 10 pairs, and its median trails
    the base median by more than the base side's interquartile range;
  * a metric with a bound in BENCHMARK.json (the end-to-end ones) has a
    head median worse than the base median by more than that bound.
scripts/ci.sh --bench-only runs it as the CI perf guard.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 9001
# What perfbench/run.py builds, relative to its CARGO_TARGET_DIR.
BINARIES = {"perfbench": "perfbench/perfbench", "oic_serve": "perfbench/oic/oic_serve"}


def resolve(rev):
    """The full commit hash `rev` names."""
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.strip()


def export_tree(rev, dest):
    """Write the committed files of `rev` into `dest` (git archive).  tar
    gives every file the commit's mtime, which CMake's incremental build
    cannot tell apart from another revision's: build directories of
    exported trees must be keyed by the commit."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def snapshot_checkout(dest):
    """Copy the checkout as it stands into `dest`: every tracked file plus
    every untracked file git does not ignore, uncommitted edits included.
    copy2 keeps each file's mtime, so an incremental build of the snapshot
    recompiles exactly what one of the checkout itself would."""
    shutil.rmtree(dest, ignore_errors=True)
    listed = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], stdout=subprocess.PIPE, check=True)
    for rel in filter(None, listed.stdout.split(b"\0")):
        src = os.path.join(ROOT, os.fsdecode(rel))
        if not os.path.isfile(src):  # tracked, deleted in the checkout
            continue
        dst = os.path.join(dest, os.fsdecode(rel))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)


def prefix_map_flags(tree):
    """CXXFLAGS for a side built from `tree`: the inherited flags plus the
    map that strips the tree's path from the binary.  CMake reads CXXFLAGS
    only when it first configures a build directory, so base revisions
    that predate the map need no edit."""
    inherited = os.environ.get("CXXFLAGS", "").strip()
    own = f"-ffile-prefix-map={tree}=."
    return f"{inherited} {own}".strip()


def prepare_build_dir(target_dir, flags):
    """Drop a build directory configured with other CXXFLAGS, such as the
    head build of a reused --work-dir after the checkout moved: CMake
    would keep its cached flags."""
    cache = os.path.join(target_dir, "perfbench", "CMakeCache.txt")
    if not os.path.exists(cache):
        return
    with open(cache) as f:
        cached = next((line.split("=", 1)[1].strip() for line in f
                       if line.startswith("CMAKE_CXX_FLAGS:")), None)
    if cached != flags:
        shutil.rmtree(target_dir, ignore_errors=True)


def sha256(path):
    """Hex sha256 of a file, or None when it is missing."""
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def run_side(tree, target_dir, workload, seed, trace):
    """One perfbench run; returns its JSON report, or None without one."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir, CXXFLAGS=prefix_map_flags(tree),
               GIT_DIR=os.devnull)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def quartiles(values):
    """(q1, median, q3), inclusive method; degenerate for one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(v):
    if v == 0 or not math.isfinite(v):
        return str(v)
    mag = abs(v)
    if mag >= 1e5:
        return f"{v / 1e3:.0f}k"
    if mag >= 1e3:
        return f"{v / 1e3:.2f}k"
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="revision of the base side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--metric", default="periods_per_s", help="the claimed metric")
    ap.add_argument("--work-dir", help="where the trees and builds go (default: a temp dir)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    if args.metric not in better:
        ap.error(f"--metric {args.metric} is not a {'per-layer' if args.trace else 'end-to-end'} "
                 "metric of BENCHMARK.json")

    work = os.path.abspath(args.work_dir or tempfile.mkdtemp(prefix="perf_pairs-"))
    own_work = args.work_dir is None
    sides = {}
    try:
        base_sha = resolve(args.base)
        base_tree = os.path.join(work, "base-" + base_sha)
        export_tree(args.base, base_tree)
        head_tree = os.path.join(work, "head-" + "0" * len(base_sha))
        snapshot_checkout(head_tree)
        sides["base"] = (base_tree, base_tree + "-build")
        sides["head"] = (head_tree, head_tree + "-build")
        for tree, target in sides.values():
            prepare_build_dir(target, prefix_map_flags(tree))

        seeds = [HELD_OUT_SEED] + [args.first_seed + i for i in range(args.pairs - 1)]
        runs = []
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"pair": i + 1, "seed": seed, "first": order[0]}
            for side in order:
                tree, target = sides[side]
                pair[side] = run_side(tree, target, args.workload, seed, args.trace)
            runs.append(pair)
            vals = []
            for side in ("base", "head"):
                rep = pair[side]
                vals.append("no report" if rep is None else
                            f"{fmt(rep['metrics'][args.metric]['value'])} "
                            f"(failed {rep['failed']})")
            print(f"pair {i + 1:2d} seed {seed:5d} {order[0]} first: "
                  f"base {vals[0]}, head {vals[1]}", flush=True)
        digests = {side: {name: sha256(os.path.join(target, rel))
                          for name, rel in BINARIES.items()}
                   for side, (_, target) in sides.items()}
    finally:
        if own_work:
            shutil.rmtree(work, ignore_errors=True)

    for name in BINARIES:
        print(f"{name} sha256: base {digests['base'][name]}, head {digests['head'][name]}")
    same = all(digests["base"][n] is not None and digests["base"][n] == digests["head"][n]
               for n in BINARIES)
    print("identical binaries" if same else "binaries differ")

    bad = [(r["pair"], side) for r in runs for side in ("base", "head")
           if r[side] is None or r[side]["failed"] != 0]
    complete = [r for r in runs if r["base"] is not None and r["head"] is not None]
    if not complete:
        print("no pair produced two reports")
        return 1

    print(f"\n{args.workload}, {len(complete)} pairs, median (IQR):")
    need = math.ceil(0.9 * len(complete))
    verdict = None
    regressions = []
    for m in metrics:
        name = m["name"]
        b = [r["base"]["metrics"][name]["value"] for r in complete]
        h = [r["head"]["metrics"][name]["value"] for r in complete]
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
        losses = sum(1 for x, y in zip(b, h) if sign * (y - x) < 0)
        same = len(b) - wins - losses
        bq1, bmed, bq3 = quartiles(b)
        hq1, hmed, hq3 = quartiles(h)
        gap = hmed - bmed
        rel = f"{100.0 * gap / bmed:+.1f}%" if bmed else "n/a"
        print(f"  {name:28s} base {fmt(bmed)} ({fmt(bq1)}-{fmt(bq3)})  "
              f"head {fmt(hmed)} ({fmt(hq1)}-{fmt(hq3)})  {rel}  head won {wins}/{len(b)}"
              + (f", {same} identical" if same else ""))
        if name == args.metric:
            holds = wins >= need and sign * gap > bq3 - bq1
            verdict = (f"{name}: head won {wins}/{len(b)} (need {need}), median gap "
                       f"{fmt(gap)} vs base IQR {fmt(bq3 - bq1)} -> "
                       f"{'gain holds' if holds else 'no claimable gain'}")
            if losses >= need and -sign * gap > bq3 - bq1:
                regressions.append(f"{name} lost {losses}/{len(b)} pairs, median gap "
                                   f"{fmt(gap)} past base IQR {fmt(bq3 - bq1)}")
        bound = m.get("bound")
        if bound is not None and bmed and -sign * gap / abs(bmed) > bound:
            regressions.append(f"{name} median {rel}, past its {100.0 * bound:.0f}% bound")
    for pair, side in bad:
        print(f"  pair {pair}: {side} reported failures or no report")
    if bad:
        verdict = "failed runs"
    elif regressions:
        verdict = "regression: " + "; ".join(regressions)
    print("verdict: " + verdict)
    return 1 if bad or regressions else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check the semantic invariants of a JSON document the oic tools emit.

Usage: check_bench_json.py DOCUMENT

Every document (oic_eval, oic_train, oic_mc, oic_serve and bench_kernels
--json) must satisfy:
  * "safety_violations" must be false (Theorem 1: the monitor never lets
    the loop leave X);
  * "schema_version" must be a positive integer (the shared jsonout::Doc
    envelope every producer stamps);
  * "meta" must carry the build provenance strings git_sha / compiler /
    build_type (common/buildinfo.hpp);
  * "campaign" (an oic_mc document), when present, must report at least
    one aggregated episode, and every results[] entry must carry
    violation_ci95 intervals with 0 <= lo <= hi <= 1 and hi > lo for the
    baseline and every policy (the CI widths are the point of a campaign);
  * every campaign results[] entry must also carry the per-step fault
    accounting: consistent counters (degraded_steps <= steps, stale_forced
    and policy_unavail <= degraded_steps, meas/act_dropped <= steps) and a
    well-formed degraded_ci95 Wilson interval -- all-zero counters on
    fault-free campaigns, so one schema covers both modes;
  * when config.faults is a non-empty spec string (a faulted campaign),
    every results[] entry must report left_x_episodes == 0: under faults
    XI excursions are measured degradation, but leaving the hard safe set
    X is a safety violation and fails the document;
  * "mc_splitting" (an oic_mc --splitting / --falsify document), when
    present, requires config.splitting or config.falsify plus positive
    split_trials / split_batches / split_stages and split_quantile in
    (0, 1); every cell must name a plant and family, every unit must
    carry p_hat in [0, 1], a well-ordered ci95 containing p_hat, an
    extinct_batches count consistent with its batches[], and per batch
    a level ladder with matching survivor counts, each <= trials;
  * "kernels" (bench_kernels --json, the per-ISA dispatch-table
    microbench), when present, must report avx2_native as a bool and, for
    every kernel, a positive bytes_per_op and positive ns_per_op /
    gb_per_s under both the scalar and the avx2 table (the fallback
    contract keeps both columns populated even on scalar-only hosts).

The train, cert, mc, mc-rare, fault and serve smoke steps of scripts/ci.sh
run it on every document they produce.
"""

import json
import sys


def check_semantics(candidate, errors):
    if candidate.get("safety_violations") is not False:
        errors.append("safety_violations: must be present and false (Theorem 1)")
    version = candidate.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        errors.append("schema_version: must be a positive integer (the shared "
                      "jsonout::Doc envelope)")

    meta = candidate.get("meta")
    if not isinstance(meta, dict):
        errors.append("meta: must be present (build provenance object)")
    else:
        for key in ("git_sha", "compiler", "build_type"):
            if not isinstance(meta.get(key), str) or not meta.get(key):
                errors.append(f"meta.{key}: must be a non-empty string")
        if "isa" in meta and meta["isa"] not in ("scalar", "avx2"):
            errors.append("meta.isa: must be 'scalar' or 'avx2' (the kernel "
                          "dispatch tier the producer resolved to)")

    campaign = candidate.get("campaign")
    if campaign is not None:
        episodes = campaign.get("episodes")
        if not isinstance(episodes, int) or isinstance(episodes, bool) \
                or episodes < 1:
            errors.append("campaign.episodes: must be a positive integer")
        config = candidate.get("config") or {}
        faulted = bool(config.get("faults"))

        def count(entry, key, path):
            v = entry.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                errors.append(f"{path}.{key}: must be a non-negative integer")
                return None
            return v

        for i, cell in enumerate(candidate.get("results") or []):
            entries = [("baseline", cell.get("baseline"))] + \
                [(f"policies[{j}]", p) for j, p in
                 enumerate(cell.get("policies") or [])]
            for label, entry in entries:
                path = f"results[{i}].{label}"
                if not isinstance(entry, dict):
                    errors.append(f"{path}: missing stats object")
                    continue
                for key in ("violation_ci95", "degraded_ci95"):
                    ci = entry.get(key)
                    if not (isinstance(ci, list) and len(ci) == 2 and
                            all(isinstance(v, (int, float)) and
                                not isinstance(v, bool) for v in ci) and
                            0.0 <= ci[0] <= ci[1] <= 1.0 and ci[1] > ci[0]):
                        errors.append(f"{path}.{key}: must be a "
                                      f"[lo, hi] interval with 0 <= lo < hi <= 1")
                steps = count(entry, "steps", path)
                degraded = count(entry, "degraded_steps", path)
                stale = count(entry, "stale_forced", path)
                policy_unavail = count(entry, "policy_unavail", path)
                meas = count(entry, "meas_dropped", path)
                act = count(entry, "act_dropped", path)
                if None not in (steps, degraded, stale, policy_unavail,
                                meas, act):
                    if degraded > steps:
                        errors.append(f"{path}: degraded_steps > steps")
                    if stale > degraded or policy_unavail > degraded:
                        errors.append(f"{path}: stale_forced/policy_unavail "
                                      f"exceed degraded_steps")
                    if meas > steps or act > steps:
                        errors.append(f"{path}: meas/act_dropped > steps")
                left_x = count(entry, "left_x_episodes", path)
                if faulted and left_x:
                    errors.append(f"{path}.left_x_episodes: must be 0 -- a "
                                  f"faulted campaign may degrade (XI "
                                  f"excursions) but never leave X")

    split = candidate.get("mc_splitting")
    if split is not None:
        config = candidate.get("config") or {}
        if config.get("splitting") is not True and \
                config.get("falsify") is not True:
            errors.append("mc_splitting: present without config.splitting or "
                          "config.falsify")
        for key in ("split_trials", "split_batches", "split_stages"):
            v = config.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                errors.append(f"config.{key}: must be a positive integer on "
                              f"a splitting document")
        q = config.get("split_quantile")
        if not isinstance(q, (int, float)) or isinstance(q, bool) \
                or not 0.0 < q < 1.0:
            errors.append("config.split_quantile: must be a number in (0, 1)")

        def prob(value):
            return isinstance(value, (int, float)) and \
                not isinstance(value, bool) and 0.0 <= value <= 1.0

        cells = split.get("cells")
        if not isinstance(cells, list) or not cells:
            errors.append("mc_splitting.cells: must be a non-empty array")
            cells = []
        for i, cell in enumerate(cells):
            path = f"mc_splitting.cells[{i}]"
            if not isinstance(cell, dict):
                errors.append(f"{path}: must be an object")
                continue
            for key in ("plant", "family"):
                if not isinstance(cell.get(key), str) or not cell.get(key):
                    errors.append(f"{path}.{key}: must be a non-empty string")
            p_true = cell.get("p_true")
            if p_true is not None and not (prob(p_true) and 0.0 < p_true < 1.0):
                errors.append(f"{path}.p_true: must be a probability in (0, 1)")
            for j, unit in enumerate(cell.get("units") or []):
                upath = f"{path}.units[{j}]"
                if not isinstance(unit, dict):
                    errors.append(f"{upath}: must be an object")
                    continue
                if not isinstance(unit.get("policy"), str) \
                        or not unit.get("policy"):
                    errors.append(f"{upath}.policy: must be a non-empty string")
                if not prob(unit.get("p_hat")):
                    errors.append(f"{upath}.p_hat: must be a probability "
                                  f"in [0, 1]")
                ci = unit.get("ci95")
                if not (isinstance(ci, list) and len(ci) == 2 and
                        all(prob(v) for v in ci) and ci[0] <= ci[1]):
                    errors.append(f"{upath}.ci95: must be a [lo, hi] interval "
                                  f"with 0 <= lo <= hi <= 1")
                trials = unit.get("trials")
                if not isinstance(trials, int) or isinstance(trials, bool) \
                        or trials < 1:
                    errors.append(f"{upath}.trials: must be a positive integer")
                    trials = None
                episodes = unit.get("episodes")
                if not isinstance(episodes, int) or isinstance(episodes, bool) \
                        or episodes < 0:
                    errors.append(f"{upath}.episodes: must be a non-negative "
                                  f"integer")
                batches = unit.get("batches")
                if not isinstance(batches, list) or not batches:
                    errors.append(f"{upath}.batches: must be a non-empty array")
                    batches = []
                extinct = sum(1 for b in batches if isinstance(b, dict) and
                              b.get("extinct") is True)
                if unit.get("extinct_batches") != extinct:
                    errors.append(f"{upath}.extinct_batches: must equal the "
                                  f"number of extinct batches[] entries")
                for k, batch in enumerate(batches):
                    bpath = f"{upath}.batches[{k}]"
                    if not isinstance(batch, dict):
                        errors.append(f"{bpath}: must be an object")
                        continue
                    for key in ("done", "extinct"):
                        if batch.get(key) not in (True, False):
                            errors.append(f"{bpath}.{key}: must be a bool")
                    if not prob(batch.get("p_hat")):
                        errors.append(f"{bpath}.p_hat: must be a probability "
                                      f"in [0, 1]")
                    levels = batch.get("levels")
                    survivors = batch.get("survivors")
                    if not isinstance(levels, list) \
                            or not isinstance(survivors, list) \
                            or len(levels) != len(survivors):
                        errors.append(f"{bpath}: levels and survivors must be "
                                      f"arrays of equal length")
                        continue
                    numeric = all(isinstance(v, (int, float)) and
                                  not isinstance(v, bool) for v in levels)
                    if not numeric or any(v > 0.0 for v in levels) or \
                            any(lo >= hi for lo, hi in zip(levels, levels[1:])):
                        errors.append(f"{bpath}.levels: must be a strictly "
                                      f"increasing ladder ending at or "
                                      f"below 0")
                    for s in survivors:
                        if not isinstance(s, int) or isinstance(s, bool) \
                                or s < 0 or \
                                (trials is not None and s > trials):
                            errors.append(f"{bpath}.survivors: each count "
                                          f"must be an integer in "
                                          f"[0, trials]")
                            break

    kernels = candidate.get("kernels")
    if kernels is not None:
        if kernels.get("avx2_native") not in (True, False):
            errors.append("kernels.avx2_native: must be a bool (did the avx2 "
                          "column run vector code or the scalar fallback?)")
        results = kernels.get("results")
        if not isinstance(results, list) or not results:
            errors.append("kernels.results: must be a non-empty array of "
                          "per-kernel measurements")
        else:
            for i, k in enumerate(results):
                path = f"kernels.results[{i}]"
                if not isinstance(k, dict):
                    errors.append(f"{path}: must be an object")
                    continue
                if not isinstance(k.get("kernel"), str) or not k.get("kernel"):
                    errors.append(f"{path}.kernel: must be a non-empty string")
                bpo = k.get("bytes_per_op")
                if not isinstance(bpo, int) or isinstance(bpo, bool) or bpo < 1:
                    errors.append(f"{path}.bytes_per_op: must be a positive "
                                  f"integer")
                for isa in ("scalar", "avx2"):
                    col = k.get(isa)
                    if not isinstance(col, dict):
                        errors.append(f"{path}.{isa}: missing timing object")
                        continue
                    for key in ("ns_per_op", "gb_per_s"):
                        v = col.get(key)
                        if not isinstance(v, (int, float)) \
                                or isinstance(v, bool) or v <= 0:
                            errors.append(f"{path}.{isa}.{key}: must be a "
                                          f"positive number")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        candidate = json.load(f)

    errors = []
    check_semantics(candidate, errors)
    if errors:
        print(f"{argv[1]}: check FAILED:")
        for e in errors:
            print(f"  - {e}")
        return 1
    print(f"{argv[1]}: semantic invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

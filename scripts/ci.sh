#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml -- the single source of truth for
# what CI runs, so the tier-1 command and the workflow cannot drift.  The
# workflow jobs call this script with step flags; running it bare executes
# the full pipeline for one matrix cell:
#
#   scripts/ci.sh [--compiler gcc|clang] [--config Release|Sanitize|Tsan]
#                 [--build-dir DIR] [--build-only] [--bench-only]
#                 [--train-only] [--cert-only] [--mc-only] [--mc-rare-only]
#                 [--fault-only] [--serve-only] [--perfbench-only]
#                 [--format-only]
#
#   build+test   configure with -Werror, build everything, fail when a
#                liboic.a member that defines code is linked by none of the
#                five oic_* tools and is not on the inline allowlist, then
#                ctest twice:
#                once as built (AVX2 dispatch on capable hosts) and once
#                with OIC_SIMD=off pinning the scalar kernel tier; under
#                config Sanitize this runs the AVX2 TU under ASan/UBSan;
#                config Tsan instead builds and runs only the threaded
#                suites (engine, mc, train, serve, serve_socket,
#                mc_splitting, tube_mpc) under ThreadSanitizer, halting on
#                the first report
#   perf guard   scripts/perf_pairs.py --pairs 10 on the campaign, lossy
#                and train perfbench workloads against the merge-base with
#                origin/main (HEAD^ when HEAD is on it): fails on a run
#                that fails, on periods_per_s losing 9 of 10 pairs by more
#                than the base IQR, or on an end-to-end median past its
#                BENCHMARK.json bound (~16 min; needs the full git history)
#   train smoke  tiny-budget oic_train on lane-keep, then oic_eval deploys
#                the serialized agent via --policies drl:<path>; both JSON
#                documents pass check_bench_json.py
#   cert smoke   oic_cert synth -> verify over the registry, then oic_eval
#                --cert-dir reuses the cache (including a burst:<k> policy);
#                the sweep JSON passes check_bench_json.py
#   mc smoke     a tiny oic_mc campaign run twice: interrupted slices
#                resuming a checkpoint vs one uninterrupted reference; the
#                statistics must be bit-identical, and the campaign JSON
#                (violation-rate Wilson CIs included) passes
#                check_bench_json.py
#   mc-rare      a rare1d importance-splitting campaign run three ways
#                (uninterrupted reference, interrupted checkpoint slice,
#                resume -- each at a different worker count): the
#                mc_splitting statistics must be bit-identical, the
#                batched 95% CI must cover the analytic p_true (~1.5e-8),
#                no batch may go extinct, and both JSON documents pass
#                check_bench_json.py
#   fault smoke  an oic_mc campaign under the lossy fault preset: the run
#                must degrade (degraded steps > 0) without ever leaving the
#                hard safe set X, its JSON must pass check_bench_json.py
#                (which enforces left_x_episodes == 0 for faulted
#                documents), and the CLI error paths (malformed --faults,
#                unknown preset) must exit nonzero with a diagnostic
#   serve smoke  the committed request capture tests/golden/serve_smoke.reqs
#                (toy2d bang-bang, burst:3 and periodic-2 sessions, pinned
#                by test_serve) replayed through oic_serve over stdio with
#                --workers 1 --tick-workers 1 and with --workers 4
#                --tick-workers 2, the two response streams compared byte
#                for byte (cmp); the same documents sent lock-step to a
#                background `oic_serve --listen` (sharded tick, shut down
#                with SIGINT) from an inline Python client, its response
#                bytes compared with the stdio replay's; both runs must
#                answer every captured decide with a decision and draw no
#                error response, every JSON report passes
#                check_bench_json.py, and the malformed-request error path
#                (garbage on --in must exit nonzero with an oic_serve:
#                diagnostic)
#   perfbench    python3 perfbench/run.py --self-check: every benchmark
#                workload run small, traced and untraced; the emitted metric
#                names and units must match BENCHMARK.json and every check
#                must pass (~55 s on a warm build)
#   format       clang-format --dry-run -Werror over src/ tests/ bench/
#                tools/ (blocking; skipped with a warning when clang-format
#                is absent)
#
# Config "Sanitize" is Debug + address/undefined sanitizers.  Config "Tsan"
# is RelWithDebInfo + -fsanitize=thread, passed through CMAKE_CXX_FLAGS /
# CMAKE_EXE_LINKER_FLAGS (test_mc_splitting dominates: ~2.5 min on 4 cores).
set -euo pipefail
trap 'echo "ci.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

compiler=gcc
config=Release
build_dir=""
do_build=1
do_bench=1
do_train=1
do_cert=1
do_mc=1
do_mcrare=1
do_fault=1
do_serve=1
do_perfbench=1
do_format=1

while [[ $# -gt 0 ]]; do
  case "$1" in
    --compiler) compiler="$2"; shift 2 ;;
    --compiler=*) compiler="${1#*=}"; shift ;;
    --config) config="$2"; shift 2 ;;
    --config=*) config="${1#*=}"; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --build-dir=*) build_dir="${1#*=}"; shift ;;
    --build-only) do_bench=0; do_train=0; do_cert=0; do_mc=0; do_mcrare=0
                  do_fault=0; do_serve=0; do_perfbench=0; do_format=0; shift ;;
    --bench-only) do_build=0; do_train=0; do_cert=0; do_mc=0; do_mcrare=0
                  do_fault=0; do_serve=0; do_perfbench=0; do_format=0; shift ;;
    --train-only) do_build=0; do_bench=0; do_cert=0; do_mc=0; do_mcrare=0
                  do_fault=0; do_serve=0; do_perfbench=0; do_format=0; shift ;;
    --cert-only) do_build=0; do_bench=0; do_train=0; do_mc=0; do_mcrare=0
                 do_fault=0; do_serve=0; do_perfbench=0; do_format=0; shift ;;
    --mc-only) do_build=0; do_bench=0; do_train=0; do_cert=0; do_mcrare=0
               do_fault=0; do_serve=0; do_perfbench=0; do_format=0; shift ;;
    --mc-rare-only) do_build=0; do_bench=0; do_train=0; do_cert=0; do_mc=0
                    do_fault=0; do_serve=0; do_perfbench=0; do_format=0; shift ;;
    --fault-only) do_build=0; do_bench=0; do_train=0; do_cert=0; do_mc=0
                  do_mcrare=0; do_serve=0; do_perfbench=0; do_format=0; shift ;;
    --serve-only) do_build=0; do_bench=0; do_train=0; do_cert=0; do_mc=0
                  do_mcrare=0; do_fault=0; do_perfbench=0; do_format=0; shift ;;
    --perfbench-only) do_build=0; do_bench=0; do_train=0; do_cert=0; do_mc=0
                      do_mcrare=0; do_fault=0; do_serve=0; do_format=0; shift ;;
    --format-only) do_build=0; do_bench=0; do_train=0; do_cert=0; do_mc=0
                   do_mcrare=0; do_fault=0; do_serve=0; do_perfbench=0; shift ;;
    *) echo "ci.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

case "${compiler}" in
  gcc) cxx=g++ ;;
  clang) cxx=clang++ ;;
  *) echo "ci.sh: unknown compiler '${compiler}' (gcc|clang)" >&2; exit 2 ;;
esac

tsan_suites=(test_engine test_mc test_train test_serve test_serve_socket
             test_mc_splitting test_tube_mpc)
extra_cmake=()
case "${config}" in
  Release) cmake_type=Release; sanitize=OFF ;;
  Sanitize) cmake_type=Debug; sanitize=ON ;;
  Tsan) cmake_type=RelWithDebInfo; sanitize=OFF
        extra_cmake=(-DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
                     -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread") ;;
  *) echo "ci.sh: unknown config '${config}' (Release|Sanitize|Tsan)" >&2; exit 2 ;;
esac

build_dir="${build_dir:-${repo_root}/build-ci-${compiler}-${config}}"

if [[ ${do_build} -eq 1 ]]; then
  if ! command -v "${cxx}" >/dev/null; then
    echo "ci.sh: ${cxx} not installed" >&2
    exit 2
  fi
  echo "=== [${compiler}/${config}] configure + build (${build_dir}) ==="
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE="${cmake_type}" \
    -DCMAKE_CXX_COMPILER="${cxx}" \
    -DOIC_SANITIZE="${sanitize}" \
    -DOIC_WERROR=ON \
    "${extra_cmake[@]}"
fi

if [[ ${do_build} -eq 1 && "${config}" == Tsan ]]; then
  cmake --build "${build_dir}" -j"$(nproc)" --target "${tsan_suites[@]}"
  for suite in "${tsan_suites[@]}"; do
    echo "=== [${compiler}/${config}] ${suite} under ThreadSanitizer ==="
    TSAN_OPTIONS=halt_on_error=1 "${build_dir}/${suite}"
  done
elif [[ ${do_build} -eq 1 ]]; then
  cmake --build "${build_dir}" -j"$(nproc)"

  echo "=== [${compiler}/${config}] every liboic member is linked by a tool ==="
  # The tools link liboic.a without --gc-sections, so the linker pulls in
  # whole archive members: a member is linked exactly when one of its
  # global text (T) symbols is defined in one of the five tools.  That
  # holds whatever the compiler inlines.  Members that define no T symbol
  # are skipped; duplicate member names (two profile.cpp.o) are told apart
  # by their order in the archive.  A member that no tool links is code
  # only tests, benches or examples reach: delete it, or name it below
  # with the reason it stays.
  declare -A unlinked_ok=(
    [model_based]="Eq. 6 model-based policy: benches, examples and tests"
    [controller]="LinearFeedback, the analytic kappa of the Eq. 6 policy"
    [trace]="Trace of run_closed_loop, pinned by test_golden"
  )
  tool_syms="${build_dir}/tool_text_symbols.txt"
  for tool in oic_eval oic_train oic_cert oic_mc oic_serve; do
    nm --defined-only "${build_dir}/${tool}" | awk '$2 == "T" { print $3 }'
  done | sort -u >"${tool_syms}"
  mapfile -t unlinked < <(nm -g --defined-only "${build_dir}/liboic.a" | awk \
    -v syms="${tool_syms}" '
      BEGIN { while ((getline s < syms) > 0) linked[s] = 1 }
      /:$/ {
        name = substr($0, 1, length($0) - 1)
        m = ++seen[name] > 1 ? name "#" seen[name] : name
        order[++n] = m
        next
      }
      NF == 3 && $2 == "T" { has_text[m] = 1; if ($3 in linked) hit[m] = 1 }
      END {
        for (i = 1; i <= n; ++i)
          if (has_text[order[i]] && !hit[order[i]]) print order[i]
      }')
  link_failed=0
  for member in "${unlinked[@]}"; do
    key="${member%.cpp.o}"
    if [[ -n "${unlinked_ok[${key}]:-}" ]]; then
      echo "  ${member}: linked by no tool, allowed (${unlinked_ok[${key}]})"
    else
      echo "  ${member}: linked by no tool and not on the allowlist" >&2
      link_failed=1
    fi
  done
  for key in "${!unlinked_ok[@]}"; do
    if [[ ! " ${unlinked[*]} " =~ " ${key}.cpp.o " ]]; then
      echo "  WARNING: allowlisted ${key}.cpp.o is linked by a tool or gone;" \
           "drop it from the allowlist" >&2
    fi
  done
  if [[ ${link_failed} -ne 0 ]]; then
    echo "ci.sh: liboic members above are reached only by tests, benches or" \
         "examples" >&2
    exit 1
  fi

  echo "=== [${compiler}/${config}] ctest ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"

  # Same suite with the kernel dispatch pinned to the scalar tier: the
  # env kill switch must leave every result bit-identical, and a host
  # without AVX2 must be a first-class configuration, not a fallback we
  # only think works.  (Under config Sanitize this also puts the AVX2 TU
  # itself under ASan/UBSan in the first pass -- the sanitizer flags are
  # global, the per-file -mavx2 only adds to them.)
  echo "=== [${compiler}/${config}] ctest (OIC_SIMD=off, scalar tier) ==="
  OIC_SIMD=off ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"
fi

if [[ ${do_bench} -eq 1 ]]; then
  echo "=== perf guard: alternating perfbench pairs against the merge-base ==="
  # Relative, so no machine-bound reference: the merge-base with
  # origin/main (its parent when HEAD is that commit) and a snapshot of the
  # checkout run the same perfbench workloads in alternating pairs on this
  # machine, from sibling trees of one path length.
  # perf_pairs.py exits nonzero when periods_per_s loses at least 9 of
  # every 10 pairs by more than the base IQR, when an end-to-end median is
  # worse than its BENCHMARK.json bound, or when a run fails.  Ten pairs,
  # not five: at five the rule needs every pair lost, and one disturbed
  # base run let a 16% slowdown through.  Trees and builds are kept in
  # .perf_pairs/ (the base side keyed by its commit).
  base="$(git -C "${repo_root}" merge-base origin/main HEAD)"
  if [[ "${base}" == "$(git -C "${repo_root}" rev-parse HEAD)" ]]; then
    base="$(git -C "${repo_root}" rev-parse HEAD^)"
  fi
  guard_failed=0
  for workload in campaign lossy train; do
    python3 "${repo_root}/scripts/perf_pairs.py" --base "${base}" \
      --workload "${workload}" --pairs 10 --work-dir "${repo_root}/.perf_pairs" \
      || guard_failed=1
  done
  if [[ ${guard_failed} -ne 0 ]]; then
    echo "perf guard: regression against ${base} (see the verdicts above)" >&2
    exit 1
  fi
fi

if [[ ${do_train} -eq 1 ]]; then
  echo "=== train smoke: oic_train -> serialize -> oic_eval --policies drl: ==="
  smoke_build="${repo_root}/build"
  cmake -B "${smoke_build}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${smoke_build}" --target oic_train oic_eval -j"$(nproc)"
  agents_dir="${smoke_build}/ci-agents"
  mkdir -p "${agents_dir}"
  "${smoke_build}/oic_train" --plant lane-keep --scenario sine --seeds 7 \
    --episodes 10 --steps 40 --workers 2 --out "${agents_dir}" \
    --json "${smoke_build}/TRAIN_smoke.json"
  python3 "${repo_root}/scripts/check_bench_json.py" \
    "${smoke_build}/TRAIN_smoke.json"
  "${smoke_build}/oic_eval" --plant lane-keep --scenario sine \
    --policies "bang-bang,drl:${agents_dir}/lane-keep__sine__seed7.agent" \
    --cases 4 --steps 40 --workers 2 --json "${smoke_build}/EVAL_smoke.json"
  python3 "${repo_root}/scripts/check_bench_json.py" \
    "${smoke_build}/EVAL_smoke.json"
fi

if [[ ${do_cert} -eq 1 ]]; then
  echo "=== cert smoke: oic_cert synth -> verify -> oic_eval --cert-dir reuse ==="
  smoke_build="${repo_root}/build"
  cmake -B "${smoke_build}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${smoke_build}" --target oic_cert oic_eval -j"$(nproc)"
  certs_dir="${smoke_build}/ci-certs"
  rm -rf "${certs_dir}"
  "${smoke_build}/oic_cert" synth --cert-dir "${certs_dir}"
  "${smoke_build}/oic_cert" verify --cert-dir "${certs_dir}"
  "${smoke_build}/oic_cert" ls --cert-dir "${certs_dir}"
  # The sweep must *reuse* the cache (no synthesis): a burst:<k> policy
  # exercises the certificate's k-step ladder end to end.
  "${smoke_build}/oic_eval" --plant lane-keep,toy2d --scenario sine \
    --policies "bang-bang,burst:3" --cases 4 --steps 40 --workers 2 \
    --cert-dir "${certs_dir}" --json "${smoke_build}/EVAL_cert_smoke.json"
  python3 "${repo_root}/scripts/check_bench_json.py" \
    "${smoke_build}/EVAL_cert_smoke.json"
fi

if [[ ${do_mc} -eq 1 ]]; then
  echo "=== mc smoke: oic_mc campaign, checkpoint resume == uninterrupted ==="
  smoke_build="${repo_root}/build"
  cmake -B "${smoke_build}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${smoke_build}" --target oic_mc -j"$(nproc)"
  mc_dir="${smoke_build}/ci-mc"
  rm -rf "${mc_dir}"
  mkdir -p "${mc_dir}"
  mc_args=(--plants toy2d --families bursts,mixed --policies bang-bang,periodic-5
           --episodes 48 --steps 40 --block 8 --cert-dir "${mc_dir}/certs")
  # Uninterrupted reference...
  "${smoke_build}/oic_mc" "${mc_args[@]}" --workers 2 \
    --json "${mc_dir}/MC_ref.json"
  # ...vs two interrupted slices resuming the checkpoint (different worker
  # counts on purpose: neither slicing nor sharding may change the stats).
  "${smoke_build}/oic_mc" "${mc_args[@]}" --workers 1 --checkpoint-blocks 2 \
    --max-blocks 5 --checkpoint "${mc_dir}/mc.ck"
  "${smoke_build}/oic_mc" "${mc_args[@]}" --workers 3 --checkpoint-blocks 2 \
    --checkpoint "${mc_dir}/mc.ck" --json "${mc_dir}/MC_resumed.json"
  python3 "${repo_root}/scripts/check_bench_json.py" "${mc_dir}/MC_ref.json"
  python3 "${repo_root}/scripts/check_bench_json.py" \
    "${mc_dir}/MC_resumed.json"
  python3 - "${mc_dir}/MC_ref.json" "${mc_dir}/MC_resumed.json" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
for doc in (a, b):  # drop timing / execution-only fields
    doc["campaign"] = None
    doc["config"]["workers"] = doc["config"]["checkpoint"] = None
if a != b:
    sys.exit("mc smoke: resumed campaign statistics differ from the "
             "uninterrupted reference")
print("mc smoke: checkpoint-resumed statistics are bit-identical")
EOF
fi

if [[ ${do_mcrare} -eq 1 ]]; then
  echo "=== mc-rare: importance splitting vs the rare1d analytic ground truth ==="
  smoke_build="${repo_root}/build"
  cmake -B "${smoke_build}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${smoke_build}" --target oic_mc -j"$(nproc)"
  rare_dir="${smoke_build}/ci-mc-rare"
  rm -rf "${rare_dir}"
  mkdir -p "${rare_dir}"
  # One seed of the coverage bed from tests/test_mc_splitting.cpp: the
  # batched estimator's own 95% CI must cover the closed-form p_true
  # (~1.5e-8, a probability crude counting at this budget cannot even
  # see).  Sizing matches the test's coverage assertion (512 clones x 16
  # independent batches, ~2 s).
  rare_args=(--plants rare1d --splitting --split-trials 512 --split-batches 16
             --steps 100 --seed 7)
  # Uninterrupted reference...
  "${smoke_build}/oic_mc" "${rare_args[@]}" --workers 2 \
    --json "${rare_dir}/MC_rare_ref.json"
  # ...vs an interrupted slice (checkpoint granularity is one splitting
  # stage) resumed at a third worker count: neither slicing nor sharding
  # may change a single reported digit.
  "${smoke_build}/oic_mc" "${rare_args[@]}" --workers 1 --max-blocks 5 \
    --checkpoint "${rare_dir}/rare.ck"
  "${smoke_build}/oic_mc" "${rare_args[@]}" --workers 3 \
    --checkpoint "${rare_dir}/rare.ck" --json "${rare_dir}/MC_rare_resumed.json"
  python3 "${repo_root}/scripts/check_bench_json.py" \
    "${rare_dir}/MC_rare_ref.json"
  python3 "${repo_root}/scripts/check_bench_json.py" \
    "${rare_dir}/MC_rare_resumed.json"
  python3 - "${rare_dir}/MC_rare_ref.json" \
    "${rare_dir}/MC_rare_resumed.json" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
for doc in (a, b):  # drop timing / execution-only fields
    doc["campaign"] = None
    doc["config"]["workers"] = doc["config"]["checkpoint"] = None
if a != b:
    sys.exit("mc-rare: resumed splitting statistics differ from the "
             "uninterrupted reference")
cell = a["mc_splitting"]["cells"][0]
unit = cell["units"][0]
p_true = cell["p_true"]
lo, hi = unit["ci95"]
if not (0.0 < p_true < 1.0):
    sys.exit("mc-rare: rare1d must report its analytic p_true")
if not (lo <= p_true <= hi):
    sys.exit(f"mc-rare: 95% CI [{lo:.3e}, {hi:.3e}] misses the analytic "
             f"p_true {p_true:.3e}")
if unit["extinct_batches"] != 0:
    sys.exit("mc-rare: no batch may go extinct at this sizing")
print(f"mc-rare: resume bit-identical; CI [{lo:.3e}, {hi:.3e}] covers "
      f"p_true {p_true:.3e} ({unit['episodes']} episodes, "
      f"p_hat {unit['p_hat']:.3e})")
EOF
fi

if [[ ${do_fault} -eq 1 ]]; then
  echo "=== fault smoke: oic_mc under the lossy preset + CLI error paths ==="
  smoke_build="${repo_root}/build"
  cmake -B "${smoke_build}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${smoke_build}" --target oic_mc oic_eval -j"$(nproc)"
  fault_dir="${smoke_build}/ci-fault"
  rm -rf "${fault_dir}"
  mkdir -p "${fault_dir}"
  # A faulted campaign must exit 0: the loop degrades (stale estimates,
  # dropped packets) but never leaves the hard safe set X.
  "${smoke_build}/oic_mc" --plants toy2d,quad-alt --families bursts,mixed \
    --policies bang-bang --episodes 48 --steps 40 --block 8 --workers 2 \
    --faults lossy --cert-dir "${fault_dir}/certs" \
    --json "${fault_dir}/MC_fault.json"
  python3 "${repo_root}/scripts/check_bench_json.py" \
    "${fault_dir}/MC_fault.json"
  python3 - "${fault_dir}/MC_fault.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if not doc["config"]["faults"]:
    sys.exit("fault smoke: config.faults must carry the canonical spec")
degraded = sum(e["degraded_steps"]
               for cell in doc["results"]
               for e in [cell["baseline"]] + cell["policies"])
if degraded == 0:
    sys.exit("fault smoke: the lossy preset must produce degraded steps")
print(f"fault smoke: {degraded} degraded steps, zero hard violations")
EOF
  # Error paths: malformed specs and unknown presets must die with a
  # diagnostic and a nonzero exit, from both faulted CLIs.
  for bad in "meas_drop:1.5" "no-such-preset" "meas_drop:0.1,meas_drop:0.2"; do
    if "${smoke_build}/oic_mc" --plants toy2d --families mixed \
         --episodes 8 --steps 10 --faults "${bad}" 2>"${fault_dir}/err.txt"; then
      echo "fault smoke: oic_mc accepted bad --faults '${bad}'" >&2
      exit 1
    fi
    grep -q "oic_mc:" "${fault_dir}/err.txt" || {
      echo "fault smoke: no diagnostic for bad --faults '${bad}'" >&2
      exit 1
    }
  done
  if "${smoke_build}/oic_eval" --plant toy2d --scenario sine --cases 2 \
       --steps 10 --faults "act_drop:2" 2>"${fault_dir}/err.txt"; then
    echo "fault smoke: oic_eval accepted bad --faults" >&2
    exit 1
  fi
  grep -q "oic_eval:" "${fault_dir}/err.txt" || {
    echo "fault smoke: oic_eval emitted no diagnostic" >&2
    exit 1
  }
  echo "fault smoke: CLI error paths diagnose and exit nonzero"
fi

if [[ ${do_serve} -eq 1 ]]; then
  echo "=== serve smoke: capture replay over stdio and a socket + error path ==="
  smoke_build="${repo_root}/build"
  cmake -B "${smoke_build}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${smoke_build}" --target oic_serve -j"$(nproc)"
  serve_dir="${smoke_build}/ci-serve"
  rm -rf "${serve_dir}"
  mkdir -p "${serve_dir}"
  capture="${repo_root}/tests/golden/serve_smoke.reqs"
  grep -q " policy burst:" "${capture}" || {
    echo "serve smoke: the capture must include burst sessions" >&2
    exit 1
  }
  # Bytes, not counts: the capture replayed inline (one membership worker,
  # one tick worker) and pooled (four and two) must give the same response
  # stream byte for byte.
  "${smoke_build}/oic_serve" --in "${capture}" --out "${serve_dir}/w1.resps" \
    --workers 1 --tick-workers 1 --json "${serve_dir}/SERVE_smoke.json"
  "${smoke_build}/oic_serve" --in "${capture}" --out "${serve_dir}/w4.resps" \
    --workers 4 --tick-workers 2
  cmp "${serve_dir}/w1.resps" "${serve_dir}/w4.resps" || {
    echo "serve smoke: response bytes differ across worker counts" >&2
    exit 1
  }
  # The same documents over a real loopback socket: a background
  # `oic_serve --listen` (ephemeral port published via --port-file, tick
  # sharded across two workers) answers a lock-step client -- send one
  # document, read its response through the `end` line, send the next --
  # and then shuts down cleanly on SIGINT.  The socket response bytes must
  # equal the stdio replay's.
  "${smoke_build}/oic_serve" --listen 0 --port-file "${serve_dir}/serve.port" \
    --workers 2 --tick-workers 2 \
    --json "${serve_dir}/SERVE_socket_smoke.json" 2>"${serve_dir}/serve.log" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [[ -s "${serve_dir}/serve.port" ]] && break
    sleep 0.1
  done
  [[ -s "${serve_dir}/serve.port" ]] || {
    echo "serve smoke: oic_serve --listen never published its port" >&2
    exit 1
  }
  # The server is stopped whether or not the client succeeds.
  client_ok=1
  python3 - "${serve_dir}/serve.port" "${capture}" \
    "${serve_dir}/socket.resps" <<'EOF' || client_ok=0
import socket, sys
port = int(open(sys.argv[1]).read())
docs, cur = [], []
for line in open(sys.argv[2], "rb"):
    cur.append(line)
    if line == b"end\n":
        docs.append(b"".join(cur))
        cur = []
with socket.create_connection(("127.0.0.1", port)) as s, \
        s.makefile("rb") as resp, open(sys.argv[3], "wb") as out:
    for doc in docs:
        s.sendall(doc)
        line = None
        while line != b"end\n":
            line = resp.readline()
            if not line:
                sys.exit("serve smoke: the server closed the connection mid-run")
            out.write(line)
print(f"serve smoke: {len(docs)} documents answered over the socket")
EOF
  kill -INT "${serve_pid}"
  wait "${serve_pid}"
  [[ ${client_ok} -eq 1 ]] || {
    echo "serve smoke: the socket client failed" >&2
    exit 1
  }
  cmp "${serve_dir}/w1.resps" "${serve_dir}/socket.resps" || {
    echo "serve smoke: socket response bytes differ from the stdio replay" >&2
    exit 1
  }
  python3 "${repo_root}/scripts/check_bench_json.py" \
    "${serve_dir}/SERVE_smoke.json"
  python3 "${repo_root}/scripts/check_bench_json.py" \
    "${serve_dir}/SERVE_socket_smoke.json"
  python3 - "${capture}" "${serve_dir}/SERVE_smoke.json" \
    "${serve_dir}/SERVE_socket_smoke.json" <<'EOF'
import json, sys
want = sum(1 for line in open(sys.argv[1]) if line.startswith("decide "))
stdio, sock = (json.load(open(p)) for p in sys.argv[2:4])
for name, doc in (("stdio", stdio), ("socket", sock)):
    got = doc["serve"]["decisions"]
    if want == 0 or got != want:
        sys.exit(f"serve smoke: {name} run made {got} decisions, the capture "
                 f"holds {want} decides")
    if doc["serve"]["errors"] or doc["serve"]["invariant_errors"]:
        sys.exit(f"serve smoke: {name} run drew error responses")
if sock["config"]["transport"] != "socket":
    sys.exit("serve smoke: oic_serve --listen must report transport=socket")
print(f"serve smoke: stdio and socket runs made all {want} decisions with "
      f"byte-identical responses, zero errors")
EOF
  # Error path: a malformed request stream must die with a diagnostic and
  # a nonzero exit, never hang or answer garbage.
  printf 'oic-serve v1\nrequests 1\nping 1\nend\n' >"${serve_dir}/bad.reqs"
  if "${smoke_build}/oic_serve" --in "${serve_dir}/bad.reqs" \
       --out /dev/null 2>"${serve_dir}/err.txt"; then
    echo "serve smoke: oic_serve accepted a malformed request stream" >&2
    exit 1
  fi
  grep -q "oic_serve:" "${serve_dir}/err.txt" || {
    echo "serve smoke: no diagnostic for the malformed request stream" >&2
    exit 1
  }
  echo "serve smoke: malformed streams diagnose and exit nonzero"
fi

if [[ ${do_perfbench} -eq 1 ]]; then
  echo "=== perfbench self-check: every workload small, names/units vs BENCHMARK.json ==="
  # Builds its own tree (.bench_build/ or $CARGO_TARGET_DIR) and exits
  # nonzero when a workload's checks fail or a metric name/unit drifts
  # from BENCHMARK.json.
  python3 "${repo_root}/perfbench/run.py" --self-check
fi

if [[ ${do_format} -eq 1 ]]; then
  echo "=== clang-format check (src/ tests/ bench/ tools/) ==="
  # Blocking since the one-time tree-wide normalization pass: drift fails
  # the pipeline.  This script is the only place that decides.
  if command -v clang-format >/dev/null; then
    find "${repo_root}/src" "${repo_root}/tests" "${repo_root}/bench" \
         "${repo_root}/tools" -name '*.cpp' -o -name '*.hpp' | sort \
      | xargs clang-format --dry-run -Werror
    echo "format check passed"
  else
    echo "ci.sh: WARNING: clang-format not installed, format check skipped" >&2
  fi
fi

echo "ci.sh: all requested steps passed"

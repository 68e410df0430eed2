#!/usr/bin/env bash
# Refresh the committed throughput numbers: builds (Release) and runs
# bench_throughput twice -- once with the kernel dispatch free to pick the
# best ISA, once pinned to the scalar tier (OIC_SIMD=off) -- rewriting
# BENCH_throughput.json at the repo root and recording the simd/scalar
# step_ns ratio next to the scalar document in the build tree.
#
#   scripts/bench.sh [--quick] [--json=PATH] [--cases=N] [--steps=N] [--workers=N]
#
#   --quick      CI smoke mode: reduced cases/steps, and the JSON goes to
#                <build>/BENCH_smoke.json instead of the committed file
#                (same schema; scripts/check_bench_json.py validates it).
#   --json=PATH  explicit output path for the main (simd) pass (overrides
#                both defaults).  The scalar pass always lands in the build
#                tree (<main-basename>_scalar.json there), alongside
#                BENCH_simd_ratio.json -- scalar numbers are diagnostics,
#                never the committed reference.
#
# Equivalent CMake target: cmake --build build --target bench-refresh
set -euo pipefail
trap 'echo "bench.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"

quick=0
json_path=""
passthrough=()
for arg in "$@"; do
  case "${arg}" in
    --quick) quick=1 ;;
    --json=*) json_path="${arg#--json=}" ;;
    --cases=*|--steps=*|--workers=*) passthrough+=("${arg}") ;;
    *)
      echo "bench.sh: unknown argument '${arg}'" >&2
      exit 2
      ;;
  esac
done

if [[ ${quick} -eq 1 ]]; then
  # Smoke sizing: exercises every code path (serial + parallel engine +
  # JSON emission) in a few seconds.  Explicit --cases/--steps/--workers
  # flags stay first so they win (bench_util takes the first match).
  passthrough=("${passthrough[@]+"${passthrough[@]}"}" --cases=4 --steps=40 --workers=2)
  json_path="${json_path:-${build_dir}/BENCH_smoke.json}"
else
  json_path="${json_path:-${repo_root}/BENCH_throughput.json}"
fi

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" --target bench_throughput -j"$(nproc)"

"${build_dir}/bench_throughput" --json="${json_path}" \
  ${passthrough[@]+"${passthrough[@]}"}

# Second pass with the kernel dispatch pinned to the scalar tier: the
# simd/scalar step_ns ratio tracks what the vectorized kernels are worth
# on this machine at this sizing (cold-start-heavy smoke sizings dilute
# it; the full-size run is the representative number).
scalar_json="${build_dir}/$(basename "${json_path%.json}")_scalar.json"
OIC_SIMD=off "${build_dir}/bench_throughput" --json="${scalar_json}" \
  ${passthrough[@]+"${passthrough[@]}"} >/dev/null
ratio_json="${build_dir}/BENCH_simd_ratio.json"
python3 - "${json_path}" "${scalar_json}" "${ratio_json}" <<'EOF'
import json, sys
simd, scalar = (json.load(open(p)) for p in sys.argv[1:3])
s, c = simd["engine_serial"]["step_ns"], scalar["engine_serial"]["step_ns"]
doc = {"isa": simd["meta"]["isa"], "step_ns_simd": s, "step_ns_scalar": c,
       "scalar_over_simd": round(c / s, 4)}
with open(sys.argv[3], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"simd pass ({doc['isa']}): {s:.0f} ns/step | scalar pass: {c:.0f} "
      f"ns/step | ratio {doc['scalar_over_simd']:.2f}x -> {sys.argv[3]}")
EOF
echo "refreshed ${json_path}"

/// \file bench_kernels.cpp
/// Standalone per-kernel, per-ISA microbench: times every dispatch-table
/// entry (linalg/dispatch.hpp) through both the scalar and the AVX2
/// tables on hot-path-representative shapes and reports ns/op and GB/s
/// (see bench_kernels.hpp for the shared measurement code -- the same
/// sweep feeds perfbench's linalg.* metrics).
///
/// Flags: --budget-ms=N (default 20; timing-run wall target per kernel
/// per ISA), --json=PATH (write a machine-readable document).
///
/// The emitted document carries the shared jsonout::Doc envelope, so
/// scripts/check_bench_json.py validates it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_kernels.hpp"
#include "bench_util.hpp"
#include "common/jsonout.hpp"
#include "linalg/simd.hpp"

int main(int argc, char** argv) {
  using namespace oic;

  const std::size_t budget_ms =
      std::max<std::size_t>(1, benchutil::flag(argc, argv, "budget-ms", 20));
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  std::printf("=== Kernel microbench: per-ISA dispatch table ===\n");
  std::printf("active ISA: %s (compiled avx2: %s, cpu avx2: %s), budget %zu ms\n\n",
              linalg::simd::active_isa_name(),
              linalg::simd::compiled_avx2() ? "yes" : "no",
              linalg::simd::cpu_has_avx2() ? "yes" : "no", budget_ms);

  const std::vector<benchkernels::KernelStat> stats =
      benchkernels::run(static_cast<double>(budget_ms));
  benchkernels::print(stats);

  if (json_path != nullptr) {
    jsonout::Doc doc("kernels");
    std::string& out = doc.body();
    jsonout::append_format(out, "  \"config\": {\"budget_ms\": %zu},\n", budget_ms);
    benchkernels::append_json(out, stats);
    const std::string body = std::move(doc).finish(false);
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path);
    } else {
      std::fprintf(stderr, "could not write %s\n", json_path);
      return 1;
    }
  }
  return 0;
}

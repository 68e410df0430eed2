/// \file kernels.cpp
/// linalg kernel metrics from the repository's per-kernel timing table
/// (bench/bench_kernels.hpp), for the kernels the trace ties to end-to-end
/// metrics: lp_row_sub_scaled / lp_argmin_masked -> control.mpc_us,
/// gemv_bias -> core.policy_us, gemm_bias / gemm_grad_accum -> training
/// updates, batch_max_violation -> serve.tick_us.  Reports the column the
/// runtime dispatch actually uses on the running host.

#include "bench_kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

void kernel_metrics(const Args& args, Outcome& out) {
  static const char* const kKernels[] = {"lp_row_sub_scaled", "lp_argmin_masked",
                                         "gemv_bias",         "gemm_bias",
                                         "gemm_grad_accum",   "batch_max_violation"};
  const bool native = oic::benchkernels::avx2_native();
  const auto stats = oic::benchkernels::run(args.quick ? 0.5 : 4.0);
  for (const char* name : kKernels) {
    bool found = false;
    for (const auto& s : stats) {
      if (s.kernel != name) continue;
      found = true;
      const double ns = native ? s.avx2.ns_per_op : s.scalar.ns_per_op;
      out.metric(std::string("linalg.") + name + ".ns_per_op", ns, "ns");
      out.metric(std::string("linalg.") + name + ".bytes_per_op",
                 static_cast<double>(s.bytes_per_op), "bytes");
    }
    out.check(found, std::string("kernel table lacks ") + name);
  }
}

}  // namespace perfbench

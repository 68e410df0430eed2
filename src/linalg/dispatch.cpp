/// \file dispatch.cpp
/// Runtime ISA resolution and the per-ISA kernel tables.
///
/// Compiled WITHOUT any ISA-specific flags: everything here must run on
/// the x86-64 baseline.  The AVX2 implementations live in their own TU
/// (kernels_avx2.cpp, compiled with -mavx2 -mfma -ffp-contract=off) and
/// are reached only through the table pointer after the cpuid check, so
/// an unsupported machine never executes a VEX instruction.

#include "linalg/dispatch.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "linalg/kernels.hpp"

namespace oic::linalg::detail {

namespace {

constexpr KernelTable kScalarTable = {
    &scalar::gemv,
    &scalar::gemv_sub,
    &scalar::gemv_bias,
    &scalar::gemm_bias,
    &scalar::gemm_transpose,
    &scalar::gemm_grad_accum,
    &scalar::batch_max_violation,
    &scalar::lp_row_sub_scaled,
    &scalar::lp_row_add_scaled,
    &scalar::lp_rhs_pivot,
    &scalar::lp_argmin,
    &scalar::lp_argmin_masked,
};

}  // namespace

#ifdef OIC_HAVE_AVX2
// Defined in kernels_avx2.cpp.
const KernelTable& avx2_table();
#endif

const KernelTable& table_for(simd::Isa isa) {
#ifdef OIC_HAVE_AVX2
  if (isa == simd::Isa::kAvx2) return avx2_table();
#else
  (void)isa;
#endif
  return kScalarTable;
}

const KernelTable& table() { return table_for(simd::active()); }

}  // namespace oic::linalg::detail

namespace oic::linalg::simd {

namespace {

/// -1 = unresolved; otherwise the cached static_cast<int>(Isa).
std::atomic<int> g_active{-1};

Isa resolve_from_env_and_cpu() {
  Isa detected = (compiled_avx2() && cpu_has_avx2()) ? Isa::kAvx2 : Isa::kScalar;
  const char* env = std::getenv("OIC_SIMD");
  if (!env) return detected;
  std::string v(env);
  for (char& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (v == "off" || v == "0" || v == "scalar" || v == "none") return Isa::kScalar;
  if (v == "avx2") return detected;  // request degrades to scalar when absent
  return detected;                   // "auto", "on", "1", unknown values
}

}  // namespace

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool compiled_avx2() {
#ifdef OIC_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

Isa active() {
  int v = g_active.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(resolve_from_env_and_cpu());
    g_active.store(v, std::memory_order_relaxed);
  }
  return static_cast<Isa>(v);
}

bool force(Isa isa) {
  if (isa == Isa::kAvx2 && !(compiled_avx2() && cpu_has_avx2())) return false;
  g_active.store(static_cast<int>(isa), std::memory_order_relaxed);
  return true;
}

void reset() { g_active.store(-1, std::memory_order_relaxed); }

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

const char* active_isa_name() { return isa_name(active()); }

}  // namespace oic::linalg::simd

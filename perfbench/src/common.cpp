#include "common.hpp"

#include <immintrin.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

/// 256-bit packed multiply/add over a 64x64 panel (the shape of the DQN
/// layers), so contention for the vector units shows in the calibration.
__attribute__((target("avx2"))) double vector_part(const double* m, const double* v,
                                                   int reps) {
  __m256d acc = _mm256_setzero_pd();
  for (int rep = 0; rep < reps; ++rep) {
    for (int r = 0; r < 64; ++r) {
      __m256d a = _mm256_setzero_pd();
      for (int c = 0; c < 64; c += 4) {
        a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(m + r * 64 + c),
                                           _mm256_loadu_pd(v + c)));
      }
      acc = _mm256_add_pd(_mm256_mul_pd(acc, _mm256_set1_pd(0.5)), a);
    }
  }
  double out[4];
  _mm256_storeu_pd(out, acc);
  return out[0] + out[1] + out[2] + out[3];
}

double scalar_part(const double* m, const double* v, int reps) {
  double acc = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (int r = 0; r < 64; ++r) {
      double a = 0.0;
      for (int c = 0; c < 64; ++c) a += m[r * 64 + c] * v[c];
      acc = 0.5 * acc + a;
    }
  }
  return acc;
}

}  // namespace

double calibration_s() {
  static std::vector<double> mat(64 * 64), vec(64);
  static std::vector<std::uint32_t> next;
  static const bool avx2 = __builtin_cpu_supports("avx2");
  if (next.empty()) {
    // A single random cycle over 1 Mi entries (4 MiB): each step depends on
    // the previous load, so the walk measures memory latency.
    const std::uint32_t n = 1u << 20;
    next.resize(n);
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::uint32_t i = n - 1; i > 0; --i) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (std::uint32_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
    for (std::size_t i = 0; i < mat.size(); ++i) mat[i] = 1e-3 * static_cast<double>(i % 97);
    for (std::size_t i = 0; i < vec.size(); ++i) vec[i] = 1.0 / static_cast<double>(i + 1);
  }
  const auto t0 = Clock::now();
  // Four parts of roughly equal weight: scalar FP, vector FP, memory
  // latency, integer.
  double acc = scalar_part(mat.data(), vec.data(), 1200);
  acc += avx2 ? vector_part(mat.data(), vec.data(), 6000)
              : scalar_part(mat.data(), vec.data(), 1200);
  std::uint32_t at = 0;
  for (int i = 0; i < 55000; ++i) at = next[at];
  std::uint64_t h = at;
  for (int i = 0; i < 800000; ++i) h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ull + (h & 7 ? 1 : 3);
  const double dt = seconds_between(t0, Clock::now());
  static volatile double sink = 0.0;
  sink = sink + acc + static_cast<double>(h & 1);
  return dt;
}

double self_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double self_peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_peak_rss_mb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0.0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_s(int pid) {
  // Sum of every thread's on-CPU nanoseconds (schedstat field 1): exact,
  // where /proc/<pid>/stat counts clock ticks.
  double ns = 0.0;
  std::error_code ec;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream f(entry.path() / "schedstat");
    double on_cpu = 0.0;
    if (f >> on_cpu) ns += on_cpu;
  }
  return 1e-9 * ns;
}

void fresh_dir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path);
}

}  // namespace perfbench

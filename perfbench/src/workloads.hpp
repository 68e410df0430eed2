#pragma once
/// \file workloads.hpp
/// The benchmark's workloads.  Each fills an Outcome with its metrics and
/// output checks; main.cpp adds the metrics a workload does not apply to.

#include "common.hpp"

namespace perfbench {

/// Number of set-up repetitions whose median is reported as setup_s.
inline constexpr int kSetupReps = 5;

/// Worker count for parallel-scaling measurements (the host's core
/// count; the load side never uses more threads than this).
inline constexpr std::size_t kWorkers = 4;

/// Worker count of the measured (untraced) repetitions.  One worker keeps
/// wall-time throughput reproducible on a shared multi-tenant host, where
/// several busy threads contend with the neighbours for cores.
inline constexpr std::size_t kMeasureWorkers = 1;

/// The paper's experiment: mc campaign over the production plants,
/// fault-free (`lossy` = false) or under the `lossy` fault preset.
void campaign_workload(const Args& args, Outcome& out, bool lossy);

/// DQN training grid over the production plants.
void train_workload(const Args& args, Outcome& out);

/// Open-loop socket load against `oic_serve --listen`.
void serve_workload(const Args& args, Outcome& out);

/// linalg.<kernel>.ns_per_op / bytes_per_op from the repository's kernel
/// timing table, for the kernels the trace maps to end-to-end metrics.
void kernel_metrics(const Args& args, Outcome& out);

}  // namespace perfbench

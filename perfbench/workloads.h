#ifndef STORYPIVOT_PERFBENCH_WORKLOADS_H_
#define STORYPIVOT_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace storypivot::perfbench {

/// The workload names, in BENCHMARK.json order.
inline constexpr const char* kWorkloads[] = {"bulk_detect", "doc_churn"};

/// Runs one workload for `options.seconds` (at least the minimum number
/// of rounds) and reports its end-to-end metrics, or with
/// `options.trace` its per-layer metrics.
RunResult RunWorkload(const Options& options);

}  // namespace storypivot::perfbench

#endif  // STORYPIVOT_PERFBENCH_WORKLOADS_H_

#pragma once

// Per-layer numbers of a traced run, computed from the events the
// program already records (trace::Collector::snapshot). The shipped
// trace summary reports nested totals only; a layer's cost here is its
// self time: a span's duration minus the part its child spans cover.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace wpbench {

struct SpanStat {
  double total_ms = 0.0;  ///< summed span durations (nested totals)
  double self_ms = 0.0;   ///< summed durations minus child-covered time
  std::uint64_t calls = 0;
};

struct TraceFold {
  std::map<std::string, SpanStat> spans;
  /// Counter samples summed per name; for hbm.bytes, which samples a
  /// running total, the sum of its increments instead.
  std::map<std::string, double> counters;
  /// Spans left open or closed without a matching Begin.
  std::uint64_t unbalanced = 0;
};

/// Folds an event list (sorted by sequence number, any number of
/// threads) into per-name self/total times and counter sums. `pool.*`
/// spans are only counted: with one worker a fan-out runs inline, and
/// its time stays with the phase span that issued it.
[[nodiscard]] TraceFold fold_trace(std::span<const wavepim::trace::Event> events);

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Every per-layer metric of the benchmark, in BENCHMARK.json order,
/// over one traced run: `wall_ms` is the benchmark's own timer around the
/// traced work, `untraced_op_ms` / `traced_op_ms` the op medians of the
/// untraced and traced runs (their ratio is the tracing overhead).
[[nodiscard]] std::vector<LayerMetric> layer_metrics(const TraceFold& fold,
                                                     double wall_ms,
                                                     double untraced_op_ms,
                                                     double traced_op_ms);

}  // namespace wpbench

#pragma once

// The benchmark's three workloads. Each runs serially in the calling
// process: the global pool is pinned to one worker before first use
// (see README.md for the pool fault that makes this necessary).

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "service/job.h"

namespace wpbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed region
  bool trace = false;     ///< fixed traced work instead of the timed loop
};

struct RunResult {
  std::uint64_t attempted = 0;  ///< ops started
  std::uint64_t failed = 0;     ///< ops that threw
  Problems problems;            ///< output-check violations
  /// Cold time to the first result (sim_batched: median of several
  /// set-ups; the others: their first op). 0 in traced runs.
  double setup_s = 0.0;
  std::vector<double> op_ms;  ///< host time of every timed op
  /// Report the mean op instead of the median: project_grid's six ops
  /// are unlike calls, each made once, so their median would be the cost
  /// of two particular calls rather than of the grid.
  bool op_mean = false;
  double work_items = 0.0;    ///< grids / steps / jobs done by those ops
  /// Host time of those ops (traced sim_batched: plus its set-up).
  double work_ms = 0.0;
  /// Peak resident set in MB: over the whole run, except serve_stream,
  /// which reads it after its set-up stream (see run_serve_stream).
  double peak_rss_mb = 0.0;
  std::vector<std::string> info;  ///< human-readable report lines
};

[[nodiscard]] RunResult run_project_grid(const RunOptions& options);
[[nodiscard]] RunResult run_sim_batched(const RunOptions& options);
[[nodiscard]] RunResult run_serve_stream(const RunOptions& options);

/// Median of a sample (mean of the middle two for an even count).
[[nodiscard]] double median(std::vector<double> xs);

/// serve_stream's job stream number `op` for `seed`: 64 jobs with the
/// benchmark's own make-up (README.md), independent of the service
/// layer's request generator.
[[nodiscard]] std::vector<wavepim::service::JobSpec> make_stream(
    std::uint64_t seed, std::uint64_t op);

}  // namespace wpbench

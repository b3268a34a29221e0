// wpbench: end-to-end benchmark of the Wave-PIM library.
//
//   wpbench --workload project_grid|sim_batched|serve_stream
//           --seed N --seconds S --trace 0|1 [--untraced-op-ms X]
//
// Prints report lines, then one JSON object as the last line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// run a fixed amount of work with the program's spans and counters on
// and report the per-layer metrics, with the tracing overhead measured
// against --untraced-op-ms (the op_ms of an untraced run).
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "layers.h"
#include "trace/trace.h"
#include "workloads.h"

namespace {

// Per-thread event ring of traced runs. The largest traced workload
// (serve_stream: 8 streams, about 430 k events) fits with room to spare;
// a run that overflows it reports dropped events and fails.
constexpr std::size_t kRingCapacity = std::size_t{1} << 21;

double typical_op_ms(const wpbench::RunResult& r) {
  if (!r.op_mean) {
    return wpbench::median(r.op_ms);
  }
  double sum = 0.0;
  for (const double ms : r.op_ms) {
    sum += ms;
  }
  return r.op_ms.empty() ? 0.0 : sum / static_cast<double>(r.op_ms.size());
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

bool parse_seed(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && errno == 0 && text[0] != '-';
}

int usage() {
  std::fprintf(stderr,
               "usage: wpbench --workload project_grid|sim_batched|"
               "serve_stream --seed N --seconds S --trace 0|1 "
               "[--untraced-op-ms X]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = -1.0;
  double trace = -1.0;
  double untraced_op_ms = 0.0;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      return usage();
    }
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    bool ok = true;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      ok = have_seed = parse_seed(value, seed);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      ok = parse_number(value, seconds) && seconds > 0.0;
    } else if (std::strcmp(flag, "--trace") == 0) {
      ok = parse_number(value, trace) && (trace == 0.0 || trace == 1.0);
    } else if (std::strcmp(flag, "--untraced-op-ms") == 0) {
      ok = parse_number(value, untraced_op_ms) && untraced_op_ms >= 0.0;
    } else {
      ok = false;
    }
    if (!ok) {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || seconds <= 0.0 || trace < 0.0) {
    return usage();
  }

  wpbench::RunOptions options;
  options.seed = seed;
  options.seconds = seconds;
  options.trace = trace == 1.0;

  // Serial pinning before the pool's first use; this also makes the CPU
  // dG reference serial.
  wavepim::ThreadPool::set_global_threads(1);
  auto& collector = wavepim::trace::Collector::instance();
  if (options.trace) {
    collector.set_ring_capacity(kRingCapacity);  // before any thread records
    collector.reset();
  }

  wpbench::RunResult r;
  if (workload == "project_grid") {
    r = wpbench::run_project_grid(options);
  } else if (workload == "sim_batched") {
    r = wpbench::run_sim_batched(options);
  } else if (workload == "serve_stream") {
    r = wpbench::run_serve_stream(options);
  } else {
    return usage();
  }
  if (r.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }

  std::vector<wpbench::LayerMetric> metrics;
  if (options.trace) {
    const auto events = collector.snapshot();
    const auto fold = wpbench::fold_trace(events);
    const std::uint64_t dropped = collector.dropped();
    std::printf("traced %zu events, %llu dropped, %llu unbalanced\n",
                events.size(), static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(fold.unbalanced));
    if (dropped != 0 || fold.unbalanced != 0) {
      r.problems.push_back("trace lost events");
    }
    metrics = wpbench::layer_metrics(fold, r.work_ms, untraced_op_ms,
                                     typical_op_ms(r));
  } else {
    if (r.op_ms.empty() || r.work_ms <= 0.0) {
      r.problems.push_back("no timed operation completed");
    }
    metrics.push_back({"setup_s", "s", r.setup_s});
    metrics.push_back({"op_ms", "ms", typical_op_ms(r)});
    metrics.push_back({"work_per_s", "1/s",
                       r.work_ms > 0.0 ? 1e3 * r.work_items / r.work_ms : 0.0});
    metrics.push_back({"peak_rss_mb", "MB", r.peak_rss_mb});
  }

  for (const auto& line : r.info) {
    std::printf("%s\n", line.c_str());
  }
  for (const auto& problem : r.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

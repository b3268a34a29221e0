#include "layers.h"

#include <cstring>

namespace wpbench {

using wavepim::trace::Event;
using wavepim::trace::EventType;

TraceFold fold_trace(std::span<const Event> events) {
  struct Open {
    const char* name;
    std::uint64_t begin_ns;
    std::uint64_t child_ns;
  };
  TraceFold fold;
  std::map<std::uint32_t, std::vector<Open>> stacks;
  double hbm_last = 0.0;
  for (const Event& e : events) {
    // Pool fan-outs run inline with one worker: their time is the work of
    // the phase that issued them, so they are counted but not nested.
    const bool fan_out = std::strncmp(e.name, "pool.", 5) == 0;
    switch (e.type) {
      case EventType::Begin:
        if (fan_out) {
          ++fold.spans[e.name].calls;
        } else {
          stacks[e.tid].push_back({e.name, e.ts_ns, 0});
        }
        break;
      case EventType::End: {
        if (fan_out) {
          break;
        }
        auto& stack = stacks[e.tid];
        if (stack.empty() || std::strcmp(stack.back().name, e.name) != 0) {
          ++fold.unbalanced;
          break;
        }
        const Open open = stack.back();
        stack.pop_back();
        const std::uint64_t dur = e.ts_ns - open.begin_ns;
        SpanStat& stat = fold.spans[open.name];
        stat.total_ms += 1e-6 * static_cast<double>(dur);
        stat.self_ms += 1e-6 * static_cast<double>(dur - open.child_ns);
        ++stat.calls;
        if (!stack.empty()) {
          stack.back().child_ns += dur;
        }
        break;
      }
      case EventType::Counter:
        if (std::strcmp(e.name, "hbm.bytes") == 0) {
          // A running total per residency manager; a drop means a new one.
          fold.counters[e.name] +=
              e.value >= hbm_last ? e.value - hbm_last : e.value;
          hbm_last = e.value;
        } else {
          fold.counters[e.name] += e.value;
        }
        break;
      case EventType::Instant:
        break;
    }
  }
  for (const auto& [tid, stack] : stacks) {
    fold.unbalanced += stack.size();
  }
  return fold;
}

std::vector<LayerMetric> layer_metrics(const TraceFold& fold, double wall_ms,
                                       double untraced_op_ms,
                                       double traced_op_ms) {
  const auto span = [&](const char* name) {
    const auto it = fold.spans.find(name);
    return it == fold.spans.end() ? SpanStat{} : it->second;
  };
  const auto counter = [&](const char* name) {
    const auto it = fold.counters.find(name);
    return it == fold.counters.end() ? 0.0 : it->second;
  };
  std::vector<LayerMetric> out;
  double covered_ms = 0.0;
  const auto self = [&](const char* name) {
    const double ms = span(name).self_ms;
    covered_ms += ms;
    out.push_back({std::string(name) + ".self_ms", "ms", ms});
  };
  const auto calls = [&](const char* name) {
    out.push_back({std::string(name) + ".calls", "count",
                   static_cast<double>(span(name).calls)});
  };
  const auto count = [&](const char* name, const char* unit) {
    out.push_back({name, unit, counter(name)});
  };
  const auto build = [&](const char* name) {
    covered_ms += span(name).self_ms;
    out.push_back({std::string(name) + ".ms", "ms", span(name).total_ms});
    calls(name);
  };

  // pim: interconnect pricing.
  self("net.schedule");
  calls("net.schedule");
  count("net.transfers", "count");
  // mapping: the estimator; core + gpumodel: the comparison grid.
  self("map.estimate");
  calls("map.estimate");
  self("system.project_pim");
  self("system.compare_all");
  // mapping: execution phases and the step loop around them.
  self("pim.volume");
  self("pim.flux");
  self("pim.integration");
  self("pim.settle");
  self("pim.drain_network");
  self("pim.drain_phase");
  self("pim.rk_stage");
  self("pim.step");
  count("word.fuse.ops_after", "count");
  // mapping: plan building.
  build("pim.build_cache");
  build("pim.build_plan");
  build("pim.build_word_plan");
  // mapping: residency.
  self("batch.load");
  self("batch.store");
  self("hbm.stage");
  count("hbm.bytes", "bytes");
  self("pim.load_state");
  self("pim.read_state");
  // common: fork/join sites reached (inline with one worker).
  calls("pool.parallel_for");
  // service.
  self("service.run");
  self("service.bind");
  calls("service.bind");
  self("service.quantum");
  calls("service.quantum");
  self("service.complete");
  self("pim.checkpoint");
  count("service.preemptions", "count");
  count("service.cache_builds", "count");
  count("service.cache_hits", "count");

  out.push_back({"trace.covered_pct", "%",
                 wall_ms > 0.0 ? 100.0 * covered_ms / wall_ms : 0.0});
  out.push_back({"trace.overhead_pct", "%",
                 untraced_op_ms > 0.0
                     ? 100.0 * (traced_op_ms / untraced_op_ms - 1.0)
                     : 0.0});
  return out;
}

}  // namespace wpbench

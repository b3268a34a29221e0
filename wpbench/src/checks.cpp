#include "checks.h"

#include <cmath>
#include <cstdio>
#include <map>

#include "common/statistics.h"

namespace wpbench {

using wavepim::core::ComparisonRow;

namespace {

std::string fmt(const char* format, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

bool close(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

const ComparisonRow* find_row(std::span<const ComparisonRow> rows,
                              const std::string& platform) {
  for (const auto& row : rows) {
    if (row.platform == platform) {
      return &row;
    }
  }
  return nullptr;
}

// PIM row names in increasing capacity order, e.g. "PIM-512MB-28nm".
std::vector<std::string> pim_platforms(const char* node) {
  std::vector<std::string> names;
  for (const auto& chip : wavepim::pim::standard_chips()) {
    names.push_back(chip.name + node);
  }
  return names;
}

}  // namespace

Problems check_grid(std::span<const ComparisonRow> rows, std::uint64_t steps) {
  Problems out;
  if (rows.size() != 14) {
    out.push_back(fmt("grid has %zu rows, want 14", rows.size()));
  }
  const ComparisonRow* base = find_row(rows, "Unfused-GTX 1080Ti");
  if (base == nullptr) {
    out.push_back("no Unfused-GTX 1080Ti row");
  } else if (base->speedup != 1.0) {
    out.push_back(fmt("baseline speedup %.17g, want 1", base->speedup));
  }
  for (const auto& row : rows) {
    if (!close(row.speedup * row.normalized_time, 1.0, 1e-12)) {
      out.push_back(fmt("%s: speedup x normalized_time = %.17g",
                        row.platform.c_str(),
                        row.speedup * row.normalized_time));
    }
    const double want = row.step_time.value() * static_cast<double>(steps);
    if (!(row.total_time.value() > 0.0) ||
        !close(row.total_time.value(), want, 1e-12)) {
      out.push_back(fmt("%s: total_time %.17g != step_time x %llu = %.17g",
                        row.platform.c_str(), row.total_time.value(),
                        static_cast<unsigned long long>(steps), want));
    }
  }
  const auto p28 = pim_platforms("-28nm");
  const auto p12 = pim_platforms("-12nm");
  for (std::size_t c = 0; c < p28.size(); ++c) {
    const ComparisonRow* a = find_row(rows, p28[c]);
    const ComparisonRow* b = find_row(rows, p12[c]);
    if (a == nullptr || b == nullptr) {
      out.push_back("missing PIM row for " + p28[c]);
      continue;
    }
    if (!(b->total_time.value() < a->total_time.value())) {
      out.push_back(p12[c] + " is not faster than " + p28[c]);
    }
  }
  for (const auto* names : {&p28, &p12}) {
    for (std::size_t c = 1; c < names->size(); ++c) {
      const ComparisonRow* small = find_row(rows, (*names)[c - 1]);
      const ComparisonRow* big = find_row(rows, (*names)[c]);
      if (small != nullptr && big != nullptr &&
          big->total_time.value() > small->total_time.value()) {
        out.push_back((*names)[c] + " is slower than " + (*names)[c - 1]);
      }
    }
  }
  return out;
}

Problems check_fabric_pair(std::span<const ComparisonRow> htree,
                           std::span<const ComparisonRow> bus) {
  Problems out;
  for (const auto& h : htree) {
    const ComparisonRow* b = find_row(bus, h.platform);
    if (b == nullptr) {
      out.push_back("bus grid lacks " + h.platform);
      continue;
    }
    if (!h.is_pim) {
      if (h.step_time.value() != b->step_time.value() ||
          h.total_time.value() != b->total_time.value() ||
          h.total_energy.value() != b->total_energy.value()) {
        out.push_back(h.platform + ": GPU row differs between fabrics");
      }
    } else if (!(h.total_time.value() < b->total_time.value())) {
      out.push_back(fmt("%s: H-tree %.6g s is not faster than bus %.6g s",
                        h.platform.c_str(), h.total_time.value(),
                        b->total_time.value()));
    }
  }
  return out;
}

Problems check_field(std::span<const float> got,
                     std::span<const float> reference, double tolerance) {
  if (got.size() != reference.size()) {
    return {fmt("field has %zu values, reference %zu", got.size(),
                reference.size())};
  }
  const double err = wavepim::relative_linf_error(got, reference);
  if (!(err <= tolerance)) {
    return {fmt("field rel. L-inf error %.3e exceeds %.1e", err, tolerance)};
  }
  return {};
}

Problems check_batched(bool resident, std::uint64_t loads,
                       std::uint64_t stores) {
  Problems out;
  if (resident) {
    out.push_back("simulation is fully resident, not batched");
  }
  if (loads == 0 || loads != stores) {
    out.push_back(fmt("slice loads %llu vs stores %llu",
                      static_cast<unsigned long long>(loads),
                      static_cast<unsigned long long>(stores)));
  }
  return out;
}

Problems check_stream(std::span<const wavepim::service::JobSpec> specs,
                      const wavepim::service::ServiceReport& report) {
  Problems out;
  std::map<std::uint32_t, const wavepim::service::JobResult*> by_id;
  for (const auto& job : report.jobs) {
    by_id[job.id] = &job;
  }
  if (report.jobs.size() != specs.size() || by_id.size() != specs.size()) {
    out.push_back(fmt("%zu results for %zu jobs", report.jobs.size(),
                      specs.size()));
  }
  for (const auto& spec : specs) {
    const auto it = by_id.find(spec.id);
    if (it == by_id.end()) {
      out.push_back(fmt("job %u never completed", spec.id));
      continue;
    }
    const auto& job = *it->second;
    if (job.steps_run != spec.steps) {
      out.push_back(fmt("job %u ran %u of %u steps", spec.id, job.steps_run,
                        spec.steps));
    }
    if (!(job.completion_s >= spec.arrival_s)) {
      out.push_back(fmt("job %u completed at %.9g before arriving at %.9g",
                        spec.id, job.completion_s, spec.arrival_s));
    }
  }
  return out;
}

Problems check_solo(const wavepim::service::JobResult& scheduled,
                    const wavepim::service::JobResult& solo) {
  Problems out;
  const auto id = scheduled.id;
  if (scheduled.hash != solo.hash) {
    out.push_back(fmt("job %u: field hash %s, solo %s", id,
                      scheduled.hash.c_str(), solo.hash.c_str()));
  }
  const auto& a = scheduled.costs;
  const auto& b = solo.costs;
  const std::pair<const char*, std::pair<const wavepim::pim::OpCost*,
                                         const wavepim::pim::OpCost*>>
      channels[] = {{"volume", {&a.volume, &b.volume}},
                    {"flux", {&a.flux, &b.flux}},
                    {"integration", {&a.integration, &b.integration}},
                    {"network", {&a.network, &b.network}},
                    {"hbm", {&a.hbm, &b.hbm}}};
  for (const auto& [name, pair] : channels) {
    if (pair.first->time.value() != pair.second->time.value() ||
        pair.first->energy.value() != pair.second->energy.value()) {
      out.push_back(fmt("job %u: %s ledger differs from solo", id, name));
    }
  }
  const auto& n = scheduled.net;
  const auto& m = solo.net;
  if (n.schedules != m.schedules || n.transfers != m.transfers ||
      n.words != m.words || n.serial_sum.value() != m.serial_sum.value()) {
    out.push_back(fmt("job %u: interconnect ledger differs from solo", id));
  }
  return out;
}

}  // namespace wpbench

#pragma once

// Output checks of the end-to-end benchmark. Each check compares a
// program output with an independent computation (the CPU dG solver, a
// solo run of the same job) or with a property the method must have,
// never with a stored copy of an earlier output. Every function returns
// the list of violations it found; empty means the output passed.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/wavepim.h"
#include "service/job.h"
#include "service/scheduler.h"

namespace wpbench {

using Problems = std::vector<std::string>;

/// One `compare_all` grid: 14 rows, Unfused-GTX 1080Ti at speedup 1,
/// speedup x normalized_time = 1 and total_time = step_time x steps on
/// every row, each 12 nm PIM row faster than its 28 nm row, and PIM time
/// never rising with capacity.
[[nodiscard]] Problems check_grid(
    std::span<const wavepim::core::ComparisonRow> rows, std::uint64_t steps);

/// The H-tree and bus grids of one benchmark: identical GPU rows, and
/// every PIM row strictly faster on the H-tree (the Fig. 14 direction).
[[nodiscard]] Problems check_fabric_pair(
    std::span<const wavepim::core::ComparisonRow> htree,
    std::span<const wavepim::core::ComparisonRow> bus);

/// Relative L-inf distance of the simulated field from the reference.
[[nodiscard]] Problems check_field(std::span<const float> got,
                                   std::span<const float> reference,
                                   double tolerance);

/// The run really batched: not resident, and every slice loaded was
/// stored back.
[[nodiscard]] Problems check_batched(bool resident, std::uint64_t loads,
                                     std::uint64_t stores);

/// A service stream finished every job it was given: one result per
/// spec, `steps_run` equal to the budget, completion >= arrival.
[[nodiscard]] Problems check_stream(
    std::span<const wavepim::service::JobSpec> specs,
    const wavepim::service::ServiceReport& report);

/// The scheduled result of a job equals its solo run bit for bit: field
/// hash, every cost channel and the interconnect ledger.
[[nodiscard]] Problems check_solo(const wavepim::service::JobResult& scheduled,
                                  const wavepim::service::JobResult& solo);

}  // namespace wpbench

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>

#include "common/rng.h"
#include "common/statistics.h"
#include "core/wavepim.h"
#include "dg/solver.h"
#include "dg/sources.h"
#include "mapping/layout.h"
#include "service/scheduler.h"
#include "trace/trace.h"

namespace wpbench {

namespace wp = wavepim;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename... Args>
std::string fmt(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

void append(Problems& into, const Problems& more) {
  into.insert(into.end(), more.begin(), more.end());
}

// Collects what the program's own spans and counters record while `fn`
// runs; tracing stays off outside it so the benchmark's checks and input
// generation never show up in a layer.
template <typename Fn>
auto traced(bool on, Fn&& fn) {
  if (!on) {
    return fn();
  }
  wp::trace::set_enabled(true);
  struct Off {
    ~Off() { wp::trace::set_enabled(false); }
  } off;
  return fn();
}

constexpr std::uint64_t kGridSteps = 1024;

}  // namespace

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n == 0 ? 0.0 : n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// --- project_grid --------------------------------------------------------

RunResult run_project_grid(const RunOptions& options) {
  // The Fig. 11/12 projection path over three Table 6 benchmarks, each on
  // both fabrics. Every pair is priced exactly once per process, so a
  // cache that only helps a repeated identical call cannot show as a
  // gain. The grid is fixed by the paper; the seed does not change it.
  RunResult r;
  r.op_mean = true;
  const wp::dg::ProblemKind kinds[] = {wp::dg::ProblemKind::Acoustic,
                                       wp::dg::ProblemKind::ElasticCentral,
                                       wp::dg::ProblemKind::ElasticRiemann};
  for (const auto kind : kinds) {
    const wp::mapping::Problem problem{kind, 4, 8};
    std::vector<wp::core::ComparisonRow> grids[2];
    bool ok = true;
    for (int f = 0; f < 2; ++f) {
      const auto topology =
          f == 0 ? wp::pim::Topology::HTree : wp::pim::Topology::Bus;
      ++r.attempted;
      try {
        const auto t0 = Clock::now();
        grids[f] = traced(options.trace, [&] {
          return wp::core::System::compare_all(problem, kGridSteps, topology);
        });
        const double ms = ms_since(t0);
        r.op_ms.push_back(ms);
        r.work_ms += ms;
        r.work_items += 1.0;
        if (r.attempted == 1) {
          r.setup_s = 1e-3 * ms;
        }
      } catch (const std::exception& e) {
        ++r.failed;
        ok = false;
        std::fprintf(stderr, "%s on %s failed: %s\n", problem.name().c_str(),
                     wp::pim::to_string(topology), e.what());
        continue;
      }
      append(r.problems, check_grid(grids[f], kGridSteps));
    }
    if (ok) {
      append(r.problems, check_fabric_pair(grids[0], grids[1]));
      const auto time_of = [](const auto& rows) {
        for (const auto& row : rows) {
          if (row.platform == "PIM-2GB-28nm") {
            return row.total_time.value();
          }
        }
        return 0.0;
      };
      r.info.push_back(fmt("%s PIM-2GB-28nm: %.4g s on H-tree, %.4g s on bus",
                           problem.name().c_str(), time_of(grids[0]),
                           time_of(grids[1])));
    }
  }
  r.info.push_back(fmt("project_s %.4f", 1e-3 * r.work_ms));
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// --- sim_batched ---------------------------------------------------------

RunResult run_sim_batched(const RunOptions& options) {
  // Bit-true word-tier execution at the paper's element size (n1d = 8)
  // with off-chip staging: 512 elements on a 512 MB chip capped at 256
  // blocks, so the Fig. 7 window holds 3 of the mesh's 8 Y-slices.
  RunResult r;
  const wp::mapping::Problem problem{wp::dg::ProblemKind::Acoustic, 3, 8};
  wp::pim::ChipConfig chip = wp::pim::chip_512mb();
  chip.block_limit = 256;
  chip.net_backend = wp::pim::NetBackendKind::Analytic;

  wp::mesh::StructuredMesh mesh(problem.refinement_level, 1.0,
                                wp::mesh::Boundary::Periodic);
  wp::dg::MaterialField<wp::dg::AcousticMaterial> materials(
      mesh.num_elements(), {.kappa = 1.0, .rho = 1.0});
  wp::dg::AcousticSolver cpu(mesh, std::move(materials),
                             {.n1d = problem.n1d,
                              .flux = wp::dg::FluxType::Upwind});
  wp::Rng rng(options.seed);
  const auto axis = static_cast<wp::mesh::Axis>(rng.next_below(3));
  const int modes = 1 + static_cast<int>(rng.next_below(3));
  wp::dg::init_acoustic_plane_wave(cpu, axis, modes);
  const wp::dg::Field initial = cpu.state();
  const double dt = cpu.stable_dt();
  r.info.push_back(fmt("plane wave along axis %d, %d mode(s), dt %.6g",
                       static_cast<int>(axis), modes, dt));

  // Set-up: construct, load the state, take the first step (which builds
  // the shape-class cache, the compiled plan and the word plan).
  const auto set_up = [&] {
    auto sim = std::make_unique<wp::mapping::PimSimulation>(
        problem, wp::mapping::ExpansionMode::None, chip);
    sim->set_exec_path(wp::mapping::ExecPath::Word);
    sim->set_num_threads(1);
    sim->set_witness_interval(0);
    sim->load_state(initial);
    sim->step(dt);
    return sim;
  };
  const int setups = options.trace ? 1 : 3;
  std::unique_ptr<wp::mapping::PimSimulation> sim;
  std::vector<double> setup_ms;
  for (int i = 0; i < setups; ++i) {
    sim.reset();
    ++r.attempted;
    try {
      const auto t0 = Clock::now();
      sim = traced(options.trace, set_up);
      setup_ms.push_back(ms_since(t0));
    } catch (const std::exception& e) {
      ++r.failed;
      std::fprintf(stderr, "set-up failed: %s\n", e.what());
    }
  }
  if (!sim) {
    return r;
  }
  std::uint64_t steps_done = 1;
  r.setup_s = 1e-3 * median(setup_ms);
  if (options.trace) {
    r.work_ms += setup_ms.back();  // the traced set-up is part of the wall
  }

  // Timed steps: the whole run length, or a fixed 8 when traced.
  const auto run_start = Clock::now();
  while (options.trace ? r.op_ms.size() < 8
                       : ms_since(run_start) < 1e3 * options.seconds) {
    ++r.attempted;
    try {
      const auto t0 = Clock::now();
      traced(options.trace, [&] { sim->step(dt); });
      const double ms = ms_since(t0);
      r.op_ms.push_back(ms);
      r.work_ms += ms;
      r.work_items += 1.0;
      ++steps_done;
    } catch (const std::exception& e) {
      ++r.failed;
      std::fprintf(stderr, "step failed: %s\n", e.what());
      break;  // the field no longer matches any reference step count
    }
  }

  // Checks, outside the timed region: the CPU dG reference advanced the
  // same steps from the same plane wave, and the staging really ran.
  for (std::uint64_t s = 0; s < steps_done; ++s) {
    cpu.step(dt);
  }
  const wp::dg::Field got = sim->read_state();
  append(r.problems, check_field(got.flat(), cpu.state().flat(), 1e-4));
  const auto& res = sim->residency();
  append(r.problems, check_batched(res.is_resident(), res.slice_loads(),
                                   res.slice_stores()));
  r.info.push_back(fmt("%llu steps, window %u of %u slices, %llu slice loads, "
                       "rel. L-inf error %.3e vs dG",
                       static_cast<unsigned long long>(steps_done),
                       res.window(), res.num_slices(),
                       static_cast<unsigned long long>(res.slice_loads()),
                       wp::relative_linf_error(got.flat(),
                                               cpu.state().flat())));
  r.peak_rss_mb = peak_rss_mb();
  return r;
}

// --- serve_stream --------------------------------------------------------

std::vector<wp::service::JobSpec> make_stream(std::uint64_t seed,
                                              std::uint64_t op) {
  wp::Rng rng(seed ^ (0x9E3779B97F4A7C15ull * (op + 1)));
  std::vector<wp::service::JobSpec> jobs(64);
  double clock = 0.0;
  for (std::uint32_t i = 0; i < jobs.size(); ++i) {
    auto& spec = jobs[i];
    spec.id = i;
    clock += 1.0e-4 * (0.5 + rng.next_double());
    spec.arrival_s = clock;
    const double physics = rng.next_double();
    spec.kind = physics < 0.6   ? wp::dg::ProblemKind::Acoustic
                : physics < 0.8 ? wp::dg::ProblemKind::ElasticCentral
                                : wp::dg::ProblemKind::ElasticRiemann;
    const auto modes = wp::mapping::applicable_modes(spec.kind);
    spec.expansion = modes[rng.next_below(modes.size())];
    spec.refinement_level = rng.next_double() < 0.25 ? 2 : 1;
    spec.n1d = 3;
    spec.boundary = rng.next_double() < 0.25 ? wp::mesh::Boundary::Reflective
                                             : wp::mesh::Boundary::Periodic;
    spec.exec = rng.next_double() < 0.5 ? wp::mapping::ExecPath::Compiled
                                        : wp::mapping::ExecPath::Word;
    spec.steps = 1 + static_cast<std::uint32_t>(rng.next_below(4));
    if (rng.next_double() < 0.5) {
      spec.deadline_s = spec.arrival_s + (1.0 + 4.0 * rng.next_double()) *
                                             (spec.steps + 1) * 2.0e-5;
    }
    spec.state_seed = rng.next_u64();
  }
  return jobs;
}

RunResult run_serve_stream(const RunOptions& options) {
  // Many tiny tenants through the EDF scheduler on 4 chips: per-job
  // set-up, binding and small interconnect schedules dominate. Streams
  // run back to back from one caller (a closed loop of one client).
  RunResult r;
  wp::service::ServiceOptions service;
  service.num_chips = 4;
  service.policy = wp::service::Policy::Edf;
  service.threads = 1;
  service.chip = wp::pim::chip_512mb();
  service.chip.net_backend = wp::pim::NetBackendKind::Analytic;

  std::uint64_t solo_checked = 0;
  std::uint64_t preemptions = 0;
  const auto run_start = Clock::now();
  for (std::uint64_t op = 0;; ++op) {
    // Stream 0 is the cold first result (set-up); timed streams follow.
    // It is the same for every seed, so setup_s measures the cold start
    // rather than one seeded job mix.
    if (options.trace ? op >= 8
                      : op > 0 && ms_since(run_start) >= 1e3 * options.seconds) {
      break;
    }
    const auto specs = make_stream(op == 0 ? 0 : options.seed, op);
    ++r.attempted;
    wp::service::ServiceReport report;
    double ms = 0.0;
    try {
      const auto t0 = Clock::now();
      report = traced(options.trace, [&] {
        return wp::service::Scheduler(service).run(specs);
      });
      ms = ms_since(t0);
    } catch (const std::exception& e) {
      ++r.failed;
      std::fprintf(stderr, "stream %llu failed: %s\n",
                   static_cast<unsigned long long>(op), e.what());
      continue;
    }
    if (op == 0 && !options.trace) {
      r.setup_s = 1e-3 * ms;
      // The whole-run peak is set by whichever seeded stream happens to
      // bind the largest tenants at once (177-253 MB over ten seeds), so
      // the memory metric is the peak of the set-up stream, which is the
      // same for every seed.
      r.peak_rss_mb = peak_rss_mb();
    } else {
      r.op_ms.push_back(ms);
      r.work_ms += ms;
      r.work_items += static_cast<double>(specs.size());
    }
    preemptions += report.preemptions;

    // Checks, outside the timed region.
    append(r.problems, check_stream(specs, report));
    wp::Rng pick(options.seed * 31 + op);
    for (int k = 0; k < 2 && !report.jobs.empty(); ++k) {
      const auto& job = report.jobs[pick.next_below(report.jobs.size())];
      if (job.id >= specs.size()) {
        continue;  // check_stream has reported the stray id
      }
      const auto solo =
          wp::service::run_job_solo(specs[job.id], service.chip, 1);
      append(r.problems, check_solo(job, solo));
      ++solo_checked;
    }
  }
  r.info.push_back(fmt("%zu timed streams, %llu preemptions, %llu jobs "
                       "checked against solo runs",
                       r.op_ms.size(),
                       static_cast<unsigned long long>(preemptions),
                       static_cast<unsigned long long>(solo_checked)));
  return r;
}

}  // namespace wpbench

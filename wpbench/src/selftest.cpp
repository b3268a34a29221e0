// Self-test of the benchmark's output checks: each check passes on a real
// program output and trips on a deliberately corrupted copy of it (a
// swapped row, a flipped field word, a wrong hash, ...). Run through
// `python3 wpbench/run.py --self-test`; exits non-zero on any failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "checks.h"
#include "common/parallel.h"
#include "dg/solver.h"
#include "dg/sources.h"
#include "workloads.h"

namespace wp = wavepim;
using wpbench::Problems;

namespace {

int g_failures = 0;
int g_checks = 0;

void expect(bool ok, const char* what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}
void passes(const Problems& p, const char* what) {
  for (const auto& s : p) {
    std::printf("  unexpected: %s\n", s.c_str());
  }
  expect(p.empty(), what);
}
void trips(const Problems& p, const char* what) { expect(!p.empty(), what); }

std::size_t index_of(const std::vector<wp::core::ComparisonRow>& rows,
                     const char* platform) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].platform == platform) {
      return i;
    }
  }
  std::printf("no row %s\n", platform);
  std::exit(1);
}

void test_grid() {
  const wp::mapping::Problem problem{wp::dg::ProblemKind::Acoustic, 3, 8};
  const auto htree =
      wp::core::System::compare_all(problem, 1024, wp::pim::Topology::HTree);
  const auto bus =
      wp::core::System::compare_all(problem, 1024, wp::pim::Topology::Bus);
  passes(wpbench::check_grid(htree, 1024), "grid passes");
  passes(wpbench::check_fabric_pair(htree, bus), "fabric pair passes");

  // The 28 nm and 12 nm rows of one capacity trade their values.
  auto swapped = htree;
  const std::size_t i28 = index_of(swapped, "PIM-2GB-28nm");
  const std::size_t i12 = index_of(swapped, "PIM-2GB-12nm");
  std::swap(swapped[i28], swapped[i12]);
  std::swap(swapped[i28].platform, swapped[i12].platform);
  trips(wpbench::check_grid(swapped, 1024), "swapped node rows trip");

  auto short_grid = htree;
  short_grid.pop_back();
  trips(wpbench::check_grid(short_grid, 1024), "missing row trips");

  auto bad_norm = htree;
  bad_norm[3].normalized_time *= 1.001;
  trips(wpbench::check_grid(bad_norm, 1024), "speedup x normalized trips");

  auto bad_total = htree;
  bad_total[7].total_time = bad_total[7].step_time * 1000.0;
  trips(wpbench::check_grid(bad_total, 1024), "total != step x steps trips");

  trips(wpbench::check_fabric_pair(bus, htree), "fabrics swapped trip");
  auto gpu_moved = bus;
  gpu_moved[1].total_energy = gpu_moved[1].total_energy * 1.5;
  trips(wpbench::check_fabric_pair(htree, gpu_moved), "GPU row differs trips");
}

void test_field_and_batching() {
  const wp::mapping::Problem problem{wp::dg::ProblemKind::Acoustic, 2, 3};
  wp::mesh::StructuredMesh mesh(2, 1.0, wp::mesh::Boundary::Periodic);
  wp::dg::MaterialField<wp::dg::AcousticMaterial> materials(
      mesh.num_elements(), {.kappa = 1.0, .rho = 1.0});
  wp::dg::AcousticSolver cpu(mesh, std::move(materials),
                             {.n1d = 3, .flux = wp::dg::FluxType::Upwind});
  wp::dg::init_acoustic_plane_wave(cpu, wp::mesh::Axis::Y, 1);
  wp::pim::ChipConfig chip = wp::pim::chip_512mb();
  chip.block_limit = 32;
  wp::mapping::PimSimulation sim(problem, wp::mapping::ExpansionMode::None,
                                 chip);
  sim.set_exec_path(wp::mapping::ExecPath::Word);
  sim.set_num_threads(1);
  sim.load_state(cpu.state());
  for (int s = 0; s < 3; ++s) {
    sim.step(cpu.stable_dt());
    cpu.step(cpu.stable_dt());
  }
  wp::dg::Field got = sim.read_state();
  passes(wpbench::check_field(got.flat(), cpu.state().flat(), 1e-4),
         "field passes");
  std::vector<float> flipped(got.flat().begin(), got.flat().end());
  std::size_t peak = 0;
  for (std::size_t i = 0; i < flipped.size(); ++i) {
    if (std::abs(flipped[i]) > std::abs(flipped[peak])) {
      peak = i;
    }
  }
  std::uint32_t bits = 0;
  std::memcpy(&bits, &flipped[peak], sizeof(bits));
  bits ^= 0x80000000u;  // sign bit of the largest value
  std::memcpy(&flipped[peak], &bits, sizeof(bits));
  trips(wpbench::check_field(flipped, cpu.state().flat(), 1e-4),
        "flipped field word trips");
  flipped.pop_back();
  trips(wpbench::check_field(flipped, cpu.state().flat(), 1e-4),
        "short field trips");

  const auto& res = sim.residency();
  passes(wpbench::check_batched(res.is_resident(), res.slice_loads(),
                                res.slice_stores()),
         "batched run passes");
  trips(wpbench::check_batched(true, res.slice_loads(), res.slice_stores()),
        "resident run trips");
  trips(wpbench::check_batched(false, res.slice_loads(),
                               res.slice_stores() - 1),
        "unbalanced staging trips");
}

void test_stream() {
  auto specs = wpbench::make_stream(7, 0);
  specs.resize(12);
  wp::service::ServiceOptions options;
  options.num_chips = 4;
  options.policy = wp::service::Policy::Edf;
  options.chip.net_backend = wp::pim::NetBackendKind::Analytic;
  const auto report = wp::service::Scheduler(options).run(specs);
  passes(wpbench::check_stream(specs, report), "stream passes");

  auto lost = report;
  lost.jobs.pop_back();
  trips(wpbench::check_stream(specs, lost), "lost job trips");
  auto short_run = report;
  short_run.jobs[2].steps_run -= 1;
  trips(wpbench::check_stream(specs, short_run), "short budget trips");
  auto early = report;
  early.jobs[4].completion_s = specs[4].arrival_s * 0.5;
  trips(wpbench::check_stream(specs, early), "completion before arrival trips");

  const auto& job = report.jobs[5];
  const auto solo = wp::service::run_job_solo(specs[job.id], options.chip, 1);
  passes(wpbench::check_solo(job, solo), "solo match passes");
  auto wrong_hash = job;
  wrong_hash.hash[0] = wrong_hash.hash[0] == '0' ? '1' : '0';
  trips(wpbench::check_solo(wrong_hash, solo), "wrong hash trips");
  auto wrong_ledger = job;
  wrong_ledger.costs.flux.energy = wrong_ledger.costs.flux.energy * 1.000001;
  trips(wpbench::check_solo(wrong_ledger, solo), "ledger drift trips");
  auto wrong_net = job;
  wrong_net.net.transfers += 1;
  trips(wpbench::check_solo(wrong_net, solo), "net ledger drift trips");
}

}  // namespace

int main() {
  wp::ThreadPool::set_global_threads(1);
  test_grid();
  test_field_and_batching();
  test_stream();
  std::printf("selftest: %d checks, %d failures\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}

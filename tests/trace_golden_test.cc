// Golden trace-hash A/B regression test.
//
// The hot-path optimizations in src/sim (inline callbacks, 4-ary event heap,
// cancellation slab, pooled coroutine frames) are only admissible if they are
// *bit-identical* refactors: the optimized engine must execute the same
// events at the same instants in the same order as the engine it replaced.
// Simulator::trace_hash() folds every executed event's (time, seq) pair into
// an order-sensitive hash, so equality against a pre-recorded golden value
// from the seed implementation proves bit-identity end to end — through the
// device models, buffer pool, scan/join operators, and calibrator.
//
// The golden values below were recorded from the pre-optimization engine
// (commit 1579194) on x86-64. Every arithmetic operation on the simulated
// timeline is IEEE-correctly-rounded (+, -, *, /, sqrt) or glibc-stable
// (log2 in the sort-cost burst), so the values are stable across build
// types and recent x86-64 toolchains. If a *deliberate* timing-model change
// invalidates them, regenerate with:
//
//   PIOQO_PRINT_TRACE_GOLDENS=1 ./build/tests/trace_golden_test
//
// and update the tables — in the same commit that justifies the change.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/logging.h"
#include "core/calibrator.h"
#include "db/database.h"
#include "exec/join_operators.h"
#include "io/device_factory.h"
#include "sim/sim_checks.h"
#include "sim/simulator.h"
#include "storage/data_generator.h"

namespace pioqo {
namespace {

/// A fig04-style scenario: seeded table, flushed pool, the paper's query Q
/// under IS, FTS and PIS (dop 8) — same shape as replay_determinism_test.
uint64_t ScanScenario(io::DeviceKind kind) {
  db::DatabaseOptions opts;
  opts.device = kind;
  opts.pool_pages = 512;
  db::Database db(opts);

  storage::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_rows = 30000;
  cfg.rows_per_page = 33;
  cfg.c2_domain = 1 << 24;
  cfg.seed = 42;
  PIOQO_CHECK_OK(db.CreateTable(cfg));

  const exec::RangePredicate pred{
      0, storage::C2UpperBoundForSelectivity(cfg.c2_domain, 0.02)};
  for (auto method : {core::AccessMethod::kIs, core::AccessMethod::kFts,
                      core::AccessMethod::kPis}) {
    const int dop = method == core::AccessMethod::kPis ? 8 : 1;
    const int prefetch = method == core::AccessMethod::kFts ? 32 : 0;
    auto result =
        db.ExecuteScan("t", pred, method, dop, prefetch, /*flush_pool=*/true);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  return db.simulator().trace_hash();
}

/// A parallel index-nested-loop join (dop 8) over two seeded tables — the
/// probe phase generates the random-I/O queue depth the paper prices.
uint64_t JoinScenario(io::DeviceKind kind) {
  sim::Simulator sim;
  auto device = io::MakeDevice(sim, kind);
  storage::DiskImage disk(*device);
  storage::BufferPool pool(disk, 2048);
  core::CostConstants constants;
  sim::CpuScheduler cpu(sim, constants.logical_cores, constants.physical_cores,
                        constants.smt_penalty);

  storage::DatasetConfig inner_cfg;
  inner_cfg.name = "inner";
  inner_cfg.num_rows = 6000;
  inner_cfg.rows_per_page = 33;
  inner_cfg.c2_domain = 6000;
  inner_cfg.index_leaf_fill = 64;
  inner_cfg.seed = 7;
  auto inner = storage::BuildDataset(disk, inner_cfg);
  PIOQO_CHECK_OK(inner.status());

  storage::DatasetConfig outer_cfg;
  outer_cfg.name = "outer";
  outer_cfg.num_rows = 6000;
  outer_cfg.rows_per_page = 33;
  outer_cfg.c2_domain = 6000;
  outer_cfg.index_leaf_fill = 64;
  outer_cfg.seed = 8;
  auto outer = storage::BuildDataset(disk, outer_cfg);
  PIOQO_CHECK_OK(outer.status());

  exec::ExecContext ctx{sim, cpu, pool, constants};
  auto result = exec::RunIndexNestedLoopJoin(ctx, outer->table, inner->table,
                                             inner->index_c2,
                                             exec::RangePredicate{0, 300}, 8);
  EXPECT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_GT(result.rows_joined, 0u);
  return sim.trace_hash();
}

/// An early-stopping grid calibration — the workload the tentpole exists to
/// accelerate (Secs. 4.4-4.6), heavy on cancellable deadline churn.
uint64_t CalibrationScenario(io::DeviceKind kind) {
  sim::Simulator sim;
  auto device = io::MakeDevice(sim, kind);
  core::CalibratorOptions options;
  options.max_pages_per_point = 400;
  options.repetitions = 1;
  core::Calibrator calibrator(sim, *device, options);
  auto result = calibrator.Calibrate();
  EXPECT_GT(result.pages_read, 0u);
  return sim.trace_hash();
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// An open-loop workload through Database::RunWorkload, in two calls. The
/// requests are listed out of arrival order, share arrival instants, include
/// queries due exactly at Now() (at time zero, and again when the second
/// call starts mid-timeline), carry deadlines that fire and cancellations
/// that land mid-query, and queue behind a tight admission budget. The
/// result folds every query's terminal state and latency into the trace
/// hash, so it pins both the event order and the per-query outcomes.
uint64_t WorkloadScenario(io::DeviceKind kind) {
  db::DatabaseOptions opts;
  opts.device = kind;
  opts.pool_pages = 512;
  db::Database db(opts);

  storage::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_rows = 20000;
  cfg.rows_per_page = 33;
  cfg.c2_domain = 1 << 24;
  cfg.seed = 42;
  PIOQO_CHECK_OK(db.CreateTable(cfg));
  db::AdmissionOptions admission;
  admission.max_concurrent_queries = 2;
  admission.max_total_dop = 8;
  db.EnableAdmissionControl(admission);

  using core::AccessMethod;
  auto request = [&](AccessMethod method, int dop, int prefetch, double sel,
                     double arrival_us) {
    db::Database::QueryRequest req;
    req.scan = {"t",
                {0, storage::C2UpperBoundForSelectivity(cfg.c2_domain, sel)},
                method, dop, prefetch};
    req.arrival_us = arrival_us;
    return req;
  };

  uint64_t h = 0;
  size_t completed = 0;
  size_t timed_out = 0;
  size_t cancelled = 0;
  auto run = [&](std::vector<db::Database::QueryRequest> requests) {
    auto report = db.RunWorkload(requests, /*flush_pool=*/false);
    PIOQO_CHECK_OK(report.status());
    completed += report->completed;
    timed_out += report->timed_out;
    cancelled += report->cancelled;
    for (const auto& q : report->queries) {
      h = Mix64(h ^ static_cast<uint64_t>(q.terminal));
      h = Mix64(h ^ DoubleBits(q.latency_us));
      h = Mix64(h ^ q.rows_matched);
    }
  };

  std::vector<db::Database::QueryRequest> first = {
      request(AccessMethod::kPis, 4, 4, 0.01, 4000.0),
      request(AccessMethod::kIs, 1, 0, 0.002, 0.0),
      request(AccessMethod::kFts, 1, 32, 0.05, 1500.0),
      request(AccessMethod::kPis, 8, 0, 0.02, 1500.0),
      request(AccessMethod::kIs, 1, 0, 0.005, 0.0),
      request(AccessMethod::kPfts, 4, 0, 0.1, 9000.0),
      request(AccessMethod::kIs, 1, 0, 0.001, 700.0),
      request(AccessMethod::kPis, 2, 2, 0.01, 4000.0),
  };
  first[3].timeout_us = 2000.0;
  first[5].cancel_at_us = 12000.0;
  first[6].cancel_at_us = 900.0;
  first[7].timeout_us = 1e9;
  run(std::move(first));

  const double t = db.simulator().Now();
  std::vector<db::Database::QueryRequest> second = {
      request(AccessMethod::kIs, 1, 0, 0.003, t + 2500.0),
      request(AccessMethod::kPis, 4, 4, 0.02, t),
      request(AccessMethod::kFts, 1, 16, 0.2, t + 500.0),
      request(AccessMethod::kIs, 1, 0, 0.001, t),
      request(AccessMethod::kPis, 4, 0, 0.01, t + 500.0),
  };
  second[2].timeout_us = 3000.0;
  second[4].cancel_at_us = t + 1500.0;
  run(std::move(second));
  // The scenario must keep exercising every terminal path it was built for.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(timed_out, 0u);
  EXPECT_GT(cancelled, 0u);
  return Mix64(h ^ db.simulator().trace_hash());
}

struct Golden {
  const char* scenario;
  io::DeviceKind kind;
  uint64_t (*run)(io::DeviceKind);
  uint64_t expected;
};

// Pre-recorded from the seed (pre-optimization) engine; see file comment.
const Golden kGoldens[] = {
    {"scan", io::DeviceKind::kHdd7200, ScanScenario, 0x24eee24c061081fdULL},
    {"scan", io::DeviceKind::kSsdConsumer, ScanScenario, 0x259385d7edd91aaaULL},
    {"scan", io::DeviceKind::kRaid8, ScanScenario, 0x21b65ee7f954b5b6ULL},
    {"join", io::DeviceKind::kHdd7200, JoinScenario, 0x6cf676cc01d2e1adULL},
    {"join", io::DeviceKind::kSsdConsumer, JoinScenario, 0x2a1c39c03fc4cc7cULL},
    {"join", io::DeviceKind::kRaid8, JoinScenario, 0xdc343f198b7b1922ULL},
    {"calibration", io::DeviceKind::kHdd7200, CalibrationScenario,
     0x514122da8f6674b0ULL},
    {"calibration", io::DeviceKind::kSsdConsumer, CalibrationScenario,
     0x36c266d188564212ULL},
    {"calibration", io::DeviceKind::kRaid8, CalibrationScenario,
     0x4df469592f6e6aa0ULL},
    // Recorded from the engine that parked every query in a Delay until its
    // arrival (commit 4ab3c9e), before arrivals were scheduled on demand.
    {"workload", io::DeviceKind::kHdd7200, WorkloadScenario,
     0x198b56fab289f714ULL},
    {"workload", io::DeviceKind::kSsdConsumer, WorkloadScenario,
     0xffa9ce3f64188b1dULL},
    {"workload", io::DeviceKind::kRaid8, WorkloadScenario,
     0xca8e003fc79354c5ULL},
};

TEST(TraceGoldenTest, MatchesSeedImplementation) {
  const bool print = std::getenv("PIOQO_PRINT_TRACE_GOLDENS") != nullptr;
  for (const Golden& g : kGoldens) {
    const uint64_t actual = g.run(g.kind);
    if (print) {
      std::printf("    {\"%s\", io::DeviceKind::k%s, %sScenario, "
                  "0x%016llxULL},\n",
                  g.scenario,
                  g.kind == io::DeviceKind::kHdd7200      ? "Hdd7200"
                  : g.kind == io::DeviceKind::kSsdConsumer ? "SsdConsumer"
                                                           : "Raid8",
                  g.scenario[0] == 's'   ? "Scan"
                  : g.scenario[0] == 'j' ? "Join"
                  : g.scenario[0] == 'w' ? "Workload"
                                         : "Calibration",
                  static_cast<unsigned long long>(actual));
      continue;
    }
    EXPECT_EQ(actual, g.expected)
        << g.scenario << " on " << io::DeviceKindName(g.kind)
        << ": trace diverged from the seed engine (rerun with "
           "PIOQO_PRINT_TRACE_GOLDENS=1 to regenerate after a deliberate "
           "timing-model change)";
  }
}

/// RunWorkload's memory must scale with the queries in flight, not with the
/// workload: 5000 short lookups spaced far apart leave at most a couple in
/// flight at any instant, so a probe halfway through the timeline must see
/// only their events and coroutine frames — not thousands of parked future
/// arrivals.
TEST(TraceGoldenTest, WorkloadFootprintIsBoundedByInFlightQueries) {
  db::DatabaseOptions opts;
  opts.device = io::DeviceKind::kSsdConsumer;
  db::Database db(opts);
  storage::DatasetConfig cfg;
  cfg.name = "t";
  cfg.num_rows = 20000;
  cfg.c2_domain = 1 << 24;
  PIOQO_CHECK_OK(db.CreateTable(cfg));
  db.EnableAdmissionControl({});

  constexpr size_t kQueries = 5000;
  constexpr double kSpacingUs = 2000.0;
  std::vector<db::Database::QueryRequest> requests(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    requests[i].scan = {
        "t",
        {0, storage::C2UpperBoundForSelectivity(cfg.c2_domain, 0.0005)},
        core::AccessMethod::kIs,
        1,
        0};
    requests[i].arrival_us = static_cast<double>(i) * kSpacingUs;
  }

  const double probe_us = (kQueries / 2) * kSpacingUs + kSpacingUs / 4;
  const size_t frames_before = sim::checks::NumLiveFrames();
  size_t pending_at_probe = 0;
  size_t frames_at_probe = 0;
  db.simulator().ScheduleAt(probe_us, [&] {
    pending_at_probe = db.simulator().num_pending();
    frames_at_probe = sim::checks::NumLiveFrames() - frames_before;
  });
  auto report = db.RunWorkload(requests, /*flush_pool=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->completed, kQueries);

  size_t in_flight = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    const double arrival = requests[i].arrival_us;
    if (arrival <= probe_us &&
        probe_us < arrival + report->queries[i].latency_us) {
      ++in_flight;
    }
  }
  // A lookup in flight holds a handful of events (its I/O, CPU burst, the
  // next arrival) and frames (lifecycle, scan worker); 16 each is generous
  // and still two orders of magnitude below the 2500 future arrivals.
  constexpr size_t kPerQuery = 16;
  EXPECT_LE(in_flight, 2u);
  EXPECT_LE(pending_at_probe, kPerQuery * (in_flight + 1));
  if (sim::checks::Enabled()) {
    EXPECT_LE(frames_at_probe, kPerQuery * (in_flight + 1));
  }
}

}  // namespace
}  // namespace pioqo

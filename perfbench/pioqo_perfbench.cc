// End-to-end benchmark program: replays one named, seeded, open-loop
// workload through the public db::Database API and prints every metric by
// name with its unit. See perfbench/README.md for the workloads, the metric
// table and the baseline; perfbench/run.py builds this binary and is the
// command BENCHMARK.json names.
//
//   pioqo_perfbench --workload lookup_ssd --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics: the workload is set up and
// replayed on a fresh Database repeatedly until --seconds have passed, and
// host-time metrics are medians over those repetitions. --trace 1 alternates
// an untraced repetition with a traced one, which times the calls into each
// layer from out here (spans) and snapshots the layers' public counters
// before and after; it prints the per-layer metrics.
//
// Every run checks its outputs and exits 1 without printing a result when a
// check fails: every completed query's row count must equal the exact count
// from Database::SelectivityOf, and every repetition must reproduce the
// first one's simulator trace hash and per-query simulated latencies.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "db/database.h"
#include "io/device_factory.h"
#include "io/ssd_device.h"

namespace {

using namespace pioqo;
using Clock = std::chrono::steady_clock;
using db::Database;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Input generator owned by the benchmark (SplitMix64), so a change to the
/// program's own RNGs never changes the workloads.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  /// Exponential inter-arrival gap with the given mean (Poisson arrivals).
  double Exponential(double mean) { return -mean * std::log1p(-Uniform()); }

 private:
  uint64_t state_;
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return InputRng(seed * 0x100000001b3ULL + stream).Next();
}

// --- Workloads ---------------------------------------------------------------

enum class Mix { kLookup, kScan, kCached, kDrift };

struct Workload {
  const char* name;
  Mix mix;
  io::DeviceKind device;
  uint32_t table_pages;
  uint32_t pool_pages;
  size_t queries;  // at --scale 1
};

// Why each workload exists, and which layers it loads, is in README.md.
constexpr Workload kWorkloads[] = {
    {"lookup_ssd", Mix::kLookup, io::DeviceKind::kSsdConsumer, 16384, 1024,
     10000},
    {"scan_raid", Mix::kScan, io::DeviceKind::kRaid8, 2048, 512, 1150},
    {"cached_hdd", Mix::kCached, io::DeviceKind::kHdd7200, 1024, 2048, 8000},
    {"drift_ssd", Mix::kDrift, io::DeviceKind::kSsdConsumer, 2048, 512, 1000},
};

constexpr uint32_t kRowsPerPage = 33;
// Open-loop arrival rates. scan_raid and cached_hdd run at the highest rate
// tried that builds no growing backlog (README.md).
constexpr double kLookupMeanGapUs = 2'500.0;   // ~400 q/s
constexpr double kScanMeanGapUs = 400'000.0;   // ~2.5 q/s
constexpr double kCachedMeanGapUs = 8'000.0;   // ~125 q/s
constexpr double kDriftMeanGapUs = 400'000.0;  // ~2.5 q/s
constexpr size_t kDriftThrottleAfter = 10;     // queries before the throttle
constexpr double kDriftThrottleMultiplier = 6.0;

storage::DatasetConfig TableConfig(const Workload& w, uint64_t seed) {
  storage::DatasetConfig config;
  config.name = "T";
  config.num_rows = uint64_t{kRowsPerPage} * w.table_pages;
  config.rows_per_page = kRowsPerPage;
  config.seed = SubSeed(seed, 1);
  return config;
}

/// A predicate of selectivity ~`sel` over a random window of the C2 domain.
exec::RangePredicate RandomRange(InputRng& rng, int32_t domain, double sel) {
  const int64_t width = std::max<int64_t>(
      1, std::llround(sel * static_cast<double>(domain)));
  const int64_t low = static_cast<int64_t>(
      rng.Uniform() * static_cast<double>(domain - width + 1));
  return exec::RangePredicate{static_cast<int32_t>(low),
                              static_cast<int32_t>(low + width - 1)};
}

double LogUniform(InputRng& rng, double lo, double hi) {
  return std::exp(rng.Uniform(std::log(lo), std::log(hi)));
}

/// The open-loop request list: arrival times are fixed in simulated time
/// up front, whatever the engine does with them.
std::vector<Database::QueryRequest> MakeRequests(const Workload& w,
                                                 uint64_t seed,
                                                 double start_us, size_t n) {
  InputRng rng(SubSeed(seed, 2));
  const int32_t domain = storage::DatasetConfig{}.c2_domain;
  std::vector<Database::QueryRequest> requests(n);
  double t = start_us;
  for (size_t i = 0; i < n; ++i) {
    Database::QueryRequest& req = requests[i];
    req.scan.table = "T";
    req.arrival_us = t;
    switch (w.mix) {
      case Mix::kLookup:
        req.scan.pred = RandomRange(rng, domain, LogUniform(rng, 1e-6, 1e-3));
        req.use_optimizer = true;
        t += rng.Exponential(kLookupMeanGapUs);
        break;
      case Mix::kScan:
        req.scan.pred = RandomRange(rng, domain, rng.Uniform(0.1, 0.3));
        switch (i % 3) {
          case 0:
            req.scan.method = core::AccessMethod::kPfts;
            req.scan.dop = 8;
            break;
          case 1:
            req.scan.method = core::AccessMethod::kPis;
            req.scan.dop = 8;
            req.scan.prefetch_depth = 8;
            break;
          default:
            req.use_optimizer = true;
            break;
        }
        t += rng.Exponential(kScanMeanGapUs);
        break;
      case Mix::kCached:
        switch (i % 4) {
          case 0:
            req.scan.pred = RandomRange(rng, domain, rng.Uniform(0.2, 1.0));
            req.scan.method = core::AccessMethod::kFts;
            break;
          case 1:
            req.scan.pred =
                RandomRange(rng, domain, LogUniform(rng, 1e-3, 5e-2));
            req.scan.method = core::AccessMethod::kIs;
            break;
          case 2:
            req.scan.pred =
                RandomRange(rng, domain, LogUniform(rng, 1e-3, 5e-2));
            req.scan.method = core::AccessMethod::kPis;
            req.scan.dop = 4;
            req.scan.prefetch_depth = 4;
            break;
          default:
            req.scan.pred =
                RandomRange(rng, domain, LogUniform(rng, 1e-4, 0.3));
            req.use_optimizer = true;
            break;
        }
        t += rng.Exponential(kCachedMeanGapUs);
        break;
      case Mix::kDrift: {
        // drift_soak's selectivity cycle and planner knobs.
        static constexpr double kSel[4] = {0.30, 0.01, 0.10, 0.02};
        req.scan.pred = RandomRange(rng, domain, kSel[i % 4]);
        req.use_optimizer = true;
        req.optimizer.parallel_degrees = {1, 2, 4, 8, 16};
        req.optimizer.dtt_fallback_confidence = 0.6;
        t += kDriftMeanGapUs * rng.Uniform(0.75, 1.25);
        break;
      }
    }
  }
  return requests;
}

// --- Spans -------------------------------------------------------------------

/// In-memory span recorder for the traced run; written out once at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  // index into spans(), -1 for a root
  };

  Tracer() : origin_(Clock::now()) {}

  int Begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNs(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double End(int id) {
    PIOQO_CHECK(!open_.empty() && open_.back() == id) << "unbalanced span";
    open_.pop_back();
    spans_[id].end_ns = NowNs();
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- Set-up ------------------------------------------------------------------

struct Instance {
  std::unique_ptr<Database> db;
  double calib_sim_us = 0.0;
  int calib_points_measured = 0;
  int calib_points_defaulted = 0;
  uint64_t calib_pages_read = 0;
  io::SsdThrottleSchedule throttle;  // drift_ssd only
  std::vector<Database::QueryRequest> requests;
  double setup_s = 0.0;
  double create_s = 0.0;
  double calibrate_s = 0.0;
  double warmup_s = 0.0;
};

/// Reads the whole table and index into the pool (cached_hdd).
void WarmUp(Database& database) {
  const exec::RangePredicate all{0, storage::DatasetConfig{}.c2_domain};
  PIOQO_CHECK_OK(database
                     .ExecuteScan("T", all, core::AccessMethod::kFts, 1, 0,
                                  /*flush_pool=*/false)
                     .status());
  PIOQO_CHECK_OK(database
                     .ExecuteScan("T", all, core::AccessMethod::kIs, 1, 0,
                                  /*flush_pool=*/false)
                     .status());
}

/// Builds the workload's Database (construction, CreateTable, Calibrate,
/// warm-up and lifecycle wiring — all timed as set-up) and its requests.
Instance SetUp(const Workload& w, uint64_t seed, size_t queries,
               Tracer* tracer) {
  Instance inst;
  const auto start = Clock::now();
  db::DatabaseOptions options;
  options.device = w.device;
  options.pool_pages = w.pool_pages;
  options.calibration.seed = SubSeed(seed, 3);
  inst.db = std::make_unique<Database>(std::move(options));
  Database& database = *inst.db;
  {
    ScopedSpan span(tracer, "CreateTable");
    const auto t = Clock::now();
    PIOQO_CHECK_OK(database.CreateTable(TableConfig(w, seed)));
    inst.create_s = SecondsSince(t);
  }
  {
    ScopedSpan span(tracer, "Calibrate");
    const auto t = Clock::now();
    const core::CalibrationResult calibration = database.Calibrate();
    inst.calib_sim_us = calibration.calibration_time_us;
    inst.calib_points_measured = calibration.points_measured;
    inst.calib_points_defaulted = calibration.points_defaulted;
    inst.calib_pages_read = calibration.pages_read;
    inst.calibrate_s = SecondsSince(t);
  }
  if (w.mix == Mix::kCached) {
    ScopedSpan span(tracer, "WarmUp");
    const auto t = Clock::now();
    WarmUp(database);
    inst.warmup_s = SecondsSince(t);
  }
  database.EnableAdmissionControl();
  const double start_us = database.simulator().Now() + 10'000.0;
  if (w.mix == Mix::kDrift) {
    // drift_soak's configuration: a permanent thermal throttle arms after
    // the first queries; the health monitor and drift defense both run.
    database.EnableHealthMonitor();
    db::DriftDefenseOptions defense;
    defense.detector.drift_ratio = 2.0;
    defense.calibrator.calibration.max_pages_per_point = 256;
    defense.calibrator.poll_interval_us = 5'000.0;
    defense.calibrator.idle_threshold_us = 20'000.0;
    defense.calibrator.busy_escalation_us = 100'000.0;
    defense.calibrator.busy_probe_interval_us = 20'000.0;
    database.EnableDriftDefense(defense);
    io::SsdThrottlePhase phase;
    phase.start_us =
        start_us + (kDriftThrottleAfter + 0.5) * kDriftMeanGapUs;
    phase.end_us = 1e15;
    phase.latency_multiplier = kDriftThrottleMultiplier;
    phase.unit_divisor = 4;
    inst.throttle = {phase};
    auto* ssd = dynamic_cast<io::SsdDevice*>(&database.raw_device());
    PIOQO_CHECK(ssd != nullptr);
    ssd->SetThrottleSchedule(inst.throttle);
  }
  inst.setup_s = SecondsSince(start);
  inst.requests = MakeRequests(w, seed, start_us, queries);
  return inst;
}

// --- One repetition ----------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};
using Metrics = std::vector<Metric>;

struct Rep {
  double setup_s = 0.0;
  double run_host_s = 0.0;
  size_t attempted = 0;
  size_t completed = 0;
  size_t failed_exhausted = 0;
  uint64_t trace_hash = 0;
  /// Simulated arrival-to-terminal latency of every query, request order.
  std::vector<double> latencies_us;
  std::vector<int> terminals;
  Metrics end_to_end;  // deterministic part only (sim_*, error, calib)
  Metrics layers;      // traced repetitions only
};

/// Exact matching-row counts, one per request, from the index (outside any
/// timed region). Identical for every repetition of one seed.
std::vector<uint64_t> ExpectedRows(Database& database,
                                   const std::vector<Database::QueryRequest>&
                                       requests) {
  const double rows =
      static_cast<double>((*database.GetTable("T"))->table.num_rows());
  std::vector<uint64_t> expected;
  expected.reserve(requests.size());
  for (const auto& req : requests) {
    const StatusOr<double> sel = database.SelectivityOf("T", req.scan.pred);
    PIOQO_CHECK_OK(sel.status());
    expected.push_back(static_cast<uint64_t>(std::llround(*sel * rows)));
  }
  return expected;
}

struct RepOptions {
  bool traced = false;
  bool corrupt_row_count = false;  // self-test hook for the output check
};

/// Host seconds to replay `trace` on a fresh device of `kind`; with
/// `submit` false each request's event runs but submits nothing (control).
double ReplayDevice(io::DeviceKind kind, const io::SsdThrottleSchedule& throttle,
                    const std::vector<io::TraceEntry>& trace, bool submit,
                    uint64_t* completions) {
  sim::Simulator sim;
  std::unique_ptr<io::Device> device = io::MakeDevice(sim, kind);
  if (!throttle.empty()) {
    auto* ssd = dynamic_cast<io::SsdDevice*>(device.get());
    PIOQO_CHECK(ssd != nullptr);
    ssd->SetThrottleSchedule(throttle);
  }
  uint64_t done = 0;
  const auto start = Clock::now();
  for (const io::TraceEntry& e : trace) {
    io::Device* dev = device.get();
    const io::IoRequest req{e.kind, e.offset, e.length};
    sim.ScheduleAt(e.submit_time, [dev, req, submit, &done] {
      if (!submit) {
        ++done;
        return;
      }
      dev->Submit(req, [&done](const io::IoResult&) { ++done; });
    });
  }
  sim.Run();
  const double seconds = SecondsSince(start);
  *completions = done;
  return seconds;
}

/// Returns false (with a message on stderr) when an output check fails.
bool CheckRows(const Database::WorkloadReport& report,
               const std::vector<uint64_t>& expected) {
  for (size_t i = 0; i < report.queries.size(); ++i) {
    const Database::QueryReport& q = report.queries[i];
    if (q.terminal != Database::QueryTerminal::kCompleted) continue;
    if (q.rows_matched != expected[i]) {
      std::fprintf(stderr,
                   "output check: query %zu matched %llu rows, expected "
                   "%llu\n",
                   i, static_cast<unsigned long long>(q.rows_matched),
                   static_cast<unsigned long long>(expected[i]));
      return false;
    }
  }
  return true;
}

bool RunRep(const Workload& w, uint64_t seed, size_t queries,
            const RepOptions& opts, std::vector<uint64_t>* expected,
            Tracer* tracer, Rep* out) {
  int setup_span = tracer ? tracer->Begin("SetUp") : -1;
  Instance inst = SetUp(w, seed, queries, tracer);
  if (tracer) tracer->End(setup_span);
  Database& database = *inst.db;
  if (expected->empty()) *expected = ExpectedRows(database, inst.requests);

  // Planning is timed on a second, identically built Database so that the
  // measured replay below is untouched by the extra calls.
  std::vector<double> plan_us;
  if (opts.traced) {
    Instance twin = SetUp(w, seed, queries, nullptr);
    ScopedSpan plan_all(tracer, "PlanWorkload");
    for (const auto& req : twin.requests) {
      if (!req.use_optimizer) continue;
      const int id = tracer->Begin("PlanWorkloadQuery");
      const StatusOr<Database::PlannedQuery> plan =
          twin.db->PlanWorkloadQuery(req);
      plan_us.push_back(tracer->End(id) * 1e6);
      PIOQO_CHECK_OK(plan.status());
    }
  }

  // Public counters before the replay (never reset).
  io::Device& device = database.device();
  const io::DeviceStats& ds = device.stats();
  const storage::BufferPoolStats pool0 = database.pool().stats();
  const uint64_t reads0 = ds.reads(), bytes0 = ds.bytes_read();
  const uint64_t errors0 = ds.errors(), throttled0 = ds.throttled_commands();
  const int64_t lat_n0 = ds.latency_us().count();
  const double lat_sum0 = ds.latency_us().sum();
  const uint64_t events0 = database.simulator().num_executed();
  const double busy0 = database.cpu().busy_time();
  const uint64_t bursts0 = database.cpu().num_bursts();
  const double sim0 = database.simulator().Now();

  std::vector<io::TraceEntry> captured;
  if (opts.traced) device.set_trace_sink(&captured);
  const int run_span = tracer ? tracer->Begin("RunWorkload") : -1;
  const auto run_start = Clock::now();
  StatusOr<Database::WorkloadReport> report_or =
      database.RunWorkload(inst.requests, /*flush_pool=*/w.mix != Mix::kCached);
  out->run_host_s = SecondsSince(run_start);
  if (tracer) tracer->End(run_span);
  device.set_trace_sink(nullptr);
  PIOQO_CHECK_OK(report_or.status());
  const Database::WorkloadReport& report = *report_or;

  if (opts.corrupt_row_count) {
    for (size_t i = 0; i < report.queries.size(); ++i) {
      if (report.queries[i].terminal == Database::QueryTerminal::kCompleted) {
        ++(*expected)[i];
        break;
      }
    }
  }
  if (!CheckRows(report, *expected)) return false;

  // --- End-to-end (simulated, deterministic per seed) ----------------------
  out->setup_s = inst.setup_s;
  out->attempted = report.queries.size();
  out->completed = report.completed;
  out->trace_hash = database.simulator().trace_hash();
  std::vector<double> completed_us, admit_ms;
  uint64_t rows = 0;
  for (const auto& q : report.queries) {
    out->latencies_us.push_back(q.latency_us);
    out->terminals.push_back(static_cast<int>(q.terminal));
    if (q.terminal == Database::QueryTerminal::kCompleted) {
      completed_us.push_back(q.latency_us);
      rows += q.rows_matched;
    }
    if (q.granted_dop > 0) admit_ms.push_back(q.admit_wait_us / 1e3);
    if (q.terminal == Database::QueryTerminal::kFailed &&
        q.status.code() == StatusCode::kResourceExhausted) {
      ++out->failed_exhausted;
    }
  }
  const double attempted = static_cast<double>(out->attempted);
  const double completed = static_cast<double>(report.completed);
  out->end_to_end = {
      {"sim_p50_ms", Percentile(completed_us, 0.50) / 1e3, "ms"},
      {"sim_p99_ms", Percentile(completed_us, 0.99) / 1e3, "ms"},
      {"error_rate", 1.0 - completed / attempted, "ratio"},
      {"completed_ratio", completed / attempted, "ratio"},
      {"calib_sim_s", inst.calib_sim_us / 1e6, "s"},
  };

  if (!opts.traced) return true;

  // --- Per-layer counters (before/after deltas) ----------------------------
  const storage::BufferPoolStats& pool1 = database.pool().stats();
  const double events =
      static_cast<double>(database.simulator().num_executed() - events0);
  const double reads = static_cast<double>(ds.reads() - reads0);
  const double lat_n = static_cast<double>(ds.latency_us().count() - lat_n0);
  const double lat_sum = ds.latency_us().sum() - lat_sum0;
  const double sim_span_us = database.simulator().Now() - sim0;
  const double fetches = static_cast<double>(pool1.fetches - pool0.fetches);
  const double prefetch_issued =
      static_cast<double>(pool1.prefetch_issued - pool0.prefetch_issued);
  auto pool_delta = [&](uint64_t storage::BufferPoolStats::*field) {
    return static_cast<double>(pool1.*field - pool0.*field);
  };

  size_t planned = 0, clamped = 0, dtt = 0;
  size_t chose[5] = {0, 0, 0, 0, 0};
  double dop_sum = 0.0;
  for (const auto& q : report.queries) {
    if (q.planned_dop == 0) continue;
    ++planned;
    ++chose[static_cast<int>(q.planned_method)];
    dop_sum += q.planned_dop;
    clamped += q.plan_dop_clamped;
    dtt += q.plan_dtt_fallback;
  }
  const db::AdmissionStats& adm = report.admission;
  db::DriftDefense::Stats defense;
  double confidence = 1.0;
  if (database.drift_defense() != nullptr) {
    defense = database.drift_defense()->stats();
    confidence = database.drift_defense()->confidence();
  }
  const double cache_lookups =
      static_cast<double>(report.plan_cache.hits + report.plan_cache.misses);
  auto d = [](auto v) { return static_cast<double>(v); };

  // Device replay: the captured requests through a fresh device model,
  // minus a control replay whose events submit nothing, leaves the host
  // cost of the device model alone.
  uint64_t replayed = 0, control = 0;
  const int replay_span = tracer->Begin("DeviceReplay");
  const double replay_s =
      ReplayDevice(w.device, inst.throttle, captured, true, &replayed);
  tracer->End(replay_span);
  const int control_span = tracer->Begin("DeviceReplayControl");
  const double control_s =
      ReplayDevice(w.device, inst.throttle, captured, false, &control);
  tracer->End(control_span);
  PIOQO_CHECK(replayed == captured.size() && control == captured.size())
      << "device replay lost requests";
  const double device_s = replay_s - control_s;

  out->layers = {
      {"sim.events", events, "count"},
      {"sim.events_per_query", Ratio(events, attempted), "count"},
      {"sim.host_ns_per_event", Ratio(out->run_host_s * 1e9, events),
       "ns"},
      {"io.reads", reads, "count"},
      {"io.reads_per_query", Ratio(reads, attempted), "count"},
      {"io.bytes_read", d(ds.bytes_read() - bytes0), "bytes"},
      {"io.lat_mean_us", Ratio(lat_sum, lat_n), "us"},
      // Little's law over the RunWorkload interval: time-weighted
      // outstanding requests = summed request latency / elapsed sim time.
      {"io.avg_qd", Ratio(lat_sum, sim_span_us), "count"},
      {"io.errors", d(ds.errors() - errors0), "count"},
      {"io.throttled_commands", d(ds.throttled_commands() - throttled0),
       "count"},
      {"io.replay_host_s", device_s, "s"},
      {"io.replay_ns_per_req", Ratio(device_s * 1e9, d(captured.size())),
       "ns"},
      {"io.replay_share", Ratio(device_s, out->run_host_s), "ratio"},
      {"storage.fetches_per_query", Ratio(fetches, attempted), "count"},
      {"storage.hit_ratio",
       Ratio(pool_delta(&storage::BufferPoolStats::hits), fetches), "ratio"},
      {"storage.evictions", pool_delta(&storage::BufferPoolStats::evictions),
       "count"},
      {"storage.joined_inflight",
       pool_delta(&storage::BufferPoolStats::joined_inflight), "count"},
      {"storage.prefetch_issued", prefetch_issued, "count"},
      {"storage.prefetch_dropped",
       pool_delta(&storage::BufferPoolStats::prefetch_dropped), "count"},
      {"storage.prefetch_useful_ratio",
       Ratio(pool_delta(&storage::BufferPoolStats::prefetch_read),
             prefetch_issued),
       "ratio"},
      {"storage.create_host_s", inst.create_s, "s"},
      {"storage.warmup_host_s", inst.warmup_s, "s"},
      {"core.calib_points_measured", d(inst.calib_points_measured),
       "count"},
      {"core.calib_points_defaulted", d(inst.calib_points_defaulted),
       "count"},
      {"core.calib_pages_read", d(inst.calib_pages_read), "count"},
      {"core.drift_observations", d(defense.observations), "count"},
      {"core.recal_triggered", d(defense.recalibrations_triggered), "count"},
      {"core.recal_completed", d(defense.recalibrations_completed), "count"},
      {"core.points_merged", d(defense.points_merged), "count"},
      {"core.final_confidence", confidence, "ratio"},
      {"core.calibrate_host_s", inst.calibrate_s, "s"},
      {"exec.rows_matched", d(rows), "count"},
      {"exec.rows_per_query", Ratio(d(rows), completed), "count"},
      {"exec.cpu_busy_s", (database.cpu().busy_time() - busy0) / 1e6, "s"},
      {"exec.cpu_bursts", d(database.cpu().num_bursts() - bursts0), "count"},
      {"opt.planned", d(planned), "count"},
      {"opt.chose_fts", d(chose[static_cast<int>(core::AccessMethod::kFts)]),
       "count"},
      {"opt.chose_pfts",
       d(chose[static_cast<int>(core::AccessMethod::kPfts)]), "count"},
      {"opt.chose_is", d(chose[static_cast<int>(core::AccessMethod::kIs)]),
       "count"},
      {"opt.chose_pis", d(chose[static_cast<int>(core::AccessMethod::kPis)]),
       "count"},
      {"opt.dop_mean", Ratio(dop_sum, d(planned)), "count"},
      {"opt.plan_cache_hit_ratio", Ratio(d(report.plan_cache.hits),
                                         cache_lookups),
       "ratio"},
      {"opt.dop_clamped", d(clamped), "count"},
      {"opt.dtt_fallback", d(dtt), "count"},
      {"opt.plan_host_us_p50", Percentile(plan_us, 0.50), "us"},
      {"opt.plan_host_us_p99", Percentile(plan_us, 0.99), "us"},
      {"db.admit_wait_p50_ms", Percentile(admit_ms, 0.50), "ms"},
      {"db.admit_wait_p99_ms", Percentile(admit_ms, 0.99), "ms"},
      {"db.peak_running", d(adm.peak_running), "count"},
      {"db.peak_total_dop", d(adm.peak_total_dop), "count"},
      {"db.partial_grants", d(adm.partial_grants), "count"},
      {"db.degraded_clamps", d(adm.degraded_clamps), "count"},
      {"db.background_grants", d(adm.background_grants), "count"},
      {"db.background_denials", d(adm.background_denials), "count"},
      {"db.shed", d(report.shed), "count"},
      {"db.timed_out", d(report.timed_out), "count"},
      {"db.cancelled", d(report.cancelled), "count"},
      {"db.failed_exhausted", d(out->failed_exhausted), "count"},
      {"db.failed_other", d(report.failed - out->failed_exhausted), "count"},
      {"db.run_host_s", out->run_host_s, "s"},
  };
  return true;
}

// --- Command line --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
  std::string commit = "unknown";
  bool corrupt_row_count = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: pioqo_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale X] [--trace-out FILE] "
               "[--commit SHA] [--corrupt-row-count]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-row-count") {
      args.corrupt_row_count = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scale") {
      args.scale = std::strtod(value, nullptr);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.scale > 0.0)) Usage("--scale must be positive");
  return args;
}

constexpr size_t kMinSetups = 7;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string MetaJson(const Args& args, size_t queries, size_t reps) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"queries\": %zu, "
                "\"repetitions\": %zu, \"trace\": %d, \"build_type\": \"%s\", "
                "\"PIOQO_SIM_CHECKS\": %d, \"nproc\": %ld, \"commit\": "
                "\"%s\"}",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), queries, reps,
                args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_SIM_CHECKS,
                sysconf(_SC_NPROCESSORS_ONLN), args.commit.c_str());
  return buf;
}

void WriteTrace(const std::string& path, const std::string& meta,
                const Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"meta\": %s,\n \"spans\": [", meta.c_str());
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d}",
                 i == 0 ? "" : ",", i, spans[i].name,
                 static_cast<long long>(spans[i].start_ns),
                 static_cast<long long>(spans[i].end_ns), spans[i].parent);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

/// Same seed, same simulation: every repetition must match the first.
bool SameSimulation(const Rep& a, const Rep& b) {
  if (a.trace_hash != b.trace_hash || a.latencies_us != b.latencies_us ||
      a.terminals != b.terminals || a.end_to_end.size() != b.end_to_end.size()) {
    return false;
  }
  for (size_t i = 0; i < a.end_to_end.size(); ++i) {
    if (a.end_to_end[i].value != b.end_to_end[i].value) return false;
  }
  return true;
}

void PrintJsonMetrics(const Metrics& metrics) {
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *workload;
  const size_t queries = std::max<size_t>(
      1, static_cast<size_t>(std::llround(w.queries * args.scale)));

  // Repeat until the time is used up. A repetition starts only if it is
  // expected to finish in time, but the same-seed check always gets a
  // repeat: two untraced repetitions, or one untraced/traced pair.
  const auto start = Clock::now();
  std::vector<uint64_t> expected;
  std::vector<Rep> untraced, traced;
  std::vector<double> rep_seconds;
  Tracer tracer;
  while (true) {
    const double elapsed = SecondsSince(start);
    const size_t reps = untraced.size();
    const size_t min_reps = args.trace ? 1 : 2;
    if (reps >= min_reps && elapsed + Median(rep_seconds) > args.seconds) {
      break;
    }
    const auto rep_start = Clock::now();
    RepOptions opts;
    opts.corrupt_row_count = args.corrupt_row_count;
    Rep rep;
    if (!RunRep(w, args.seed, queries, opts, &expected, nullptr, &rep)) {
      return 1;
    }
    untraced.push_back(std::move(rep));
    if (args.trace) {
      opts.traced = true;
      opts.corrupt_row_count = false;
      Rep traced_rep;
      const int span = tracer.Begin("Repetition");
      const bool ok =
          RunRep(w, args.seed, queries, opts, &expected, &tracer, &traced_rep);
      tracer.End(span);
      if (!ok) return 1;
      traced.push_back(std::move(traced_rep));
    }
    rep_seconds.push_back(SecondsSince(rep_start));
  }

  // Output check 2: every repetition (traced ones too) reproduces the first.
  const Rep& first = untraced.front();
  for (const std::vector<Rep>* reps : {&untraced, &traced}) {
    for (const Rep& rep : *reps) {
      if (!SameSimulation(first, rep)) {
        std::fprintf(stderr,
                     "output check: same-seed repetition diverged (trace "
                     "hash %016llx vs %016llx)\n",
                     static_cast<unsigned long long>(first.trace_hash),
                     static_cast<unsigned long long>(rep.trace_hash));
        return 1;
      }
    }
  }

  auto median_of = [](const std::vector<Rep>& reps, auto field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(field(r));
    return Median(v);
  };
  const double run_host_s =
      median_of(untraced, [](const Rep& r) { return r.run_host_s; });
  // Long repetitions leave few set-up samples; top them up with set-ups
  // that replay nothing so the median always has kMinSetups behind it.
  std::vector<double> setups;
  for (const Rep& r : untraced) setups.push_back(r.setup_s);
  while (!args.trace && setups.size() < kMinSetups) {
    setups.push_back(SetUp(w, args.seed, queries, nullptr).setup_s);
  }
  const double setup_s = Median(setups);
  const double host_qps = median_of(untraced, [](const Rep& r) {
    return static_cast<double>(r.completed) / r.run_host_s;
  });

  Metrics all = {{"host_qps", host_qps, "1/s"},
                 {"setup_s", setup_s, "s"},
                 {"peak_rss_mb", PeakRssMb(), "MB"}};
  all.insert(all.end(), first.end_to_end.begin(), first.end_to_end.end());

  const std::string meta = MetaJson(args, queries, untraced.size());
  std::printf("meta %s\n", meta.c_str());
  std::printf("%s: %zu queries x %zu repetitions, %zu completed, %zu failed "
              "with ResourceExhausted, trace hash %016llx\n",
              w.name, queries, untraced.size(), first.completed,
              first.failed_exhausted,
              static_cast<unsigned long long>(first.trace_hash));
  std::printf("host_qps per repetition:");
  for (const Rep& r : untraced) {
    std::printf(" %.0f", static_cast<double>(r.completed) / r.run_host_s);
  }
  std::printf("\n");
  for (const Metric& m : all) {
    std::printf("  %-16s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  Metrics result;
  if (!args.trace) {
    for (const Metric& m : all) {
      if (m.name != "error_rate") result.push_back(m);
    }
  } else {
    // Medians over the traced repetitions: the host times vary, the
    // counters are identical in every repetition.
    result = traced.front().layers;
    for (size_t i = 0; i < result.size(); ++i) {
      std::vector<double> v;
      for (const Rep& r : traced) v.push_back(r.layers[i].value);
      result[i].value = Median(v);
    }
    const double traced_run_s =
        median_of(traced, [](const Rep& r) { return r.run_host_s; });
    result.push_back({"trace.overhead_s", traced_run_s - run_host_s, "s"});
    for (const Metric& m : result) {
      std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    if (!args.trace_out.empty()) WriteTrace(args.trace_out, meta, tracer);
  }

  size_t attempted = 0, failed = 0;
  for (const Rep& r : untraced) {
    attempted += r.attempted;
    failed += r.attempted - r.completed;
  }
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              attempted, failed);
  PrintJsonMetrics(result);
  std::printf("}}\n");
  return 0;
}

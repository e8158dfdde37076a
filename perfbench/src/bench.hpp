// rotsv_perfbench: the repository's benchmark harness.
//
// Every layer is measured from outside, through public calls into the rotsv
// library; nothing in src/ is instrumented. The workloads, the metrics they
// report and the checks that make a run "correct" are described in
// perfbench/README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

// --- statistics ---------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

// --- the run's result ----------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t n = 0;      ///< samples behind the value
  std::string note;  ///< definition detail, or why a percentile is flagged
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Verdict digest of one sub-lot, compared across runs by the driver script.
struct SublotDigest {
  std::string lot;  ///< lot_key() of the sub-lot's spec
  int dice = 0;
  std::string digest;
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value,
           size_t n, const std::string& note = "");
  /// Adds `<base>_p50` and `<base>_p90` over `samples` (scaled by `scale`),
  /// flagging the p90 when fewer than ten samples lie beyond it.
  void add_percentiles(const std::string& base, const std::string& unit,
                       const std::vector<double>& samples, double scale,
                       const std::string& note = "");
  /// Adds `name` as the p90 of `samples` (scaled), flagged likewise.
  void add_p90(const std::string& name, const std::string& unit,
               const std::vector<double>& samples, double scale,
               const std::string& note = "");
  /// Adds a p90 `value` taken over `n` samples, flagged likewise.
  void add_p90_value(const std::string& name, const std::string& unit, double value,
                     size_t n, const std::string& note = "");
  /// Records a correctness check; a failed check counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void attempt(uint64_t attempted, uint64_t failed);
  void digest(const SublotDigest& d) { digests_.push_back(d); }

  bool correct() const;
  std::string to_json(const std::string& fingerprint_json) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<SublotDigest> digests_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::string json_escape(const std::string& text);

/// Size of a file in bytes; 0 when it cannot be read.
uint64_t file_bytes(const std::string& path);

// --- workloads -----------------------------------------------------------------

/// The lot shape a workload screens. lot_1v1, serve_1v1 and store_replay
/// share the "1v1" family, so their sub-lots are the same dice.
struct Family {
  std::string name;
  std::vector<double> voltages;
  double open_rate = 0.0;
  double leak_rate = 0.0;
  int grid = 0;     ///< rows = cols of one sub-lot's wafer
  int sublots = 0;  ///< sub-lots 0 .. sublots-1 make one pass
};

Family family_of(const std::string& workload);

/// Sub-lot `k` of a run: one wafer, seeded from (seed, k). Every sub-lot of
/// a run shares the tester seed, so all of them calibrate to the same bands.
rotsv::CampaignSpec sublot_spec(const Family& family, uint64_t seed, int k);

/// A one-die lot with the sub-lots' tester: run_campaign on it measures the
/// set-up (preflight, tester construction, calibration) of a real lot.
rotsv::CampaignSpec probe_spec(const Family& family, uint64_t seed, int i);

/// Screening threads and worker processes: the CPUs this process may run on.
size_t bench_threads();

/// Whether another pass starts: always the first, then only while a whole
/// pass, at the mean duration of the `done` passes since `start`, still
/// ends within `seconds` of `start`. Every pass screens the same dice, so
/// the time only decides how many repeats enter a run's medians.
bool another_pass(Clock::time_point start, double seconds, int done);

// --- exact statistics ------------------------------------------------------------

/// FNV-1a digest of every die's (die, verdict, tsv_verdicts, sim_steps,
/// attempts), in die order, followed by the aggregate's describe() text.
std::string verdict_digest(std::vector<rotsv::DieResult> results,
                           const std::string& describe);

/// Names a sub-lot across runs and workloads: lot id (family, seed, sub-lot
/// index) and grid. Equal keys must give equal digests.
std::string lot_key(const rotsv::CampaignSpec& spec);

/// The digested fields of one die, for per-die comparisons.
std::string die_key(const rotsv::DieResult& die);

// --- tracing ---------------------------------------------------------------------

namespace trace {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int die = -1;
};

/// Turns span recording on. Transient counting (transient_hook) is always on.
void enable();

/// RoRunOptions::transient_hook: counts the transient and, when the calling
/// thread has an open span, closes the thread's previous transient span and
/// opens a new one under it. The hook fires as each transient starts, so a
/// transient span runs until the next transient starts or its parent ends.
void transient_hook(void* ctx);
uint64_t transient_count();

/// RAII span on the calling thread, nested under the thread's open span.
class Scope {
 public:
  Scope(const char* name, int die);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

/// Every span recorded so far, all threads (call once recording is over).
std::vector<Span> snapshot();
void write_jsonl(const std::vector<Span>& spans, const std::string& path);

double duration_ms(const Span& span);

}  // namespace trace

// --- runs --------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;   ///< tiny lots (self-test)
  std::string dir;      ///< scratch directory of this run
  std::string worker;   ///< rotsv_worker binary
};

/// The workload's family; smoke runs shrink its sub-lots to a 4 x 4 grid.
Family workload_family(const Options& options);

void run_lot(const Options& options, Report* report);
void run_serve(const Options& options, Report* report);
void run_store(const Options& options, Report* report);
void run_traced(const Options& options, Report* report);

// --- shared pieces (workloads.cpp / layers.cpp) -------------------------------------

/// Calibrated pass bands for a family's tester.
std::vector<std::pair<double, double>> calibrate_bands(const rotsv::CampaignSpec& spec);

/// One in-process sub-lot through run_campaign with a JSONL log.
struct LotRun {
  rotsv::CampaignReport report;
  double wall_seconds = 0.0;
};
LotRun run_sublot(const rotsv::CampaignSpec& spec, const std::string& log_path);

/// Re-screens the first `count` dice of `spec` through make_banded_tester +
/// screen_die and checks them against `results` (exact fields).
void check_rescreen(const rotsv::CampaignSpec& spec,
                    const std::vector<std::pair<double, double>>& bands,
                    const std::vector<rotsv::DieResult>& results, size_t count,
                    const std::string& label, Report* report);

/// Seeded synthetic die records over `spec`'s grid, with the verdict, step
/// and failure mix of the 1.1 V lots.
std::vector<rotsv::DieResult> synthetic_records(const rotsv::CampaignSpec& spec,
                                                uint64_t seed, size_t count);

/// A spec whose grid holds at least `count` dice (store_replay).
rotsv::CampaignSpec store_spec(uint64_t seed, size_t count);

/// A ScreeningServer on its own thread. The destructor asks it to shut down
/// and joins the thread, on error paths too.
class ServerThread {
 public:
  explicit ServerThread(rotsv::ServeOptions options);
  ~ServerThread();
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  const std::string& address() const { return address_; }

 private:
  std::string address_;
  rotsv::ScreeningServer server_;
  std::thread thread_;
};

/// The daemon configuration of serve_1v1: one worker process per hardware
/// thread, a Unix socket and a colstore spool in the run directory.
rotsv::ServeOptions serve_options(const Options& options);

/// One sub-lot submitted through a ServeClient, verdicts as they arrived.
struct ServedLot {
  rotsv::JobSummary summary;
  std::vector<rotsv::DieResult> results;
  std::vector<double> arrivals;  ///< seconds since submit, per verdict
  rotsv::CampaignAggregate aggregate;  ///< client-side fold of the verdicts
};
ServedLot serve_sublot(rotsv::ServeClient& client, const rotsv::CampaignSpec& spec);

/// The job finished, every die was screened (none resumed from the spool)
/// and arrived once, no worker restarted, and the server's summary matches
/// the client-side aggregate.
bool served_lot_consistent(const ServedLot& lot, int total, std::string* detail);

/// Kernel replay on the family's ring (group size 2) at each VDD of the plan.
void kernel_replay(const rotsv::TesterConfig& tester, Report* report);

/// Store, codec and aggregation layers replayed over `records`.
void store_layers(const rotsv::CampaignSpec& spec,
                  const std::vector<rotsv::DieResult>& records,
                  const std::string& dir, Report* report);

/// Peak resident set of this process and of its reaped children [MiB].
double peak_rss_mib(bool include_children);

}  // namespace perfbench

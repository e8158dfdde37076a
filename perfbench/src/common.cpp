// Statistics, the run report, workload specs, verdict digests and the span
// recorder shared by every workload.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "util/error.hpp"

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

// --- report --------------------------------------------------------------------

void Report::add(const std::string& name, const std::string& unit, double value,
                 size_t n, const std::string& note) {
  if (!std::isfinite(value)) {
    check("finite:" + name, false, "metric is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, unit, value, n, note});
}

void Report::add_percentiles(const std::string& base, const std::string& unit,
                             const std::vector<double>& samples, double scale,
                             const std::string& note) {
  add(base + "_p50", unit, median(samples) * scale, samples.size(), note);
  add_p90(base + "_p90", unit, samples, scale, note);
}

void Report::add_p90(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples, double scale,
                     const std::string& note) {
  add_p90_value(name, unit, quantile(samples, 0.9) * scale, samples.size(), note);
}

void Report::add_p90_value(const std::string& name, const std::string& unit,
                           double value, size_t n, const std::string& note) {
  // Samples strictly above the p90 position; fewer than ten makes the tail
  // figure a guess, so say so instead of dropping it.
  const size_t beyond =
      n - std::min(n, static_cast<size_t>(std::ceil(0.9 * static_cast<double>(n))));
  std::string p90_note = note;
  if (beyond < 10) {
    p90_note += (p90_note.empty() ? "" : "; ") +
                ("flagged: only " + std::to_string(beyond) + " samples beyond p90");
  }
  add(name, unit, value, n, p90_note);
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok) ++failed_;
}

void Report::attempt(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::correct() const {
  for (const Check& c : checks_) {
    if (!c.ok) return false;
  }
  return attempted_ > 0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

uint64_t file_bytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Report::to_json(const std::string& fingerprint_json) const {
  std::string j = "{\"correct\": ";
  j += correct() ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted_);
  j += ", \"failed\": " + std::to_string(failed_);
  j += ", \"fingerprint\": " + fingerprint_json;
  j += ", \"metrics\": [";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    j += (i ? ",\n  " : "\n  ");
    j += "{\"name\": \"" + json_escape(m.name) + "\", \"unit\": \"" +
         json_escape(m.unit) + "\", \"value\": " + json_number(m.value) +
         ", \"n\": " + std::to_string(m.n) + ", \"note\": \"" +
         json_escape(m.note) + "\"}";
  }
  j += "],\n\"checks\": [";
  for (size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    j += (i ? ",\n  " : "\n  ");
    j += "{\"name\": \"" + json_escape(c.name) + "\", \"ok\": " +
         (c.ok ? "true" : "false") + ", \"detail\": \"" +
         json_escape(c.detail) + "\"}";
  }
  j += "],\n\"digests\": [";
  for (size_t i = 0; i < digests_.size(); ++i) {
    const SublotDigest& d = digests_[i];
    j += (i ? ",\n  " : "\n  ");
    j += "{\"lot\": \"" + json_escape(d.lot) + "\", \"dice\": " + std::to_string(d.dice) + ", \"digest\": \"" +
         d.digest + "\"}";
  }
  j += "]}\n";
  return j;
}

// --- workloads -------------------------------------------------------------------

Family family_of(const std::string& workload) {
  if (workload == "lot_paper4v") {
    // The paper's plan, leak-heavy: low-VDD periods and stalled rings.
    // Three 37-die sub-lots: at least ten dice beyond a pass's p90.
    return {"paper4v", {1.1, 0.95, 0.8, 0.75}, 0.10, 0.25, 7, 3};
  }
  if (workload == "lot_1v1" || workload == "serve_1v1" ||
      workload == "store_replay") {
    // Four 80-die sub-lots, so a seed's defect mix averages over 320 dice.
    // With more than one, serve_1v1's spool never holds the spec it is sent
    // next, so no job resumes instead of screening.
    return {"1v1", {1.1}, 0.10, 0.10, 10, 4};
  }
  throw rotsv::ConfigError("unknown workload '" + workload + "'");
}

Family workload_family(const Options& options) {
  Family family = family_of(options.workload);
  if (options.smoke) family.grid = 4;
  return family;
}

namespace {

uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The tester (and so its calibration) is the same for every seed: the seed
/// draws the dice, not the test program.
rotsv::CampaignSpec base_spec(const Family& family) {
  rotsv::CampaignSpec spec;
  spec.wafers = 1;
  spec.tsvs_per_die = 1;
  spec.mix.open_rate = family.open_rate;
  spec.mix.leak_rate = family.leak_rate;
  spec.mix.edge_bias = 0.0;
  // The rotsv_campaign CLI's tester defaults.
  spec.tester.group_size = 2;
  spec.tester.voltages = family.voltages;
  spec.tester.calibration_samples = 6;
  spec.tester.guard_band_sigma = 4.0;
  spec.threads = bench_threads();
  return spec;
}

}  // namespace

rotsv::CampaignSpec sublot_spec(const Family& family, uint64_t seed, int k) {
  rotsv::CampaignSpec spec = base_spec(family);
  spec.lot_id = family.name + "-s" + std::to_string(seed) + "-k" + std::to_string(k);
  spec.rows = family.grid;
  spec.cols = family.grid;
  spec.seed = mix64(mix64(seed) + static_cast<uint64_t>(k));
  return spec;
}

rotsv::CampaignSpec probe_spec(const Family& family, uint64_t seed, int i) {
  rotsv::CampaignSpec spec = base_spec(family);
  spec.lot_id = family.name + "-s" + std::to_string(seed) + "-probe" + std::to_string(i);
  spec.rows = 1;
  spec.cols = 1;
  spec.seed = mix64(mix64(seed) ^ (0xfeedull + static_cast<uint64_t>(i)));
  return spec;
}

size_t bench_threads() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (::sched_getaffinity(0, sizeof(cpus), &cpus) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&cpus)));
}

bool another_pass(Clock::time_point start, double seconds, int done) {
  if (done == 0) return true;
  return seconds_since(start) * (done + 1) / done <= seconds;
}

// --- exact statistics ---------------------------------------------------------------

std::string lot_key(const rotsv::CampaignSpec& spec) {
  return spec.lot_id + "@" + std::to_string(spec.rows) + "x" + std::to_string(spec.cols);
}

std::string die_key(const rotsv::DieResult& die) {
  return std::to_string(die.die) + ":" + rotsv::verdict_code(die.verdict) + ":" +
         die.tsv_verdicts + ":" + std::to_string(die.sim_steps) + ":" +
         std::to_string(die.attempts);
}

std::string verdict_digest(std::vector<rotsv::DieResult> results,
                           const std::string& describe) {
  std::sort(results.begin(), results.end(),
            [](const rotsv::DieResult& a, const rotsv::DieResult& b) {
              return a.die < b.die;
            });
  uint64_t h = 0xcbf29ce484222325ull;
  auto feed = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;
    h *= 0x100000001b3ull;
  };
  for (const rotsv::DieResult& r : results) feed(die_key(r));
  feed(describe);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mib(bool include_children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (include_children) {
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    kib = std::max(kib, children.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

// --- tracing ---------------------------------------------------------------------------

namespace trace {
namespace {

const char* const kTransient = "ro.transient";

struct ThreadLog {
  uint64_t tid = 0;
  std::vector<Span> spans;
  std::vector<size_t> open;  ///< indices into spans, innermost last
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mutex
std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_transients{0};
const Clock::time_point g_epoch = Clock::now();
thread_local ThreadLog* t_log = nullptr;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_epoch)
      .count();
}

ThreadLog& local_log() {
  if (t_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_logs.push_back(std::make_unique<ThreadLog>());
    t_log = g_logs.back().get();
    t_log->tid = g_logs.size();
  }
  return *t_log;
}

void open_span(ThreadLog& log, const char* name, int die, int64_t start) {
  Span span;
  span.id = (log.tid << 32) | (log.spans.size() + 1);
  span.parent = log.open.empty() ? 0 : log.spans[log.open.back()].id;
  span.name = name;
  span.start_ns = start;
  span.end_ns = start;
  span.die = die;
  log.open.push_back(log.spans.size());
  log.spans.push_back(span);
}

void close_top(ThreadLog& log, int64_t end) {
  log.spans[log.open.back()].end_ns = end;
  log.open.pop_back();
}

bool top_is_transient(const ThreadLog& log) {
  return !log.open.empty() && log.spans[log.open.back()].name == kTransient;
}

}  // namespace

void enable() { g_enabled.store(true); }

void transient_hook(void* /*ctx*/) {
  g_transients.fetch_add(1, std::memory_order_relaxed);
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadLog& log = local_log();
  if (log.open.empty()) return;  // calibration pool threads: counted only
  const int64_t t = now_ns();
  if (top_is_transient(log)) close_top(log, t);
  if (log.open.empty()) return;
  open_span(log, kTransient, log.spans[log.open.back()].die, t);
}

uint64_t transient_count() { return g_transients.load(); }

Scope::Scope(const char* name, int die) : active_(g_enabled.load()) {
  if (active_) open_span(local_log(), name, die, now_ns());
}

Scope::~Scope() {
  if (!active_) return;
  ThreadLog& log = local_log();
  const int64_t t = now_ns();
  while (top_is_transient(log)) close_top(log, t);
  if (!log.open.empty()) close_top(log, t);
}

std::vector<Span> snapshot() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<Span> all;
  for (const auto& log : g_logs) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

void write_jsonl(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"die\": " << s.die << "}\n";
  }
  if (!out) throw rotsv::IoError("perfbench: cannot write spans to '" + path + "'");
}

double duration_ms(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
}

}  // namespace trace
}  // namespace perfbench

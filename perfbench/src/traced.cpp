// The traced run: per-layer metrics. It drives the executor's loop itself
// from public calls (make_banded_tester, campaign_sites, then screen_die,
// the result-log append and StreamingAggregate::add over the thread pool),
// hangs transient spans off RoRunOptions::transient_hook, and checks that
// its verdicts equal run_campaign's for the same sub-lots.
#include <algorithm>
#include <map>
#include <mutex>

#include "analyze/analyze.hpp"
#include "analyze/cost_model.hpp"
#include "bench.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using rotsv::CampaignSpec;
using rotsv::DieResult;

namespace {

struct TracedLot {
  std::vector<DieResult> results;
  std::vector<double> completions;  ///< seconds since the loop started
  std::vector<double> append_us;
  double wall = 0.0;
  std::string describe;
};

TracedLot traced_lot(const CampaignSpec& spec,
                     const std::vector<std::pair<double, double>>& bands,
                     const std::string& log_path) {
  const rotsv::PreBondTsvTester tester = rotsv::make_banded_tester(spec, bands);
  const std::vector<rotsv::DieSite> sites = rotsv::campaign_sites(spec);
  auto store = rotsv::CampaignResultStore::create(log_path, spec);
  rotsv::StreamingAggregate aggregate(spec);
  std::mutex mutex;  // guards aggregate and lot
  TracedLot lot;
  const auto start = Clock::now();
  rotsv::ThreadPool::parallel_for(
      sites.size(),
      [&](size_t i) {
        const rotsv::DieSite& site = sites[i];
        const int g = spec.die_index(site.wafer, site.row, site.col);
        trace::Scope die_span("campaign.die", g);
        DieResult result;
        {
          trace::Scope span("campaign.screen_die", g);
          result = rotsv::screen_die(spec, tester, site.wafer, site.row, site.col);
        }
        double append_us = 0.0;
        {
          trace::Scope span("campaign.store_append", g);
          const auto t = Clock::now();
          store->append(result);
          append_us = seconds_since(t) * 1e6;
        }
        trace::Scope span("campaign.aggregate_add", g);
        std::lock_guard<std::mutex> lock(mutex);
        aggregate.add(result);
        lot.append_us.push_back(append_us);
        lot.completions.push_back(seconds_since(start));
        lot.results.push_back(std::move(result));
      },
      spec.threads);
  lot.wall = seconds_since(start);
  store->sync();
  lot.describe = aggregate.aggregate().describe();
  return lot;
}

/// Gaps between consecutive completion times (sorted copy).
void append_gaps(std::vector<double> times, std::vector<double>* gaps) {
  std::sort(times.begin(), times.end());
  for (size_t i = 1; i < times.size(); ++i) gaps->push_back(times[i] - times[i - 1]);
}

template <typename F>
double median_ms(int reps, F&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    fn();
    samples.push_back(seconds_since(t) * 1e3);
  }
  return median(samples);
}

}  // namespace

void run_traced(const Options& options, Report* report) {
  trace::enable();
  const bool store_workload = options.workload == "store_replay";
  const bool serve_workload = options.workload == "serve_1v1";
  const Family family = workload_family(options);
  // store_replay screens no lot of its own; its traced run screens smaller
  // 1.1 V sub-lots so that every layer still has a reading.
  const int grid = store_workload && !options.smoke ? 6 : family.grid;
  auto spec_of = [&](int k) {
    CampaignSpec spec = sublot_spec(family, options.seed, k);
    spec.rows = grid;
    spec.cols = grid;
    return spec;
  };
  CampaignSpec spec0 = spec_of(0);

  // --- analyze: preflight and the static cost model ---------------------------
  report->add("analyze.preflight_ms", "ms",
              median_ms(5, [&] { (void)rotsv::analyze_campaign(spec0); }), 5,
              "analyze_campaign on the sub-lot spec");
  report->add("analyze.cost_model_ms", "ms",
              median_ms(5, [&] { (void)rotsv::build_cost_model(spec0.tester, spec0.mix); }),
              5, "build_cost_model");
  const rotsv::CostModel model = rotsv::build_cost_model(spec0.tester, spec0.mix);

  // --- calibration (mc) ---------------------------------------------------------
  CampaignSpec hooked = spec0;
  hooked.tester.run.transient_hook = &trace::transient_hook;
  std::vector<std::pair<double, double>> bands;
  const uint64_t before = trace::transient_count();
  const auto cal_start = Clock::now();
  {
    trace::Scope span("campaign.calibrate", -1);
    bands = calibrate_bands(hooked);
  }
  report->add("campaign.calibration_s", "s", seconds_since(cal_start), 1,
              "PreBondTsvTester::calibrate, all voltages");
  report->add("mc.calibration_transients", "count",
              static_cast<double>(trace::transient_count() - before), 1,
              "transients run by calibration (exact)");

  // --- screening: run_campaign and the traced loop on the same sub-lots --------
  std::vector<DieResult> traced_results;
  std::vector<double> gaps;
  std::vector<double> append_us;
  double untraced_dice = 0.0;
  double untraced_seconds = 0.0;
  double traced_seconds = 0.0;
  double paired_traced_dice = 0.0;
  double paired_traced_seconds = 0.0;
  double die_seconds = 0.0;
  double predicted_steps = 0.0;
  const double budget = options.seconds * (store_workload ? 0.3 : 0.7);
  const auto start = Clock::now();
  // Whole passes over the family's sub-lots, like the untraced runs, so every
  // run of a seed traces the same dice.
  for (int pass = 0; another_pass(start, budget, pass); ++pass) {
    for (int k = 0; k < family.sublots; ++k) {
      const int round = pass * family.sublots + k;
      CampaignSpec spec = spec_of(k);
      spec.preset_bands = bands;
      CampaignSpec spec_hooked = spec;
      spec_hooked.tester.run.transient_hook = &trace::transient_hook;
      // The first two rounds also run untraced, in alternating order so that
      // drift favours neither side: they give the tracing overhead and the
      // traced-equals-untraced check. Later rounds only add traced dice.
      const bool paired = round < 2;
      LotRun untraced;
      TracedLot traced;
      if (round == 0) untraced = run_sublot(spec, options.dir + "/untraced.jsonl");
      traced = traced_lot(spec_hooked, bands, options.dir + "/traced.jsonl");
      if (round == 1) untraced = run_sublot(spec, options.dir + "/untraced.jsonl");
      traced_seconds += traced.wall;
      const std::string traced_digest = verdict_digest(traced.results, traced.describe);
      report->digest({lot_key(spec), spec.total_dice(), traced_digest});
      if (paired) {
        const std::string digest =
            verdict_digest(untraced.report.results, untraced.report.aggregate.describe());
        report->check("traced-equals-untraced-" + std::to_string(round),
                      traced_digest == digest, "traced loop and run_campaign verdict digests");
        untraced_dice += untraced.report.throughput.dice_screened;
        untraced_seconds += untraced.report.throughput.screening_seconds;
        paired_traced_dice += static_cast<double>(traced.results.size());
        paired_traced_seconds += traced.wall;
      }
      predicted_steps += model.predicted_campaign_steps(spec);
      append_gaps(traced.completions, &gaps);
      for (const DieResult& d : traced.results) die_seconds += d.seconds;
      append_us.insert(append_us.end(), traced.append_us.begin(), traced.append_us.end());
      uint64_t quarantined = 0;
      for (const DieResult& d : traced.results) {
        quarantined += d.verdict == rotsv::TsvVerdict::kInconclusive ? 1 : 0;
      }
      report->attempt(traced.results.size(), quarantined);
      if (round == 0 && serve_workload) {
        // The same sub-lot through the daemon: served verdicts must match.
        ServerThread server(serve_options(options));
        rotsv::ServeClient client(server.address());
        CampaignSpec served_spec = spec;
        served_spec.preset_bands.clear();
        const ServedLot lot = serve_sublot(client, served_spec);
        std::string detail;
        report->check("served-consistent", served_lot_consistent(lot, spec.total_dice(), &detail),
                      detail);
        report->check("served-equals-in-process",
                      verdict_digest(lot.results, lot.aggregate.describe()) == traced_digest,
                      "serve and run_campaign verdict digests");
        std::vector<double> serve_gaps;
        append_gaps(lot.arrivals, &serve_gaps);
        double busy = 0.0;
        for (const DieResult& d : lot.results) busy += d.seconds;
        // From the first die's start to the last verdict (0 if none arrived:
        // the checks above have already failed the run).
        const double window =
            lot.results.empty()
                ? 0.0
                : lot.arrivals.back() - (lot.arrivals.front() - lot.results.front().seconds);
        report->add_percentiles("serve.verdict_gap_ms", "ms", serve_gaps, 1e3,
                                "gaps between verdicts at the client");
        report->add("serve.worker_idle_share", "ratio",
                    window > 0.0 ? 1.0 - busy / (static_cast<double>(bench_threads()) * window)
                                 : 0.0,
                    lot.results.size(), "1 - die seconds / (workers x screening window)");
        report->add("serve.worker_restarts", "count", lot.summary.restarts, 1,
                    "worker deaths survived (exact)");
      }
      for (DieResult& d : traced.results) traced_results.push_back(std::move(d));
    }
  }
  if (!serve_workload) {
    report->add_percentiles("serve.verdict_gap_ms", "ms", gaps, 1e3,
                            "in-process: gaps between completions at the result sink");
    report->add("serve.worker_idle_share", "ratio",
                1.0 - die_seconds / (static_cast<double>(bench_threads()) * traced_seconds),
                traced_results.size(), "in-process: 1 - die seconds / (threads x wall)");
    report->add("serve.worker_restarts", "count", 0.0, 1,
                "in-process: no worker processes");
  }
  report->add("trace.overhead_share", "ratio",
              (paired_traced_dice / paired_traced_seconds) /
                      (untraced_dice / untraced_seconds) -
                  1.0,
              static_cast<size_t>(paired_traced_dice),
              "traced loop dice/s / run_campaign dice/s - 1");

  // --- per-die figures from the spans ---------------------------------------------
  const std::vector<trace::Span> spans = trace::snapshot();
  std::map<uint64_t, const trace::Span*> screen_spans;
  for (const trace::Span& s : spans) {
    if (std::string(s.name) == "campaign.screen_die") screen_spans[s.id] = &s;
  }
  std::vector<double> screen_ms;
  std::vector<double> transient_ms;
  std::map<uint64_t, double> child_ms;
  size_t transients = 0;
  for (const trace::Span& s : spans) {
    if (std::string(s.name) != "ro.transient" || !screen_spans.count(s.parent)) continue;
    transient_ms.push_back(trace::duration_ms(s));
    child_ms[s.parent] += trace::duration_ms(s);
    ++transients;
  }
  std::vector<double> self_ms;
  double thread_seconds = 0.0;
  for (const auto& [id, span] : screen_spans) {
    screen_ms.push_back(trace::duration_ms(*span));
    self_ms.push_back(trace::duration_ms(*span) - child_ms[id]);
    thread_seconds += trace::duration_ms(*span) * 1e-3;
  }
  uint64_t steps = 0;
  uint64_t early = 0;
  uint64_t attempts = 0;
  for (const DieResult& d : traced_results) {
    steps += d.sim_steps;
    early += d.early_exits;
    attempts += static_cast<uint64_t>(d.attempts);
  }
  const double dice = static_cast<double>(traced_results.size());
  report->add("analyze.cost_ratio", "ratio", predicted_steps / static_cast<double>(steps),
              traced_results.size(), "predicted / actual steps; model band is (1/3, 3)");
  report->add("campaign.attempts_per_die", "count", static_cast<double>(attempts) / dice,
              traced_results.size(), "exact");
  report->add("campaign.store_append_us", "us", median(append_us), append_us.size(),
              "JSONL result-log append per die in the screening loop (median)");
  report->add_percentiles("core.test_die_ms", "ms", screen_ms, 1.0,
                          "screen_die span; test_die is its body");
  report->add("core.self_ms", "ms", median(self_ms), self_ms.size(),
              "median of screen_die minus its transient spans (ring set-up)");
  report->add("core.transients_per_die", "count", static_cast<double>(transients) / dice,
              traced_results.size(), "exact");
  report->add_percentiles("ro.transient_ms", "ms", transient_ms, 1.0,
                          "hook to next hook: one transient plus its tester bookkeeping");
  report->add("ro.early_exit_share", "ratio",
              static_cast<double>(early) / static_cast<double>(transients), transients,
              "streaming-meter early exits / transients (exact)");
  report->add("sim.steps_per_die", "count", static_cast<double>(steps) / dice,
              traced_results.size(), "exact");
  report->add("sim.thread_step_us", "us", thread_seconds * 1e6 / static_cast<double>(steps),
              static_cast<size_t>(steps), "screening thread-seconds / accepted steps");

  // --- tester replay: test_die directly on the first dice of sub-lot 0 ------------
  {
    CampaignSpec spec = spec_of(0);
    spec.tester.run.transient_hook = &trace::transient_hook;
    const rotsv::PreBondTsvTester tester = rotsv::make_banded_tester(spec, bands);
    const std::vector<rotsv::DieSite> sites = rotsv::campaign_sites(spec);
    const size_t count = std::min<size_t>(16, sites.size());
    std::vector<rotsv::DieTestReport> replays(count);
    const uint64_t t_before = trace::transient_count();
    rotsv::ThreadPool::parallel_for(
        count,
        [&](size_t i) {
          const rotsv::DieSite& s = sites[i];
          const int g = spec.die_index(s.wafer, s.row, s.col);
          const rotsv::DieGroundTruth truth =
              rotsv::die_ground_truth(spec, s.wafer, s.row, s.col);
          rotsv::Rng rng = rotsv::Rng::fork(spec.seed, 2 * static_cast<uint64_t>(g) + 1);
          replays[i] = tester.test_die(truth.faults, rng, spec.tester.run);
        },
        spec.threads);
    const double replay_transients =
        static_cast<double>(trace::transient_count() - t_before);
    size_t stuck = 0;
    size_t matched = 0;
    size_t compared = 0;
    for (size_t i = 0; i < count; ++i) {
      for (const rotsv::TestReport& tsv : replays[i].tsvs) {
        for (const rotsv::VoltageReading& r : tsv.readings) stuck += r.stuck ? 1 : 0;
      }
      const int g = spec.die_index(sites[i].wafer, sites[i].row, sites[i].col);
      // Sub-lot 0's dice come first in traced_results.
      for (size_t j = 0; j < sites.size() && j < traced_results.size(); ++j) {
        const DieResult& d = traced_results[j];
        if (d.die != g || d.attempts != 1) continue;
        ++compared;
        std::string verdicts;
        for (const rotsv::TestReport& tsv : replays[i].tsvs) {
          verdicts += rotsv::verdict_code(tsv.verdict);
        }
        if (verdicts == d.tsv_verdicts && replays[i].sim_steps == d.sim_steps) ++matched;
        break;
      }
    }
    report->check("tester-replay", matched == compared,
                  std::to_string(matched) + "/" + std::to_string(compared) +
                      " test_die replays equal screen_die");
    report->add("ro.stall_exit_share", "ratio",
                static_cast<double>(stuck) / replay_transients, count,
                "stuck (stalled) T1 readings / transients, test_die replay of the "
                "first dice of sub-lot 0");
  }

  // --- kernels and stores ------------------------------------------------------------
  kernel_replay(spec0.tester, report);
  if (store_workload) {
    const size_t count = options.smoke ? 3000 : 100000;
    const CampaignSpec spec = store_spec(options.seed, count);
    store_layers(spec, synthetic_records(spec, options.seed, count), options.dir, report);
  } else {
    // Every sub-lot shares spec0's grid; renumbering keeps the die indices
    // unique within one store.
    CampaignSpec spec = spec0;
    spec.wafers = static_cast<int>(traced_results.size() /
                                   static_cast<size_t>(spec0.total_dice())) + 1;
    std::vector<DieResult> records = traced_results;
    std::map<int, int> seen;
    for (DieResult& d : records) {
      d.wafer = seen[d.die]++;
      d.die = spec.die_index(d.wafer, d.row, d.col);
    }
    store_layers(spec, records, options.dir, report);
  }
  trace::write_jsonl(trace::snapshot(), options.dir + "/spans.jsonl");
}

}  // namespace perfbench

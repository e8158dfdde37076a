// The untraced workloads: in-process lots, the served lot and the store
// replay. Each one measures end-to-end metrics and checks its outputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "bench.hpp"
#include "serve/colstore.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using rotsv::CampaignSpec;
using rotsv::DieResult;

namespace {

/// Set-up probes per run: at least kMinSetupProbes, more while they fit in
/// kSetupShare of the run (cheap on one-voltage plans), at most kMaxSetupProbes.
constexpr int kMinSetupProbes = 3;
constexpr int kMaxSetupProbes = 7;
constexpr double kSetupShare = 0.15;

/// Screen-quality ledger summed over one pass's sub-lots (later passes
/// repeat its dice).
struct Quality {
  int defective = 0;
  int clean = 0;
  int escapes = 0;
  int overkill = 0;
  int quarantined = 0;
  int dice = 0;

  void add(const rotsv::CampaignAggregate& agg) {
    defective += agg.quality.defective;
    clean += agg.quality.clean;
    escapes += agg.quality.escapes;
    overkill += agg.quality.overkill;
    quarantined += agg.quality.quarantined;
    dice += agg.screened_dice;
  }

  void report(Report* report) const {
    report->add("escape_rate", "ratio",
                defective ? static_cast<double>(escapes) / defective : 0.0,
                static_cast<size_t>(defective), "escapes / defective dice (exact)");
    report->add("overkill_rate", "ratio",
                clean ? static_cast<double>(overkill) / clean : 0.0,
                static_cast<size_t>(clean), "overkill / clean dice (exact)");
    report->add("quarantine_share", "ratio",
                dice ? static_cast<double>(quarantined) / dice : 0.0,
                static_cast<size_t>(dice), "quarantined / dice attempted (exact)");
  }
};

/// Throughput and die latencies of a run's passes. Every pass screens the
/// same sub-lots, so two runs of one seed measure the same dice however many
/// passes fit. Rates are per sub-lot (or served job), latency percentiles
/// per pass over its dice; the run reports medians, so a few seconds of host
/// noise that slow one sub-lot or pass do not move its figures.
struct Passes {
  std::vector<double> rates;
  std::vector<std::vector<double>> latencies;  ///< per pass: every die's seconds

  void begin_pass() { latencies.emplace_back(); }

  void add(int k, double rate, const std::vector<DieResult>& results) {
    std::vector<double> seconds;
    for (const DieResult& d : results) seconds.push_back(d.seconds);
    rates.push_back(rate);
    latencies.back().insert(latencies.back().end(), seconds.begin(), seconds.end());
    std::printf("pass %zu sub-lot %d: %zu dice, %.3f dice/s, die latency p50 %.1f ms\n",
                latencies.size() - 1, k, results.size(), rate, median(seconds) * 1e3);
  }

  void report(Report* report, const std::string& rate_note,
              const std::string& latency_note) const {
    std::vector<double> p50;
    std::vector<double> p90;
    size_t dice = 0;
    for (const std::vector<double>& pass : latencies) {
      if (pass.empty()) continue;
      p50.push_back(quantile(pass, 0.5));
      p90.push_back(quantile(pass, 0.9));
      dice = pass.size();
    }
    report->add("items_per_s", "1/s", median(rates), rates.size(),
                rate_note + ", median over sub-lots");
    report->add("latency_ms_p50", "ms", median(p50) * 1e3, dice,
                latency_note + ", median over passes of each pass's median");
    report->add_p90_value("latency_ms_p90", "ms", median(p90) * 1e3, dice,
                          latency_note + ", median over passes of each pass's p90");
  }
};

}  // namespace

// --- shared pieces ---------------------------------------------------------------

std::vector<std::pair<double, double>> calibrate_bands(const CampaignSpec& spec) {
  rotsv::TesterConfig config = spec.tester;
  config.threads = spec.threads;
  rotsv::PreBondTsvTester tester(config);
  tester.calibrate();
  std::vector<std::pair<double, double>> bands;
  for (size_t vi = 0; vi < config.voltages.size(); ++vi) {
    bands.emplace_back(tester.classifier(vi).lower(), tester.classifier(vi).upper());
  }
  return bands;
}

LotRun run_sublot(const CampaignSpec& spec, const std::string& log_path) {
  rotsv::CampaignRunOptions options;
  options.result_path = log_path;
  LotRun run;
  const auto start = Clock::now();
  run.report = rotsv::run_campaign(spec, options);
  run.wall_seconds = seconds_since(start);
  return run;
}

void check_rescreen(const CampaignSpec& spec,
                    const std::vector<std::pair<double, double>>& bands,
                    const std::vector<DieResult>& results, size_t count,
                    const std::string& label, Report* report) {
  const rotsv::PreBondTsvTester tester = rotsv::make_banded_tester(spec, bands);
  const std::vector<rotsv::DieSite> sites = rotsv::campaign_sites(spec);
  count = std::min(count, sites.size());
  std::vector<std::string> again(count);
  rotsv::ThreadPool::parallel_for(
      count,
      [&](size_t i) {
        const rotsv::DieSite& s = sites[i];
        again[i] = die_key(rotsv::screen_die(spec, tester, s.wafer, s.row, s.col));
      },
      spec.threads);
  size_t matched = 0;
  for (size_t i = 0; i < count; ++i) {
    const int g = spec.die_index(sites[i].wafer, sites[i].row, sites[i].col);
    for (const DieResult& r : results) {
      if (r.die == g && die_key(r) == again[i]) ++matched;
    }
  }
  report->check(label, matched == count,
                std::to_string(matched) + "/" + std::to_string(count) +
                    " re-screened dice identical");
}

CampaignSpec store_spec(uint64_t seed, size_t count) {
  CampaignSpec spec = sublot_spec(family_of("store_replay"), seed, 0);
  spec.lot_id = "store-s" + std::to_string(seed);
  spec.rows = 40;
  spec.cols = 40;
  const size_t per_wafer = static_cast<size_t>(spec.dice_per_wafer());
  spec.wafers = static_cast<int>((count + per_wafer - 1) / per_wafer);
  return spec;
}

std::vector<DieResult> synthetic_records(const CampaignSpec& spec, uint64_t seed,
                                         size_t count) {
  const std::vector<rotsv::DieSite> sites = rotsv::campaign_sites(spec);
  count = std::min(count, sites.size());
  std::vector<DieResult> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const rotsv::DieSite& s = sites[i];
    const rotsv::DieGroundTruth truth = rotsv::die_ground_truth(spec, s.wafer, s.row, s.col);
    rotsv::Rng rng = rotsv::Rng::fork(seed, i);
    DieResult r;
    r.die = spec.die_index(s.wafer, s.row, s.col);
    r.wafer = s.wafer;
    r.row = s.row;
    r.col = s.col;
    r.truth = truth.worst_type();
    r.defective = truth.defective();
    // Verdicts follow the truth with the 1.1 V lots' escape and overkill
    // rates; step counts sit around the 1.1 V lots' ~3200 steps per die.
    rotsv::TsvVerdict verdict = rotsv::TsvVerdict::kPass;
    double steps = rng.uniform(2900.0, 3500.0);
    if (!r.defective) {
      if (rng.uniform() < 0.03) verdict = rotsv::TsvVerdict::kResistiveOpen;
    } else if (r.truth == rotsv::TsvFaultType::kResistiveOpen) {
      if (rng.uniform() < 0.85) verdict = rotsv::TsvVerdict::kResistiveOpen;
    } else {
      const bool stuck = truth.faults[0].resistance_ohm < 600.0;
      verdict = stuck ? rotsv::TsvVerdict::kStuck : rotsv::TsvVerdict::kLeakage;
      if (stuck) steps = rng.uniform(2300.0, 2700.0);
    }
    const double u = rng.uniform();
    if (u < 0.002) {
      verdict = rotsv::TsvVerdict::kInconclusive;
      r.attempts = 4;
      r.failure.kind = rotsv::FailureKind::kStepBudget;
      r.failure.message = "synthetic: die step budget exhausted";
      r.failure.tsv = 0;
    } else if (u < 0.012) {
      r.attempts = 2;
      r.failure.kind = rotsv::FailureKind::kDcNoConvergence;
      r.failure.message = "synthetic: recovered on the perturbed-IC rung";
      r.failure.tsv = 0;
    }
    r.failure.attempts = r.failure.ok() ? 0 : r.attempts;
    r.verdict = verdict;
    r.tsv_verdicts = std::string(1, rotsv::verdict_code(verdict));
    r.sim_steps = static_cast<uint64_t>(steps) * static_cast<uint64_t>(r.attempts);
    r.early_exits = 2;
    r.seconds = static_cast<double>(r.sim_steps) * 6e-5;
    records.push_back(std::move(r));
  }
  return records;
}

// --- lot_1v1 / lot_paper4v ----------------------------------------------------------

void run_lot(const Options& options, Report* report) {
  const Family family = workload_family(options);

  // Set-up, measured as run_campaign wall time minus screening time on
  // one-die lots that carry the sub-lots' tester (and so its calibration).
  std::vector<double> setups;
  std::vector<std::pair<double, double>> bands;
  const auto setup_start = Clock::now();
  for (int i = 0; i < kMaxSetupProbes; ++i) {
    if (i >= kMinSetupProbes &&
        seconds_since(setup_start) * (i + 1) / i > kSetupShare * options.seconds) {
      break;
    }
    const LotRun probe = run_sublot(probe_spec(family, options.seed, i),
                                    options.dir + "/probe.jsonl");
    setups.push_back(probe.wall_seconds - probe.report.throughput.screening_seconds);
    if (i == 0) bands = probe.report.bands;
    report->check("probe-bands-" + std::to_string(i), probe.report.bands == bands,
                  "every set-up calibrates to the same bands");
  }

  Passes passes;
  Quality quality;
  std::vector<DieResult> first;
  const auto start = Clock::now();
  for (int pass = 0; another_pass(start, options.seconds, pass); ++pass) {
    passes.begin_pass();
    for (int k = 0; k < family.sublots; ++k) {
      CampaignSpec spec = sublot_spec(family, options.seed, k);
      spec.preset_bands = bands;
      const std::string log = options.dir + "/lot.jsonl";
      const LotRun run = run_sublot(spec, log);
      const rotsv::CampaignReport& r = run.report;
      passes.add(k, r.throughput.dice_per_second(), r.results);
      if (pass == 0) quality.add(r.aggregate);

      const std::string digest = verdict_digest(r.results, r.aggregate.describe());
      report->digest({lot_key(spec), r.throughput.dice_screened, digest});
      const int total = spec.total_dice();
      report->check("sublot-complete-" + std::to_string(pass) + "." + std::to_string(k),
                    r.aggregate.screened_dice == total &&
                        static_cast<int>(r.results.size()) == total,
                    std::to_string(r.aggregate.screened_dice) + "/" +
                        std::to_string(total) + " dice screened");
      const rotsv::ResumeState logged = rotsv::load_resume_state(log, spec);
      report->check("jsonl-log-" + std::to_string(pass) + "." + std::to_string(k),
                    verdict_digest(logged.completed, r.aggregate.describe()) == digest,
                    "the result log replays to the same verdict digest");
      if (pass == 0 && k == 0) first = r.results;
      report->attempt(static_cast<uint64_t>(r.throughput.dice_screened),
                      static_cast<uint64_t>(r.aggregate.quality.quarantined));
    }
  }
  check_rescreen(sublot_spec(family, options.seed, 0), bands, first,
                 bench_threads(), "rescreen-repeat", report);

  passes.report(report, "dice_per_s: dice / ThroughputStats.screening_seconds",
                 "die_latency: DieResult.seconds, retries included");
  report->add("setup_s", "s", median(setups), setups.size(),
              "run_campaign wall - screening_seconds on one-die lots (median)");
  report->add("peak_rss_mb", "MiB", peak_rss_mib(false), 1, "this process");
  quality.report(report);
}

// --- serve_1v1 ----------------------------------------------------------------------

ServerThread::ServerThread(rotsv::ServeOptions options)
    : address_(options.listen), server_(std::move(options)) {
  thread_ = std::thread([this] {
    try {
      server_.run();
    } catch (const std::exception& e) {
      // The client sees the daemon vanish and fails the run; say why.
      std::fprintf(stderr, "rotsv_perfbench: server stopped: %s\n", e.what());
    }
  });
}

ServerThread::~ServerThread() {
  try {
    rotsv::ServeClient(address_).shutdown();
  } catch (const std::exception&) {
    // Already gone: run() returned on its own.
  }
  thread_.join();
}

ServedLot serve_sublot(rotsv::ServeClient& client, const CampaignSpec& spec) {
  ServedLot lot;
  rotsv::StreamingAggregate agg(spec);
  const auto submit = Clock::now();
  lot.summary = client.submit_and_stream(spec, [&](const DieResult& d) {
    lot.arrivals.push_back(seconds_since(submit));
    lot.results.push_back(d);
    agg.add(d);
  });
  lot.aggregate = agg.aggregate();
  return lot;
}

bool served_lot_consistent(const ServedLot& lot, int total, std::string* detail) {
  const rotsv::CampaignAggregate& a = lot.aggregate;
  const rotsv::JobSummary& s = lot.summary;
  const bool bins = s.die_bins.pass == a.die_bins.pass && s.die_bins.open == a.die_bins.open &&
                    s.die_bins.leak == a.die_bins.leak && s.die_bins.stuck == a.die_bins.stuck &&
                    s.die_bins.inconclusive == a.die_bins.inconclusive;
  const bool quality = s.quality.escapes == a.quality.escapes &&
                       s.quality.overkill == a.quality.overkill &&
                       s.quality.quarantined == a.quality.quarantined;
  *detail = "state " + s.state + ", " + std::to_string(lot.results.size()) + "/" +
            std::to_string(total) + " verdicts, " + std::to_string(s.resumed) +
            " resumed, " + std::to_string(s.restarts) + " restarts";
  return s.state == "done" && static_cast<int>(lot.results.size()) == total &&
         s.screened == total && s.resumed == 0 && s.restarts == 0 && bins && quality;
}

rotsv::ServeOptions serve_options(const Options& options) {
  rotsv::ServeOptions serve;
  serve.listen = "unix:" + options.dir + "/s.sock";
  serve.workers = static_cast<int>(bench_threads());
  serve.worker_path = options.worker;
  serve.store_path = options.dir + "/spool.rcs";
  return serve;
}

void run_serve(const Options& options, Report* report) {
  const Family family = workload_family(options);
  std::vector<double> setups;
  Passes passes;
  Quality quality;
  std::vector<DieResult> first;
  {
    ServerThread server(serve_options(options));
    rotsv::ServeClient client(server.address());
    const auto start = Clock::now();
    for (int pass = 0; another_pass(start, options.seconds, pass); ++pass) {
      passes.begin_pass();
      for (int k = 0; k < family.sublots; ++k) {
        // No preset bands: each job pays the server's calibration, as a
        // freshly submitted lot does.
        const CampaignSpec spec = sublot_spec(family, options.seed, k);
        const ServedLot lot = serve_sublot(client, spec);

        std::string detail;
        report->check("served-" + std::to_string(pass) + "." + std::to_string(k),
                      served_lot_consistent(lot, spec.total_dice(), &detail), detail);
        if (lot.arrivals.size() < 2) continue;
        setups.push_back(lot.arrivals.front());
        passes.add(k, static_cast<double>(lot.arrivals.size() - 1) /
                          (lot.arrivals.back() - lot.arrivals.front()),
                   lot.results);
        if (pass == 0) quality.add(lot.aggregate);
        const std::string digest = verdict_digest(lot.results, lot.aggregate.describe());
        report->digest({lot_key(spec), static_cast<int>(lot.results.size()), digest});
        if (pass == 0 && k == 0) first = lot.results;
        report->attempt(lot.results.size(),
                        static_cast<uint64_t>(lot.aggregate.quality.quarantined));
      }
    }
  }
  const CampaignSpec spec0 = sublot_spec(family, options.seed, 0);
  check_rescreen(spec0, calibrate_bands(spec0), first, bench_threads(),
                 "rescreen-in-process", report);

  passes.report(report, "dice_per_s: (dice - 1) / first-to-last verdict time per job",
                 "die_latency: DieResult.seconds carried on the wire");
  report->add("setup_s", "s", median(setups), setups.size(),
              "submit to first verdict (median over jobs)");
  report->add("peak_rss_mb", "MiB", peak_rss_mib(true),
              1, "largest of the daemon process and its reaped workers");
  quality.report(report);
}

// --- store_replay ---------------------------------------------------------------------

void run_store(const Options& options, Report* report) {
  const size_t count = options.smoke ? 3000 : 100000;
  // The JSONL steps cost ~100x the colstore's per record (an fsync every 8
  // appends, text parsing), so they replay a prefix of the records.
  const size_t jsonl_count = count / 5;
  const CampaignSpec spec = store_spec(options.seed, count);
  const std::vector<DieResult> records = synthetic_records(spec, options.seed, count);
  const std::string describe = rotsv::aggregate_campaign(spec, records).describe();
  const std::string digest = verdict_digest(records, describe);
  report->digest({lot_key(spec), static_cast<int>(records.size()), digest});
  const double n = static_cast<double>(records.size());
  const std::string rcs = options.dir + "/store.rcs";

  // Colstore cycles over every record until the run's time is spent: append
  // (+ sync), recover with open_append, scan into the streaming aggregate.
  std::vector<double> block_latency;
  std::vector<double> items_rate;
  std::vector<double> append_rate;
  std::vector<double> scan_rate;
  std::vector<double> recover;
  uint64_t rcs_bytes = 0;
  const auto start = Clock::now();
  for (int cycle = 0; another_pass(start, options.seconds, cycle); ++cycle) {
    const auto t0 = Clock::now();
    {
      auto writer = rotsv::ColStoreWriter::create(rcs, spec);
      const size_t block = rotsv::ColStoreWriter::kBlockRecords;
      auto block_start = Clock::now();
      for (size_t i = 0; i < records.size(); ++i) {
        writer->append(records[i]);
        if ((i + 1) % block == 0) {
          const auto now = Clock::now();
          block_latency.push_back(seconds_between(block_start, now));
          block_start = now;
        }
      }
      writer->sync();
      writer->finish();
    }
    const double append_s = seconds_since(t0);
    rcs_bytes = file_bytes(rcs);

    const auto t1 = Clock::now();
    rotsv::ColStoreReadResult recovered;
    rotsv::ColStoreWriter::open_append(rcs, spec, &recovered).reset();
    recover.push_back(seconds_since(t1));

    rotsv::StreamingAggregate agg(spec);
    const auto t2 = Clock::now();
    const rotsv::ColStoreStats stats =
        rotsv::scan_colstore(rcs, [&agg](const DieResult& d) { agg.add(d); });
    const double scan_s = seconds_since(t2);

    append_rate.push_back(n / append_s);
    scan_rate.push_back(n / scan_s);
    items_rate.push_back(n / (append_s + scan_s));
    // Digesting 1e5 records costs as much as a cycle: check the first two.
    if (cycle < 2) {
      report->check("colstore-recover-" + std::to_string(cycle),
                    verdict_digest(recovered.records, describe) == digest,
                    std::to_string(recovered.records.size()) + " records recovered");
    }
    report->check("colstore-scan-" + std::to_string(cycle),
                  stats.records == records.size() && stats.dropped_blocks == 0 &&
                      agg.aggregate().describe() == describe,
                  std::to_string(stats.records) + " records scanned");
    report->attempt(records.size(), 0);
  }
  // Peak RSS of the colstore work; the JSONL steps below hold more of the
  // heap per record and would set the peak themselves.
  const double peak_rss = peak_rss_mib(false);

  // JSONL result log (append with its periodic fsync, then resume) and the
  // conversions both ways, once per run.
  const std::vector<DieResult> prefix(records.begin(),
                                      records.begin() + static_cast<long>(jsonl_count));
  const std::string prefix_describe = rotsv::aggregate_campaign(spec, prefix).describe();
  const std::string prefix_digest = verdict_digest(prefix, prefix_describe);
  const std::string jsonl = options.dir + "/store.jsonl";
  const auto t_append = Clock::now();
  {
    auto log = rotsv::CampaignResultStore::create(jsonl, spec);
    for (const DieResult& d : prefix) log->append(d);
    log->sync();
  }
  const double jsonl_append = seconds_since(t_append);
  const uint64_t jsonl_bytes = file_bytes(jsonl);
  const auto t_resume = Clock::now();
  rotsv::ResumeState resumed;
  rotsv::CampaignResultStore::resume(jsonl, spec, &resumed).reset();
  const double jsonl_resume = seconds_since(t_resume);
  report->check("jsonl-resume", verdict_digest(resumed.completed, prefix_describe) == prefix_digest,
                std::to_string(resumed.completed.size()) + " records resumed");
  {
    auto writer = rotsv::ColStoreWriter::create(rcs, spec);
    for (const DieResult& d : prefix) writer->append(d);
  }
  const auto t_convert = Clock::now();
  const size_t exported =
      rotsv::export_colstore_to_jsonl(rcs, options.dir + "/export.jsonl", spec);
  const size_t imported = rotsv::import_jsonl_to_colstore(
      options.dir + "/export.jsonl", options.dir + "/import.rcs", spec);
  const double convert = seconds_since(t_convert);
  report->check("convert",
                exported == jsonl_count && imported == jsonl_count &&
                    verdict_digest(rotsv::read_colstore(options.dir + "/import.rcs", spec).records,
                                   prefix_describe) == prefix_digest,
                "colstore -> JSONL -> colstore round trip");

  report->add("items_per_s", "1/s", median(items_rate), items_rate.size(),
              "records / (colstore append incl. sync + scan into StreamingAggregate), "
              "median over cycles");
  report->add_percentiles("latency_ms", "ms", block_latency, 1e3,
                          "colstore append latency of one 128-record block "
                          "(encode + write + flush)");
  report->add("setup_s", "s", median(recover), recover.size(),
              "ColStoreWriter::open_append recovery of the full store (median)");
  report->add("peak_rss_mb", "MiB", peak_rss, 1,
              "this process, up to the end of the colstore cycles");
  report->add("append_records_per_s", "rec/s", median(append_rate), append_rate.size(),
              "ColStoreWriter append, sync included (median over cycles)");
  report->add("scan_records_per_s", "rec/s", median(scan_rate), scan_rate.size(),
              "scan_colstore + StreamingAggregate::add (median over cycles)");
  report->add("store_bytes_per_record", "B", static_cast<double>(rcs_bytes) / n,
              records.size(), ".rcs file size / records (exact)");
  const double jn = static_cast<double>(jsonl_count);
  report->add("jsonl_append_us", "us", jsonl_append * 1e6 / jn, jsonl_count,
              "CampaignResultStore::append per record, fsync every 8, sync included");
  report->add("jsonl_resume_s", "s", jsonl_resume, jsonl_count,
              "CampaignResultStore::resume of a log of count/5 records");
  report->add("jsonl_bytes_per_record", "B", static_cast<double>(jsonl_bytes) / jn,
              jsonl_count, "JSONL log size / records (exact)");
  report->add("convert_us", "us", convert * 1e6 / jn, jsonl_count,
              "export_colstore_to_jsonl + import_jsonl_to_colstore, per record");
}

}  // namespace perfbench

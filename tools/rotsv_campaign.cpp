// rotsv_campaign: production wafer-lot screening driver.
//
// Screens every populated die of a wafer lot with the paper's multi-voltage
// RO test, sharded across threads, with a durable JSONL result log that a
// killed run resumes from (--resume). Prints wafer maps, verdict bins,
// escape/overkill against the generated ground truth, and throughput.
//
// Examples:
//   rotsv_campaign --wafers 2 --rows 12 --cols 12 --threads 8 --out lot0.jsonl
//   rotsv_campaign --resume --out lot0.jsonl ...same flags...   # after a kill
//   rotsv_campaign --fast --rows 6 --cols 6                     # quick smoke
//   rotsv_campaign --server 127.0.0.1:7209 ...spec flags...     # remote run
//   rotsv_campaign --out lot0.jsonl --to-colstore lot0.rcs ...  # convert
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "campaign/campaign.hpp"
#include "serve/client.hpp"
#include "serve/colstore.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using namespace rotsv;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --wafers N      wafers in the lot (default 1)\n"
      "  --rows N        die-grid rows per wafer (default 8)\n"
      "  --cols N        die-grid cols per wafer (default 8)\n"
      "  --tsvs N        TSV groups screened per die (default 1)\n"
      "  --group N       TSVs per ring oscillator (default 2)\n"
      "  --voltages CSV  voltage plan, e.g. 1.1,0.95 (default 1.1,0.95)\n"
      "  --samples N     calibration Monte-Carlo dice per voltage (default 6)\n"
      "  --sigma K       guard-band width in sigma (default 4.0)\n"
      "  --open-rate P   per-TSV micro-void probability (default 0.05)\n"
      "  --leak-rate P   per-TSV pinhole probability (default 0.05)\n"
      "  --edge-bias B   radial defect-rate bias, 0 = uniform (default 1.0)\n"
      "  --seed N        campaign seed (default 20130318)\n"
      "  --threads N     worker threads (default: hardware)\n"
      "  --out PATH      JSONL result log (default: campaign_results.jsonl)\n"
      "  --resume        continue from the existing result log\n"
      "  --retries N     retry-ladder rungs after a failed attempt (default 3)\n"
      "  --max-die-steps N    per-die transient step budget, 0 = unlimited\n"
      "  --max-die-seconds S  per-die wall-clock budget, 0 = unlimited\n"
      "  --inject SPEC   chaos fault plan: solve@N, io@N, kill@K (comma-sep)\n"
      "  --fast          short simulation windows (demo/smoke speed)\n"
      "  --no-preflight  skip the static spec analysis before screening\n"
      "  --quiet         suppress per-die progress\n"
      "  --server ADDR   submit to a rotsv_serve daemon (unix:PATH or\n"
      "                  HOST:PORT) instead of screening locally\n"
      "  --to-colstore PATH    convert --out JSONL -> binary colstore, exit\n"
      "  --from-colstore PATH  convert binary colstore -> --out JSONL, exit\n",
      argv0);
}

bool parse_int(const char* s, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

bool parse_u64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  spec.rows = 8;
  spec.cols = 8;
  spec.tester.group_size = 2;
  spec.tester.voltages = {1.1, 0.95};
  spec.tester.calibration_samples = 6;
  spec.tester.guard_band_sigma = 4.0;
  spec.mix.edge_bias = 1.0;

  std::string out_path = "campaign_results.jsonl";
  std::string inject_spec;
  std::string server_addr;
  std::string to_colstore;
  std::string from_colstore;
  bool resume = false;
  bool fast = false;
  bool quiet = false;
  bool preflight = true;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded argv parsing
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--wafers") {
      ok = parse_int(value(), &spec.wafers);
    } else if (arg == "--rows") {
      ok = parse_int(value(), &spec.rows);
    } else if (arg == "--cols") {
      ok = parse_int(value(), &spec.cols);
    } else if (arg == "--tsvs") {
      ok = parse_int(value(), &spec.tsvs_per_die);
    } else if (arg == "--group") {
      ok = parse_int(value(), &spec.tester.group_size);
    } else if (arg == "--samples") {
      ok = parse_int(value(), &spec.tester.calibration_samples);
    } else if (arg == "--sigma") {
      ok = parse_double(value(), &spec.tester.guard_band_sigma);
    } else if (arg == "--open-rate") {
      ok = parse_double(value(), &spec.mix.open_rate);
    } else if (arg == "--leak-rate") {
      ok = parse_double(value(), &spec.mix.leak_rate);
    } else if (arg == "--edge-bias") {
      ok = parse_double(value(), &spec.mix.edge_bias);
    } else if (arg == "--voltages") {
      spec.tester.voltages.clear();
      for (const std::string& tok : split(value(), ", ")) {
        double v = 0.0;
        if (!parse_double(tok.c_str(), &v)) {
          std::fprintf(stderr, "bad voltage '%s'\n", tok.c_str());
          return kExitUsage;
        }
        spec.tester.voltages.push_back(v);
      }
      ok = !spec.tester.voltages.empty();
    } else if (arg == "--seed") {
      int s = 0;
      ok = parse_int(value(), &s);
      spec.seed = static_cast<uint64_t>(s);
    } else if (arg == "--threads") {
      int t = 0;
      ok = parse_int(value(), &t) && t >= 0;
      spec.threads = static_cast<size_t>(t);
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--retries") {
      ok = parse_int(value(), &spec.retry.retries) && spec.retry.retries >= 0;
    } else if (arg == "--max-die-steps") {
      ok = parse_u64(value(), &spec.tester.die_budget.max_steps);
    } else if (arg == "--max-die-seconds") {
      ok = parse_double(value(), &spec.tester.die_budget.max_seconds) &&
           spec.tester.die_budget.max_seconds >= 0.0;
    } else if (arg == "--inject") {
      inject_spec = value();
    } else if (arg == "--server") {
      server_addr = value();
    } else if (arg == "--to-colstore") {
      to_colstore = value();
    } else if (arg == "--from-colstore") {
      from_colstore = value();
    } else if (arg == "--fast") {
      fast = true;
    } else if (arg == "--no-preflight") {
      preflight = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return kExitUsage;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s\n", arg.c_str());
      return kExitUsage;
    }
  }

  if (fast) {
    spec.tester.run.first_window = 40e-9;
    spec.tester.run.max_time = 200e-9;
    spec.tester.run.measure_cycles = 3;
  }

  try {
    // --- conversion modes: no screening, just the result-store codecs -------
    if (!to_colstore.empty() || !from_colstore.empty()) {
      if (!to_colstore.empty() && !from_colstore.empty()) {
        std::fprintf(stderr,
                     "--to-colstore and --from-colstore are exclusive\n");
        return kExitUsage;
      }
      spec.validate();
      if (!to_colstore.empty()) {
        const size_t n = import_jsonl_to_colstore(out_path, to_colstore, spec);
        std::printf("converted %zu die record(s): %s -> %s\n", n,
                    out_path.c_str(), to_colstore.c_str());
      } else {
        const size_t n = export_colstore_to_jsonl(from_colstore, out_path, spec);
        std::printf("converted %zu die record(s): %s -> %s\n", n,
                    from_colstore.c_str(), out_path.c_str());
      }
      return kExitOk;
    }

    // --- client mode: ship the spec to a rotsv_serve daemon -----------------
    if (!server_addr.empty()) {
      spec.validate();
      const int total = spec.total_dice();
      std::printf("campaign %s via %s: %d dice\n", spec.lot_id.c_str(),
                  server_addr.c_str(), total);
      ServeClient client(server_addr);
      // Client-side streaming aggregation: wafer maps and the quality ledger
      // build up verdict by verdict, bit-identical to a local run's.
      StreamingAggregate agg(spec);
      int done = 0;
      const JobSummary summary = client.submit_and_stream(
          spec, [&](const DieResult& die) {
            agg.add(die);
            ++done;
            if (!quiet) {
              std::printf("  [%4d/%4d] w%d (%2d,%2d) -> %s\n", done, total,
                          die.wafer, die.row, die.col,
                          verdict_name(die.verdict));
              std::fflush(stdout);
            }
          });
      std::printf("\njob %llu %s: %d screened, %d resumed, %d worker "
                  "restart(s)\n",
                  static_cast<unsigned long long>(summary.job),
                  summary.state.c_str(), summary.screened, summary.resumed,
                  summary.restarts);
      std::printf("\n%s", agg.aggregate().describe().c_str());
      return summary.state == "done" ? kExitOk : kExitDiagnostics;
    }

    if (preflight) {
      // Analyze before constructing anything so a bad spec prints the full
      // located diagnostic list (exit 1) rather than the first bare
      // ConfigError the executor's validation would throw.
      const AnalysisReport analysis = analyze_campaign(spec);
      if (analysis.has_errors()) throw AnalysisError(analysis);
    }
    spec.validate();
    std::printf("campaign %s: %d wafer(s) x %d dice (%dx%d grid), %d TSV/die, "
                "%zu voltage(s)\n",
                spec.lot_id.c_str(), spec.wafers, spec.dice_per_wafer(),
                spec.rows, spec.cols, spec.tsvs_per_die,
                spec.tester.voltages.size());
    std::printf("%s to %s\n", resume ? "resuming" : "logging", out_path.c_str());

    CampaignRunOptions options;
    options.result_path = out_path;
    options.resume = resume;
    options.preflight = preflight;
    if (!inject_spec.empty()) {
      try {
        options.inject = InjectionSpec::parse(inject_spec);
        std::printf("fault injection: %s\n", options.inject.describe().c_str());
      } catch (const ConfigError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return kExitUsage;
      }
    }
    if (!quiet) {
      options.progress = [](const DieResult& die, int done, int total) {
        std::printf("  [%4d/%4d] w%d (%2d,%2d) -> %s\n", done, total, die.wafer,
                    die.row, die.col, verdict_name(die.verdict));
        std::fflush(stdout);
      };
    }

    const CampaignReport report = run_campaign(spec, options);

    std::printf("\ncalibrated bands:\n");
    for (size_t vi = 0; vi < report.bands.size(); ++vi) {
      std::printf("  %.2f V: [%s, %s]\n", spec.tester.voltages[vi],
                  format_time(report.bands[vi].first).c_str(),
                  format_time(report.bands[vi].second).c_str());
    }
    if (report.resumed_dice > 0) {
      std::printf("resumed %d completed dice from %s\n", report.resumed_dice,
                  out_path.c_str());
    }
    std::printf("\n%s\n%s", report.aggregate.describe().c_str(),
                report.throughput.describe().c_str());
    if (report.aggregate.die_bins.inconclusive > 0) {
      std::printf("quarantined %d dice (no verdict within the retry/budget "
                  "limits; re-run or raise --retries / budgets)\n",
                  report.aggregate.die_bins.inconclusive);
    }
    if (report.throughput.io_retries > 0 || report.throughput.io_failures > 0) {
      std::printf("result-log I/O: %llu retried append(s), %llu lost (resume "
                  "re-screens lost dice)\n",
                  static_cast<unsigned long long>(report.throughput.io_retries),
                  static_cast<unsigned long long>(report.throughput.io_failures));
    }
    return kExitOk;
  } catch (const InjectedKill& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::fprintf(stderr, "(injected kill; continue with --resume)\n");
    return kExitDiagnostics;
  } catch (const AnalysisError& e) {
    std::fprintf(stderr, "preflight rejected the campaign spec:\n%s",
                 e.report().describe().c_str());
    return kExitDiagnostics;
  } catch (const RemoteError& e) {
    std::fprintf(stderr, "server rejected the job: %s\n", e.what());
    if (!e.wire().detail.empty()) {
      std::fprintf(stderr, "%s", e.wire().detail.c_str());
      if (e.wire().detail.back() != '\n') std::fprintf(stderr, "\n");
    }
    return kExitDiagnostics;
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", describe_cli_error("", e).c_str());
    return cli_exit_code(e);
  }
}

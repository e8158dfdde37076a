// rotsv_perfbench: runs one workload and writes its report as JSON.
//
//   rotsv_perfbench --workload lot_1v1 --seed 1 --seconds 20 --trace 0
//                   --dir RUN_DIR --worker PATH/rotsv_worker --out result.json
//
// perfbench/run.py builds this binary and drives it; see perfbench/README.md.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.hpp"

#ifndef ROTSV_BENCH_BUILD_TYPE
#define ROTSV_BENCH_BUILD_TYPE ""
#endif
#ifndef ROTSV_BENCH_LIB_FLAGS
#define ROTSV_BENCH_LIB_FLAGS ""
#endif

namespace {

/// How rotsv itself was compiled: the library shares this binary's build
/// type and flags (one CMake project), which are recorded here.
struct BuildFingerprint {
  std::string compiler = __VERSION__;
  std::string build_type = ROTSV_BENCH_BUILD_TYPE;
  std::string flags = ROTSV_BENCH_LIB_FLAGS;
#ifdef NDEBUG
  bool ndebug = true;
#else
  bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  bool optimized = true;
#else
  bool optimized = false;
#endif

  bool timing_grade() const {
    const bool flags_optimize = flags.find("-O2") != std::string::npos ||
                                flags.find("-O3") != std::string::npos;
    return optimized && ndebug && flags_optimize &&
           flags.find("-DNDEBUG") != std::string::npos;
  }

  std::string json() const {
    using perfbench::json_escape;
    return "{\"compiler\": \"" + json_escape(compiler) + "\", \"build_type\": \"" +
           json_escape(build_type) + "\", \"flags\": \"" + json_escape(flags) +
           "\", \"ndebug\": " + (ndebug ? "true" : "false") +
           ", \"optimized\": " + (optimized ? "true" : "false") +
           ", \"hardware_threads\": " + std::to_string(perfbench::bench_threads()) + "}";
  }
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 --dir DIR "
               "--worker PATH --out FILE [--smoke]\n",
               argv0);
  std::exit(2);  // NOLINT(concurrency-mt-unsafe): single-threaded here
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--dir") {
      options.dir = value();
    } else if (arg == "--worker") {
      options.worker = value();
    } else if (arg == "--out") {
      out = value();
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      usage(argv[0]);
    }
  }
  if (options.workload.empty() || options.dir.empty() || out.empty()) usage(argv[0]);

  const BuildFingerprint build;
  if (!build.timing_grade()) {
    std::fprintf(stderr,
                 "rotsv_perfbench: refusing to time an unoptimised build "
                 "(build type '%s', flags '%s')\n",
                 build.build_type.c_str(), build.flags.c_str());
    return 3;
  }
  std::signal(SIGPIPE, SIG_IGN);

  perfbench::Report report;
  try {
    (void)perfbench::family_of(options.workload);  // rejects unknown names
    if (options.trace) {
      perfbench::run_traced(options, &report);
    } else if (options.workload == "serve_1v1") {
      perfbench::run_serve(options, &report);
    } else if (options.workload == "store_replay") {
      perfbench::run_store(options, &report);
    } else {
      perfbench::run_lot(options, &report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rotsv_perfbench: %s\n", e.what());
    return 1;
  }
  std::ofstream file(out);
  file << report.to_json(build.json());
  if (!file) {
    std::fprintf(stderr, "rotsv_perfbench: cannot write '%s'\n", out.c_str());
    return 1;
  }
  return 0;
}

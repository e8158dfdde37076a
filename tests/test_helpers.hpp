// Shared helpers for the simulation-level test suites: small rings and
// shortened run windows keep wall-clock time reasonable while exercising the
// same code paths as the paper-scale experiments.
#pragma once

#include <string>

#include "ro/ring_oscillator.hpp"
#include "ro/ro_runner.hpp"
#include "util/error.hpp"

namespace rotsv::testutil {

/// Short-window run options for tests (3 measured cycles).
inline RoRunOptions fast_run() {
  RoRunOptions opt;
  opt.discard_cycles = 2;
  opt.measure_cycles = 3;
  opt.first_window = 40e-9;
  opt.max_time = 200e-9;
  return opt;
}

/// Small ring (N = 2) with an optional fault on TSV 0.
inline RingOscillatorConfig small_ring(const TsvFault& fault = TsvFault::none(),
                                       double vdd = 1.1) {
  RingOscillatorConfig cfg;
  cfg.num_tsvs = 2;
  cfg.vdd = vdd;
  if (fault.is_fault()) cfg.faults = {fault};
  return cfg;
}

/// The message of the ConfigError `f` throws, or "" when it throws none.
template <typename F>
std::string config_error(F&& f) {
  try {
    f();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

}  // namespace rotsv::testutil

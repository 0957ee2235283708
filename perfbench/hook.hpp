// Link-time hook on sim::Engine::run_task, linked into both binaries.
//
// run_fleet() and run_flashcrowd() build their topology, then hand the
// whole workload to one Engine::run_task() call.  Wrapping that call marks
// the end of set-up from outside, and (when `snapshot` is on) copies the
// engine's MetricsRegistry, histograms included, before the harness tears
// the engine down.
#pragma once

#include <chrono>

#include "obs/metrics.hpp"

namespace perfbench {

struct EngineHook {
  using Clock = std::chrono::steady_clock;

  bool entered = false;            // run_task reached since reset()
  Clock::time_point first_entry;   // wall time of that first entry
  bool snapshot = false;           // copy the registry when run_task returns
  sgfs::obs::MetricsRegistry::Snapshot last;

  void reset() {
    entered = false;
    last = {};
  }
};

EngineHook& engine_hook();

}  // namespace perfbench

// The core the scale harnesses share (run_fleet, run_connstorm,
// run_flashcrowd and bench/overload): the measurement window, one op tally
// with one window test, goodput bucket series, nearest-rank percentiles,
// the spawn ramp, the drain, and the run statistics every result ends with
// (DESIGN.md §12).
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "nfs/nfs3.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace sgfs::fleet {

/// Warm-up and measurement window in virtual time; buckets count from t0.
struct Window {
  sim::SimTime t0 = 0;
  sim::SimTime start = 0;  // t0 + warmup
  sim::SimTime end = 0;    // start + length

  Window() = default;
  Window(sim::SimTime t0, sim::SimDur warmup, sim::SimDur length)
      : t0(t0), start(t0 + warmup), end(t0 + warmup + length) {}

  bool contains(sim::SimTime t) const { return t >= start && t < end; }
  size_t bucket(sim::SimTime t, sim::SimDur width) const {
    return static_cast<size_t>((t - t0) / width);
  }
};

/// Op outcomes the window admits.
struct OpCounts {
  uint64_t ok = 0;
  uint64_t busy = 0;      // NFS3ERR_JUKEBOX surfaced after delayed retries
  uint64_t giveups = 0;   // client retransmission budget exhausted
  uint64_t errors = 0;    // any other status, or a failed session
};

/// Successes per virtual second since t0, in the window or not (the
/// recovery timeline the crash gates read), and the window's buckets.
struct Timeline {
  std::vector<uint64_t> bucket_ok;
  size_t win_start_bucket = 0;
  size_t win_end_bucket = 0;
};

/// The one op tally of every harness.  A reply counts when the op arrived
/// inside the window; a thrown failure when the instant its caller names
/// does (DESIGN.md §12).
class OpTally {
 public:
  /// Records each in-window success's latency in `lat_ns` and fills
  /// `timeline`, when given.
  explicit OpTally(OpCounts& out, std::vector<uint64_t>* lat_ns = nullptr,
                   Timeline* timeline = nullptr)
      : out_(out), lat_ns_(lat_ns), timeline_(timeline) {}

  /// Opens the window (once); sizes the timeline over [t0, end].
  void open(const Window& w);
  /// Counts successes in a further series of `width` buckets too.
  void track(std::vector<uint64_t>& series, sim::SimDur width);
  const Window& window() const { return window_; }

  /// An op that arrived at `arrival` was answered with `status` at `now`.
  void reply(nfs::Status status, sim::SimTime arrival, sim::SimTime now);
  /// An op threw `e`; counted if `at` lies in the window.  Returns whether
  /// `e` is a give-up (rpc::RpcTimeout); anything else is an error.
  bool failure(const std::exception& e, sim::SimTime at);

 private:
  struct Series {
    std::vector<uint64_t>* counts;
    sim::SimDur width;
  };

  OpCounts& out_;
  std::vector<uint64_t>* lat_ns_;
  Timeline* timeline_;
  Window window_;
  std::vector<Series> series_;
};

/// Nearest-rank percentile of `lat_ns` in milliseconds (0 when empty).
double percentile_ms(std::vector<uint64_t> lat_ns, double q);

/// Mean of buckets[from, to), both clamped to the series (0 when empty).
double mean_goodput(const std::vector<uint64_t>& buckets, size_t from,
                    size_t to);

/// Spawns n actors; `make(i, phase)` builds actor i, phase = ramp * i / n.
template <typename Make>
void spawn_ramp(sim::Engine& eng, size_t n, sim::SimDur ramp, Make make) {
  const auto sn = static_cast<sim::SimDur>(n);
  for (size_t i = 0; i < n; ++i) {
    eng.spawn(make(i, ramp * static_cast<sim::SimDur>(i) / sn));
  }
}

/// Sleeps in 50 ms steps until `done()` holds.
template <typename Done>
sim::Task<void> drain(sim::Engine& eng, Done done) {
  while (!done()) co_await eng.sleep(50 * sim::kMillisecond);
}

/// The engine-derived statistics every harness result ends with.
struct RunStats {
  double sim_seconds = 0;   // virtual end time
  double wall_seconds = 0;  // host wall clock spent inside the harness
  uint64_t events = 0;      // sim::Engine::events_processed()
  uint64_t actors = 0;      // sim::Engine::actors_spawned()
  uint64_t sim_errors = 0;  // detached-actor exceptions (should be 0)
  std::map<std::string, double> metrics;  // engine registry snapshot

  RunStats() = default;

  /// Fills every field from the finished engine; wall time since
  /// `wall_start`.
  void finish(const sim::Engine& eng,
              std::chrono::steady_clock::time_point wall_start);
  /// Mixes the deterministic fields: not wall time, not the snapshot.
  void mix_into(obs::Fingerprint& h) const;
};

}  // namespace sgfs::fleet

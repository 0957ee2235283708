#include "fleet/harness.hpp"

#include <algorithm>

#include "rpc/retry.hpp"

namespace sgfs::fleet {

void OpTally::open(const Window& w) {
  window_ = w;
  if (!timeline_) return;
  timeline_->win_start_bucket = w.bucket(w.start, sim::kSecond);
  timeline_->win_end_bucket = w.bucket(w.end, sim::kSecond);
  track(timeline_->bucket_ok, sim::kSecond);
}

void OpTally::track(std::vector<uint64_t>& series, sim::SimDur width) {
  series.assign(window_.bucket(window_.end, width) + 1, 0);
  series_.push_back(Series{&series, width});
}

void OpTally::reply(nfs::Status status, sim::SimTime arrival,
                    sim::SimTime now) {
  const bool in_window = window_.contains(arrival);
  if (status == nfs::Status::kOk) {
    for (const Series& s : series_) {
      const size_t b = window_.bucket(arrival, s.width);
      if (b < s.counts->size()) ++(*s.counts)[b];
    }
    if (!in_window) return;
    ++out_.ok;
    if (lat_ns_) lat_ns_->push_back(static_cast<uint64_t>(now - arrival));
  } else if (status == nfs::Status::kJukebox) {
    if (in_window) ++out_.busy;
  } else if (in_window) {
    ++out_.errors;
  }
}

bool OpTally::failure(const std::exception& e, sim::SimTime at) {
  const bool giveup = dynamic_cast<const rpc::RpcTimeout*>(&e) != nullptr;
  if (window_.contains(at)) ++(giveup ? out_.giveups : out_.errors);
  return giveup;
}

double percentile_ms(std::vector<uint64_t> lat_ns, double q) {
  if (lat_ns.empty()) return 0;
  std::sort(lat_ns.begin(), lat_ns.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(lat_ns.size() - 1) + 0.5);
  return static_cast<double>(lat_ns[idx]) / 1e6;
}

double mean_goodput(const std::vector<uint64_t>& buckets, size_t from,
                    size_t to) {
  from = std::min(from, buckets.size());
  to = std::min(to, buckets.size());
  if (to <= from) return 0;
  uint64_t sum = 0;
  for (size_t i = from; i < to; ++i) sum += buckets[i];
  return static_cast<double>(sum) / static_cast<double>(to - from);
}

void RunStats::finish(const sim::Engine& eng,
                      std::chrono::steady_clock::time_point wall_start) {
  sim_seconds = sim::to_seconds(eng.now());
  events = eng.events_processed();
  actors = eng.actors_spawned();
  sim_errors = eng.errors().size();
  metrics = obs::scalar_values(eng.metrics());
  wall_seconds = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
}

void RunStats::mix_into(obs::Fingerprint& h) const {
  h.mix(static_cast<uint64_t>(sim_seconds * 1e9));
  h.mix(events);
  h.mix(actors);
  h.mix(sim_errors);
}

}  // namespace sgfs::fleet

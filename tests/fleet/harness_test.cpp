// The shared harness core: the op tally's window edges, goodput bucket
// bounds, the plateau mean, nearest-rank percentiles, the spawn ramp and the
// drain.  Every scale harness's counts rest on these edges.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fleet/harness.hpp"
#include "rpc/retry.hpp"

namespace sgfs::fleet {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// t0 = 10 s, window [12 s, 15 s).
const Window kWin(10 * kSecond, 2 * kSecond, 3 * kSecond);

TEST(Harness, WindowEdges) {
  EXPECT_EQ(kWin.start, 12 * kSecond);
  EXPECT_EQ(kWin.end, 15 * kSecond);
  EXPECT_FALSE(kWin.contains(kWin.start - 1));
  EXPECT_TRUE(kWin.contains(kWin.start));
  EXPECT_TRUE(kWin.contains(kWin.end - 1));
  EXPECT_FALSE(kWin.contains(kWin.end));
}

TEST(Harness, RepliesCountByArrival) {
  OpCounts out;
  std::vector<uint64_t> lat_ns;
  OpTally tally(out, &lat_ns);
  tally.open(kWin);
  // Arrived in the window, answered after it: counted, with its latency.
  tally.reply(nfs::Status::kOk, kWin.end - 1, kWin.end + kSecond);
  // Arrived before the window, answered inside it: not counted.
  tally.reply(nfs::Status::kOk, kWin.start - 1, kWin.start + 1);
  tally.reply(nfs::Status::kJukebox, kWin.start, kWin.start);
  tally.reply(nfs::Status::kJukebox, kWin.end, kWin.end);
  tally.reply(nfs::Status::kAcces, kWin.start, kWin.start);
  tally.reply(nfs::Status::kAcces, kWin.start - 1, kWin.start);
  EXPECT_EQ(out.ok, 1u);
  EXPECT_EQ(lat_ns, std::vector<uint64_t>{kSecond + 1});
  EXPECT_EQ(out.busy, 1u);
  EXPECT_EQ(out.errors, 1u);
  EXPECT_EQ(out.giveups, 0u);
}

// The closed-loop harnesses (fleet, connstorm) pass the catch time.
TEST(Harness, CatchTimeCountsFailuresWhenCaught) {
  OpCounts out;
  OpTally tally(out);
  tally.open(kWin);
  const rpc::RpcTimeout timeout(3);
  const std::runtime_error lost("stream closed");
  // An op that arrived before the window, caught at its first instant:
  // counted.
  EXPECT_TRUE(tally.failure(timeout, kWin.start));
  EXPECT_FALSE(tally.failure(lost, kWin.start));
  // Caught at the last instant: counted.
  tally.failure(timeout, kWin.end - 1);
  // An op that arrived in the window, caught at its end: not counted, but
  // still told apart.
  EXPECT_TRUE(tally.failure(timeout, kWin.end));
  EXPECT_FALSE(tally.failure(lost, kWin.end));
  EXPECT_EQ(out.giveups, 2u);
  EXPECT_EQ(out.errors, 1u);
}

// Overload's open-loop accounting passes the arrival time.
TEST(Harness, ArrivalTimeCountsFailuresWhenIssued) {
  OpCounts out;
  OpTally tally(out);
  tally.open(kWin);
  const rpc::RpcTimeout timeout(3);
  const std::runtime_error lost("stream closed");
  // Arrived in the window, caught long after it: counted.
  tally.failure(timeout, kWin.start);
  tally.failure(lost, kWin.end - 1);
  // Arrived before the window, caught inside it: not counted.
  tally.failure(timeout, kWin.start - 1);
  tally.failure(lost, kWin.start - 1);
  // Arrived at the end: not counted.
  tally.failure(timeout, kWin.end);
  EXPECT_EQ(out.giveups, 1u);
  EXPECT_EQ(out.errors, 1u);
}

TEST(Harness, BucketBoundsAtEachWidth) {
  // t0 = 5 s; the window ends 3.5 s later, mid-second.
  const Window w(5 * kSecond, 1500 * kMillisecond, 2 * kSecond);
  OpCounts out;
  Timeline timeline;
  std::vector<uint64_t> quarter;
  OpTally tally(out, nullptr, &timeline);
  tally.open(w);
  tally.track(quarter, kSecond / 4);
  ASSERT_EQ(timeline.bucket_ok.size(), 4u);  // [0 s, 3.5 s] in 1 s buckets
  ASSERT_EQ(quarter.size(), 15u);            // ... and in 250 ms buckets
  EXPECT_EQ(timeline.win_start_bucket, 1u);
  EXPECT_EQ(timeline.win_end_bucket, 3u);

  // Successes count in every series, in the window or not.
  for (sim::SimDur at : {sim::SimDur{0}, 999 * kMillisecond, 1 * kSecond,
                         3500 * kMillisecond, 4 * kSecond}) {
    tally.reply(nfs::Status::kOk, w.t0 + at, w.t0 + at);
  }
  // A whole bucket before t0: dropped.
  tally.reply(nfs::Status::kOk, w.t0 - kSecond, w.t0);
  EXPECT_EQ(timeline.bucket_ok, (std::vector<uint64_t>{2, 1, 0, 1}));
  std::vector<uint64_t> want(15, 0);
  want[0] = 1;   // 0 s
  want[3] = 1;   // 999 ms
  want[4] = 1;   // 1 s
  want[14] = 1;  // 3.5 s, the last (partial) bucket; 4 s falls outside
  EXPECT_EQ(quarter, want);
  EXPECT_EQ(w.bucket(w.t0 + 1 * kSecond, kSecond / 4), 4u);
}

TEST(Harness, MeanGoodputClampsAndEmptyRanges) {
  const std::vector<uint64_t> b = {1, 2, 3, 6};
  EXPECT_DOUBLE_EQ(mean_goodput(b, 0, 4), 3.0);
  EXPECT_DOUBLE_EQ(mean_goodput(b, 1, 3), 2.5);
  EXPECT_DOUBLE_EQ(mean_goodput(b, 2, 100), 4.5);  // `to` clamped
  EXPECT_DOUBLE_EQ(mean_goodput(b, 3, 3), 0.0);
  EXPECT_DOUBLE_EQ(mean_goodput(b, 3, 1), 0.0);
  EXPECT_DOUBLE_EQ(mean_goodput(b, 7, 9), 0.0);    // both clamped: empty
  EXPECT_DOUBLE_EQ(mean_goodput({}, 0, 4), 0.0);
}

// Nearest rank: index q * (n - 1) + 0.5, truncated — the rule
// perfbench's percentile_ms uses — not interpolation, not the lower rank.
TEST(Harness, PercentileIsNearestRank) {
  EXPECT_DOUBLE_EQ(percentile_ms({}, 0.5), 0.0);
  for (double q : {0.0, 0.5, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile_ms({7 * kMillisecond}, q), 7.0);
  }
  const std::vector<uint64_t> four = {40 * kMillisecond, 10 * kMillisecond,
                                      30 * kMillisecond, 20 * kMillisecond};
  EXPECT_DOUBLE_EQ(percentile_ms(four, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_ms(four, 0.5), 30.0);   // index 2.0
  EXPECT_DOUBLE_EQ(percentile_ms(four, 0.49), 20.0);  // index 1.97
  EXPECT_DOUBLE_EQ(percentile_ms(four, 1.0), 40.0);
  std::vector<uint64_t> hundred;
  for (uint64_t v = 100; v >= 1; --v) hundred.push_back(v * kMillisecond);
  EXPECT_DOUBLE_EQ(percentile_ms(hundred, 0.99), 99.0);  // index 98.51
  EXPECT_DOUBLE_EQ(percentile_ms(hundred, 0.999), 100.0);
  EXPECT_DOUBLE_EQ(percentile_ms(hundred, 0.5), 51.0);  // index 50.0
}

// Actor i of n starts at ramp * i / n, truncated, in spawn order.
TEST(Harness, RampPhases) {
  auto starts = [](size_t n, sim::SimDur ramp) {
    sim::Engine eng;
    std::vector<std::pair<size_t, sim::SimDur>> made;
    std::vector<sim::SimTime> started;
    auto actor = [](sim::Engine& eng, std::vector<sim::SimTime>& started,
                    sim::SimDur phase) -> sim::Task<void> {
      co_await eng.sleep(phase);
      started.push_back(eng.now());
    };
    spawn_ramp(eng, n, ramp, [&](size_t i, sim::SimDur phase) {
      made.emplace_back(i, phase);
      return actor(eng, started, phase);
    });
    EXPECT_EQ(eng.actors_spawned(), n);
    for (size_t i = 0; i < made.size(); ++i) EXPECT_EQ(made[i].first, i);
    eng.run();
    return started;
  };
  using Times = std::vector<sim::SimTime>;
  EXPECT_EQ(starts(4, 1000), (Times{0, 250, 500, 750}));
  EXPECT_EQ(starts(3, 1000), (Times{0, 333, 666}));  // never rounded up
  EXPECT_EQ(starts(3, 3 * kSecond), (Times{0, 1 * kSecond, 2 * kSecond}));
  EXPECT_EQ(starts(2, 0), (Times{0, 0}));
  EXPECT_EQ(starts(0, kSecond), Times{});
}

// The drain polls every 50 ms: it notices an actor finishing at 120 ms at
// its 150 ms check.
TEST(Harness, DrainPollsEveryFiftyMilliseconds) {
  sim::Engine eng;
  bool done = false;
  eng.spawn([](sim::Engine& eng, bool& done) -> sim::Task<void> {
    co_await eng.sleep(120 * kMillisecond);
    done = true;
  }(eng, done));
  sim::SimTime drained = -1;
  eng.run_task([](sim::Engine& eng, bool& done,
                  sim::SimTime& drained) -> sim::Task<void> {
    co_await drain(eng, [&] { return done; });
    drained = eng.now();
  }(eng, done, drained));
  EXPECT_EQ(drained, 150 * kMillisecond);
}

}  // namespace
}  // namespace sgfs::fleet

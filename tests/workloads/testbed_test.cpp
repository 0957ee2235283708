// Testbed/workload sanity: the qualitative orderings the paper reports must
// hold at small scale before the full benchmarks reproduce the figures.
#include <gtest/gtest.h>

#include "workloads/workloads.hpp"

namespace sgfs::workloads {
namespace {

using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;

// Small IOzone: 16 MB file, 8 MB client cache (same 2:1 ratio as the paper).
double iozone_seconds(TestbedOptions opts) {
  opts.client_mem_bytes = 8ull << 20;
  Testbed tb(opts);
  IozoneParams params;
  params.file_bytes = 16ull << 20;
  tb.preload_file("iozone.tmp", params.file_bytes, /*warm=*/true);
  double total = 0;
  tb.engine().run_task([](Testbed& tb, IozoneParams params,
                          double* out) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    auto times = co_await run_iozone(tb, mp, params);
    *out = times.total();
  }(tb, params, &total));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
  return total;
}

TEST(TestbedIozone, UserLevelProxiesSlowerThanKernelNfs) {
  TestbedOptions nfs;
  nfs.kind = SetupKind::kNfsV3;
  TestbedOptions gfs;
  gfs.kind = SetupKind::kGfs;
  const double t_nfs = iozone_seconds(nfs);
  const double t_gfs = iozone_seconds(gfs);
  EXPECT_GT(t_gfs, 1.5 * t_nfs);  // paper: "more than two-fold"
  EXPECT_LT(t_gfs, 8.0 * t_nfs);
}

TEST(TestbedIozone, SecurityStrengthOrdering) {
  auto variant = [](crypto::Cipher c, crypto::MacAlgo m) {
    TestbedOptions o;
    o.kind = SetupKind::kSgfs;
    o.cipher = c;
    o.mac = m;
    return iozone_seconds(o);
  };
  TestbedOptions gfs;
  gfs.kind = SetupKind::kGfs;
  const double t_gfs = iozone_seconds(gfs);
  const double t_sha =
      variant(crypto::Cipher::kNull, crypto::MacAlgo::kHmacSha1);
  const double t_rc =
      variant(crypto::Cipher::kRc4_128, crypto::MacAlgo::kHmacSha1);
  const double t_aes =
      variant(crypto::Cipher::kAes256Cbc, crypto::MacAlgo::kHmacSha1);
  EXPECT_GT(t_sha, t_gfs);
  EXPECT_GT(t_rc, t_sha);
  EXPECT_GT(t_aes, t_rc);
}

TEST(TestbedIozone, SshTunnelIsTheWorst) {
  TestbedOptions ssh;
  ssh.kind = SetupKind::kGfsSsh;
  TestbedOptions aes;
  aes.kind = SetupKind::kSgfs;
  const double t_ssh = iozone_seconds(ssh);
  const double t_aes = iozone_seconds(aes);
  EXPECT_GT(t_ssh, 1.5 * t_aes);  // removing double forwarding is the win
}

TEST(TestbedIozone, NfsV4ComparableToV3) {
  TestbedOptions v3;
  v3.kind = SetupKind::kNfsV3;
  TestbedOptions v4;
  v4.kind = SetupKind::kNfsV4;
  const double t3 = iozone_seconds(v3);
  const double t4 = iozone_seconds(v4);
  EXPECT_LT(std::abs(t4 - t3) / t3, 0.5);  // paper: no advantage observed
}

TEST(TestbedPostmark, SgfsCacheWinsInWan) {
  PostmarkParams params;
  params.directories = 10;
  params.files = 50;
  params.transactions = 100;

  auto run = [&](TestbedOptions opts) {
    Testbed tb(opts);
    double total = 0;
    tb.engine().run_task([](Testbed& tb, PostmarkParams params,
                            double* out) -> sim::Task<void> {
      auto mp = co_await tb.mount();
      auto times = co_await run_postmark(tb, mp, params);
      *out = times.total();
    }(tb, params, &total));
    EXPECT_TRUE(tb.engine().errors().empty());
    return total;
  };

  TestbedOptions nfs;
  nfs.kind = SetupKind::kNfsV3;
  nfs.wan_rtt = 80 * sim::kMillisecond;
  TestbedOptions sgfs;
  sgfs.kind = SetupKind::kSgfs;
  sgfs.proxy_disk_cache = true;
  sgfs.wan_rtt = 80 * sim::kMillisecond;
  const double t_nfs = run(nfs);
  const double t_sgfs = run(sgfs);
  EXPECT_GT(t_nfs, 1.5 * t_sgfs);  // paper: ~2x speedup at 80 ms
}

TEST(TestbedMab, RunsAllPhasesOnSgfs) {
  TestbedOptions opts;
  opts.kind = SetupKind::kSgfs;
  opts.proxy_disk_cache = true;
  Testbed tb(opts);
  MabParams params;
  params.files = 60;
  params.outputs = 25;
  params.compile_cpu_seconds = 10.0;
  mab_prepare_tree(tb, params);
  PhaseTimes times;
  tb.engine().run_task([](Testbed& tb, MabParams params,
                          PhaseTimes* out) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    *out = co_await run_mab(tb, mp, params);
  }(tb, params, &times));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
  ASSERT_EQ(times.phases.size(), 4u);
  EXPECT_GT(times["copy"], 0.0);
  EXPECT_GT(times["compile"], 10.0);  // at least the gcc CPU time
}

TEST(TestbedSeismic, WriteBackCancellationSavesFlush) {
  TestbedOptions opts;
  opts.kind = SetupKind::kSgfs;
  opts.proxy_disk_cache = true;
  opts.wan_rtt = 40 * sim::kMillisecond;
  Testbed tb(opts);
  SeismicParams params;
  params.trace_bytes = 16ull << 20;
  params.generate_cpu_seconds = 1;
  params.stack_cpu_seconds = 1;
  params.timemig_cpu_seconds = 1;
  params.depthmig_cpu_seconds = 2;
  double writeback = 0;
  tb.engine().run_task([](Testbed& tb, SeismicParams params,
                          double* wb) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    (void)co_await run_seismic(tb, mp, params);
    co_await mp->flush_all();
    *wb = co_await tb.flush_session();
  }(tb, params, &writeback));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
  // The removed intermediates never crossed the WAN.
  EXPECT_GT(tb.client_proxy()->cancelled_writeback_bytes(), 0u);
  // Only the final outputs (d3 + d4 = trace/4) flow at flush time.
  EXPECT_LT(tb.client_proxy()->flushed_bytes(), params.trace_bytes);
}

TEST(TestbedCpu, DaemonUtilizationSeriesAvailable) {
  TestbedOptions opts;
  opts.kind = SetupKind::kSgfs;
  Testbed tb(opts);
  IozoneParams params;
  params.file_bytes = 8ull << 20;
  tb.preload_file("iozone.tmp", params.file_bytes, true);
  tb.engine().run_task([](Testbed& tb, IozoneParams params) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    (void)co_await run_iozone(tb, mp, params);
  }(tb, params));
  auto series = tb.client_daemon_cpu_series();
  EXPECT_FALSE(series.empty());
  double peak = 0;
  for (double s : series) peak = std::max(peak, s);
  EXPECT_GT(peak, 0.0);
  EXPECT_LE(peak, 1.0);
}

TEST(StatsTest, MeanAndStddev) {
  auto s = stats_of({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 0.01);
  EXPECT_DOUBLE_EQ(stats_of({}).mean, 0.0);
  EXPECT_DOUBLE_EQ(stats_of({3.0}).stddev, 0.0);
}

// Small PostMark over a lossy+corrupting WAN: the run must complete, losses
// must be recovered by retransmission, and retransmitted non-idempotent ops
// must hit the server-side duplicate-request cache.  A corrupted secure
// record fails the MAC check and forces a session re-establishment.
TEST(TestbedFaults, PostmarkRecoversUnderLossAndCorruption) {
  TestbedOptions opts;
  opts.kind = SetupKind::kSgfs;
  opts.loss_probability = 0.02;
  opts.corrupt_probability = 0.002;
  opts.seed = 4242;
  Testbed tb(opts);
  PostmarkParams params;
  params.directories = 5;
  params.files = 40;
  params.transactions = 100;
  params.seed = opts.seed;
  double total = 0;
  tb.engine().run_task([](Testbed& tb, PostmarkParams params,
                          double* out) -> sim::Task<void> {
    auto mp = co_await tb.mount();
    auto times = co_await run_postmark(tb, mp, params);
    *out = times.total();
  }(tb, params, &total));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
  EXPECT_GT(total, 0.0);
  ASSERT_NE(tb.fault_plan(), nullptr);
  EXPECT_GT(tb.fault_plan()->dropped(), 0u);
  EXPECT_GT(tb.client_proxy()->upstream_retransmits(), 0u);
  if (tb.fault_plan()->corrupted() > 0) {
    EXPECT_GT(tb.client_proxy()->reconnects(), 0u);
  }
}

// An O_APPEND write must land at the end of a file even while the earlier
// bytes sit only in the client proxy's write-back disk cache, and a later
// truncate inside the last block must stick.  NFSv3 and sgfs without the
// disk cache are the references.
TEST(TestbedAppend, AppendAfterCachedWriteLandsAtEnd) {
  struct Stack {
    const char* name;
    SetupKind kind;
    bool disk_cache;
  };
  for (const Stack stack : {Stack{"sgfs+disk-cache", SetupKind::kSgfs, true},
                            Stack{"sgfs", SetupKind::kSgfs, false},
                            Stack{"nfs-v3", SetupKind::kNfsV3, false}}) {
    for (const size_t first : {size_t{32768}, size_t{5000}}) {
      SCOPED_TRACE(std::string(stack.name) + " first=" +
                   std::to_string(first));
      TestbedOptions opts;
      opts.kind = stack.kind;
      opts.proxy_disk_cache = stack.disk_cache;
      opts.wan_rtt = 20 * sim::kMillisecond;
      Testbed tb(opts);
      Rng rng(first);
      const Buffer head = rng.bytes(first);
      const Buffer tail = rng.bytes(3000);
      const uint64_t cut = first + 1000;
      Buffer got, got_cut;
      tb.engine().run_task([](Testbed& tb, const Buffer& head,
                              const Buffer& tail, uint64_t cut, Buffer* got,
                              Buffer* got_cut) -> sim::Task<void> {
        auto mp = co_await tb.mount();
        auto read_all = [](std::shared_ptr<nfs::MountPoint> mp,
                           Buffer* out) -> sim::Task<void> {
          const int fd = co_await mp->open("f", nfs::kRdOnly);
          Buffer buf(64 * 1024);
          for (;;) {
            const size_t n = co_await mp->read(fd, buf);
            if (n == 0) break;
            out->insert(out->end(), buf.begin(),
                        buf.begin() + static_cast<std::ptrdiff_t>(n));
          }
          co_await mp->close(fd);
        };
        int fd = co_await mp->open("f", nfs::kWrOnly | nfs::kCreate |
                                            nfs::kTrunc);
        co_await mp->write(fd, head);
        co_await mp->close(fd);
        fd = co_await mp->open("f", nfs::kWrOnly | nfs::kCreate |
                                        nfs::kAppend);
        co_await mp->write(fd, tail);
        co_await mp->close(fd);
        co_await read_all(mp, got);
        co_await mp->truncate("f", cut);
        co_await read_all(mp, got_cut);
      }(tb, head, tail, cut, &got, &got_cut));
      EXPECT_TRUE(tb.engine().errors().empty())
          << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
      Buffer want = head;
      want.insert(want.end(), tail.begin(), tail.end());
      ASSERT_EQ(got.size(), want.size());
      EXPECT_TRUE(got == want) << "file content differs";
      want.resize(cut);
      ASSERT_EQ(got_cut.size(), want.size());
      EXPECT_TRUE(got_cut == want) << "truncated content differs";
    }
  }
}

}  // namespace
}  // namespace sgfs::workloads

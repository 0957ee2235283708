// Chaos harness: crash-consistent recovery under real process crashes.
//
// Invariant (ISSUE "crash-consistent recovery"): no data the server
// acknowledged as stable — FILE_SYNC writes or UNSTABLE writes covered by a
// COMMIT — may be lost across a server crash/restart, and close-to-open
// consistency must hold for every file the workload closed.  The harness
// checks it two ways:
//
//   1. targeted tests that stage one crash at a known-interesting instant
//      (uncommitted shadows outstanding, mid-flush, mid-writeback) and
//      assert the RFC 1813 §3.3.21 verifier replay machinery — metrics and
//      final server content;
//   2. a seeded matrix of randomized crash/blackout schedules against a
//      mutating workload, compared file-by-file against a fault-free oracle
//      run of the same seed — the runs must converge to the identical tree.
//
// A deliberately-broken variant (verifier_replay = false) must FAIL the
// invariant: the same crashes then lose acknowledged-unstable data, which
// proves the harness can actually catch the loss it claims to rule out.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/testbed.hpp"
#include "net/fault.hpp"
#include "nfs/kernel_nfs.hpp"
#include "nfs/nfs3_client.hpp"

namespace sgfs {
namespace {

using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;
using nfs::FsError;
using nfs::MountPoint;
using nfs::Nfs3ClientConfig;
using sim::Task;
using namespace sgfs::sim::literals;

// --- direct-mount rig (one client, one server, exported /GFS) ----------------

struct Rig {
  sim::Engine eng;
  net::Network net{eng};
  net::Host* client_host;
  net::Host* server_host;
  std::shared_ptr<vfs::FileSystem> fs;
  nfs::KernelNfs kernel;

  Rig() {
    client_host = &net.add_host("client");
    server_host = &net.add_host("server");
    fs = std::make_shared<vfs::FileSystem>();
    vfs::Cred root(0, 0);
    fs->mkdir_p(root, "/GFS/data", 0777);
    kernel = nfs::KernelNfs(*server_host, fs, {});
  }

  sim::Task<std::shared_ptr<MountPoint>> do_mount(
      Nfs3ClientConfig config = Nfs3ClientConfig()) {
    co_return co_await MountPoint::mount(
        *client_host, net::Address("server", 2049), "/GFS",
        rpc::AuthSys(1000, 1000, "client"), config);
  }

  uint64_t counter(const std::string& name) const {
    return eng.metrics().counter_value(name);
  }
};

// --- targeted kernel-client recovery tests -----------------------------------

// Eviction pushes UNSTABLE writes long before fsync; a server crash in that
// window reverts them (the server's undo log makes unstable data really
// volatile).  The client's verifier replay must resend every uncommitted
// block before the COMMIT, leaving the file intact.
TEST(ChaosKernel, EvictionWritebackReplayAfterServerCrash) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    Nfs3ClientConfig cfg;
    cfg.cache_bytes = 4 * 32 * 1024;  // 4 blocks: forces eviction writebacks
    auto mp = co_await rig.do_mount(cfg);

    Rng content(123);
    Buffer payload = content.bytes(16 * 32 * 1024);  // 16 blocks
    int fd = co_await mp->open("data/f.bin", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, payload);
    // Evictions have pushed at least 12 blocks UNSTABLE without a COMMIT.
    EXPECT_GE(mp->uncommitted_blocks(), 12u);
    EXPECT_GE(rig.kernel.server->unstable_bytes_for(0), 0u);  // accessor smoke

    rig.server_host->crash_restart(rig.eng.now() + 1_ms, 100_ms);
    co_await rig.eng.sleep(300_ms);  // past the downtime: reconnects succeed

    co_await mp->close(fd);  // flush remaining dirty + COMMIT

    EXPECT_EQ(rig.counter("net.host.crashes"), 1u);
    EXPECT_EQ(rig.counter("nfs.server.crashes"), 1u);
    EXPECT_GE(rig.counter("nfs.client.reconnects"), 1u);
    EXPECT_EQ(rig.counter("nfs.client.recovery.verf_mismatches"), 1u);
    EXPECT_EQ(rig.counter("nfs.client.recovery.replays"), 1u);
    EXPECT_GE(rig.counter("nfs.client.recovery.replayed_bytes"),
              12u * 32 * 1024);
    // COMMIT acknowledged: every shadow dropped again.
    EXPECT_EQ(mp->uncommitted_blocks(), 0u);
    EXPECT_EQ(rig.eng.metrics().gauge_value(
                  "nfs.client.recovery.uncommitted_bytes"),
              0);

    auto got = rig.fs->read_file(vfs::Cred(0, 0), "/GFS/data/f.bin");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got.value, payload);
    }
  }(rig));
}

// Satellite: the verifier roll between WRITE and COMMIT retransmits exactly
// the uncommitted byte ranges — previously committed blocks are NOT resent.
TEST(ChaosKernel, ReplayResendsExactlyUncommittedBytes) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount();  // ample cache: no evictions

    Rng content(7);
    Buffer payload = content.bytes(4 * 32 * 1024);
    int fd = co_await mp->open("data/g.bin", nfs::kRdWr | nfs::kCreate);
    co_await mp->write(fd, payload);
    co_await mp->fsync(fd);  // 4 blocks committed; shadows dropped
    EXPECT_EQ(mp->uncommitted_blocks(), 0u);

    // Dirty exactly blocks 0 and 1, then crash the server.
    Buffer fresh = content.bytes(2 * 32 * 1024);
    co_await mp->pwrite(fd, 0, fresh);
    rig.server_host->crash_restart(rig.eng.now() + 1_ms, 100_ms);
    co_await rig.eng.sleep(300_ms);

    // fsync: block 0's writeback reconnects and observes the rolled
    // verifier; the replay must resend only block 0 (the sole shadow at
    // mismatch time) — 32768 bytes, not the 4 committed blocks.
    co_await mp->fsync(fd);
    EXPECT_EQ(rig.counter("nfs.client.recovery.verf_mismatches"), 1u);
    EXPECT_EQ(rig.counter("nfs.client.recovery.replayed_bytes"),
              32u * 1024);
    co_await mp->close(fd);

    Buffer expect = payload;
    std::copy(fresh.begin(), fresh.end(), expect.begin());
    auto got = rig.fs->read_file(vfs::Cred(0, 0), "/GFS/data/g.bin");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got.value, expect);
    }
  }(rig));
}

// Deliberately-broken variant: with verifier replay disabled, the same crash
// MUST lose acknowledged-UNSTABLE data — this is the negative control that
// proves the harness detects the loss the replay prevents.
TEST(ChaosKernel, DisabledReplayLosesAcknowledgedUnstableData) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    Nfs3ClientConfig cfg;
    cfg.cache_bytes = 4 * 32 * 1024;
    cfg.verifier_replay = false;  // RFC 1813 §3.3.21 switched off
    auto mp = co_await rig.do_mount(cfg);

    Rng content(123);
    Buffer payload = content.bytes(16 * 32 * 1024);
    int fd = co_await mp->open("data/f.bin", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, payload);
    EXPECT_GE(mp->uncommitted_blocks(), 12u);

    rig.server_host->crash_restart(rig.eng.now() + 1_ms, 100_ms);
    co_await rig.eng.sleep(300_ms);
    co_await mp->close(fd);  // completes: the roll is noticed, not repaired

    EXPECT_EQ(rig.counter("nfs.client.recovery.verf_mismatches"), 1u);
    EXPECT_EQ(rig.counter("nfs.client.recovery.replays"), 0u);
    auto got = rig.fs->read_file(vfs::Cred(0, 0), "/GFS/data/f.bin");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_NE(got.value, payload);  // acknowledged-unstable data is gone
    }
  }(rig));
}

// Satellite bugfix: REMOVE of a file with pending unstable bytes must erase
// the server's unstable tracking (and its undo log) with the file.
TEST(ChaosKernel, RemoveErasesServerUnstableTracking) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    Nfs3ClientConfig cfg;
    cfg.cache_bytes = 4 * 32 * 1024;
    auto mp = co_await rig.do_mount(cfg);

    Rng content(9);
    Buffer payload = content.bytes(16 * 32 * 1024);
    int fd = co_await mp->open("data/victim.bin",
                               nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, payload);
    // Evictions left UNSTABLE bytes on the server, no COMMIT yet.
    EXPECT_EQ(rig.kernel.server->unstable_files(), 1u);

    co_await mp->unlink("data/victim.bin");
    EXPECT_EQ(rig.kernel.server->unstable_files(), 0u);

    co_await mp->close(fd);  // no flush left: write-backs were cancelled
    auto got = rig.fs->read_file(vfs::Cred(0, 0), "/GFS/data/victim.bin");
    EXPECT_FALSE(got.ok());

    // A later crash must not resurrect or revert anything.
    rig.server_host->crash_restart(rig.eng.now() + 1_ms, 50_ms);
    co_await rig.eng.sleep(200_ms);
    EXPECT_EQ(rig.counter("nfs.server.crashes"), 1u);
  }(rig));
}

// Satellite bugfix: flush_file must survive writeback_block throwing
// mid-loop.  A downtime longer than the reconnect budget makes the fsync
// fail partway; the retry must resend exactly the still-unflushed blocks
// (plus the verifier replay of the pre-crash ones) and converge.
TEST(ChaosKernel, InterruptedFlushRetriesRemainingBlocks) {
  Rig rig;
  rig.eng.run_task([](Rig& rig) -> Task<void> {
    auto mp = co_await rig.do_mount();

    Rng content(31);
    Buffer payload = content.bytes(8 * 32 * 1024);
    int fd = co_await mp->open("data/h.bin", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, payload);

    // Crash lands mid-fsync; 5 s downtime exhausts the reconnect budget
    // (8 attempts, linear backoff: ~3.6 s), so flush_file throws partway.
    rig.server_host->crash_restart(rig.eng.now() + 1_ms, 5 * sim::kSecond);
    bool threw = false;
    try {
      co_await mp->fsync(fd);
    } catch (const net::StreamClosed&) {
      threw = true;
    }
    EXPECT_TRUE(threw);

    co_await rig.eng.sleep(6 * sim::kSecond);  // server back up
    co_await mp->fsync(fd);  // retry: remaining blocks + shadow replay
    co_await mp->close(fd);

    EXPECT_GE(rig.counter("nfs.client.recovery.verf_mismatches"), 1u);
    auto got = rig.fs->read_file(vfs::Cred(0, 0), "/GFS/data/h.bin");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got.value, payload);
    }
  }(rig));
}

// --- targeted proxy recovery test --------------------------------------------

// The file-server host crashes while the client proxy is flushing its
// write-back cache: the proxy must re-establish the secure session, replay
// every UNSTABLE-acknowledged block, and retry the COMMIT — one hop up from
// the kernel client's machinery, same RFC 1813 rule.
TEST(ChaosProxy, ServerCrashDuringWritebackFlush) {
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.proxy_disk_cache = true;
  opt.proxy_write_back = true;
  opt.wan_rtt = 20 * sim::kMillisecond;
  opt.seed = 42;
  Testbed tb(opt);

  const size_t kBytes = 32 * 32 * 1024;  // 1 MiB: a long flush
  Rng content(55);
  Buffer payload = content.bytes(kBytes);

  tb.engine().run_task([](Testbed& tb, const Buffer& payload) -> Task<void> {
    auto mp = co_await tb.mount();
    int fd = co_await mp->open("crash.bin", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, payload);
    co_await mp->close(fd);  // absorbed by the write-back proxy cache
    EXPECT_GE(tb.client_proxy()->dirty_bytes(), payload.size());

    // Crash the file server once a quarter of the flush has gone out.
    tb.engine().spawn([](Testbed& tb) -> Task<void> {
      while (tb.client_proxy()->flushed_bytes() < 256 * 1024) {
        co_await tb.engine().sleep(2_ms);
      }
      tb.server_host().crash_restart(tb.engine().now(), 100_ms);
    }(tb));

    co_await tb.flush_session();

    auto& m = tb.engine().metrics();
    EXPECT_EQ(m.counter_value("net.host.crashes"), 1u);
    EXPECT_GE(tb.client_proxy()->reconnects(), 1u);
    EXPECT_EQ(m.counter_value("sgfs.recovery.verf_mismatches"), 1u);
    EXPECT_EQ(m.counter_value("sgfs.recovery.replays"), 1u);
    EXPECT_GE(m.counter_value("sgfs.recovery.replayed_bytes"), 1u);
    EXPECT_EQ(tb.client_proxy()->uncommitted_blocks(), 0u);

    auto got = tb.server_fs().read_file(
        vfs::Cred(0, 0), std::string(Testbed::kDataPath) + "/crash.bin");
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got.value, payload);
    }
  }(tb, payload));
}

// --- seeded chaos matrix ------------------------------------------------------

// Snapshot of the server tree under kDataPath: path -> "d" for directories,
// "f:<size>:<fnv1a(content)>" for files.  Timestamps are deliberately
// excluded — the invariant is about data, and faulted runs take longer.
using TreeSnapshot = std::map<std::string, std::string>;

uint64_t fnv1a(ByteView bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

void snapshot_dir(vfs::FileSystem& fs, vfs::FileId dir,
                  const std::string& prefix, TreeSnapshot& out) {
  vfs::Cred root(0, 0);
  uint64_t cookie = 0;
  for (;;) {
    auto entries = fs.readdir(root, dir, cookie, 256);
    ASSERT_TRUE(entries.ok());
    if (entries.value.empty()) break;
    for (const auto& entry : entries.value) {
      cookie = entry.cookie;
      if (entry.name == "." || entry.name == "..") continue;
      const std::string path = prefix + "/" + entry.name;
      auto attrs = fs.getattr(entry.fileid);
      ASSERT_TRUE(attrs.ok());
      if (attrs.value.type == vfs::FileType::kDirectory) {
        out[path] = "d";
        snapshot_dir(fs, entry.fileid, path, out);
      } else {
        auto data = fs.read(root, entry.fileid, 0,
                            static_cast<uint32_t>(attrs.value.size));
        ASSERT_TRUE(data.ok());
        out[path] = "f:" + std::to_string(attrs.value.size) + ":" +
                    std::to_string(fnv1a(ByteView(data.value.data)));
      }
    }
  }
}

TreeSnapshot snapshot_tree(Testbed& tb) {
  TreeSnapshot out;
  auto root = tb.server_fs().resolve(vfs::Cred(0, 0), Testbed::kDataPath);
  EXPECT_TRUE(root.ok());
  if (root.ok()) snapshot_dir(tb.server_fs(), root.value, "", out);
  return out;
}

struct ChaosSpec {
  std::string name;
  SetupKind kind = SetupKind::kNfsV3;
  uint64_t seed = 1;
  int crashes = 0;       // randomized mid-run server crashes
  bool blackouts = false;  // WAN loss + scheduled link blackouts
  bool flush_crash = false;  // crash triggered during the session flush
  bool proxy_cache = false;  // proxy disk cache + write-back
  bool gray = false;  // gray failures: slow-link/slow-disk/slow-CPU windows
  bool verifier_replay = true;
  int streams = 1;  // WAN stream pool width (1 = pool disabled)

  ChaosSpec() = default;
  ChaosSpec(std::string n, SetupKind k, uint64_t s, int c, bool b, bool fc,
            bool pc, bool g = false)
      : name(std::move(n)),
        kind(k),
        seed(s),
        crashes(c),
        blackouts(b),
        flush_crash(fc),
        proxy_cache(pc),
        gray(g) {}
};

std::ostream& operator<<(std::ostream& os, const ChaosSpec& s) {
  return os << s.name;
}

// Mutating workload driven by a deterministic op stream: the Rng draws
// depend only on the seed (never on timing or failures), so a fault-free
// run of the same seed converges to the same logical tree.  Every op
// handles the ambiguity a crash-spanning retransmission can create for
// non-idempotent procedures (the server's DRC dies with it): REMOVE/RENAME
// may report NOENT for work already done, MKDIR may report EXIST — in all
// cases the final state matches the oracle, so the ambiguity is absorbed
// here, the way applications on hard mounts do.
sim::Task<void> run_chaos_workload(Testbed& tb, uint64_t seed) {
  auto mp = co_await tb.mount();
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);

  try {
    co_await mp->mkdir("logs");
  } catch (const FsError&) {
  }
  try {
    co_await mp->mkdir("scratch");
  } catch (const FsError&) {
  }

  // Three long-lived log files: their dirty blocks outlive single ops, so
  // eviction write-backs keep a standing population of uncommitted data.
  std::vector<int> logs;
  for (int i = 0; i < 3; ++i) {
    logs.push_back(co_await mp->open("logs/log" + std::to_string(i),
                                     nfs::kRdWr | nfs::kCreate));
  }

  for (int op = 0; op < 90; ++op) {
    const uint64_t kind = rng.next_below(10);
    if (kind < 5) {  // random-offset write into a log file
      const int fd = logs[rng.next_below(logs.size())];
      const uint64_t offset = rng.next_below(6) * 32 * 1024;
      Buffer data = rng.bytes(4096 + rng.next_below(44 * 1024));
      co_await mp->pwrite(fd, offset, data);
    } else if (kind == 5) {  // fsync a log file (COMMIT: data now stable)
      co_await mp->fsync(logs[rng.next_below(logs.size())]);
    } else if (kind == 6) {  // whole-file scratch write
      const std::string path =
          "scratch/s" + std::to_string(rng.next_below(5));
      Buffer data = rng.bytes(1024 + rng.next_below(31 * 1024));
      int fd = co_await mp->open(path,
                                 nfs::kWrOnly | nfs::kCreate | nfs::kTrunc);
      co_await mp->write(fd, data);
      co_await mp->close(fd);
    } else if (kind == 7) {  // unlink a scratch file
      const uint64_t k = rng.next_below(5);
      const bool renamed = rng.next_below(2) == 1;
      try {
        co_await mp->unlink("scratch/" + std::string(renamed ? "r" : "s") +
                            std::to_string(k));
      } catch (const FsError&) {
      }
    } else if (kind == 8) {  // rename (possibly over an existing target)
      const uint64_t k = rng.next_below(5);
      try {
        co_await mp->rename("scratch/s" + std::to_string(k),
                            "scratch/r" + std::to_string(k));
      } catch (const FsError&) {
      }
    } else {  // metadata reads
      try {
        (void)co_await mp->stat("logs/log" +
                                std::to_string(rng.next_below(logs.size())));
        (void)co_await mp->readdir("scratch");
      } catch (const FsError&) {
      }
    }
  }

  for (int fd : logs) co_await mp->close(fd);
  co_await mp->flush_all();
}

sim::Task<void> crash_schedule(Testbed& tb, uint64_t seed, int crashes) {
  Rng rng(seed ^ 0xdeadbeefull);
  for (int i = 0; i < crashes; ++i) {
    const sim::SimDur gap =
        (i == 0 ? 200_ms : 500_ms) +
        static_cast<sim::SimDur>(rng.next_below(i == 0 ? 400 : 1000)) *
            sim::kMillisecond;
    co_await tb.engine().sleep(gap);
    const sim::SimDur downtime =
        50_ms + static_cast<sim::SimDur>(rng.next_below(250)) *
                    sim::kMillisecond;
    tb.server_host().crash_restart(tb.engine().now(), downtime);
    co_await tb.engine().sleep(downtime);
  }
}

sim::Task<void> crash_on_flush(Testbed& tb, uint64_t seed) {
  Rng rng(seed ^ 0xf1a5full);
  const uint64_t threshold = 64 * 1024 + rng.next_below(128 * 1024);
  while (tb.client_proxy()->flushed_bytes() < threshold) {
    co_await tb.engine().sleep(2_ms);
  }
  tb.server_host().crash_restart(tb.engine().now(), 100_ms);
}

TreeSnapshot run_chaos(const ChaosSpec& spec, bool faulted,
                       uint64_t* crashes_fired = nullptr,
                       uint64_t* gray_hits = nullptr,
                       uint64_t* pool_activity = nullptr) {
  TestbedOptions opt;
  opt.kind = spec.kind;
  opt.seed = spec.seed;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.client_mem_bytes = 6 * 32 * 1024;  // tiny: constant eviction traffic
  opt.proxy_disk_cache = spec.proxy_cache;
  opt.proxy_write_back = spec.proxy_cache;
  opt.verifier_replay = spec.verifier_replay;
  opt.pool.streams = spec.streams;
  if (faulted && spec.blackouts) opt.loss_probability = 0.005;
  if (faulted && spec.gray) {
    // Gray failures are performance-only: the faulted run slows down (and
    // may retransmit into the degraded windows) but must still converge to
    // the oracle's tree.  Windows are deterministic in the seed.
    Rng gray_rng(spec.seed ^ 0x62a4ull);
    TestbedOptions::GrayWindow slow_link;
    slow_link.start = (400 + gray_rng.next_below(1500)) * sim::kMillisecond;
    slow_link.end = slow_link.start +
                    (300 + gray_rng.next_below(500)) * sim::kMillisecond;
    slow_link.delay = static_cast<sim::SimDur>(
        (25 + gray_rng.next_below(50)) * sim::kMillisecond);
    slow_link.jitter = static_cast<sim::SimDur>(
        gray_rng.next_below(10) * sim::kMillisecond);
    opt.link_slowdowns.push_back(slow_link);
    TestbedOptions::GrayWindow slow_disk;
    slow_disk.start = (300 + gray_rng.next_below(2000)) * sim::kMillisecond;
    slow_disk.end = slow_disk.start +
                    (500 + gray_rng.next_below(1000)) * sim::kMillisecond;
    slow_disk.factor = 8.0 + static_cast<double>(gray_rng.next_below(12));
    opt.server_slow_disk.push_back(slow_disk);
    TestbedOptions::GrayWindow slow_cpu;
    slow_cpu.start = (1000 + gray_rng.next_below(2000)) * sim::kMillisecond;
    slow_cpu.end = slow_cpu.start +
                   (400 + gray_rng.next_below(600)) * sim::kMillisecond;
    slow_cpu.factor = 4.0 + static_cast<double>(gray_rng.next_below(6));
    opt.server_slow_cpu.push_back(slow_cpu);
  }
  Testbed tb(opt);
  if (faulted && spec.blackouts) {
    Rng rng(spec.seed ^ 0xb1ac0ull);
    for (int i = 0; i < 2; ++i) {
      const sim::SimTime start =
          (600 + rng.next_below(2000)) * sim::kMillisecond;
      tb.fault_plan()->add_link_blackout(
          "client", "server", start,
          start + (100 + rng.next_below(200)) * sim::kMillisecond);
    }
  }
  tb.engine().run_task(
      [](Testbed& tb, const ChaosSpec& spec, bool faulted) -> Task<void> {
        if (faulted && spec.crashes > 0) {
          tb.engine().spawn(crash_schedule(tb, spec.seed, spec.crashes));
        }
        if (faulted && spec.flush_crash) {
          tb.engine().spawn(crash_on_flush(tb, spec.seed));
        }
        co_await run_chaos_workload(tb, spec.seed);
        co_await tb.flush_session();
      }(tb, spec, faulted));
  if (crashes_fired) {
    *crashes_fired = tb.engine().metrics().counter_value("net.host.crashes");
  }
  if (gray_hits && tb.fault_plan()) {
    *gray_hits = tb.fault_plan()->delayed() +
                 tb.fault_plan()->slow_disk_ops() +
                 tb.fault_plan()->slow_cpu_ops();
  }
  if (pool_activity) {
    *pool_activity =
        tb.engine().metrics().counter_value("sgfs.pool.batches") +
        tb.engine().metrics().counter_value("sgfs.pool.striped_reads");
  }
  return snapshot_tree(tb);
}

class ChaosMatrix : public ::testing::TestWithParam<ChaosSpec> {};

TEST_P(ChaosMatrix, FaultedRunMatchesFaultFreeOracle) {
  const ChaosSpec& spec = GetParam();
  uint64_t crashes_fired = 0;
  uint64_t gray_hits = 0;
  uint64_t pool_activity = 0;
  TreeSnapshot faulted = run_chaos(spec, /*faulted=*/true, &crashes_fired,
                                   &gray_hits, &pool_activity);
  if (spec.crashes > 0 || spec.flush_crash) {
    EXPECT_GE(crashes_fired, 1u) << "crash schedule missed the run";
  }
  if (spec.gray) {
    EXPECT_GE(gray_hits, 1u) << "gray-failure windows missed the run";
  }
  if (spec.streams > 1) {
    EXPECT_GE(pool_activity, 1u)
        << "stream pool never engaged — the striped entry is vacuous";
  }
  TreeSnapshot oracle = run_chaos(spec, /*faulted=*/false);
  EXPECT_FALSE(oracle.empty());
  EXPECT_EQ(faulted, oracle);
}

std::vector<ChaosSpec> matrix_specs() {
  std::vector<ChaosSpec> specs;
  // Direct NFSv3: kernel-client recovery (reconnect + verifier replay).
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    // Every fourth seed mixes gray failures (slow link/disk/CPU windows)
    // into the crash schedule.
    specs.emplace_back("v3_crash_seed" + std::to_string(seed),
                       SetupKind::kNfsV3, seed, /*crashes=*/2 + (seed % 2),
                       /*blackouts=*/seed % 3 == 0, /*flush_crash=*/false,
                       /*proxy_cache=*/false, /*gray=*/seed % 4 == 1);
  }
  // GFS proxies, write-through: the proxy chain re-establishes sessions and
  // the kernel client's verifier replay works end-to-end through it.
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    specs.emplace_back("gfs_crash_seed" + std::to_string(seed),
                       SetupKind::kGfs, seed, /*crashes=*/2,
                       /*blackouts=*/seed == 12, /*flush_crash=*/false,
                       /*proxy_cache=*/false);
  }
  // GFS with the write-back disk cache: crash lands mid-session-flush.
  for (uint64_t seed = 14; seed <= 16; ++seed) {
    specs.emplace_back("gfs_flush_seed" + std::to_string(seed),
                       SetupKind::kGfs, seed, /*crashes=*/0,
                       /*blackouts=*/false, /*flush_crash=*/true,
                       /*proxy_cache=*/true);
  }
  // SGFS (SSL channel): crash also kills the secure-session state.
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    specs.emplace_back("sgfs_crash_seed" + std::to_string(seed),
                       SetupKind::kSgfs, seed, /*crashes=*/2,
                       /*blackouts=*/seed == 22, /*flush_crash=*/false,
                       /*proxy_cache=*/false);
  }
  for (uint64_t seed = 24; seed <= 26; ++seed) {
    specs.emplace_back("sgfs_flush_seed" + std::to_string(seed),
                       SetupKind::kSgfs, seed, /*crashes=*/0,
                       /*blackouts=*/false, /*flush_crash=*/true,
                       /*proxy_cache=*/true);
  }
  // SGFS with the K=4 stream pool: the crash lands while the session flush
  // is pipelining UNSTABLE batches across four streams, so the verifier
  // replay must cover a partially-committed stripe (some batches landed
  // pre-crash, their verifiers died with the server).
  for (uint64_t seed = 41; seed <= 43; ++seed) {
    specs.emplace_back("sgfs_striped_flush_seed" + std::to_string(seed),
                       SetupKind::kSgfs, seed, /*crashes=*/0,
                       /*blackouts=*/false, /*flush_crash=*/true,
                       /*proxy_cache=*/true);
    specs.back().streams = 4;
  }
  // Mid-run crashes with the pool up: striped reads + eviction write-backs
  // race the restart, and the pool's sibling streams must re-resume against
  // a server whose ticket cache died with it.
  for (uint64_t seed = 44; seed <= 45; ++seed) {
    specs.emplace_back("sgfs_striped_crash_seed" + std::to_string(seed),
                       SetupKind::kSgfs, seed, /*crashes=*/1,
                       /*blackouts=*/false, /*flush_crash=*/false,
                       /*proxy_cache=*/true);
    specs.back().streams = 4;
  }
  // Gray-failure-only schedules (no crashes): degraded-but-alive windows
  // push RPCs past their timeouts, so recovery runs entirely on spurious
  // retransmissions against a live server — the DRC, not the verifier, is
  // what keeps these runs convergent.
  for (uint64_t seed = 31; seed <= 33; ++seed) {
    specs.emplace_back("v3_gray_seed" + std::to_string(seed),
                       SetupKind::kNfsV3, seed, /*crashes=*/0,
                       /*blackouts=*/false, /*flush_crash=*/false,
                       /*proxy_cache=*/false, /*gray=*/true);
  }
  for (uint64_t seed = 34; seed <= 35; ++seed) {
    specs.emplace_back("gfs_gray_seed" + std::to_string(seed),
                       SetupKind::kGfs, seed, /*crashes=*/0,
                       /*blackouts=*/false, /*flush_crash=*/false,
                       /*proxy_cache=*/seed == 35, /*gray=*/true);
  }
  // Gray windows layered over crashes + the SSL channel: the slow periods
  // overlap reconnect storms.
  for (uint64_t seed = 36; seed <= 37; ++seed) {
    specs.emplace_back("sgfs_gray_crash_seed" + std::to_string(seed),
                       SetupKind::kSgfs, seed, /*crashes=*/1,
                       /*blackouts=*/false, /*flush_crash=*/false,
                       /*proxy_cache=*/false, /*gray=*/true);
  }
  return specs;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosMatrix, ::testing::ValuesIn(matrix_specs()),
    [](const ::testing::TestParamInfo<ChaosSpec>& info) {
      return info.param.name;
    });

// The whole point of the harness: with verifier replay disabled, the same
// crash schedules must make at least one seed diverge from its oracle.  If
// this test ever fails, the matrix has stopped being able to detect data
// loss and proves nothing.
TEST(ChaosMatrixNegative, BrokenReplayFailsInvariant) {
  std::vector<ChaosSpec> specs;
  specs.emplace_back("neg_v3", SetupKind::kNfsV3, 5, /*crashes=*/3,
                     /*blackouts=*/false, /*flush_crash=*/false,
                     /*proxy_cache=*/false);
  specs.emplace_back("neg_gfs_flush", SetupKind::kGfs, 15, /*crashes=*/0,
                     /*blackouts=*/false, /*flush_crash=*/true,
                     /*proxy_cache=*/true);
  specs.emplace_back("neg_sgfs_flush", SetupKind::kSgfs, 25, /*crashes=*/0,
                     /*blackouts=*/false, /*flush_crash=*/true,
                     /*proxy_cache=*/true);
  specs.emplace_back("neg_sgfs_striped_flush", SetupKind::kSgfs, 42,
                     /*crashes=*/0, /*blackouts=*/false, /*flush_crash=*/true,
                     /*proxy_cache=*/true);
  specs.back().streams = 4;
  int mismatches = 0;
  for (auto& spec : specs) {
    spec.verifier_replay = false;
    TreeSnapshot faulted = run_chaos(spec, /*faulted=*/true);
    spec.verifier_replay = true;  // the oracle always keeps the fix
    TreeSnapshot oracle = run_chaos(spec, /*faulted=*/false);
    if (faulted != oracle) ++mismatches;
  }
  EXPECT_GE(mismatches, 1)
      << "disabling verifier replay lost no data on any negative seed — "
         "the chaos invariant has no teeth";
}

// --- one-stream faults mid-striped-transfer ----------------------------------
//
// ISSUE "WAN parallel secure streams": kill / MAC-poison / slow exactly ONE
// stream of K while a bulk striped READ is in flight.  The transfer must
// complete over the survivors with no duplicated, reordered or truncated
// bytes (checked bit-for-bit against the content generator), and the
// negative control — failover disabled — must abort the pool instead of
// silently degrading.  A killed stream is the single-stream analogue of a
// link blackout: the TCP carrier dies, its in-flight chunk throws, and the
// chunk is re-queued for the surviving streams.

enum class StreamFault { kKill, kCorrupt, kSlow };

struct StreamFaultResult {
  Buffer bytes;
  uint64_t failovers = 0;
  uint64_t aborted = 0;
  uint64_t striped_bytes = 0;

  StreamFaultResult() = default;
};

// The exact bytes Testbed::preload_file generated.
Buffer stream_oracle(uint64_t size, uint64_t content_seed) {
  Buffer out(size);
  Rng content(content_seed);
  constexpr size_t kFill = 1 << 20;
  Buffer chunk(kFill);
  for (uint64_t off = 0; off < size;) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kFill, size - off));
    content.fill(MutByteView(chunk.data(), n));
    std::copy(chunk.begin(), chunk.begin() + n, out.begin() + off);
    off += n;
  }
  return out;
}

StreamFaultResult run_stream_fault(StreamFault fault, bool failover) {
  TestbedOptions opt;
  opt.kind = SetupKind::kSgfs;
  opt.cipher = crypto::Cipher::kNull;
  opt.mac = crypto::MacAlgo::kHmacSha1;
  opt.proxy_disk_cache = true;
  opt.wan_rtt = 10 * sim::kMillisecond;
  opt.pool.streams = 4;
  opt.pool.chunk_bytes = 128 * 1024;
  opt.pool.failover = failover;
  Testbed tb(opt);
  const uint64_t size = 6ull << 20;
  tb.preload_file("bulk.bin", size, /*warm=*/true, /*content_seed=*/7);

  // Fault injector: wait until the pool has striped >256 KiB (the transfer
  // is demonstrably mid-flight), then fault stream 1 of 4.
  tb.engine().spawn([](Testbed& tb, StreamFault fault) -> Task<void> {
    while (tb.engine().metrics().counter_value("sgfs.pool.striped_bytes") <
           256 * 1024) {
      if (tb.engine().now() > 60 * sim::kSecond) co_return;  // gave up
      co_await tb.engine().sleep(1_ms);
    }
    auto* pool = tb.client_proxy()->stream_pool();
    if (!pool) co_return;
    switch (fault) {
      case StreamFault::kKill:
        pool->kill_stream(1);
        break;
      case StreamFault::kCorrupt:
        // Poison the next record: the server MAC-rejects it and that
        // channel — only that channel — fails closed.
        pool->corrupt_stream(1);
        break;
      case StreamFault::kSlow:
        pool->set_stream_delay(1, 500_ms);
        break;
    }
  }(tb, fault));

  StreamFaultResult out;
  out.bytes.resize(size);
  tb.engine().run_task([](Testbed& tb, Buffer* bytes) -> Task<void> {
    auto mp = co_await tb.mount();
    int fd = co_await mp->open("bulk.bin", nfs::kRdOnly);
    uint64_t off = 0;
    while (off < bytes->size()) {
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(256 * 1024, bytes->size() - off));
      const size_t got = co_await mp->pread(
          fd, off, MutByteView(bytes->data() + off, want));
      if (got == 0) break;
      off += got;
    }
    EXPECT_EQ(off, bytes->size()) << "short read at offset " << off;
    co_await mp->close(fd);
  }(tb, &out.bytes));
  EXPECT_TRUE(tb.engine().errors().empty())
      << (tb.engine().errors().empty() ? "" : tb.engine().errors()[0]);
  out.failovers = tb.engine().metrics().counter_value("sgfs.pool.failovers");
  out.aborted = tb.engine().metrics().counter_value("sgfs.pool.aborted");
  out.striped_bytes =
      tb.engine().metrics().counter_value("sgfs.pool.striped_bytes");
  return out;
}

TEST(ChaosStreamFault, KilledStreamFailsOverAndBytesStayExact) {
  const StreamFaultResult r =
      run_stream_fault(StreamFault::kKill, /*failover=*/true);
  EXPECT_GE(r.striped_bytes, 256u * 1024) << "fault fired before striping";
  EXPECT_GE(r.failovers, 1u) << "killed stream never failed over";
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_TRUE(r.bytes == stream_oracle(6ull << 20, 7))
      << "bytes diverged after one-stream kill";
}

TEST(ChaosStreamFault, MacPoisonedStreamFailsOverSiblingsFinish) {
  const StreamFaultResult r =
      run_stream_fault(StreamFault::kCorrupt, /*failover=*/true);
  EXPECT_GE(r.failovers, 1u) << "poisoned stream never failed over";
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_TRUE(r.bytes == stream_oracle(6ull << 20, 7))
      << "bytes diverged after one-stream MAC failure";
}

TEST(ChaosStreamFault, SlowStreamDelaysButNeverCorrupts) {
  const StreamFaultResult r =
      run_stream_fault(StreamFault::kSlow, /*failover=*/true);
  // A slow stream is not a dead stream: no failover, no abort, and the
  // reassembly frontier still emits every byte exactly once, in order.
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_TRUE(r.bytes == stream_oracle(6ull << 20, 7))
      << "bytes diverged under one slow stream";
}

// Negative control: with failover disabled the pool must ABORT on a dead
// stream (and the proxy falls back to the plain forward path) rather than
// pretend the stripe completed.  If this stops aborting, the failover tests
// above prove nothing.
TEST(ChaosStreamFault, NoFailoverAbortsInsteadOfDegradingSilently) {
  const StreamFaultResult r =
      run_stream_fault(StreamFault::kKill, /*failover=*/false);
  EXPECT_GE(r.aborted, 1u) << "failover=false never aborted";
  EXPECT_EQ(r.failovers, 0u);
  // Correctness is still preserved — by the serial fallback, not the pool.
  EXPECT_TRUE(r.bytes == stream_oracle(6ull << 20, 7));
}

}  // namespace
}  // namespace sgfs

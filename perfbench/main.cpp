// perfbench: runs one named workload against the repository's public entry
// points, repeats it until --seconds of host time have passed, checks every
// output, and prints one JSON line of metrics on stdout.
//
//   perfbench --workload NAME --seed N --seconds S [--scale full|small]
//             [--spans PATH]
//
// Workloads (LAYERS.md says which layers each one loads and why):
//   bulk-rw        Testbed + MountPoint: sgfs-aes, LAN, 32 KiB records
//                  written, read and re-read (IOzone shape)
//   fleet-meta     fleet::run_fleet: 4 shards, ~1000 sessions, 60/30/10
//                  GETATTR/READ/FILE_SYNC-WRITE, plain transport
//   crowd-verify   fleet::run_flashcrowd: ~40 clients, 4 replicas of which
//                  25% Byzantine, Merkle-verified reads
//   wan-smallfile  Testbed + MountPoint: sgfs-aes over a 20 ms WAN with the
//                  write-back proxy disk cache, PostMark-shaped mix
//
// Each iteration builds a fresh simulation of its own, so iterations of
// one seed must produce one virtual fingerprint; a mismatch fails the run.
// The untraced build reports wall and virtual end-to-end metrics.  The
// traced build (PERFBENCH_TRACED, linked with wraps.cpp) reports per-layer
// metrics: self times of the wrapped synchronous layers, registry counters
// and virtual latency percentiles read from the engine after each run.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/testbed.hpp"
#include "common/bufchain.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "fleet/flashcrowd.hpp"
#include "fleet/fleet.hpp"
#include "hook.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"

namespace {

using namespace sgfs;
using baselines::SetupKind;
using baselines::Testbed;
using baselines::TestbedOptions;
using Clock = std::chrono::steady_clock;
using perfbench::Layer;
using perfbench::LayerStats;
using perfbench::Spans;

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

/// Seed of every simulation's own randomness (PKI keys, network, the
/// fleet harnesses' per-session streams).  --seed shapes only the workload
/// inputs, so set-up time, which RSA key generation dominates, does not
/// swing with the seed.
constexpr uint64_t kSimSeed = 42;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool small = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload bulk-rw|fleet-meta|crowd-verify|"
               "wan-smallfile --seed N --seconds S [--scale full|small] "
               "[--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

uint64_t parse_u64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0) {
    usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, v));
      if (a.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--scale") {
      if (v != "full" && v != "small") usage("--scale is full or small");
      a.small = v == "small";
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

// --- per-iteration record ---------------------------------------------------

struct Iteration {
  double calib_s = 0;   // wall: calibration loop just before the iteration
  double setup_s = 0;   // wall: iteration start -> first op
  double run_s = 0;     // wall: first op -> iteration end
  uint64_t ops = 0;     // ops completed (the wall rate's numerator)
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed, refused, wrong output or never run
  double virt_s = 0;    // virtual seconds the virtual rate divides by
  uint64_t virt_ops = 0;
  std::vector<int64_t> lat_ns;  // virtual per-op latencies
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  uint64_t actors = 0;
  uint64_t sim_errors = 0;
  BufStats buf;                        // copy accounting during the run
  std::map<std::string, double> layer;  // registry-derived per-layer values
  LayerStats spans{};                   // span totals during the run
  std::string error;                    // first failure seen
};

void note_failure(Iteration& it, const std::string& what) {
  if (it.error.empty()) it.error = what;
}

class Fnv {
 public:
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void mix(const std::string& s) {
    for (unsigned char c : s) mix(static_cast<uint64_t>(c));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

double counter(const std::map<std::string, double>& c, const std::string& n) {
  auto it = c.find(n);
  return it == c.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double hist_p99_ms(const obs::MetricsRegistry::Snapshot& s,
                   const std::string& name) {
  auto it = s.histograms.find(name);
  if (it == s.histograms.end()) return 0;
  return static_cast<double>(it->second.quantile(0.99)) / 1e6;
}

/// Largest p99 wait of one resource kind ("cpu" / "disk") over the
/// server-side hosts: every host except Testbed's "client" and the fleet
/// harnesses' per-session hosts "c<N>".
double server_resource_p99_ms(const obs::MetricsRegistry::Snapshot& s,
                              const std::string& kind) {
  const std::string prefix = "resource.";
  const std::string suffix = "." + kind + ".wait_ns";
  double worst = 0;
  for (const auto& [name, h] : s.histograms) {
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() +
                                                          suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string host = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    const bool client =
        host == "client" ||
        (host.size() > 1 && host[0] == 'c' &&
         host.find_first_not_of("0123456789", 1) == std::string::npos);
    if (client) continue;
    worst = std::max(worst, static_cast<double>(h.quantile(0.99)) / 1e6);
  }
  return worst;
}

/// The per-layer values read from the engine's registry after a run.
/// Counters come from `c`; histograms from the run_task hook's snapshot,
/// which only the traced build takes.
void registry_layers(Iteration& it, const std::map<std::string, double>& c) {
  const double ops = static_cast<double>(std::max<uint64_t>(it.ops, 1));
  auto& m = it.layer;
  m["crypto.handshakes"] = counter(c, "crypto.handshakes");
  m["crypto.stream_resumptions"] = counter(c, "crypto.stream_resumptions");
  m["services.fss.sso_signatures"] = counter(c, "services.fss.sso_signatures");
  m["rpc.calls_per_op"] = counter(c, "rpc.client.calls") / ops;
  m["rpc.bytes_per_op"] = counter(c, "rpc.client.bytes_sent") / ops;
  m["rpc.client.retransmits"] = counter(c, "rpc.client.retransmits");
  m["rpc.client.giveups"] = counter(c, "rpc.client.giveups");
  m["rpc.server.shed"] = counter(c, "rpc.server.shed");
  for (const char* cache : {"page_cache", "attr_cache"}) {
    const std::string base = std::string("nfs.client.") + cache;
    const double hits = counter(c, base + ".hits");
    m[base + ".hit_ratio"] =
        ratio(hits, hits + counter(c, base + ".misses"));
  }
  m["nfs.client.rpc_per_op"] = counter(c, "nfs.client.rpc.calls") / ops;
  double absorbed = 0;
  for (const char* kind : {"getattrs", "lookups", "reads", "writes"}) {
    absorbed += counter(c, std::string("sgfs.client_proxy.absorbed.") + kind);
  }
  m["sgfs.client_proxy.absorbed_ratio"] =
      ratio(absorbed, absorbed + counter(c, "sgfs.client_proxy.forwarded"));
  m["sgfs.client_proxy.flushed_mib"] =
      counter(c, "sgfs.client_proxy.flushed_bytes") / (1024.0 * 1024.0);
  m["sgfs.replica.verified_ratio"] =
      ratio(counter(c, "sgfs.replica.verified_blocks"),
            counter(c, "sgfs.replica.fetches"));
  m["sgfs.replica.verify_failures"] = counter(c, "sgfs.replica.verify_failures");
  m["sgfs.replica.hedge_win_ratio"] =
      ratio(counter(c, "sgfs.replica.hedge_wins"),
            counter(c, "sgfs.replica.hedged_fetches"));
  m["sgfs.replica.degraded_to_origin"] =
      counter(c, "sgfs.replica.degraded_to_origin");
  const obs::MetricsRegistry::Snapshot& s = perfbench::engine_hook().last;
  m["rpc.client.call_ms_p99"] = hist_p99_ms(s, "rpc.client.call_ns");
  m["rpc.server.queue_wait_ms_p99"] = hist_p99_ms(s, "rpc.server.queue_wait_ns");
  m["resource.server.cpu.wait_ms_p99"] = server_resource_p99_ms(s, "cpu");
  m["resource.server.disk.wait_ms_p99"] = server_resource_p99_ms(s, "disk");
  m["fleet.establishes"] = 0;  // run_fleet_meta fills these in
  m["fleet.discovery_fetches"] = 0;
}

std::map<std::string, double> counters_of(const obs::MetricsRegistry& reg) {
  std::map<std::string, double> out;
  for (const auto& [name, c] : reg.counters()) {
    out[name] = static_cast<double>(c.value());
  }
  return out;
}

/// Digest of a Testbed run: every op's virtual latency, the virtual end
/// time, the engine's event and actor counts and every registry counter.
uint64_t testbed_fingerprint(const Iteration& it, const sim::Engine& eng) {
  Fnv h;
  for (int64_t l : it.lat_ns) h.mix(static_cast<uint64_t>(l));
  h.mix(static_cast<uint64_t>(eng.now()));
  h.mix(eng.events_processed());
  h.mix(eng.actors_spawned());
  for (const auto& [name, c] : eng.metrics().counters()) {
    h.mix(name);
    h.mix(c.value());
  }
  return h.value();
}

/// Times one MountPoint call on the virtual clock and, in the traced
/// build, wraps it in a root span carrying both clocks.
class OpTimer {
 public:
  OpTimer(sim::Engine& eng, Iteration& it) : eng_(eng), it_(it) {
    v0_ = eng.now();
    if constexpr (kTraced) {
      Spans::get().set_op(static_cast<uint32_t>(it.ops));
      depth_ = Spans::get().begin(Layer::kOp, 0, v0_);
    }
  }
  ~OpTimer() {
    if (open_ && kTraced) Spans::get().end(depth_, eng_.now());
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

  void done() {
    it_.lat_ns.push_back(eng_.now() - v0_);
    ++it_.ops;
    if (kTraced) Spans::get().end(depth_, eng_.now());
    open_ = false;
  }

 private:
  sim::Engine& eng_;
  Iteration& it_;
  sim::SimTime v0_ = 0;
  size_t depth_ = 0;
  bool open_ = true;
};

// --- bulk-rw ------------------------------------------------------------------

constexpr size_t kRecord = 32 * 1024;

struct BulkInput {
  size_t records = 0;
  Buffer pattern;  // records * kRecord seeded bytes
};

BulkInput bulk_input(uint64_t seed, bool small) {
  Rng rng(seed);
  BulkInput in;
  // The seed moves the file size by up to 15 records so that virtual
  // outputs differ between seeds, not only the bytes written.
  in.records = (small ? 64 : 320) + rng.next_below(16);
  in.pattern = rng.bytes(in.records * kRecord);
  return in;
}

sim::Task<void> bulk_ops(Testbed& tb, const BulkInput& in, Iteration& it,
                         Clock::time_point& first_op, sim::SimTime& v_first) {
  sim::Engine& eng = tb.engine();
  const std::string path = "bulk.dat";
  auto mp = co_await tb.mount();
  first_op = Clock::now();
  v_first = eng.now();
  {
    OpTimer t(eng, it);
    const int fd = co_await mp->open(path, nfs::kWrOnly | nfs::kCreate |
                                               nfs::kTrunc);
    t.done();
    for (size_t r = 0; r < in.records; ++r) {
      OpTimer w(eng, it);
      const size_t n = co_await mp->write(
          fd, ByteView(in.pattern.data() + r * kRecord, kRecord));
      w.done();
      if (n != kRecord) {
        ++it.failed;
        note_failure(it, "short write");
      }
    }
    OpTimer c(eng, it);
    co_await mp->close(fd);
    c.done();
  }
  Buffer buf(kRecord);
  for (int pass = 0; pass < 2; ++pass) {  // read, then reread
    OpTimer t(eng, it);
    const int fd = co_await mp->open(path, nfs::kRdOnly);
    t.done();
    for (size_t r = 0; r < in.records; ++r) {
      OpTimer rd(eng, it);
      const size_t n = co_await mp->read(fd, buf);
      rd.done();
      if (n != kRecord ||
          std::memcmp(buf.data(), in.pattern.data() + r * kRecord, kRecord) !=
              0) {
        ++it.failed;
        note_failure(it, "read-back differs from the written pattern");
      }
    }
    OpTimer c(eng, it);
    co_await mp->close(fd);
    c.done();
  }
}

Iteration run_bulk_rw(const BulkInput& in) {
  Iteration it;
  const uint64_t planned = 3 * in.records + 6;
  const auto t0 = Clock::now();
  TestbedOptions o;
  o.kind = SetupKind::kSgfs;
  o.cipher = crypto::Cipher::kAes256Cbc;
  o.mac = crypto::MacAlgo::kHmacSha1;
  o.proxy_disk_cache = false;
  o.client_mem_bytes = in.records * kRecord / 2;
  o.seed = kSimSeed;
  Testbed tb(o);
  Clock::time_point first_op = t0;
  sim::SimTime v_first = 0;
  try {
    tb.engine().run_task(bulk_ops(tb, in, it, first_op, v_first));
  } catch (const std::exception& e) {
    note_failure(it, e.what());
  }
  const auto t1 = Clock::now();
  it.setup_s = secs(first_op - t0);
  it.run_s = secs(t1 - first_op);
  it.attempted = planned;
  it.failed += planned - std::min(planned, it.ops);
  it.virt_s = sim::to_seconds(tb.engine().now() - v_first);
  it.virt_ops = it.ops;
  it.events = tb.engine().events_processed();
  it.actors = tb.engine().actors_spawned();
  it.sim_errors = tb.engine().errors().size();
  it.fingerprint = testbed_fingerprint(it, tb.engine());
  registry_layers(it, counters_of(tb.engine().metrics()));
  return it;
}

// --- wan-smallfile ----------------------------------------------------------

struct PmOp {
  enum Kind { kMkdir, kCreate, kAppend, kRead, kUnlink, kRmdir, kFlush };
  Kind kind = kMkdir;
  std::string path;
  Buffer data;  // bytes written (create/append) or expected (read)
};

/// PostMark's shape (directory pool, initial files, then transactions that
/// pair create/delete with read/append, then delete everything), planned up
/// front so the timed loop only issues calls.  Reads carry the content the
/// model says the file holds at that point.
std::vector<PmOp> pm_plan(uint64_t seed, bool small) {
  const int dirs = small ? 5 : 20;
  const int files = small ? 40 : 250;
  const int transactions = small ? 120 : 1000;
  constexpr size_t kMin = 512;
  constexpr size_t kMax = 16 * 1024;
  Rng rng(seed);
  auto size = [&] { return kMin + rng.next_below(kMax - kMin + 1); };
  auto dir = [](int d) { return "pm" + std::to_string(d); };
  std::vector<PmOp> plan;
  std::map<std::string, Buffer> model;
  std::vector<std::string> live;
  auto create = [&](int f) {
    const std::string path =
        dir(static_cast<int>(rng.next_below(dirs))) + "/f" + std::to_string(f);
    PmOp op{PmOp::kCreate, path, rng.bytes(size())};
    model[path] = op.data;
    live.push_back(path);
    plan.push_back(std::move(op));
  };
  for (int d = 0; d < dirs; ++d) plan.push_back({PmOp::kMkdir, dir(d), {}});
  int next = 0;
  for (; next < files; ++next) create(next);
  for (int t = 0; t < transactions; ++t) {
    if (rng.next_below(2) == 0) {
      if (rng.next_below(2) == 0 || live.empty()) {
        create(next++);
      } else {
        const size_t i = rng.next_below(live.size());
        plan.push_back({PmOp::kUnlink, live[i], {}});
        model.erase(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else if (!live.empty()) {
      const std::string& path = live[rng.next_below(live.size())];
      if (rng.next_below(2) == 0) {
        plan.push_back({PmOp::kRead, path, model[path]});
      } else {
        PmOp op{PmOp::kAppend, path, rng.bytes(size())};
        Buffer& m = model[path];
        m.insert(m.end(), op.data.begin(), op.data.end());
        plan.push_back(std::move(op));
      }
    }
  }
  for (const std::string& path : live) plan.push_back({PmOp::kUnlink, path, {}});
  for (int d = 0; d < dirs; ++d) plan.push_back({PmOp::kRmdir, dir(d), {}});
  plan.push_back({PmOp::kFlush, "", {}});
  return plan;
}

sim::Task<void> pm_ops(Testbed& tb, const std::vector<PmOp>& plan,
                       Iteration& it, size_t& done,
                       Clock::time_point& first_op, sim::SimTime& v_first) {
  sim::Engine& eng = tb.engine();
  auto mp = co_await tb.mount();
  first_op = Clock::now();
  v_first = eng.now();
  Buffer buf(64 * 1024);
  Buffer got;
  for (const PmOp& op : plan) {
    switch (op.kind) {
      case PmOp::kMkdir: {
        OpTimer t(eng, it);
        co_await mp->mkdir(op.path);
        t.done();
        break;
      }
      case PmOp::kRmdir: {
        OpTimer t(eng, it);
        co_await mp->rmdir(op.path);
        t.done();
        break;
      }
      case PmOp::kUnlink: {
        OpTimer t(eng, it);
        co_await mp->unlink(op.path);
        t.done();
        break;
      }
      case PmOp::kCreate:
      case PmOp::kAppend: {
        OpTimer o(eng, it);
        const int fd = co_await mp->open(
            op.path, nfs::kWrOnly | nfs::kCreate |
                         (op.kind == PmOp::kAppend ? nfs::kAppend
                                                   : nfs::kTrunc));
        o.done();
        OpTimer w(eng, it);
        const size_t n = co_await mp->write(fd, op.data);
        w.done();
        if (n != op.data.size()) {
          ++it.failed;
          note_failure(it, "short write to " + op.path);
        }
        OpTimer c(eng, it);
        co_await mp->close(fd);
        c.done();
        break;
      }
      case PmOp::kRead: {
        OpTimer o(eng, it);
        const int fd = co_await mp->open(op.path, nfs::kRdOnly);
        o.done();
        got.clear();
        for (;;) {
          OpTimer r(eng, it);
          const size_t n = co_await mp->read(fd, buf);
          r.done();
          if (n == 0) break;
          got.insert(got.end(), buf.begin(),
                     buf.begin() + static_cast<std::ptrdiff_t>(n));
        }
        OpTimer c(eng, it);
        co_await mp->close(fd);
        c.done();
        if (got != op.data) {
          ++it.failed;
          note_failure(it, "read-back of " + op.path + " differs");
        }
        break;
      }
      case PmOp::kFlush: {
        OpTimer t(eng, it);
        co_await tb.flush_session();
        t.done();
        break;
      }
    }
    ++done;
  }
}

Iteration run_wan_smallfile(const std::vector<PmOp>& plan) {
  Iteration it;
  const auto t0 = Clock::now();
  TestbedOptions o;
  o.kind = SetupKind::kSgfs;
  o.cipher = crypto::Cipher::kAes256Cbc;
  o.mac = crypto::MacAlgo::kHmacSha1;
  o.proxy_disk_cache = true;  // write-back, plaintext at rest (Fig 8)
  o.wan_rtt = 20 * sim::kMillisecond;
  o.seed = kSimSeed;
  Testbed tb(o);
  Clock::time_point first_op = t0;
  sim::SimTime v_first = 0;
  size_t done = 0;
  try {
    tb.engine().run_task(pm_ops(tb, plan, it, done, first_op, v_first));
  } catch (const std::exception& e) {
    note_failure(it, e.what());
  }
  const auto t1 = Clock::now();
  it.setup_s = secs(first_op - t0);
  it.run_s = secs(t1 - first_op);
  // A planned step that never ran counts as one failed op.
  it.failed += plan.size() - done;
  it.attempted = it.ops + (plan.size() - done);
  it.virt_s = sim::to_seconds(tb.engine().now() - v_first);
  it.virt_ops = it.ops;
  it.events = tb.engine().events_processed();
  it.actors = tb.engine().actors_spawned();
  it.sim_errors = tb.engine().errors().size();
  it.fingerprint = testbed_fingerprint(it, tb.engine());
  registry_layers(it, counters_of(tb.engine().metrics()));
  return it;
}

// --- fleet-meta ---------------------------------------------------------------

fleet::FleetOptions fleet_options(uint64_t seed, bool small) {
  fleet::FleetOptions o;
  o.shards = 4;
  // The seed sizes the fleet: 995..1005 sessions (95..105 at small scale).
  o.sessions = (small ? 95 : 995) + static_cast<int>(Rng(seed).next_below(11));
  o.window_s = small ? 2.0 : 10.0;
  o.seed = kSimSeed;
  return o;  // crash_shard < 0: steady state, no drill
}

Iteration run_fleet_meta(const fleet::FleetOptions& o) {
  Iteration it;
  perfbench::EngineHook& hook = perfbench::engine_hook();
  hook.reset();
  const auto t0 = Clock::now();
  const fleet::FleetResult r = fleet::run_fleet(o);
  const auto t1 = Clock::now();
  if (!hook.entered) throw std::logic_error("run_fleet never ran its engine");
  it.setup_s = secs(hook.first_entry - t0);
  it.run_s = secs(t1 - hook.first_entry);
  for (uint64_t b : r.bucket_ok) it.ops += b;
  it.attempted = r.ok + r.busy + r.giveups + r.errors;
  it.failed = r.busy + r.giveups + r.errors;
  if (r.ok == 0) note_failure(it, "no op succeeded in the window");
  if (it.failed > 0) note_failure(it, "ops busy, given up or failed");
  it.virt_s = o.window_s;
  it.virt_ops = r.ok;
  it.lat_ns.assign(r.lat_ns.begin(), r.lat_ns.end());
  it.events = r.events;
  it.actors = r.actors;
  it.sim_errors = r.sim_errors;
  it.fingerprint = r.fingerprint();
  registry_layers(it, r.metrics);
  it.layer["fleet.establishes"] = static_cast<double>(r.establishes);
  it.layer["fleet.discovery_fetches"] = static_cast<double>(r.discovery_fetches);
  return it;
}

// --- crowd-verify -------------------------------------------------------------

fleet::FlashcrowdOptions crowd_options(uint64_t seed, bool small) {
  fleet::FlashcrowdOptions o;
  o.replicas = 4;
  o.origin_rtt = 20 * sim::kMillisecond;
  o.seed = kSimSeed;
  // The seed picks the Byzantine replica and sizes the crowd (40 or 41
  // clients, 22..26 at small scale); which replica lies does not change the
  // virtual outcome, so the crowd size is what makes it depend on the seed.
  // Per-op work does not depend on the crowd size (one handshake and 48
  // verified block reads per client); 40 clients keep an iteration near
  // 1.3 s, so that the calibration loop samples the host's speed as often
  // as on bulk-rw.  At this size virt_ops_per_s moves by 1-6% per client, so
  // the range is kept narrow.
  o.faults.seed = seed;
  Rng size(seed);
  o.clients = small ? 22 + static_cast<int>(size.next_below(5))
                    : 40 + static_cast<int>(size.next_below(2));
  // ceil(0.25 * 4) must be 1 even after floating-point rounding.
  o.faults.fraction = 0.25 + 1e-9;
  o.faults.corrupt = true;
  return o;
}

Iteration run_crowd_verify(const fleet::FlashcrowdOptions& o) {
  Iteration it;
  perfbench::EngineHook& hook = perfbench::engine_hook();
  hook.reset();
  const auto t0 = Clock::now();
  const fleet::FlashcrowdResult r = fleet::run_flashcrowd(o);
  const auto t1 = Clock::now();
  if (!hook.entered) {
    throw std::logic_error("run_flashcrowd never ran its engine");
  }
  it.setup_s = secs(hook.first_entry - t0);
  it.run_s = secs(t1 - hook.first_entry);
  it.ops = r.reads_ok;
  it.attempted = static_cast<uint64_t>(o.clients) * o.file_blocks;
  it.failed = it.attempted - std::min(it.attempted, r.reads_ok);
  if (r.corrupt_bytes > 0) {
    // Corruption is counted in bytes; charge at least one failed read.
    it.failed += std::max<uint64_t>(1, r.corrupt_bytes / (32 * 1024));
    note_failure(it, "corrupt bytes served");
  }
  if (r.clients_done != static_cast<uint64_t>(o.clients)) {
    note_failure(it, "not every client finished");
    it.failed = std::max<uint64_t>(it.failed, 1);
  }
  if (r.read_errors > 0) note_failure(it, "read errors");
  it.virt_s = r.sim_seconds;
  it.virt_ops = r.reads_ok;
  it.events = r.events;
  it.actors = r.actors;
  it.sim_errors = r.sim_errors;
  it.fingerprint = r.fingerprint();
  registry_layers(it, r.metrics);
  return it;
}

// --- sim kernel probe -------------------------------------------------------

sim::Task<void> ticker(sim::Engine& eng, int hops, sim::SimDur step) {
  for (int i = 0; i < hops; ++i) co_await eng.sleep(step);
}

/// Events per host second of a bare Engine driving 10k sleeping actors,
/// using only public scheduling calls: the kernel's own cost per event.
/// Median of three runs.
double kernel_events_per_s() {
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Engine eng;
    for (int a = 0; a < 10000; ++a) {
      eng.spawn(ticker(eng, 40, 1 + a % 13));
    }
    const auto t0 = Clock::now();
    eng.run();
    const double wall = secs(Clock::now() - t0);
    rates.push_back(static_cast<double>(eng.events_processed()) /
                    std::max(wall, 1e-9));
  }
  std::sort(rates.begin(), rates.end());
  return rates[1];
}

// --- host-speed calibration -------------------------------------------------

/// About what calibration_s() takes on an uncontended core of a 4-vCPU
/// x86-64 Xeon VM.  Wall metrics are reported at this host speed.
constexpr double kCalibRefS = 0.020;

/// Wall seconds of a fixed integer-hashing loop that uses none of the
/// repository's code, so no change to the program moves it; only the host
/// does.  On a shared host the core's speed drifts by 20-30% over minutes
/// (a neighbour on the same physical core slows throughput-bound code such
/// as hashing and RSA arithmetic), and that drift would otherwise dominate
/// the run-to-run spread of every wall metric.
double calibration_s() {
  std::vector<uint32_t> buf(4096);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<uint32_t>(i);
  uint64_t a = 1, b = 2, c = 3, d = 4;
  const auto t0 = Clock::now();
  for (uint32_t rep = 0; rep < 1800; ++rep) {
    for (uint32_t& w : buf) {
      a = (a + w) * 0x9E3779B97F4A7C15ull;
      b ^= (b << 7) + a;
      c = (c + (w ^ rep)) * 0xC2B2AE3D27D4EB4Full;
      d = (d ^ c) + (d >> 3);
      w = static_cast<uint32_t>(a ^ b ^ c ^ d);
    }
  }
  const double s = secs(Clock::now() - t0);
  static volatile uint64_t sink;
  sink = a ^ b ^ c ^ d;
  return s;
}

// --- reporting ----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of the virtual latencies, in ms (the rule
/// FleetResult::percentile_ms uses).
double percentile_ms(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return static_cast<double>(v[idx]) / 1e6;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_json(const Args& args, const std::vector<Iteration>& iters,
                const std::map<std::string, double>& metrics,
                const std::vector<std::string>& errors, uint64_t attempted,
                uint64_t failed) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
              "\"iterations\": %zu, \"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"virt_fingerprint\": \"%016llx\", ",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              kTraced ? "true" : "false", iters.size(),
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(
                  iters.empty() ? 0 : iters.front().fingerprint));
  // Per-iteration wall figures, for judging a run's own spread.
  std::printf("\"iteration_ops_per_s\": [");
  for (size_t i = 0; i < iters.size(); ++i) {
    std::printf("%s%.6g", i ? ", " : "",
                static_cast<double>(iters[i].ops) /
                    std::max(iters[i].run_s, 1e-9));
  }
  std::printf("], \"iteration_setup_s\": [");
  for (size_t i = 0; i < iters.size(); ++i) {
    std::printf("%s%.6g", i ? ", " : "", iters[i].setup_s);
  }
  std::printf("], \"errors\": [");
  for (size_t i = 0; i < errors.size(); ++i) {
    std::string e;
    for (char ch : errors[i]) {
      if (ch == '"' || ch == '\\') e += '\\';
      e += (ch >= 0x20 ? ch : ' ');
    }
    std::printf("%s\"%s\"", i ? ", " : "", e.c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, v] : metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::printf("}}\n");
}

LayerStats stats_delta(const LayerStats& after, const LayerStats& before) {
  LayerStats d{};
  for (size_t i = 0; i < d.size(); ++i) {
    d[i].calls = after[i].calls - before[i].calls;
    d[i].bytes = after[i].bytes - before[i].bytes;
    d[i].self_ns = after[i].self_ns - before[i].self_ns;
  }
  return d;
}

/// Per-layer metrics of a traced run.  Wall values are per op over every
/// iteration, so that the timed layers, the kernel estimate and other.ns
/// add up to trace.wall_ns; counts and virtual values are those of one
/// iteration (they repeat exactly).
std::map<std::string, double> layer_metrics(const std::vector<Iteration>& iters,
                                            double kernel_rate) {
  uint64_t ops = 0;
  double wall_ns = 0;
  double events = 0;
  LayerStats sum{};
  BufStats buf;
  for (const Iteration& it : iters) {
    ops += it.ops;
    wall_ns += (it.setup_s + it.run_s) * 1e9;
    events += static_cast<double>(it.events);
    buf.bytes_copied += it.buf.bytes_copied;
    buf.segments_allocated += it.buf.segments_allocated;
    for (size_t i = 0; i < sum.size(); ++i) {
      sum[i].bytes += it.spans[i].bytes;
      sum[i].self_ns += it.spans[i].self_ns;
    }
  }
  const Iteration& one = iters.front();
  const double n = static_cast<double>(std::max<uint64_t>(ops, 1));
  auto self = [&](Layer l) {
    return static_cast<double>(sum[static_cast<size_t>(l)].self_ns);
  };
  auto calls = [&](Layer l) {
    return static_cast<double>(one.spans[static_cast<size_t>(l)].calls);
  };
  auto bytes = [&](Layer l) {
    return static_cast<double>(sum[static_cast<size_t>(l)].bytes) / n;
  };
  std::map<std::string, double> m = one.layer;
  m["crypto.cipher.ns"] = self(Layer::kCipher) / n;
  m["crypto.cipher.bytes"] = bytes(Layer::kCipher);
  m["crypto.hash.ns"] = self(Layer::kHash) / n;
  m["crypto.hash.bytes"] = bytes(Layer::kHash);
  m["crypto.rsa.ns"] = self(Layer::kRsa) / n;
  m["crypto.rsa.ops"] = calls(Layer::kRsa);
  m["crypto.merkle.ns"] = self(Layer::kMerkle) / n;
  m["crypto.merkle.verifies"] = calls(Layer::kMerkle);
  m["crypto.keygen.ns"] = self(Layer::kKeygen) / n;
  m["services.envelope.ns"] = self(Layer::kEnvelope) / n;
  m["vfs.ns"] = self(Layer::kVfs) / n;
  m["vfs.ops"] = calls(Layer::kVfs);
  const double crypto = self(Layer::kCipher) + self(Layer::kHash) +
                        self(Layer::kRsa) + self(Layer::kKeygen) +
                        self(Layer::kMerkle);
  const double timed = crypto + self(Layer::kEnvelope) + self(Layer::kVfs);
  const double kernel = kernel_rate > 0 ? events / kernel_rate * 1e9 : 0;
  m["crypto.share"] = ratio(crypto, wall_ns);
  m["crypto.rsa_hash.share"] =
      ratio(self(Layer::kRsa) + self(Layer::kHash), wall_ns);
  m["sim.events_per_op"] = events / n;
  m["sim.actors_per_op"] = static_cast<double>(one.actors) /
                           static_cast<double>(std::max<uint64_t>(one.ops, 1));
  m["sim.events_per_wall_s"] = ratio(events, wall_ns / 1e9);
  m["sim.kernel_events_per_s"] = kernel_rate;
  m["sim.kernel.ns_est"] = kernel / n;
  m["other.ns"] = (wall_ns - timed - kernel) / n;
  m["trace.wall_ns"] = wall_ns / n;
  m["buf.copied_bytes_per_op"] = static_cast<double>(buf.bytes_copied) / n;
  m["buf.segments_per_op"] = static_cast<double>(buf.segments_allocated) / n;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Crowd-verify's Byzantine replicas log a WARN per caught block; keep
  // that I/O out of the timed region.
  set_log_level(LogLevel::kError);
  perfbench::engine_hook().snapshot = kTraced;

  // Inputs are generated once, outside every timed region.
  std::function<Iteration()> run_once;
  BulkInput bulk;
  std::vector<PmOp> plan;
  fleet::FleetOptions fleet_opt;
  fleet::FlashcrowdOptions crowd_opt;
  if (args.workload == "bulk-rw") {
    bulk = bulk_input(args.seed, args.small);
    run_once = [&] { return run_bulk_rw(bulk); };
  } else if (args.workload == "wan-smallfile") {
    plan = pm_plan(args.seed, args.small);
    run_once = [&] { return run_wan_smallfile(plan); };
  } else if (args.workload == "fleet-meta") {
    fleet_opt = fleet_options(args.seed, args.small);
    run_once = [&] { return run_fleet_meta(fleet_opt); };
  } else if (args.workload == "crowd-verify") {
    crowd_opt = crowd_options(args.seed, args.small);
    run_once = [&] { return run_crowd_verify(crowd_opt); };
  } else {
    usage("unknown workload '" + args.workload + "'");
  }

  const double kernel_rate = kTraced ? kernel_events_per_s() : 0;

  // Iteration 0 is a warm-up: it is checked like the others but left out of
  // the wall figures, and the peak RSS is read right after it, so neither
  // depends on how many iterations fit in the run.  At least three
  // iterations, so that every run also checks that one seed gives one
  // virtual fingerprint.
  std::vector<Iteration> iters;
  double rss_mib = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  while (iters.size() < 3 || Clock::now() < deadline) {
    if constexpr (kTraced) Spans::get().set_recording(iters.empty());
    const LayerStats before = Spans::get().stats();
    const BufStats buf_before = buf_stats();
    const double calib_s = calibration_s();
    Iteration it = run_once();
    it.calib_s = calib_s;
    it.spans = stats_delta(Spans::get().stats(), before);
    it.buf.bytes_copied = buf_stats().bytes_copied - buf_before.bytes_copied;
    it.buf.segments_allocated =
        buf_stats().segments_allocated - buf_before.segments_allocated;
    iters.push_back(std::move(it));
    if (iters.size() == 1) rss_mib = peak_rss_mib();
  }

  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (size_t i = 0; i < iters.size(); ++i) {
    const Iteration& it = iters[i];
    attempted += it.attempted;
    failed += it.failed;
    if (!it.error.empty()) {
      errors.push_back("iteration " + std::to_string(i) + ": " + it.error);
    }
    if (it.sim_errors > 0) {
      errors.push_back("iteration " + std::to_string(i) + ": " +
                       std::to_string(it.sim_errors) + " simulation errors");
      failed += it.sim_errors;
    }
    if (it.fingerprint != iters.front().fingerprint) {
      errors.push_back("iteration " + std::to_string(i) +
                       ": virtual fingerprint differs from iteration 0");
    }
  }
  if (failed > 0 && errors.empty()) errors.push_back("failed ops");

  // Throughput is all measured ops over all measured op time: host speed
  // on a shared machine drifts for seconds at a time, and the pooled rate
  // uses every iteration where a median of per-iteration rates would not.
  // Both wall metrics are then scaled to the reference host speed by the
  // calibration loop timed before each of the same iterations.
  const Iteration& one = iters.front();
  std::map<std::string, double> metrics;
  double ops = 0;
  double run_s = 0;
  double calib_s = 0;
  std::vector<double> setups;
  for (size_t i = 1; i < iters.size(); ++i) {
    ops += static_cast<double>(iters[i].ops);
    run_s += iters[i].run_s;
    calib_s += iters[i].calib_s;
    setups.push_back(iters[i].setup_s);
  }
  const double host_slowdown =
      calib_s / static_cast<double>(iters.size() - 1) / kCalibRefS;
  metrics["host_slowdown"] = host_slowdown;
  metrics["raw_wall_ops_per_s"] = ratio(ops, run_s);
  metrics["raw_setup_s"] = median(setups);
  metrics["wall_ops_per_s"] = ratio(ops, run_s) * host_slowdown;
  metrics["setup_s"] = median(setups) / host_slowdown;
  metrics["peak_rss_mib"] = rss_mib;
  metrics["virt_ops_per_s"] =
      ratio(static_cast<double>(one.virt_ops), one.virt_s);
  metrics["virt_op_ms_p50"] = percentile_ms(one.lat_ns, 0.50);
  metrics["virt_op_ms_p99"] = percentile_ms(one.lat_ns, 0.99);
  metrics["virt_op_samples"] = static_cast<double>(one.lat_ns.size());
  metrics["op_fail_ratio"] =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));
  if constexpr (kTraced) {
    for (const auto& [name, v] : layer_metrics(iters, kernel_rate)) {
      metrics[name] = v;
    }
    if (!args.spans.empty() && !Spans::get().write_tsv(args.spans)) {
      errors.push_back("cannot write spans to " + args.spans);
    }
  }
  print_json(args, iters, metrics, errors, attempted, failed);
  return 0;
}

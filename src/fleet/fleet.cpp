#include "fleet/fleet.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "net/network.hpp"
#include "nfs/kernel_nfs.hpp"
#include "nfs/wire_ops.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_client.hpp"
#include "services/services.hpp"
#include "sgfs/server_proxy.hpp"
#include "sgfs/shard_map.hpp"
#include "vfs/vfs.hpp"

namespace sgfs::fleet {

namespace {

constexpr const char* kFleetRoot = "/GFS/fleet";
constexpr uint32_t kFleetUid = 1000;
constexpr uint16_t kKernelPort = 2049;
constexpr uint16_t kProxyPort = 3049;
constexpr uint16_t kFssPort = 6000;
constexpr uint32_t kIoBytes = 4096;
constexpr uint64_t kFileBlocks = 16;  // f0 is 16 x 4 KiB

/// One server-proxy shard: its host, the kernel NFS server bound to the
/// shared FileSystem, and the plain-transport proxy in front of it.
struct Shard {
  net::Host* host = nullptr;
  nfs::KernelNfs kernel;
  std::shared_ptr<core::ServerProxy> proxy;

  Shard() = default;
};

/// Client-side shard-map cache with single-flight fetch.  One instance is
/// shared by every session, standing in for the per-client-host FSS cache
/// of a real deployment: discovery traffic scales with epochs and refresh
/// periods, not with the session count, which together with the FSS's
/// cached pre-signed reply keeps the RSA cost of a 1000-session
/// establishment wave at "a handful of operations", not thousands.
struct Discovery {
  sim::Engine& eng;
  net::Host& host;  // resolver host the discovery RPCs are issued from
  net::Address fss;
  std::vector<crypto::Certificate> trusted;

  std::optional<core::ShardMap> map;
  sim::SimTime fetched_at = -1;
  bool inflight = false;
  uint64_t fetches = 0;
  uint64_t failures = 0;

  // Failure-triggered refreshes from hundreds of sessions collapse into one
  // wire fetch per window.
  static constexpr sim::SimDur kMinRefetch = 250 * sim::kMillisecond;

  Discovery(sim::Engine& e, net::Host& h, net::Address a,
            std::vector<crypto::Certificate> t)
      : eng(e), host(h), fss(std::move(a)), trusted(std::move(t)) {}

  sim::Task<void> refresh(bool force) {
    if (map && !force) co_return;
    while (inflight) co_await eng.sleep(10 * sim::kMillisecond);
    if (map && !force) co_return;
    if (map && fetched_at >= 0 && eng.now() - fetched_at < kMinRefetch) {
      co_return;  // someone just fetched; reuse their answer
    }
    inflight = true;
    try {
      auto client = co_await rpc::clnt_create(
          host, fss, services::kFssProgram, services::kFssVersion);
      BufChain reply = co_await client->call(
          static_cast<uint32_t>(services::ServiceProc::kGetShardMap),
          BufChain());
      client->close();
      Buffer scratch;
      services::Envelope env =
          services::Envelope::deserialize(linearize(reply, scratch));
      const int64_t now_s = static_cast<int64_t>(eng.now() / sim::kSecond);
      auto verdict = services::verify_envelope(env, trusted, now_s);
      if (verdict.ok && env.action == "GetShardMapResponse") {
        core::ShardMap fresh = core::ShardMap::parse(env.fields.at("map"));
        if (!map || fresh.epoch() > map->epoch()) map = std::move(fresh);
        fetched_at = eng.now();
        ++fetches;
      } else {
        ++failures;
      }
    } catch (const std::exception&) {
      ++failures;
    }
    inflight = false;
  }
};

/// Everything the detached actors share; owned by run_fleet's frame, which
/// outlives them (the driver waits for every session to finish).
struct Fleet {
  sim::Engine& eng;
  const FleetOptions& opt;
  FleetResult& res;
  Discovery& disc;

  OpTally tally{res, &res.lat_ns, &res};
  BufChain payload;          // shared 4 KiB write body (refcounted chain)
  size_t sessions_done = 0;

  Fleet(sim::Engine& e, const FleetOptions& o, FleetResult& r, Discovery& d)
      : eng(e), opt(o), res(r), disc(d) {}
};

sim::Task<void> publish_map(net::Host& ctrl, const net::Address& fss,
                            const crypto::Credential& controller,
                            const core::ShardMap& map) {
  co_await services::put_signed(ctrl, fss, controller,
                                services::ServiceProc::kPutShardMap,
                                "PutShardMap", "map", map.to_string());
}

/// One client session: closed-loop think-time pacing, discovery-driven
/// shard selection, re-discovery + re-establishment on failure.
sim::Task<void> session_actor(Fleet& f, net::Host& host, size_t idx,
                              sim::SimDur phase) {
  Rng rng(f.opt.seed ^ (0xf1ee7000 + idx));
  const std::string dir_name = "u" + std::to_string(idx);
  const std::string route_key = std::string(kFleetRoot) + "/" + dir_name;
  const rpc::AuthSys auth(kFleetUid, kFleetUid, host.name());

  // Bounded retransmission + JUKEBOX-aware delayed retry: the robust client
  // posture from the overload work — a crashed shard must surface as a
  // failure the session can act on, not an infinite hang.
  rpc::RetryPolicy retry;
  retry.initial_timeout = 500 * sim::kMillisecond;
  retry.backoff = 2.0;
  retry.max_timeout = 2 * sim::kSecond;
  retry.max_retransmits = 3;
  rpc::JukeboxPolicy jukebox;
  jukebox.max_retries = 4;
  jukebox.initial_delay = 50 * sim::kMillisecond;
  jukebox.backoff = 2.0;
  jukebox.max_delay = 1 * sim::kSecond;

  const sim::SimDur interval = sim::from_seconds(f.opt.op_interval_s);
  std::unique_ptr<nfs::V3WireOps> ops;
  nfs::Fh file_fh;
  std::string cur_shard;
  uint64_t cur_epoch = 0;

  co_await f.eng.sleep(phase);
  while (f.eng.now() < f.tally.window().end) {
    bool rediscover = false;  // co_await is illegal inside a handler
    try {
      if (!f.disc.map) co_await f.disc.refresh(false);
      if (!f.disc.map) throw std::runtime_error("no shard map");
      // Re-route when the map moved on (crash/re-add) or we have no
      // session; an epoch bump that keeps our owner keeps our session —
      // that is the consistent-hash minimal-remap property at work.
      if (!ops || f.disc.map->epoch() != cur_epoch) {
        // By VALUE: the shared map can be replaced (and the old one
        // destroyed) by the refresher while this coroutine is suspended in
        // connect/mount/lookup below — a reference would dangle.
        const core::ShardInfo owner = f.disc.map->owner(route_key);
        // Graceful rebalance: when the session is healthy and its current
        // shard is merely no longer the preferred owner (a re-added shard
        // reclaiming its range), drift over with 10% probability per op
        // instead of stampeding — the whole cohort would otherwise
        // re-establish in the same refresh instant and dent goodput a
        // second time.  A broken session, or one whose shard left the map
        // entirely, moves immediately.
        const bool drift_later = ops && owner.name != cur_shard &&
                                 f.disc.map->find(cur_shard) != nullptr &&
                                 rng.next_below(10) != 0;
        if (!drift_later) {
          cur_epoch = f.disc.map->epoch();
          if (!ops || owner.name != cur_shard) {
            if (ops) {
              ops->close();
              ops.reset();
            }
            auto fresh = co_await nfs::V3WireOps::connect(
                host, owner.proxy, auth, retry, jukebox);
            nfs::Fh root = co_await fresh->mount(kFleetRoot);
            nfs::LookupRes dir = co_await fresh->lookup(root, dir_name);
            if (dir.status != nfs::Status::kOk) {
              throw std::runtime_error("lookup " + dir_name + " failed");
            }
            nfs::LookupRes file = co_await fresh->lookup(dir.fh, "f0");
            if (file.status != nfs::Status::kOk) {
              throw std::runtime_error("lookup f0 failed");
            }
            file_fh = file.fh;
            ops = std::move(fresh);
            ++f.res.establishes;
            if (!cur_shard.empty() && cur_shard != owner.name) {
              ++f.res.reroutes;
            }
            cur_shard = owner.name;
          }
        }
      }

      // One op: 60% GETATTR / 30% READ / 10% FILE_SYNC WRITE.
      const sim::SimTime arrival = f.eng.now();
      const uint64_t pick = rng.next_below(100);
      nfs::Status status;
      if (pick < 60) {
        nfs::GetattrRes r = co_await ops->getattr(file_fh);
        status = r.status;
      } else if (pick < 90) {
        const uint64_t off = kIoBytes * rng.next_below(kFileBlocks);
        nfs::ReadRes r = co_await ops->read(file_fh, off, kIoBytes);
        status = r.status;
      } else {
        const uint64_t off = kIoBytes * rng.next_below(kFileBlocks);
        nfs::WriteRes r = co_await ops->write(
            file_fh, off, nfs::StableHow::kFileSync, f.payload);
        status = r.status;
      }
      f.tally.reply(status, arrival, f.eng.now());
    } catch (const std::exception& e) {
      // Give-up / stream loss / refused connection / failed establishment:
      // drop the session and go back through discovery.
      f.tally.failure(e, f.eng.now());
      if (ops) {
        ops->close();
        ops.reset();
      }
      cur_epoch = 0;
      rediscover = true;
    }
    if (rediscover) co_await f.disc.refresh(true);
    co_await f.eng.sleep(interval);
  }
  if (ops) ops->close();
  ++f.sessions_done;
}

/// Bounded-staleness backstop: refresh the shared map cache periodically so
/// a rebalance reaches even sessions that never see a failure (the ones on
/// surviving shards re-learn the epoch without re-establishing).
sim::Task<void> refresher(Fleet& f) {
  const sim::SimDur period = sim::from_seconds(f.opt.refresh_s);
  while (f.eng.now() + period < f.tally.window().end) {
    co_await f.eng.sleep(period);
    co_await f.disc.refresh(true);
  }
}

/// The controller side of the crash drill: detect the crash (modelled as a
/// fixed detection delay), publish epoch+1 without the dead shard, then
/// fold the restarted shard back in at epoch+2.
sim::Task<void> controller_drill(Fleet& f, net::Host& ctrl,
                                 const net::Address& fss,
                                 const crypto::Credential& cred,
                                 core::ShardMap map_without,
                                 core::ShardMap map_with,
                                 sim::SimTime crash_at) {
  const sim::SimTime detect_at =
      crash_at + sim::from_seconds(f.opt.detect_s);
  co_await f.eng.sleep(detect_at - f.eng.now());
  co_await publish_map(ctrl, fss, cred, map_without);
  const sim::SimTime readd_at = crash_at +
                                sim::from_seconds(f.opt.downtime_s) +
                                sim::from_seconds(f.opt.readd_s);
  co_await f.eng.sleep(readd_at - f.eng.now());
  co_await publish_map(ctrl, fss, cred, map_with);
}

sim::Task<void> drive(Fleet& f, std::vector<net::Host*>& session_hosts,
                      net::Host& ctrl, const net::Address& fss_addr,
                      const crypto::Credential& controller_cred,
                      const core::ShardMap& map0, Shard* crash_shard) {
  co_await publish_map(ctrl, fss_addr, controller_cred, map0);
  co_await f.disc.refresh(true);

  const sim::SimDur warmup = sim::from_seconds(f.opt.warmup_s);
  f.tally.open(Window(f.eng.now(), warmup, sim::from_seconds(f.opt.window_s)));
  const Window& w = f.tally.window();

  // Establishment ramp: session starts spread over 80% of the warmup so
  // the mount/lookup wave stays inside each shard's admission capacity.
  const size_t n = session_hosts.size();
  spawn_ramp(f.eng, n, warmup - warmup / 5, [&](size_t i, sim::SimDur phase) {
    return session_actor(f, *session_hosts[i], i, phase);
  });
  f.eng.spawn(refresher(f));

  if (crash_shard != nullptr) {
    const sim::SimTime crash_at =
        w.start + sim::from_seconds(f.opt.crash_at_s);
    crash_shard->host->crash_restart(
        crash_at, sim::from_seconds(f.opt.downtime_s));
    const std::string& name = crash_shard->host->name();
    core::ShardMap map_without = map0.without(name, map0.epoch() + 1);
    core::ShardMap map_with =
        map_without.with(*map0.find(name), map0.epoch() + 2);
    f.eng.spawn(controller_drill(f, ctrl, fss_addr, controller_cred,
                                 std::move(map_without), std::move(map_with),
                                 crash_at));
  }

  // Wait for every session to wind down (a session blocked in a reconnect
  // loop can outlive the window by a few seconds).
  co_await f.eng.sleep(w.end - f.eng.now());
  co_await drain(f.eng, [&] { return f.sessions_done >= n; });
}

}  // namespace

uint64_t FleetResult::fingerprint() const {
  obs::Fingerprint h;
  h.mix(ok);
  h.mix(busy);
  h.mix(giveups);
  h.mix(errors);
  h.mix(establishes);
  h.mix(reroutes);
  h.mix(discovery_fetches);
  h.mix(discovery_failures);
  h.mix(final_epoch);
  h.mix(static_cast<uint64_t>(bucket_ok.size()));
  for (uint64_t b : bucket_ok) h.mix(b);
  h.mix(static_cast<uint64_t>(lat_ns.size()));
  for (uint64_t l : lat_ns) h.mix(l);
  mix_into(h);
  return h.value();
}

FleetResult run_fleet(const FleetOptions& opt) {
  if (opt.shards < 1) throw std::invalid_argument("fleet: shards < 1");
  if (opt.sessions < 1) throw std::invalid_argument("fleet: sessions < 1");
  if (opt.crash_shard >= opt.shards) {
    throw std::invalid_argument("fleet: crash_shard out of range");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  FleetResult res;
  sim::Engine eng;
  net::Network net(eng);
  net.set_default_link(net::LinkParams::lan());

  // PKI: one CA, the FSS's host credential, and the fleet controller
  // identity the FSS is configured to obey.
  Rng pki_rng(opt.seed ^ 0x9e3779b97f4a7c15ull);
  crypto::CertificateAuthority ca(
      pki_rng, crypto::DistinguishedName("Grid", "FleetCA"), 0, 1ll << 40);
  crypto::Credential fss_cred =
      ca.issue(pki_rng, crypto::DistinguishedName("Grid", "fss"),
               crypto::CertType::kHost, 0, 1ll << 40);
  crypto::Credential controller_cred =
      ca.issue(pki_rng, crypto::DistinguishedName("Grid", "controller"),
               crypto::CertType::kIdentity, 0, 1ll << 40);
  const std::vector<crypto::Certificate> trusted = {ca.root()};

  // Shared-storage backing store: every shard's kernel NFS server exports
  // the SAME FileSystem under the SAME fsid, so a file handle resolved
  // through one shard stays valid when its directory fails over to another
  // (the cluster-filesystem assumption behind shard interchangeability).
  auto fs = std::make_shared<vfs::FileSystem>();
  const vfs::Cred root_cred(0, 0);
  const Buffer file_body(static_cast<size_t>(kIoBytes) * kFileBlocks);
  fs->mkdir_p(root_cred, kFleetRoot, 0755);
  for (int i = 0; i < opt.sessions; ++i) {
    const std::string dir = std::string(kFleetRoot) + "/u" +
                            std::to_string(i);
    fs->chown(fs->mkdir_p(root_cred, dir, 0755).value, kFleetUid, kFleetUid);
    auto file = fs->write_file(root_cred, dir + "/f0",
                               ByteView(file_body.data(), file_body.size()));
    fs->chown(file.value, kFleetUid, kFleetUid);
  }

  // Shard fleet: kernel NFS + plain-transport server proxy per shard host.
  std::vector<Shard> shards(static_cast<size_t>(opt.shards));
  std::vector<core::ShardInfo> infos;
  for (int i = 0; i < opt.shards; ++i) {
    Shard& s = shards[static_cast<size_t>(i)];
    const std::string name = "shard" + std::to_string(i);
    // SAN-class backing store, not a commodity spindle: the shared-storage
    // model already assumes a cluster filesystem behind every shard, and
    // the proxy's serialized forwarding would otherwise queue every session
    // behind 8 ms seeks.  (FILE_SYNC writes still pay a real, bounded I/O
    // cost; reads mostly hit the kernel page cache.)
    net::DiskParams san;
    san.seek = 300 * sim::kMicrosecond;
    san.bytes_per_sec = 400.0 * 1024 * 1024;
    s.host = &net.add_host(name, san);
    s.kernel = nfs::KernelNfs(*s.host, fs, {name}, kKernelPort);

    core::ServerProxyConfig scfg;
    scfg.kernel_nfs = net::Address(name, kKernelPort);
    scfg.plain_transport = true;
    scfg.plain_account = core::Account("grid", kFleetUid, kFleetUid);
    scfg.accounts.add(core::Account("grid", kFleetUid, kFleetUid));
    scfg.fine_grained_acls = false;
    scfg.cost.per_msg_cpu = opt.proxy_msg_cpu;
    scfg.admission = rpc::AdmissionControl(8, 64, /*busy=*/true);
    scfg.fair_queueing = true;
    s.proxy = std::make_shared<core::ServerProxy>(
        *s.host, scfg, nullptr, Rng(opt.seed ^ (0x5a5a0000ull + i)));
    s.proxy->start(kProxyPort);
    infos.emplace_back(name, net::Address(name, kProxyPort));
  }
  const core::ShardMap map0(/*epoch=*/1, infos);

  // FSS (discovery + publication endpoint), controller, resolver.
  net::Host& fss_host = net.add_host("fss");
  auto fss = std::make_shared<services::FileSystemService>(
      fss_host, fss_cred, trusted,
      std::vector<std::string>{"/O=Grid/CN=controller"}, nullptr,
      net::Address(), Rng(opt.seed ^ 0xf55f55ull));
  fss->start(kFssPort);
  const net::Address fss_addr("fss", kFssPort);
  net::Host& ctrl = net.add_host("ctrl");
  net::Host& resolver = net.add_host("resolver");
  Discovery disc(eng, resolver, fss_addr, trusted);

  std::vector<net::Host*> session_hosts;
  session_hosts.reserve(static_cast<size_t>(opt.sessions));
  for (int i = 0; i < opt.sessions; ++i) {
    session_hosts.push_back(&net.add_host("c" + std::to_string(i)));
  }

  Fleet f(eng, opt, res, disc);
  {
    Buffer body(kIoBytes);
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<uint8_t>(i * 131);
    }
    f.payload = BufChain(std::move(body));
  }

  Shard* crash_shard =
      opt.crash_shard >= 0 ? &shards[static_cast<size_t>(opt.crash_shard)]
                           : nullptr;
  eng.run_task(drive(f, session_hosts, ctrl, fss_addr, controller_cred,
                     map0, crash_shard));

  res.discovery_fetches = disc.fetches;
  res.discovery_failures = disc.failures;
  res.final_epoch = disc.map ? disc.map->epoch() : 0;
  if (crash_shard != nullptr) {
    res.crash_bucket = res.win_start_bucket +
                       static_cast<size_t>(opt.crash_at_s);
    res.restored_bucket =
        res.crash_bucket + static_cast<size_t>(opt.downtime_s) +
        static_cast<size_t>(opt.readd_s) + 2 /* re-establish grace */;
  }
  res.finish(eng, wall_start);
  return res;
}

}  // namespace sgfs::fleet

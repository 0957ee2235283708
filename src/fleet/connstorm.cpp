#include "fleet/connstorm.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "net/network.hpp"
#include "nfs/nfs3_server.hpp"
#include "nfs/wire_ops.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_client.hpp"
#include "services/services.hpp"
#include "sgfs/client_proxy.hpp"
#include "sgfs/server_proxy.hpp"
#include "vfs/vfs.hpp"

namespace sgfs::fleet {

namespace {

constexpr const char* kStormRoot = "/GFS/storm";
constexpr uint32_t kStormUid = 1000;
constexpr uint16_t kKernelPort = 2049;
constexpr uint16_t kProxyPort = 3049;
constexpr uint16_t kLoopbackPort = 2049;  // per-client-host client proxy
constexpr uint16_t kFssPort = 6000;
constexpr uint32_t kIoBytes = 4096;
constexpr uint64_t kFileBlocks = 16;

/// One client session: its host, the secure client proxy on that host's
/// loopback, and the grid identity it authenticates as.
struct Client {
  net::Host* host = nullptr;
  std::shared_ptr<core::ClientProxy> proxy;
  const crypto::Credential* cred = nullptr;

  Client() = default;
};

/// Shared actor state; owned by run_connstorm's frame.
struct Storm {
  sim::Engine& eng;
  const ConnstormOptions& opt;
  ConnstormResult& res;
  net::Address fss_addr;

  sim::SimTime t0 = 0;
  sim::SimTime win_start = 0;
  sim::SimTime win_end = 0;
  size_t done = 0;

  Storm(sim::Engine& e, const ConnstormOptions& o, ConnstormResult& r,
        net::Address fss)
      : eng(e), opt(o), res(r), fss_addr(std::move(fss)) {}

  void bucket_success(sim::SimTime arrival) {
    const size_t b = static_cast<size_t>((arrival - t0) / sim::kSecond);
    if (b < res.bucket_ok.size()) ++res.bucket_ok[b];
    const size_t sb =
        static_cast<size_t>((arrival - t0) / (sim::kSecond / 4));
    if (sb < res.sub_ok.size()) ++res.sub_ok[sb];
  }
};

/// One SSO round against the FSS: redeem (or mint) the user's pass, then
/// authorize this session establishment.  With the pass desk's cache on,
/// repeated rounds for the same user are signature-free on the FSS.
sim::Task<bool> sso_round(Storm& s, net::Host& host,
                          const crypto::Credential& cred) {
  const int64_t now_s = static_cast<int64_t>(s.eng.now() / sim::kSecond);
  try {
    auto client = co_await rpc::clnt_create(
        host, s.fss_addr, services::kFssProgram, services::kFssVersion);
    services::Envelope login =
        services::sign_envelope("SsoLogin", {}, cred, now_s);
    co_await client->call(
        static_cast<uint32_t>(services::ServiceProc::kSsoLogin),
        login.serialize());
    services::Envelope auth =
        services::sign_envelope("SsoAuthorize", {}, cred, now_s);
    BufChain reply = co_await client->call(
        static_cast<uint32_t>(services::ServiceProc::kSsoAuthorize),
        auth.serialize());
    client->close();
    Buffer scratch;
    services::Envelope env =
        services::Envelope::deserialize(linearize(reply, scratch));
    co_return env.action == "SsoAuthorizeResponse";
  } catch (const std::exception&) {
    co_return false;
  }
}

/// One client session: mount through the local secure proxy, closed-loop
/// GETATTR/READ ops, re-mount (with a fresh SSO authorization) when the
/// session breaks.  The client proxy underneath does the actual reconnect —
/// abbreviated via its retained ticket when resumption is on.
sim::Task<void> client_actor(Storm& s, Client& c, size_t idx,
                             sim::SimDur phase) {
  Rng rng(s.opt.seed ^ (0xc0774000ull + idx));
  const rpc::AuthSys auth(kStormUid, kStormUid, c.host->name());
  const sim::SimDur interval = sim::from_seconds(s.opt.op_interval_s);
  const net::Address loopback(c.host->name(), kLoopbackPort);

  co_await s.eng.sleep(phase);
  ++s.res.sso_authorizations;
  co_await sso_round(s, *c.host, *c.cred);

  std::unique_ptr<nfs::V3WireOps> ops;
  nfs::Fh file_fh;
  uint64_t seen_reconnects = 0;
  bool reauthorize = false;
  while (s.eng.now() < s.win_end) {
    try {
      if (!ops) {
        auto fresh = co_await nfs::V3WireOps::connect(
            *c.host, loopback, auth, rpc::RetryPolicy(),
            rpc::JukeboxPolicy());
        nfs::Fh root = co_await fresh->mount(kStormRoot);
        nfs::LookupRes file = co_await fresh->lookup(root, "f0");
        if (file.status != nfs::Status::kOk) {
          throw std::runtime_error("lookup f0 failed");
        }
        file_fh = file.fh;
        ops = std::move(fresh);
      }

      const sim::SimTime arrival = s.eng.now();
      const bool in_window = arrival >= s.win_start && arrival < s.win_end;
      nfs::Status status;
      if (rng.next_below(100) < 70) {
        nfs::GetattrRes r = co_await ops->getattr(file_fh);
        status = r.status;
      } else {
        const uint64_t off = kIoBytes * rng.next_below(kFileBlocks);
        nfs::ReadRes r = co_await ops->read(file_fh, off, kIoBytes);
        status = r.status;
      }
      if (status == nfs::Status::kOk) {
        s.bucket_success(arrival);
        if (in_window) ++s.res.ok;
      } else if (status == nfs::Status::kJukebox) {
        if (in_window) ++s.res.busy;
      } else {
        if (in_window) ++s.res.errors;
      }

      // The proxy re-established its upstream session behind this op: pay
      // the FSS authorization that re-establishment needs (one round per
      // observed reconnect — the storm's O(users)-vs-O(sessions) axis).
      const uint64_t rc = c.proxy->reconnects();
      if (rc != seen_reconnects) {
        seen_reconnects = rc;
        ++s.res.sso_authorizations;
        co_await sso_round(s, *c.host, *c.cred);
      }
    } catch (const rpc::RpcTimeout&) {
      const sim::SimTime now = s.eng.now();
      if (now >= s.win_start && now < s.win_end) ++s.res.giveups;
      if (ops) {
        ops->close();
        ops.reset();
      }
    } catch (const std::exception&) {
      // The proxy exhausted its reconnect budget (or the loopback stream
      // died with it): drop the mount, re-authorize, re-mount next round.
      const sim::SimTime now = s.eng.now();
      if (now >= s.win_start && now < s.win_end) ++s.res.errors;
      if (ops) {
        ops->close();
        ops.reset();
      }
      reauthorize = true;
    }
    if (reauthorize) {
      reauthorize = false;
      ++s.res.sso_authorizations;
      co_await sso_round(s, *c.host, *c.cred);
    }
    co_await s.eng.sleep(interval);
  }
  if (ops) ops->close();
  ++s.done;
}

sim::Task<void> drive(Storm& s, std::vector<Client>& clients,
                      net::Host& server_host) {
  s.t0 = s.eng.now();
  const sim::SimDur warmup = sim::from_seconds(s.opt.warmup_s);
  s.win_start = s.t0 + warmup;
  s.win_end = s.win_start + sim::from_seconds(s.opt.window_s);
  s.res.bucket_ok.assign(
      static_cast<size_t>((s.win_end - s.t0) / sim::kSecond) + 1, 0);
  s.res.sub_ok.assign(
      static_cast<size_t>((s.win_end - s.t0) / (sim::kSecond / 4)) + 1, 0);
  s.res.win_start_bucket = static_cast<size_t>(warmup / sim::kSecond);
  s.res.win_end_bucket =
      static_cast<size_t>((s.win_end - s.t0) / sim::kSecond);

  // Establishment ramp over 80% of warmup: the initial full-handshake wave
  // must not alias the storm we are here to measure.
  const size_t n = clients.size();
  const sim::SimDur ramp = warmup - warmup / 5;
  for (size_t i = 0; i < n; ++i) {
    const sim::SimDur phase = static_cast<sim::SimDur>(
        ramp * static_cast<sim::SimDur>(i) / static_cast<sim::SimDur>(n));
    s.eng.spawn(client_actor(s, clients[i], i, phase));
  }

  // The storm: the server host (proxy + kernel NFS) restarts; every secure
  // session breaks at once and the whole cohort reconnects.
  const sim::SimTime crash_at =
      s.win_start + sim::from_seconds(s.opt.crash_at_s);
  server_host.crash_restart(crash_at, sim::from_seconds(s.opt.downtime_s));
  s.res.crash_bucket = s.res.win_start_bucket +
                       static_cast<size_t>(s.opt.crash_at_s);
  s.res.restart_bucket =
      s.res.crash_bucket + static_cast<size_t>(s.opt.downtime_s);

  co_await s.eng.sleep(s.win_end - s.eng.now());
  while (s.done < n) {
    co_await s.eng.sleep(50 * sim::kMillisecond);
  }
}

}  // namespace

uint64_t ConnstormResult::fingerprint() const {
  obs::Fingerprint h;
  h.mix(ok);
  h.mix(busy);
  h.mix(giveups);
  h.mix(errors);
  h.mix(establishes);
  h.mix(reconnects);
  h.mix(full_handshakes);
  h.mix(resumed_sessions);
  h.mix(fallback_handshakes);
  h.mix(fss_signatures);
  h.mix(fss_cache_hits);
  h.mix(sso_authorizations);
  h.mix(static_cast<uint64_t>(bucket_ok.size()));
  for (uint64_t b : bucket_ok) h.mix(b);
  h.mix(static_cast<uint64_t>(sub_ok.size()));
  for (uint64_t b : sub_ok) h.mix(b);
  h.mix(static_cast<uint64_t>(sim_seconds * 1e9));
  h.mix(events);
  h.mix(actors);
  h.mix(sim_errors);
  return h.value();
}

double ConnstormResult::mean_goodput(size_t from, size_t to) const {
  from = std::min(from, bucket_ok.size());
  to = std::min(to, bucket_ok.size());
  if (to <= from) return 0;
  uint64_t sum = 0;
  for (size_t i = from; i < to; ++i) sum += bucket_ok[i];
  return static_cast<double>(sum) / static_cast<double>(to - from);
}

ConnstormResult run_connstorm(const ConnstormOptions& opt) {
  if (opt.clients < 1) throw std::invalid_argument("connstorm: clients < 1");
  if (opt.users < 1) throw std::invalid_argument("connstorm: users < 1");
  if (opt.crash_at_s + opt.downtime_s >= opt.window_s) {
    throw std::invalid_argument("connstorm: crash outside window");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  ConnstormResult res;
  sim::Engine eng;
  net::Network net(eng);
  net.set_default_link(net::LinkParams::lan());

  // PKI: one CA, the file server's host credential, and a small set of
  // grid-user identities the client cohort shares (many sessions per user
  // is exactly the case the SSO pass desk amortizes).
  Rng pki_rng(opt.seed ^ 0x9e3779b97f4a7c15ull);
  crypto::CertificateAuthority ca(
      pki_rng, crypto::DistinguishedName("Grid", "StormCA"), 0, 1ll << 40);
  crypto::Credential server_cred =
      ca.issue(pki_rng, crypto::DistinguishedName("Grid", "fileserver"),
               crypto::CertType::kHost, 0, 1ll << 40);
  crypto::Credential fss_cred =
      ca.issue(pki_rng, crypto::DistinguishedName("Grid", "fss"),
               crypto::CertType::kHost, 0, 1ll << 40);
  std::vector<crypto::Credential> users;
  users.reserve(static_cast<size_t>(opt.users));
  for (int u = 0; u < opt.users; ++u) {
    users.push_back(ca.issue(
        pki_rng,
        crypto::DistinguishedName("Grid", "user" + std::to_string(u)),
        crypto::CertType::kIdentity, 0, 1ll << 40));
  }
  const std::vector<crypto::Certificate> trusted = {ca.root()};

  // Exported filesystem with one shared read-mostly file.
  auto fs = std::make_shared<vfs::FileSystem>();
  const vfs::Cred root_cred(0, 0);
  fs->mkdir_p(root_cred, kStormRoot, 0755);
  vfs::SetAttrs chown;
  chown.uid = kStormUid;
  chown.gid = kStormUid;
  auto dir = fs->resolve(root_cred, kStormRoot);
  fs->setattr(root_cred, dir.value, chown);
  const Buffer body(static_cast<size_t>(kIoBytes) * kFileBlocks);
  auto file = fs->write_file(root_cred, std::string(kStormRoot) + "/f0",
                             ByteView(body.data(), body.size()));
  fs->setattr(root_cred, file.value, chown);

  // Server host: kernel NFS + the one secure server proxy.
  net::Host& server = net.add_host("server");
  auto kernel = std::make_shared<nfs::Nfs3Server>(server, fs, /*fsid=*/1,
                                                  nfs::ServerCostModel());
  kernel->add_export(
      nfs::ExportEntry("/GFS", std::set<std::string>{"server"}));
  auto kernel_rpc = std::make_unique<rpc::RpcServer>(server, kKernelPort);
  kernel_rpc->register_program(nfs::kNfsProgram, nfs::kNfsVersion3, kernel);
  kernel_rpc->register_program(nfs::kMountProgram, nfs::kMountVersion3,
                               kernel->mount_program());
  kernel_rpc->start();

  core::ServerProxyConfig scfg;
  scfg.kernel_nfs = net::Address("server", kKernelPort);
  scfg.security.credential = server_cred;
  scfg.security.trusted = trusted;
  scfg.security.cipher = crypto::Cipher::kNull;
  scfg.security.mac = crypto::MacAlgo::kHmacSha1;
  for (const auto& u : users) {
    scfg.gridmap.add(u.cert.subject.to_string(), "grid");
  }
  scfg.accounts.add(core::Account("grid", kStormUid, kStormUid));
  scfg.fine_grained_acls = false;
  scfg.cost.per_msg_cpu = opt.proxy_msg_cpu;
  scfg.session_resumption = opt.resumption;
  scfg.durable_ticket_cache = opt.resumption;
  if (opt.admission) {
    scfg.admission = rpc::AdmissionControl(8, 64, /*busy=*/true);
    scfg.fair_queueing = true;
  }
  auto server_proxy = std::make_shared<core::ServerProxy>(
      server, scfg, nullptr, Rng(opt.seed ^ 0x5e55107ull));
  server_proxy->start(kProxyPort);

  // FSS (SSO pass desk) on its own host — it survives the storm.
  net::Host& fss_host = net.add_host("fss");
  auto fss = std::make_shared<services::FileSystemService>(
      fss_host, fss_cred, trusted, std::vector<std::string>{}, nullptr,
      net::Address(), Rng(opt.seed ^ 0xf55f55ull));
  fss->set_sso_cache(opt.sso_cache);
  fss->start(kFssPort);

  // Client hosts, each with its own secure client proxy on loopback.
  std::vector<Client> clients(static_cast<size_t>(opt.clients));
  for (int i = 0; i < opt.clients; ++i) {
    Client& c = clients[static_cast<size_t>(i)];
    c.host = &net.add_host("c" + std::to_string(i));
    c.cred = &users[static_cast<size_t>(i) % users.size()];

    core::ClientProxyConfig ccfg;
    ccfg.server_proxy = net::Address("server", kProxyPort);
    ccfg.security.credential = *c.cred;
    ccfg.security.trusted = trusted;
    ccfg.security.cipher = crypto::Cipher::kNull;
    ccfg.security.mac = crypto::MacAlgo::kHmacSha1;
    ccfg.cache.enabled = false;  // every op forwards: goodput == server state
    ccfg.max_reconnects = 20;
    ccfg.reconnect_backoff = 50 * sim::kMillisecond;
    ccfg.jukebox.max_retries = 4;
    ccfg.jukebox.initial_delay = 50 * sim::kMillisecond;
    ccfg.jukebox.backoff = 2.0;
    ccfg.jukebox.max_delay = 1 * sim::kSecond;
    ccfg.resume_sessions = opt.resumption;
    c.proxy = std::make_shared<core::ClientProxy>(
        *c.host, ccfg, Rng(opt.seed ^ (0xc11e7000ull + i)));
    c.proxy->start(kLoopbackPort);
  }

  Storm s(eng, opt, res, net::Address("fss", kFssPort));
  eng.run_task(drive(s, clients, server));

  for (const Client& c : clients) {
    res.establishes += c.proxy->key_generation();
    res.reconnects += c.proxy->reconnects();
  }
  res.fss_signatures = fss->sso_signatures();
  res.fss_cache_hits = fss->sso_cache_hits();
  res.sim_seconds = sim::to_seconds(eng.now());
  res.events = eng.events_processed();
  res.actors = eng.actors_spawned();
  res.sim_errors = eng.errors().size();
  res.metrics = obs::scalar_values(eng.metrics());
  res.full_handshakes = static_cast<uint64_t>(
      res.metrics.count("sgfs.session.full_handshakes")
          ? res.metrics.at("sgfs.session.full_handshakes")
          : 0);
  res.resumed_sessions = static_cast<uint64_t>(
      res.metrics.count("sgfs.session.resumed")
          ? res.metrics.at("sgfs.session.resumed")
          : 0);
  res.fallback_handshakes = static_cast<uint64_t>(
      res.metrics.count("sgfs.session.fallback_full")
          ? res.metrics.at("sgfs.session.fallback_full")
          : 0);

  // Recovery: first post-restart 250 ms slice with goodput back at >= 90%
  // of the pre-crash plateau (capped at the window end when it never
  // returns).
  res.plateau = res.mean_goodput(res.win_start_bucket, res.crash_bucket);
  const size_t restart_sub = static_cast<size_t>(
      (s.win_start + sim::from_seconds(opt.crash_at_s + opt.downtime_s) -
       s.t0) /
      (sim::kSecond / 4));
  const size_t end_sub = res.win_end_bucket * 4;
  res.recovery_s =
      static_cast<double>(res.win_end_bucket - res.restart_bucket);
  for (size_t sb = restart_sub; sb < end_sub && sb < res.sub_ok.size();
       ++sb) {
    if (static_cast<double>(res.sub_ok[sb]) >= 0.9 * res.plateau / 4.0) {
      res.recovery_s =
          (static_cast<double>(sb - restart_sub) + 1.0) * 0.25;
      break;
    }
  }

  for (Client& c : clients) c.proxy->stop();
  server_proxy->stop();
  fss->stop();
  kernel_rpc->stop();

  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return res;
}

}  // namespace sgfs::fleet

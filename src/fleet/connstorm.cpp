#include "fleet/connstorm.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "net/network.hpp"
#include "nfs/kernel_nfs.hpp"
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

  OpTally tally{res, nullptr, &res};
  size_t done = 0;

  Storm(sim::Engine& e, const ConnstormOptions& o, ConnstormResult& r,
        net::Address fss)
      : eng(e), opt(o), res(r), fss_addr(std::move(fss)) {}
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
  while (s.eng.now() < s.tally.window().end) {
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
      nfs::Status status;
      if (rng.next_below(100) < 70) {
        nfs::GetattrRes r = co_await ops->getattr(file_fh);
        status = r.status;
      } else {
        const uint64_t off = kIoBytes * rng.next_below(kFileBlocks);
        nfs::ReadRes r = co_await ops->read(file_fh, off, kIoBytes);
        status = r.status;
      }
      s.tally.reply(status, arrival, s.eng.now());

      // The proxy re-established its upstream session behind this op: pay
      // the FSS authorization that re-establishment needs (one round per
      // observed reconnect — the storm's O(users)-vs-O(sessions) axis).
      const uint64_t rc = c.proxy->reconnects();
      if (rc != seen_reconnects) {
        seen_reconnects = rc;
        ++s.res.sso_authorizations;
        co_await sso_round(s, *c.host, *c.cred);
      }
    } catch (const std::exception& e) {
      // A give-up drops the mount.  Otherwise the proxy exhausted its
      // reconnect budget (or the loopback stream died with it): drop the
      // mount, re-authorize, re-mount next round.
      reauthorize = !s.tally.failure(e, s.eng.now());
      if (ops) {
        ops->close();
        ops.reset();
      }
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
  const sim::SimDur warmup = sim::from_seconds(s.opt.warmup_s);
  s.tally.open(Window(s.eng.now(), warmup, sim::from_seconds(s.opt.window_s)));
  s.tally.track(s.res.sub_ok, sim::kSecond / 4);
  const Window& w = s.tally.window();

  // Establishment ramp over 80% of warmup: the initial full-handshake wave
  // must not alias the storm we are here to measure.
  const size_t n = clients.size();
  spawn_ramp(s.eng, n, warmup - warmup / 5, [&](size_t i, sim::SimDur phase) {
    return client_actor(s, clients[i], i, phase);
  });

  // The storm: the server host (proxy + kernel NFS) restarts; every secure
  // session breaks at once and the whole cohort reconnects.
  const sim::SimTime crash_at = w.start + sim::from_seconds(s.opt.crash_at_s);
  server_host.crash_restart(crash_at, sim::from_seconds(s.opt.downtime_s));
  s.res.crash_bucket = s.res.win_start_bucket +
                       static_cast<size_t>(s.opt.crash_at_s);
  s.res.restart_bucket =
      s.res.crash_bucket + static_cast<size_t>(s.opt.downtime_s);

  co_await s.eng.sleep(w.end - s.eng.now());
  co_await drain(s.eng, [&] { return s.done >= n; });
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
  mix_into(h);
  return h.value();
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
  fs->chown(fs->mkdir_p(root_cred, kStormRoot, 0755).value, kStormUid,
            kStormUid);
  const Buffer body(static_cast<size_t>(kIoBytes) * kFileBlocks);
  auto file = fs->write_file(root_cred, std::string(kStormRoot) + "/f0",
                             ByteView(body.data(), body.size()));
  fs->chown(file.value, kStormUid, kStormUid);

  // Server host: kernel NFS + the one secure server proxy.
  net::Host& server = net.add_host("server");
  const nfs::KernelNfs kernel(server, fs, {"server"}, kKernelPort);

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
  res.finish(eng, wall_start);
  const obs::MetricsRegistry& m = eng.metrics();
  res.full_handshakes = m.counter_value("sgfs.session.full_handshakes");
  res.resumed_sessions = m.counter_value("sgfs.session.resumed");
  res.fallback_handshakes = m.counter_value("sgfs.session.fallback_full");

  // Recovery: first post-restart 250 ms slice with goodput back at >= 90%
  // of the pre-crash plateau (capped at the window end when it never
  // returns).
  res.plateau =
      mean_goodput(res.bucket_ok, res.win_start_bucket, res.crash_bucket);
  const Window& w = s.tally.window();
  const size_t restart_sub = w.bucket(
      w.start + sim::from_seconds(opt.crash_at_s + opt.downtime_s),
      sim::kSecond / 4);
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
  kernel.rpc->stop();
  return res;
}

}  // namespace sgfs::fleet

// Secure sharing: two grid users, gridmap-based sharing and fine-grained
// per-file ACLs (paper §4.3).
//
// alice owns /GFS/alice.  She shares her session with bob by adding bob's
// distinguished name to the session gridmap, then restricts one file to
// read-only via a ".file.acl" entry.  mallory, signed by a rogue CA, is
// rejected at the SSL handshake.
//
// Build & run:  ./build/examples/secure_sharing
#include <cstdio>

#include "nfs/kernel_nfs.hpp"
#include "nfs/nfs3_client.hpp"
#include "sgfs/client_proxy.hpp"
#include "sgfs/server_proxy.hpp"

using namespace sgfs;

namespace {

// One client proxy per user session (per-user sessions, paper Figure 2).
std::shared_ptr<core::ClientProxy> make_session(
    net::Host& host, uint16_t port, const crypto::Credential& user,
    const crypto::Certificate& ca_root, Rng rng,
    bool write_back = true) {
  core::ClientProxyConfig cfg;
  cfg.security.credential = user;
  cfg.security.trusted = {ca_root};
  cfg.server_proxy = net::Address("fileserver", 3049);
  // Per-session customization (paper §3.1): bob's guest session is
  // write-through so the server proxy vets every write immediately.
  cfg.cache.write_back = write_back;
  cfg.cache.cache_data = write_back;
  auto proxy = std::make_shared<core::ClientProxy>(host, cfg, rng);
  proxy->start(port);
  return proxy;
}

sim::Task<void> scenario(sim::Engine& eng, net::Host& compute,
                         std::shared_ptr<vfs::FileSystem> fs,
                         core::ServerProxy& server_proxy,
                         core::ClientProxy& alice_session) {
  rpc::AuthSys job(1000, 1000, "compute");

  // --- alice writes a public result and a protected one ---
  net::Address alice_proxy("compute", 2049);
  auto alice_mp = co_await nfs::MountPoint::mount(compute, alice_proxy,
                                                  "/GFS/alice", job);
  int fd = co_await alice_mp->open("results.txt",
                                   nfs::kWrOnly | nfs::kCreate, 0664);
  co_await alice_mp->write(fd, to_bytes("shared results"));
  co_await alice_mp->close(fd);
  fd = co_await alice_mp->open("draft.txt", nfs::kWrOnly | nfs::kCreate,
                               0666);
  co_await alice_mp->write(fd, to_bytes("alice's draft"));
  co_await alice_mp->close(fd);
  co_await alice_session.flush();  // push the write-back data to the server
  std::printf("[alice]   wrote results.txt and draft.txt\n");

  // Fine-grained ACL: bob may only read draft.txt, whatever the mode bits
  // say.  (Normally set through the DSS; here directly via the ACL store.)
  core::Acl acl;
  acl.entries["/O=DemoGrid/CN=bob"] = vfs::kAccessRead | vfs::kAccessLookup;
  acl.entries["/O=DemoGrid/CN=alice"] = 0x3f;
  vfs::Cred root(0, 0);
  auto dir = fs->resolve(root, "/GFS/alice");
  server_proxy.acl_store()->put_acl(dir.value, "draft.txt", acl);
  std::printf("[alice]   ACL on draft.txt: bob=read-only\n");

  // --- bob reads through his own session ---
  net::Address bob_proxy("compute", 2050);
  auto bob_mp = co_await nfs::MountPoint::mount(compute, bob_proxy,
                                                "/GFS/alice", job);
  fd = co_await bob_mp->open("results.txt", nfs::kRdOnly);
  Buffer buf(64);
  size_t n = co_await bob_mp->read(fd, buf);
  co_await bob_mp->close(fd);
  std::printf("[bob]     read results.txt: \"%s\"\n",
              sgfs::to_string(ByteView(buf.data(), n)).c_str());

  uint32_t bits = co_await bob_mp->access(
      "draft.txt", vfs::kAccessRead | vfs::kAccessModify);
  std::printf("[bob]     ACCESS draft.txt -> %s%s\n",
              bits & vfs::kAccessRead ? "read " : "",
              bits & vfs::kAccessModify ? "write" : "(no write)");
  try {
    int wfd = co_await bob_mp->open("draft.txt", nfs::kWrOnly);
    co_await bob_mp->write(wfd, to_bytes("bob was here"));
    co_await bob_mp->close(wfd);
    std::printf("[bob]     ERROR: write to draft.txt should have failed!\n");
  } catch (const nfs::FsError& e) {
    std::printf("[bob]     write to draft.txt denied by the server proxy "
                "(%s) — the ACL overrides the 0666 mode bits\n", e.what());
  }
  (void)eng;
}

}  // namespace

int main() {
  sim::Engine eng;
  net::Network net(eng);
  net::Host& compute = net.add_host("compute");
  net::Host& fileserver = net.add_host("fileserver");

  Rng rng(7);
  crypto::CertificateAuthority ca(
      rng, crypto::DistinguishedName("DemoGrid", "RootCA"), 0, 1ll << 40);
  crypto::Credential alice = ca.issue(
      rng, crypto::DistinguishedName("DemoGrid", "alice"),
      crypto::CertType::kIdentity, 0, 1ll << 40);
  crypto::Credential bob = ca.issue(
      rng, crypto::DistinguishedName("DemoGrid", "bob"),
      crypto::CertType::kIdentity, 0, 1ll << 40);
  crypto::Credential host_cert = ca.issue(
      rng, crypto::DistinguishedName("DemoGrid", "fileserver"),
      crypto::CertType::kHost, 0, 1ll << 40);
  // mallory's certificate chains to a different (untrusted) CA.
  crypto::CertificateAuthority rogue(
      rng, crypto::DistinguishedName("EvilGrid", "RootCA"), 0, 1ll << 40);
  crypto::Credential mallory = rogue.issue(
      rng, crypto::DistinguishedName("EvilGrid", "mallory"),
      crypto::CertType::kIdentity, 0, 1ll << 40);

  auto fs = std::make_shared<vfs::FileSystem>();
  fs->chown(fs->mkdir_p(vfs::Cred(0, 0), "/GFS/alice", 0775).value, 2001, 2001);

  const nfs::KernelNfs kernel(fileserver, fs, {"fileserver"});

  // Session gridmap: alice shares with bob by adding his DN mapped to a
  // guest account with group access (paper §4.3).
  core::ServerProxyConfig scfg;
  scfg.security.credential = host_cert;
  scfg.security.trusted = {ca.root()};
  scfg.gridmap.add("/O=DemoGrid/CN=alice", "alice");
  scfg.gridmap.add("/O=DemoGrid/CN=bob", "alice-guest");
  scfg.accounts.add(core::Account("alice", 2001, 2001));
  scfg.accounts.add(core::Account("alice-guest", 2002, 2001));  // same group
  scfg.kernel_nfs = net::Address("fileserver", 2049);
  auto server_proxy =
      std::make_shared<core::ServerProxy>(fileserver, scfg, fs, Rng(8));
  server_proxy->start(3049);

  auto alice_proxy = make_session(compute, 2049, alice, ca.root(), Rng(9));
  auto bob_proxy = make_session(compute, 2050, bob, ca.root(), Rng(10),
                                /*write_back=*/false);
  auto mallory_proxy =
      make_session(compute, 2051, mallory, ca.root(), Rng(11));

  eng.run_task(scenario(eng, compute, fs, *server_proxy, *alice_proxy));

  // --- mallory's session cannot even complete the handshake ---
  eng.run_task([](net::Host& compute) -> sim::Task<void> {
    try {
      net::Address mallory_proxy_addr("compute", 2051);
      rpc::AuthSys job(1000, 1000, "compute");
      auto mp = co_await nfs::MountPoint::mount(compute, mallory_proxy_addr,
                                                "/GFS/alice", job);
      std::printf("[mallory] ERROR: mount should have failed!\n");
    } catch (const std::exception&) {
      std::printf("[mallory] rejected: certificate chains to an untrusted "
                  "CA, the SSL handshake fails\n");
    }
  }(compute));

  for (const auto& e : eng.errors()) {
    std::fprintf(stderr, "simulation error: %s\n", e.c_str());
  }
  std::printf("done (simulated %.3f s)\n", sim::to_seconds(eng.now()));
  return 0;
}

// Managed sessions: the FSS/DSS control plane (paper §3.2, §4.4).
//
// A grid user asks the Data Scheduler Service to create an SGFS session on
// her behalf: she signs the request with her certificate and delegates a
// proxy credential; the DSS authorizes her against its ACL database,
// generates the session gridmap, and drives the File System Services on
// both hosts — all with WS-Security-style signed envelopes.  The user then
// mounts the session the DSS created.
//
// Build & run:  ./build/examples/managed_session
#include <cstdio>

#include "nfs/kernel_nfs.hpp"
#include "nfs/nfs3_client.hpp"
#include "services/services.hpp"

using namespace sgfs;

int main() {
  sim::Engine eng;
  net::Network net(eng);
  net::Host& compute = net.add_host("compute");
  net::Host& fileserver = net.add_host("fileserver");
  net::Host& middleware = net.add_host("middleware");
  net.set_default_link(net::LinkParams::wan(20 * sim::kMillisecond));

  Rng rng(99);
  crypto::CertificateAuthority ca(
      rng, crypto::DistinguishedName("Grid", "RootCA"), 0, 1ll << 40);
  crypto::Credential alice = ca.issue(
      rng, crypto::DistinguishedName("UFL", "alice"),
      crypto::CertType::kIdentity, 0, 1ll << 40);
  crypto::Credential dss_cred = ca.issue(
      rng, crypto::DistinguishedName("Grid", "dss.middleware"),
      crypto::CertType::kHost, 0, 1ll << 40);
  crypto::Credential fss_server_cred = ca.issue(
      rng, crypto::DistinguishedName("Grid", "fss.fileserver"),
      crypto::CertType::kHost, 0, 1ll << 40);
  crypto::Credential fss_client_cred = ca.issue(
      rng, crypto::DistinguishedName("Grid", "fss.compute"),
      crypto::CertType::kHost, 0, 1ll << 40);

  // File server with the kernel NFS export.
  auto fs = std::make_shared<vfs::FileSystem>();
  fs->chown(fs->mkdir_p(vfs::Cred(0, 0), "/GFS/alice", 0755).value, 2001, 2001);
  fs->write_file(vfs::Cred(2001, 2001), "/GFS/alice/input.dat",
                 to_bytes("input data set"));
  const nfs::KernelNfs kernel(fileserver, fs, {"fileserver"});

  // FSSs on both hosts; only the DSS identity may control them.
  std::vector<crypto::Certificate> trusted = {ca.root()};
  std::vector<std::string> controllers = {"/O=Grid/CN=dss.middleware"};
  auto fss_server = std::make_shared<services::FileSystemService>(
      fileserver, fss_server_cred, trusted, controllers, fs,
      net::Address("fileserver", 2049), Rng(1));
  fss_server->start(6000);
  auto fss_client = std::make_shared<services::FileSystemService>(
      compute, fss_client_cred, trusted, controllers, nullptr,
      net::Address(), Rng(2));
  fss_client->start(6000);

  // The DSS with its per-filesystem ACL database.
  auto dss = std::make_shared<services::DataSchedulerService>(
      middleware, dss_cred, trusted, Rng(3));
  dss->register_filesystem("/GFS/alice", net::Address("fileserver", 6000),
                           "alice", 2001, 2001);
  dss->grant("/GFS/alice", "/O=UFL/CN=alice");
  dss->start(7000);

  eng.run_task([](sim::Engine& eng, net::Host& compute,
                  crypto::Credential alice,
                  std::vector<crypto::Certificate> trusted)
                   -> sim::Task<void> {
    services::DssClient dss_client(compute, net::Address("middleware", 7000),
                                   alice, trusted, Rng(4));
    core::CacheConfig cache;
    cache.write_back = true;
    std::printf("[alice] requesting a session from the DSS (signed envelope "
                "+ delegated proxy credential)...\n");
    auto session = co_await dss_client.create_session(
        "/GFS/alice", "compute", net::Address("compute", 6000),
        crypto::Cipher::kAes256Cbc, crypto::MacAlgo::kHmacSha1, cache);
    std::printf("[dss]   session created: client proxy at %s:%u\n",
                session.client_host.c_str(), session.client_proxy_port);

    net::Address proxy(session.client_host, session.client_proxy_port);
    rpc::AuthSys job(1000, 1000, "compute");
    auto mp = co_await nfs::MountPoint::mount(compute, proxy, "/GFS/alice",
                                              job);
    int fd = co_await mp->open("input.dat", nfs::kRdOnly);
    Buffer buf(64);
    size_t n = co_await mp->read(fd, buf);
    co_await mp->close(fd);
    std::printf("[alice] mounted the managed session and read input.dat: "
                "\"%s\"\n",
                sgfs::to_string(ByteView(buf.data(), n)).c_str());

    // Fine-grained ACL management through the services (paper §4.4).
    core::Acl acl;
    acl.entries["/O=UFL/CN=alice"] = 0x3f;
    bool ok = co_await dss_client.put_file_acl("/GFS/alice", "input.dat",
                                               acl);
    std::printf("[alice] installed a per-file ACL via DSS -> server FSS: "
                "%s\n", ok ? "ok" : "failed");
    std::printf("done (simulated %.3f s)\n", sim::to_seconds(eng.now()));
  }(eng, compute, alice, trusted));

  for (const auto& e : eng.errors()) {
    std::fprintf(stderr, "simulation error: %s\n", e.c_str());
  }
  return eng.errors().empty() ? 0 : 1;
}

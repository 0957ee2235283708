// Quickstart: stand up a complete SGFS deployment in a simulated grid and
// read/write files through it.
//
//   grid CA ─ issues certificates
//   fileserver: kernel NFS server (exports /GFS to localhost)
//               + SGFS server proxy (SSL, gridmap, ACLs) on port 3049
//   compute:    SGFS client proxy (disk cache) on port 2049
//               + unmodified kernel NFS client mounting through it
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "nfs/kernel_nfs.hpp"
#include "nfs/nfs3_client.hpp"
#include "sgfs/client_proxy.hpp"
#include "sgfs/server_proxy.hpp"

using namespace sgfs;

int main() {
  sim::Engine eng;
  net::Network net(eng);
  net::Host& compute = net.add_host("compute");
  net::Host& fileserver = net.add_host("fileserver");
  // A wide-area link between the sites: 40 ms RTT.
  net.set_link("compute", "fileserver",
               net::LinkParams::wan(40 * sim::kMillisecond));

  // --- grid PKI: a CA, a user, and the file server's host certificate ---
  Rng rng(2026);
  crypto::CertificateAuthority ca(
      rng, crypto::DistinguishedName("ExampleGrid", "RootCA"), 0, 1ll << 40);
  crypto::Credential alice = ca.issue(
      rng, crypto::DistinguishedName("UFL", "alice"),
      crypto::CertType::kIdentity, 0, 1ll << 40);
  crypto::Credential server_cert = ca.issue(
      rng, crypto::DistinguishedName("UFL", "fileserver"),
      crypto::CertType::kHost, 0, 1ll << 40);

  // --- file server: VFS + kernel NFS server, exported to localhost only ---
  auto fs = std::make_shared<vfs::FileSystem>();
  fs->chown(fs->mkdir_p(vfs::Cred(0, 0), "/GFS/alice", 0755).value, 2001, 2001);

  const nfs::KernelNfs kernel(fileserver, fs, {"fileserver"});

  // --- SGFS server-side proxy: SSL termination + gridmap + ACLs ---
  core::ServerProxyConfig scfg;
  scfg.security.credential = server_cert;
  scfg.security.trusted = {ca.root()};
  scfg.gridmap.add("/O=UFL/CN=alice", "alice");
  scfg.accounts.add(core::Account("alice", 2001, 2001));
  scfg.kernel_nfs = net::Address("fileserver", 2049);
  auto server_proxy =
      std::make_shared<core::ServerProxy>(fileserver, scfg, fs, Rng(1));
  server_proxy->start(3049);

  // --- SGFS client-side proxy: authenticates as alice, caches on disk ---
  core::ClientProxyConfig ccfg;
  ccfg.security.credential = alice;
  ccfg.security.trusted = {ca.root()};
  ccfg.security.cipher = crypto::Cipher::kAes256Cbc;
  ccfg.security.mac = crypto::MacAlgo::kHmacSha1;
  ccfg.server_proxy = net::Address("fileserver", 3049);
  auto client_proxy =
      std::make_shared<core::ClientProxy>(compute, ccfg, Rng(2));
  client_proxy->start(2049);

  // --- the application: plain POSIX I/O through the kernel NFS client ---
  eng.run_task([](sim::Engine& eng, net::Host& compute,
                  std::shared_ptr<core::ClientProxy> proxy,
                  std::shared_ptr<vfs::FileSystem> fs) -> sim::Task<void> {
    net::Address local_proxy("compute", 2049);
    rpc::AuthSys job_account(1000, 1000, "compute");
    auto mp = co_await nfs::MountPoint::mount(compute, local_proxy,
                                              "/GFS/alice", job_account);
    std::printf("mounted /GFS/alice through the SGFS session (AES-256-CBC + "
                "HMAC-SHA1)\n");

    int fd = co_await mp->open("hello.txt", nfs::kWrOnly | nfs::kCreate);
    Buffer msg = to_bytes("hello from the grid!");
    co_await mp->write(fd, msg);
    co_await mp->close(fd);
    std::printf("wrote hello.txt (%zu bytes) — absorbed by the proxy disk "
                "cache\n", msg.size());

    co_await proxy->flush();
    std::printf("session flush pushed %llu bytes to the server\n",
                static_cast<unsigned long long>(proxy->flushed_bytes()));

    auto content = fs->read_file(vfs::Cred(0, 0), "/GFS/alice/hello.txt");
    std::printf("server sees: \"%s\" (owner uid %u — identity-mapped from "
                "the job account)\n",
                sgfs::to_string(content.value).c_str(),
                fs->getattr(fs->resolve(vfs::Cred(0, 0),
                                        "/GFS/alice/hello.txt").value)
                    .value.uid);

    int fd2 = co_await mp->open("hello.txt", nfs::kRdOnly);
    Buffer back(64);
    size_t n = co_await mp->read(fd2, back);
    co_await mp->close(fd2);
    std::printf("read back: \"%s\"\n",
                sgfs::to_string(ByteView(back.data(), n)).c_str());
    std::printf("simulated time elapsed: %.3f s\n",
                sim::to_seconds(eng.now()));
  }(eng, compute, client_proxy, fs));

  for (const auto& e : eng.errors()) {
    std::fprintf(stderr, "simulation error: %s\n", e.c_str());
  }
  return eng.errors().empty() ? 0 : 1;
}

// End-to-end SGFS tests: application -> kernel NFS client -> client proxy
// (disk cache) -> SSL -> server proxy (gridmap/ACL) -> kernel NFS server ->
// VFS.  This is the paper's Figure 1/3 deployment in miniature.
#include <gtest/gtest.h>

#include "nfs/kernel_nfs.hpp"
#include "nfs/nfs3_client.hpp"
#include "obs/metrics.hpp"
#include "sgfs/client_proxy.hpp"
#include "sgfs/server_proxy.hpp"

namespace sgfs::core {
namespace {

using namespace sgfs::sim::literals;
using sim::Engine;
using sim::Task;

struct Pki {
  Rng rng{700};
  crypto::CertificateAuthority ca{
      rng, crypto::DistinguishedName("Grid", "RootCA"), 0, 10000000};
  crypto::Credential alice{
      ca.issue(rng, crypto::DistinguishedName("UFL", "alice"),
               crypto::CertType::kIdentity, 0, 5000000)};
  crypto::Credential bob{
      ca.issue(rng, crypto::DistinguishedName("UFL", "bob"),
               crypto::CertType::kIdentity, 0, 5000000)};
  crypto::Credential fileserver{
      ca.issue(rng, crypto::DistinguishedName("UFL", "fileserver"),
               crypto::CertType::kHost, 0, 5000000)};
};

Pki& pki() {
  static Pki p;
  return p;
}

struct Grid {
  Engine eng;
  net::Network net{eng};
  net::Host* compute;
  net::Host* fileserver;
  std::shared_ptr<vfs::FileSystem> fs;
  nfs::KernelNfs kernel;
  std::shared_ptr<ServerProxy> server_proxy;
  std::shared_ptr<ClientProxy> client_proxy;

  static constexpr uint32_t kAliceUid = 2001;

  explicit Grid(const crypto::Credential& user_cred,
                CacheConfig cache = CacheConfig(),
                UnmappedPolicy unmapped = UnmappedPolicy::kDeny,
                sim::SimDur renegotiate = 0, int streams = 1) {
    compute = &net.add_host("compute");
    fileserver = &net.add_host("fileserver");

    // Kernel NFS server exporting /GFS to localhost only (Figure 1).
    fs = std::make_shared<vfs::FileSystem>();
    fs->chown(fs->mkdir_p(vfs::Cred(0, 0), "/GFS/alice", 0755).value,
              kAliceUid, kAliceUid);
    kernel = nfs::KernelNfs(*fileserver, fs, {"fileserver"});

    // Server-side proxy on the file server.
    ServerProxyConfig scfg;
    scfg.security.credential = pki().fileserver;
    scfg.security.trusted = {pki().ca.root()};
    scfg.gridmap.add("/O=UFL/CN=alice", "alice");
    scfg.accounts.add(Account("alice", kAliceUid, kAliceUid));
    scfg.accounts.add(Account("nobody", 65534, 65534));
    scfg.unmapped = unmapped;
    // A stream pool's sibling streams resume the primary's session.
    scfg.session_resumption = streams > 1;
    scfg.kernel_nfs = net::Address("fileserver", 2049);
    server_proxy =
        std::make_shared<ServerProxy>(*fileserver, scfg, fs, Rng(701));
    server_proxy->start(3049);

    // Client-side proxy on the compute host.
    ClientProxyConfig ccfg;
    ccfg.security.credential = user_cred;
    ccfg.security.trusted = {pki().ca.root()};
    ccfg.security.renegotiate_interval = renegotiate;
    ccfg.server_proxy = net::Address("fileserver", 3049);
    ccfg.cache = cache;
    ccfg.pool.streams = streams;
    client_proxy = std::make_shared<ClientProxy>(*compute, ccfg, Rng(702));
    client_proxy->start(2049);
  }

  sim::Task<std::shared_ptr<nfs::MountPoint>> mount_session() {
    net::Address local_proxy("compute", 2049);
    rpc::AuthSys job_account(1000, 1000, "compute");
    co_return co_await nfs::MountPoint::mount(*compute, local_proxy,
                                              "/GFS/alice", job_account);
  }
};

TEST(Sgfs, EndToEndReadWrite) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("results.dat", nfs::kWrOnly | nfs::kCreate);
    Buffer payload = to_bytes("grid job output");
    co_await mp->write(fd, payload);
    co_await mp->close(fd);
    co_await grid.client_proxy->flush();

    // The file landed on the server, owned by the *mapped* account — not
    // the job account uid 1000 (identity mapping, §4.3).
    vfs::Cred root(0, 0);
    auto id = grid.fs->resolve(root, "/GFS/alice/results.dat");
    EXPECT_TRUE(id.ok());
    auto attrs = grid.fs->getattr(id.value);
    EXPECT_EQ(attrs.value.uid, Grid::kAliceUid);
    auto content = grid.fs->read_file(root, "/GFS/alice/results.dat");
    EXPECT_EQ(content.value, payload);

    int fd2 = co_await mp->open("results.dat", nfs::kRdOnly);
    Buffer back(payload.size());
    co_await mp->read(fd2, back);
    EXPECT_EQ(back, payload);
    co_await mp->close(fd2);
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(Sgfs, DirectKernelMountRefusedFromRemoteHost) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    net::Address kernel("fileserver", 2049);
    rpc::AuthSys auth(1000, 1000);
    bool refused = false;
    try {
      auto mp = co_await nfs::MountPoint::mount(*grid.compute, kernel,
                                                "/GFS/alice", auth);
    } catch (const nfs::FsError& e) {
      refused = e.status() == nfs::Status::kAcces;
    }
    EXPECT_TRUE(refused);  // kernel exports to localhost only
  }(grid));
}

TEST(Sgfs, UnmappedUserDenied) {
  Grid grid(pki().bob);  // bob is not in the gridmap
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    bool denied = false;
    try {
      auto mp = co_await grid.mount_session();
    } catch (const std::exception&) {
      denied = true;
    }
    EXPECT_TRUE(denied);
    EXPECT_GT(grid.server_proxy->denied(), 0u);
  }(grid));
}

TEST(Sgfs, UnmappedUserAnonymousPolicy) {
  Grid grid(pki().bob, CacheConfig(), UnmappedPolicy::kAnonymous);
  // Make a world-readable file.
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/public.txt",
                      to_bytes("world readable"), 0644);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    // Anonymous can read public files...
    int fd = co_await mp->open("public.txt", nfs::kRdOnly);
    Buffer buf(32);
    size_t n = co_await mp->read(fd, buf);
    EXPECT_EQ(sgfs::to_string(ByteView(buf.data(), n)), "world readable");
    co_await mp->close(fd);
    // ...but cannot create files in alice's directory.
    bool denied = false;
    try {
      int fd2 = co_await mp->open("mine.txt", nfs::kWrOnly | nfs::kCreate);
      co_await mp->close(fd2);
    } catch (const nfs::FsError& e) {
      denied = e.status() == nfs::Status::kAcces;
    }
    EXPECT_TRUE(denied);
  }(grid));
}

TEST(Sgfs, ProxyCertificateDelegationWorks) {
  Rng rng(703);
  crypto::Credential proxy_cred = issue_proxy(rng, pki().alice, 0, 4000000);
  Grid grid(proxy_cred);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("via-proxy.txt", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, to_bytes("delegated"));
    co_await mp->close(fd);
    co_await grid.client_proxy->flush();
    auto attrs = co_await mp->stat("via-proxy.txt");
    EXPECT_EQ(attrs.uid, Grid::kAliceUid);  // proxy unwraps to alice
  }(grid));
}

TEST(Sgfs, FineGrainedAclEnforced) {
  // Write-through session: enforcement is visible immediately (a write-back
  // session would only surface the denial at flush time).
  CacheConfig wt;
  wt.write_back = false;
  Grid grid(pki().alice, wt);
  // Root drops a read-only ACL on a file in alice's tree.
  vfs::Cred root(0, 0);
  grid.fs->write_file(root, "/GFS/alice/protected.dat",
                      to_bytes("look but don't touch"), 0666);
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = vfs::kAccessRead | vfs::kAccessLookup;
  auto dir = grid.fs->resolve(root, "/GFS/alice");
  grid.server_proxy->acl_store()->put_acl(dir.value, "protected.dat", acl);

  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    // ACCESS reports read-only (the proxy's ACL decision).
    uint32_t bits = co_await mp->access(
        "protected.dat", vfs::kAccessRead | vfs::kAccessModify);
    EXPECT_EQ(bits, vfs::kAccessRead);
    // Reads succeed.
    int fd = co_await mp->open("protected.dat", nfs::kRdOnly);
    Buffer buf(64);
    size_t n = co_await mp->read(fd, buf);
    EXPECT_GT(n, 0u);
    co_await mp->close(fd);
    // Direct writes are rejected by the proxy even though the kernel mode
    // bits (0666) would allow them.
    bool denied = false;
    try {
      nfs::Nfs3ClientConfig cfg;
      cfg.write_behind = false;  // force the WRITE through immediately
      net::Address local_proxy("compute", 2049);
      rpc::AuthSys job(1000, 1000, "compute");
      auto mp2 = co_await nfs::MountPoint::mount(*grid.compute, local_proxy,
                                                 "/GFS/alice", job, cfg);
      int wfd = co_await mp2->open("protected.dat", nfs::kWrOnly);
      co_await mp2->write(wfd, to_bytes("overwrite!"));
      co_await mp2->close(wfd);
    } catch (const nfs::FsError& e) {
      denied = e.status() == nfs::Status::kAcces;
    }
    EXPECT_TRUE(denied);
    EXPECT_GT(grid.server_proxy->acl_decisions(), 0u);
  }(grid));
}

TEST(Sgfs, AclInheritanceFromParentDirectory) {
  Grid grid(pki().alice);
  vfs::Cred root(0, 0);
  grid.fs->mkdir_p(root, "/GFS/alice/shared", 0777);
  grid.fs->write_file(root, "/GFS/alice/shared/inner.txt",
                      to_bytes("inherited"), 0666);
  // ACL on the *directory* (stored in its parent): read-only for alice.
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = vfs::kAccessRead | vfs::kAccessLookup;
  auto parent = grid.fs->resolve(root, "/GFS/alice");
  grid.server_proxy->acl_store()->put_acl(parent.value, "shared", acl);

  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    uint32_t bits = co_await mp->access(
        "shared/inner.txt", vfs::kAccessRead | vfs::kAccessModify);
    EXPECT_EQ(bits, vfs::kAccessRead);  // inherited from parent's ACL
  }(grid));
}

TEST(Sgfs, AclFilesHiddenFromRemote) {
  Grid grid(pki().alice);
  vfs::Cred root(0, 0);
  grid.fs->write_file(root, "/GFS/alice/f.txt", to_bytes("x"), 0666);
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = 0x3f;
  auto dir = grid.fs->resolve(root, "/GFS/alice");
  grid.server_proxy->acl_store()->put_acl(dir.value, "f.txt", acl);

  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    auto entries = co_await mp->readdir("");
    for (const auto& e : entries) {
      EXPECT_FALSE(is_acl_name(e.name)) << e.name;
    }
    bool hidden = false;
    try {
      (void)co_await mp->stat(".f.txt.acl");
    } catch (const nfs::FsError& e) {
      hidden = e.status() == nfs::Status::kNoEnt;
    }
    EXPECT_TRUE(hidden);
  }(grid));
}

TEST(Sgfs, WriteBackAbsorbsAndFlushPropagates) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("big.bin", nfs::kWrOnly | nfs::kCreate);
    Rng rng(9);
    Buffer payload = rng.bytes(512 * 1024);
    co_await mp->write(fd, payload);
    co_await mp->close(fd);

    EXPECT_GT(grid.client_proxy->absorbed_writes(), 0u);
    EXPECT_GT(grid.client_proxy->dirty_bytes(), 0u);
    // The server does not have the data yet.
    vfs::Cred root(0, 0);
    auto before = grid.fs->read_file(root, "/GFS/alice/big.bin");
    EXPECT_LT(before.value.size(), payload.size());

    co_await grid.client_proxy->flush();
    EXPECT_EQ(grid.client_proxy->dirty_bytes(), 0u);
    auto after = grid.fs->read_file(root, "/GFS/alice/big.bin");
    EXPECT_EQ(after.value, payload);
  }(grid));
}

TEST(Sgfs, RemoveCancelsPendingWriteback) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("temp.bin", nfs::kWrOnly | nfs::kCreate);
    Buffer payload(256 * 1024, 0x5A);
    co_await mp->write(fd, payload);
    co_await mp->close(fd);
    const uint64_t dirty = grid.client_proxy->dirty_bytes();
    EXPECT_GT(dirty, 0u);

    co_await mp->unlink("temp.bin");
    // The temporary data never crosses the WAN (paper §6.3.2).
    EXPECT_EQ(grid.client_proxy->dirty_bytes(), 0u);
    EXPECT_GE(grid.client_proxy->cancelled_writeback_bytes(),
              payload.size());
    const uint64_t flushed_before = grid.client_proxy->flushed_bytes();
    co_await grid.client_proxy->flush();
    EXPECT_EQ(grid.client_proxy->flushed_bytes(), flushed_before);
  }(grid));
}

// Writes `bytes` of `fill` to a new file; the data stays dirty in the proxy.
Task<void> write_dirty(nfs::MountPoint& mp, const std::string& name,
                       size_t bytes, uint8_t fill) {
  int fd = co_await mp.open(name, nfs::kWrOnly | nfs::kCreate);
  co_await mp.write(fd, Buffer(bytes, fill));
  co_await mp.close(fd);
}

Buffer server_file(Grid& grid, const std::string& name) {
  return grid.fs->read_file(vfs::Cred(0, 0), "/GFS/alice/" + name).value;
}

// The vfs frees a file only with its last link: unlinking one of two hard
// links must keep the file's unflushed data.  Without an attribute cache
// the proxy cannot count links, so it keeps the write-backs.
TEST(Sgfs, UnlinkOfHardLinkKeepsPendingWriteback) {
  for (bool cache_attrs : {true, false}) {
    SCOPED_TRACE(cache_attrs ? "attribute cache on" : "attribute cache off");
    CacheConfig cache;
    cache.cache_attrs = cache_attrs;
    Grid grid(pki().alice, cache);
    grid.eng.run_task([](Grid& grid, bool counted) -> Task<void> {
      auto mp = co_await grid.mount_session();
      co_await write_dirty(*mp, "a", 64 * 1024, 0x61);
      co_await mp->link("a", "b");
      co_await mp->unlink("a");
      EXPECT_EQ(grid.client_proxy->cancelled_writeback_bytes(), 0u);
      co_await grid.client_proxy->flush();
      EXPECT_EQ(server_file(grid, "b"), Buffer(64 * 1024, 0x61));
      if (!counted) co_return;

      // Unlinking the last name does cancel.
      co_await write_dirty(*mp, "c", 32 * 1024, 0x63);
      co_await mp->link("c", "d");
      co_await mp->unlink("c");
      co_await mp->unlink("d");
      EXPECT_EQ(grid.client_proxy->cancelled_writeback_bytes(), 32u * 1024);
      EXPECT_EQ(grid.client_proxy->dirty_bytes(), 0u);
    }(grid, cache_attrs));
    EXPECT_TRUE(grid.eng.errors().empty());
  }
}

// A WRITE absorbed while the eviction write-back of the same block is in
// flight stores the block again: the write-back's completion must leave it
// dirty, or eviction erases the only copy of the newer bytes.
TEST(Sgfs, WriteAbsorbedDuringEvictionWritebackIsKept) {
  CacheConfig cache;
  cache.capacity_bytes = 2 * cache.block_size;
  Grid grid(pki().alice, cache);
  // A WAN round trip keeps the write-back in flight long enough for the
  // second mount's WRITE to land in the middle of it.
  grid.net.set_link("compute", "fileserver", net::LinkParams::wan(40_ms));
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    const size_t bs = 32 * 1024;
    auto a = co_await grid.mount_session();
    auto b = co_await grid.mount_session();
    co_await write_dirty(*a, "f", 2 * bs, 0x01);  // blocks 0 and 1
    int bfd = co_await b->open("f", nfs::kWrOnly);

    // The second mount overwrites block 0 once its write-back has begun.
    const uint64_t before = grid.client_proxy->forwarded();
    grid.eng.spawn([](Grid& grid, nfs::MountPoint& b, int fd,
                      uint64_t before, size_t bs) -> Task<void> {
      while (grid.client_proxy->forwarded() == before) {
        if (grid.eng.now() > 60_s) co_return;  // never began: test fails
        co_await grid.eng.sleep(1_ms);
      }
      EXPECT_EQ(grid.client_proxy->flushed_bytes(), 0u) << "not in flight";
      co_await b.pwrite(fd, 0, Buffer(bs, 0xAA));
      co_await b.close(fd);
    }(grid, *b, bfd, before, bs));

    // Block 2 overflows the cache: block 0 is the LRU victim.
    int afd = co_await a->open("f", nfs::kWrOnly);
    co_await a->pwrite(afd, 2 * bs, Buffer(bs, 0x02));
    co_await a->close(afd);
    co_await grid.eng.sleep(1_s);
    co_await grid.client_proxy->flush();

    EXPECT_EQ(grid.client_proxy->dirty_bytes(), 0u);
    Buffer want(bs, 0xAA);
    want.resize(2 * bs, 0x01);
    want.resize(3 * bs, 0x02);
    EXPECT_EQ(server_file(grid, "f"), want);
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

// The striped flush's completion keeps the same rule: a block stored again
// while its batch was in flight stays dirty and goes out in the serial
// pass that follows the pool's batches.
TEST(Sgfs, BlockRedirtiedDuringStripedFlushGoesOutSerially) {
  Grid grid(pki().alice, CacheConfig(), UnmappedPolicy::kDeny, 0,
            /*streams=*/4);
  grid.net.set_link("compute", "fileserver", net::LinkParams::wan(40_ms));
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    const size_t bs = 32 * 1024;
    auto a = co_await grid.mount_session();
    auto b = co_await grid.mount_session();
    co_await write_dirty(*a, "f", 4 * bs, 0x01);
    int bfd = co_await b->open("f", nfs::kWrOnly);

    auto& metrics = grid.eng.metrics();
    grid.eng.spawn([](Grid& grid, obs::MetricsRegistry& metrics,
                      nfs::MountPoint& b, int fd, size_t bs) -> Task<void> {
      while (metrics.counter_value("sgfs.pool.batches") == 0) {
        if (grid.eng.now() > 60_s) co_return;  // never began: test fails
        co_await grid.eng.sleep(1_ms);
      }
      EXPECT_EQ(grid.client_proxy->flushed_bytes(), 0u) << "not in flight";
      co_await b.pwrite(fd, bs, Buffer(bs, 0xAA));
      co_await b.close(fd);
    }(grid, metrics, *b, bfd, bs));

    co_await grid.client_proxy->flush();
    EXPECT_EQ(metrics.counter_value("sgfs.pool.batch_bytes"), 4u * bs);
    // Four blocks in the batch, then block 1 again on its own.
    EXPECT_EQ(grid.client_proxy->flushed_bytes(), 5u * bs);
    EXPECT_EQ(grid.client_proxy->dirty_bytes(), 0u);
    Buffer want(4 * bs, 0x01);
    std::fill(want.begin() + bs, want.begin() + 2 * bs, 0xAA);
    EXPECT_EQ(server_file(grid, "f"), want);
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

// A dirty block is the only up-to-date copy of its bytes, so a READ of it
// is served from the proxy cache even when no attributes are cached; the
// origin's older bytes must neither reach the reader nor overlay the block.
TEST(Sgfs, DirtyBlockReadWithoutAttributeCache) {
  for (bool cache_attrs : {true, false}) {
    SCOPED_TRACE(cache_attrs ? "attribute cache on" : "attribute cache off");
    CacheConfig cache;
    cache.cache_attrs = cache_attrs;
    Grid grid(pki().alice, cache);
    grid.eng.run_task([](Grid& grid) -> Task<void> {
      auto mp = co_await grid.mount_session();
      co_await write_dirty(*mp, "f", 32 * 1024, 0x11);
      co_await grid.client_proxy->flush();
      co_await write_dirty(*mp, "f", 32 * 1024, 0xAA);
      mp->drop_caches();
      co_await grid.eng.sleep(60_s);  // past the kernel's attribute cache
      Buffer got(32 * 1024);
      int fd = co_await mp->open("f", nfs::kRdOnly);
      EXPECT_EQ(co_await mp->read(fd, got), got.size());
      co_await mp->close(fd);
      EXPECT_EQ(got, Buffer(32 * 1024, 0xAA));
      co_await grid.client_proxy->flush();
      EXPECT_EQ(server_file(grid, "f"), Buffer(32 * 1024, 0xAA));
    }(grid));
    EXPECT_TRUE(grid.eng.errors().empty());
  }
}

// A write-back WRITE the file server refuses (EACCES: alice writes root's
// 0644 file, which the proxy absorbed and acknowledged) loses those bytes.
// The loss must show: they are not counted as flushed but as
// sgfs.client_proxy.writeback_error_bytes, a counter that exists only once
// an error happened.  The block is still marked clean.
TEST(Sgfs, RefusedWritebackIsCountedAsLost) {
  Grid grid(pki().alice);
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/root.txt",
                      Buffer(32 * 1024, 0x11), 0644);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    const std::string lost = "sgfs.client_proxy.writeback_error_bytes";
    auto mp = co_await grid.mount_session();
    co_await write_dirty(*mp, "root.txt", 32 * 1024, 0xAA);
    EXPECT_EQ(grid.eng.metrics().counters().count(lost), 0u);
    co_await grid.client_proxy->flush();
    EXPECT_EQ(server_file(grid, "root.txt"), Buffer(32 * 1024, 0x11));
    EXPECT_EQ(grid.eng.metrics().counter_value(lost), 32u * 1024);
    EXPECT_EQ(grid.client_proxy->flushed_bytes(), 0u);
    EXPECT_EQ(grid.client_proxy->dirty_bytes(), 0u);
    // The refused bytes are not served from the proxy cache either.
    mp->drop_caches();
    Buffer got(32 * 1024);
    int fd = co_await mp->open("root.txt", nfs::kRdOnly);
    EXPECT_EQ(co_await mp->read(fd, got), got.size());
    co_await mp->close(fd);
    EXPECT_EQ(got, Buffer(32 * 1024, 0x11));
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

// RENAME over an existing file unlinks it: its pending write-back is
// cancelled, like REMOVE's, and only the moved file's data crosses the WAN.
TEST(Sgfs, RenameOverFileCancelsReplacedWriteback) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    co_await write_dirty(*mp, "a", 64 * 1024, 0x61);
    co_await write_dirty(*mp, "b", 32 * 1024, 0x62);
    co_await mp->rename("b", "a");
    EXPECT_EQ(grid.client_proxy->cancelled_writeback_bytes(), 64u * 1024);
    co_await grid.client_proxy->flush();
    EXPECT_EQ(grid.client_proxy->flushed_bytes(), 32u * 1024);
    EXPECT_EQ(server_file(grid, "a"), Buffer(32 * 1024, 0x62));
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

// A rename onto another link of the same file changes nothing in the vfs,
// so it must cancel nothing either.
TEST(Sgfs, RenameOntoOwnHardLinkCancelsNothing) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    co_await write_dirty(*mp, "a", 64 * 1024, 0x61);
    co_await mp->link("a", "b");
    co_await mp->rename("b", "a");
    EXPECT_EQ(grid.client_proxy->cancelled_writeback_bytes(), 0u);
    co_await grid.client_proxy->flush();
    EXPECT_EQ(grid.client_proxy->flushed_bytes(), 64u * 1024);
    EXPECT_EQ(server_file(grid, "a"), Buffer(64 * 1024, 0x61));
    EXPECT_EQ(server_file(grid, "b"), Buffer(64 * 1024, 0x61));
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(Sgfs, ProxyCacheServesAfterKernelCacheDrop) {
  Grid grid(pki().alice);
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/data.bin",
                      Buffer(128 * 1024, 0x11), 0644);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    Buffer buf(128 * 1024);
    int fd = co_await mp->open("data.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);

    const uint64_t forwarded_before = grid.client_proxy->forwarded();
    mp->drop_caches();  // simulate kernel cache eviction / fresh process
    fd = co_await mp->open("data.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    // The re-read was served from the proxy's disk cache.
    EXPECT_GT(grid.client_proxy->absorbed_reads(), 0u);
    EXPECT_EQ(grid.client_proxy->forwarded(), forwarded_before);
  }(grid));
}

TEST(Sgfs, CacheDisabledForwardsEverything) {
  CacheConfig cache;
  cache.enabled = false;
  Grid grid(pki().alice, cache);
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/plain.bin",
                      Buffer(64 * 1024, 0x22), 0644);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    Buffer buf(64 * 1024);
    int fd = co_await mp->open("plain.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_EQ(grid.client_proxy->absorbed_reads(), 0u);
    EXPECT_GT(grid.client_proxy->forwarded(), 0u);
  }(grid));
}

TEST(Sgfs, PeriodicRenegotiationRefreshesKeys) {
  Grid grid(pki().alice, CacheConfig(), UnmappedPolicy::kDeny,
            /*renegotiate=*/30 * sim::kSecond);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    (void)co_await mp->stat("");
    EXPECT_EQ(grid.client_proxy->key_generation(), 1u);
    co_await grid.eng.sleep(95_s);  // three renegotiation periods
    EXPECT_GE(grid.client_proxy->key_generation(), 3u);
    // The session still works after renegotiations.
    int fd = co_await mp->open("after.txt", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, to_bytes("still alive"));
    co_await mp->close(fd);
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(Sgfs, ReloadSwitchesCipherSuite) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    (void)co_await mp->stat("");

    // Reconfigure the session to RC4 (paper §4.2 dynamic reconfiguration).
    ClientProxyConfig next;
    next.security.credential = pki().alice;
    next.security.trusted = {pki().ca.root()};
    next.security.cipher = crypto::Cipher::kRc4_128;
    next.server_proxy = net::Address("fileserver", 3049);
    grid.client_proxy->reload(next);

    // Server proxy must accept the new suite as well.
    ServerProxyConfig scfg;
    scfg.security.credential = pki().fileserver;
    scfg.security.trusted = {pki().ca.root()};
    scfg.security.cipher = crypto::Cipher::kRc4_128;
    scfg.gridmap.add("/O=UFL/CN=alice", "alice");
    scfg.accounts.add(Account("alice", Grid::kAliceUid, Grid::kAliceUid));
    scfg.kernel_nfs = net::Address("fileserver", 2049);
    grid.server_proxy->stop();
    grid.server_proxy = std::make_shared<ServerProxy>(
        *grid.fileserver, scfg, grid.fs, Rng(704));
    grid.server_proxy->start(3050);
    next.server_proxy = net::Address("fileserver", 3050);
    grid.client_proxy->reload(next);

    // New requests re-handshake under RC4 and succeed.
    int fd = co_await mp->open("rc4.txt", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, to_bytes("reconfigured"));
    co_await mp->close(fd);
    co_await grid.client_proxy->flush();
    auto content =
        grid.fs->read_file(vfs::Cred(0, 0), "/GFS/alice/rc4.txt");
    EXPECT_EQ(sgfs::to_string(content.value), "reconfigured");
  }(grid));
}

// ServerProxy::reload applies a new gridmap to live sessions at once: the
// session of a DN the reload drops fails closed on its next op (RpcAuthError
// at its client proxy, which then holds no cached plaintext), while the
// other session keeps working.
TEST(Sgfs, ServerReloadFailsDroppedSessionClosed) {
  Grid grid(pki().alice);
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/shared.bin",
                      Buffer(64 * 1024, 0x33), 0644);
  auto policy = [](bool with_bob) {
    ServerProxyConfig c;
    c.gridmap.add("/O=UFL/CN=alice", "alice");
    if (with_bob) c.gridmap.add("/O=UFL/CN=bob", "alice");
    c.accounts.add(Account("alice", Grid::kAliceUid, Grid::kAliceUid));
    c.accounts.add(Account("nobody", 65534, 65534));
    return c;
  };
  grid.server_proxy->reload(policy(true));

  // Bob's session runs from a second compute host.
  net::Host& compute2 = grid.net.add_host("compute2");
  ClientProxyConfig bcfg;
  bcfg.security.credential = pki().bob;
  bcfg.security.trusted = {pki().ca.root()};
  bcfg.server_proxy = net::Address("fileserver", 3049);
  auto bob = std::make_shared<ClientProxy>(compute2, bcfg, Rng(705));
  bob->start(2049);

  grid.eng.run_task([](Grid& grid, net::Host& compute2,
                       std::shared_ptr<ClientProxy> bob,
                       ServerProxyConfig without_bob) -> Task<void> {
    auto alice_mp = co_await grid.mount_session();
    auto bob_mp = co_await nfs::MountPoint::mount(
        compute2, net::Address("compute2", 2049), "/GFS/alice",
        rpc::AuthSys(1000, 1000, "compute2"));
    // Bob caches a clean file and holds an absorbed write.
    Buffer buf(64 * 1024);
    int fd = co_await bob_mp->open("shared.bin", nfs::kRdOnly);
    co_await bob_mp->read(fd, buf);
    co_await bob_mp->close(fd);
    fd = co_await bob_mp->open("bob.txt", nfs::kWrOnly | nfs::kCreate);
    co_await bob_mp->write(fd, to_bytes("bob's output"));
    co_await bob_mp->close(fd);
    EXPECT_GT(bob->resident_blocks(), 0u);
    EXPECT_GT(bob->dirty_bytes(), 0u);

    grid.server_proxy->reload(without_bob);

    bool denied = false;
    try {
      co_await bob->flush();
    } catch (const rpc::RpcAuthError&) {
      denied = true;
    }
    EXPECT_TRUE(denied);
    EXPECT_EQ(bob->resident_blocks(), 0u);
    EXPECT_EQ(bob->cache_bytes_used(), 0u);
    EXPECT_EQ(bob->dirty_bytes(), 0u);
    EXPECT_EQ(grid.eng.metrics().counter_value(
                  "sgfs.cache.revocation_purges"), 1u);

    // Alice's session is unaffected.
    fd = co_await alice_mp->open("alice.txt", nfs::kWrOnly | nfs::kCreate);
    co_await alice_mp->write(fd, to_bytes("alice's output"));
    co_await alice_mp->close(fd);
    co_await grid.client_proxy->flush();
    EXPECT_EQ(sgfs::to_string(server_file(grid, "alice.txt")),
              "alice's output");
    fd = co_await alice_mp->open("shared.bin", nfs::kRdOnly);
    const size_t got = co_await alice_mp->read(fd, buf);
    EXPECT_EQ(got, buf.size());
    co_await alice_mp->close(fd);
    EXPECT_EQ(buf, Buffer(64 * 1024, 0x33));
  }(grid, compute2, bob, policy(false)));
  EXPECT_TRUE(grid.eng.errors().empty());
}

// --- metrics-asserted behaviour -------------------------------------------------
//
// The same invariants the counters above pin down, restated against the
// engine-wide metrics registry the benches report from.

TEST(SgfsMetrics, SessionAbsorptionAndAclCountersRecorded) {
  Grid grid(pki().alice);
  vfs::Cred root(0, 0);
  grid.fs->write_file(root, "/GFS/alice/data.bin", Buffer(128 * 1024, 0x11),
                      0644);
  // Govern the file with a fine-grained ACL so reads exercise the server
  // proxy's ACL check path (ungoverned files skip it).
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = vfs::kAccessRead | vfs::kAccessLookup;
  auto dir = grid.fs->resolve(root, "/GFS/alice");
  grid.server_proxy->acl_store()->put_acl(dir.value, "data.bin", acl);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    Buffer buf(128 * 1024);
    int fd = co_await mp->open("data.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);

    auto& reg = grid.eng.metrics();
    // One secure session was established for this mount.
    EXPECT_EQ(reg.counter_value("sgfs.client_proxy.sessions"), 1u);
    const uint64_t forwarded =
        reg.counter_value("sgfs.client_proxy.forwarded");
    EXPECT_GT(forwarded, 0u);
    // Every forwarded request crossed the server proxy's ACL check.
    EXPECT_GT(reg.counter_value("sgfs.server_proxy.acl_checks"), 0u);
    EXPECT_GT(reg.counter_value("sgfs.server_proxy.forwarded"), 0u);
    EXPECT_EQ(reg.counter_value("sgfs.server_proxy.denied"), 0u);

    // Re-read after a kernel cache drop: served from the proxy disk cache —
    // absorbed counters grow, forwarded does not.
    mp->drop_caches();
    fd = co_await mp->open("data.bin", nfs::kRdOnly);
    co_await mp->read(fd, buf);
    co_await mp->close(fd);
    EXPECT_GT(reg.counter_value("sgfs.client_proxy.absorbed.reads"), 0u);
    EXPECT_EQ(reg.counter_value("sgfs.client_proxy.forwarded"), forwarded);
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

TEST(SgfsMetrics, SecureChannelTrafficRecorded) {
  Grid grid(pki().alice);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();
    int fd = co_await mp->open("crypto.bin", nfs::kWrOnly | nfs::kCreate);
    co_await mp->write(fd, Buffer(64 * 1024, 0x3C));
    co_await mp->close(fd);
    co_await grid.client_proxy->flush();
  }(grid));

  auto& reg = grid.eng.metrics();
  // Both endpoints of every SSL session count their handshake, so the
  // engine-wide total is even and at least one full session's worth.
  EXPECT_GE(reg.counter_value("crypto.handshakes"), 2u);
  EXPECT_EQ(reg.counter_value("crypto.handshakes") % 2, 0u);
  EXPECT_GT(reg.counter_value("crypto.records_sent"), 0u);
  EXPECT_EQ(reg.counter_value("crypto.records_sent"),
            reg.counter_value("crypto.records_recv"));
  // The ciphertext stream carries at least the 64 KiB of flushed payload.
  EXPECT_GT(reg.counter_value("crypto.bytes_sent"), 64u * 1024);
  EXPECT_EQ(reg.counter_value("crypto.mac_failures"), 0u);
  // Per-record cost histogram saw every record, on both sides.
  const obs::Histogram* h = reg.find_histogram("crypto.record_cost_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count(), reg.counter_value("crypto.records_sent"));
  EXPECT_GT(h->max(), 0);
  // The client proxy's flush accounted the session payload it pushed.
  EXPECT_GE(reg.counter_value("sgfs.client_proxy.flushed_bytes"),
            64u * 1024);
  EXPECT_TRUE(grid.eng.errors().empty());
}

// The zero-copy acceptance test: with the client proxy's cache disabled,
// READ and WRITE payloads cross BOTH proxies as shared segment chains.  The
// only counted copies on the whole path are the kernel client's own page
// cache fill / write-back snapshot (one payload each, fundamental), so the
// deliberate-copy delta must stay within one payload plus header noise —
// if either proxy duplicated the payload even once, the budget blows.
TEST(SgfsMetrics, ProxyForwardingAddsNoPayloadCopies) {
  CacheConfig cache;
  cache.enabled = false;
  Grid grid(pki().alice, cache);
  constexpr size_t kPayload = 256 * 1024;
  constexpr uint64_t kHeaderSlack = 32 * 1024;
  grid.fs->write_file(vfs::Cred(0, 0), "/GFS/alice/big.bin",
                      Buffer(kPayload, 0x5a), 0644);
  grid.eng.run_task([](Grid& grid) -> Task<void> {
    auto mp = co_await grid.mount_session();

    int fd = co_await mp->open("big.bin", nfs::kRdOnly);
    const BufStats before_read = buf_stats();
    Buffer buf(kPayload);
    co_await mp->read(fd, buf);
    const uint64_t read_copied =
        buf_stats().bytes_copied - before_read.bytes_copied;
    const uint64_t read_zerocopy =
        buf_stats().bytes_zerocopy - before_read.bytes_zerocopy;
    co_await mp->close(fd);
    EXPECT_EQ(buf, Buffer(kPayload, 0x5a));
    EXPECT_LE(read_copied, kPayload + kHeaderSlack);
    // The payload is handed off copy-free at several hops (encoder graft,
    // reply chain, proxy pass-through, decode slice), so the zero-copy
    // tally must dwarf the payload itself.
    EXPECT_GE(read_zerocopy, 2 * uint64_t{kPayload});

    int wfd = co_await mp->open("out.bin", nfs::kWrOnly | nfs::kCreate);
    const BufStats before_write = buf_stats();
    co_await mp->write(wfd, Buffer(kPayload, 0x33));
    co_await mp->close(wfd);
    co_await grid.client_proxy->flush();
    const uint64_t write_copied =
        buf_stats().bytes_copied - before_write.bytes_copied;
    const uint64_t write_zerocopy =
        buf_stats().bytes_zerocopy - before_write.bytes_zerocopy;
    EXPECT_LE(write_copied, kPayload + kHeaderSlack);
    EXPECT_GE(write_zerocopy, 2 * uint64_t{kPayload});
  }(grid));
  EXPECT_TRUE(grid.eng.errors().empty());
}

// --- unit-level ACL/gridmap tests -----------------------------------------------

TEST(GridMapTest, ParseAndLookup) {
  GridMap map = GridMap::parse(
      "# comment\n"
      "\"/O=UFL/CN=Ming Zhao\" ming\n"
      "\"/O=NCSA/CN=renato\" rfigueiredo\n");
  EXPECT_EQ(map.lookup("/O=UFL/CN=Ming Zhao"), "ming");
  EXPECT_EQ(map.lookup("/O=NCSA/CN=renato"), "rfigueiredo");
  EXPECT_EQ(map.lookup("/O=X/CN=y"), std::nullopt);
  EXPECT_EQ(map.size(), 2u);
}

TEST(GridMapTest, RoundTrip) {
  GridMap map;
  map.add("/O=UFL/CN=alice", "alice");
  GridMap back = GridMap::parse(map.to_string());
  EXPECT_EQ(back.lookup("/O=UFL/CN=alice"), "alice");
}

TEST(AclTest, ParseMasks) {
  Acl acl = Acl::parse(
      "/O=UFL/CN=alice 0x3f\n"
      "/O=UFL/CN=bob 0x03\n");
  EXPECT_EQ(acl.mask_for("/O=UFL/CN=alice"), 0x3fu);
  EXPECT_EQ(acl.mask_for("/O=UFL/CN=bob"), 0x03u);
  EXPECT_EQ(acl.mask_for("/O=UFL/CN=carol"), std::nullopt);
}

TEST(AclTest, RoundTrip) {
  Acl acl;
  acl.entries["/O=UFL/CN=alice"] = 0x1f;
  Acl back = Acl::parse(acl.to_string());
  EXPECT_EQ(back.mask_for("/O=UFL/CN=alice"), 0x1fu);
}

TEST(AclTest, AclNameHelpers) {
  EXPECT_EQ(acl_name_for("data.txt"), ".data.txt.acl");
  EXPECT_TRUE(is_acl_name(".data.txt.acl"));
  EXPECT_FALSE(is_acl_name("data.txt"));
  EXPECT_FALSE(is_acl_name(".acl"));
}

TEST(SessionConfigTest, RoundTripThroughText) {
  CacheConfig cache;
  cache.write_back = false;
  cache.capacity_bytes = 512ull << 20;
  cache.consistency = Consistency::kRevalidate;
  crypto::SecurityConfig security;
  security.cipher = crypto::Cipher::kRc4_128;
  security.renegotiate_interval = 3600 * sim::kSecond;

  std::string text = to_config_text(cache, security);
  CacheConfig cache2;
  crypto::SecurityConfig security2;
  apply_config_text(Config::parse(text), cache2, security2);
  EXPECT_EQ(security2.cipher, crypto::Cipher::kRc4_128);
  EXPECT_EQ(security2.renegotiate_interval, 3600 * sim::kSecond);
  EXPECT_FALSE(cache2.write_back);
  EXPECT_EQ(cache2.capacity_bytes, 512ull << 20);
  EXPECT_EQ(cache2.consistency, Consistency::kRevalidate);
}

}  // namespace
}  // namespace sgfs::core

// The file server's kernel NFS service as every topology stands it up
// (Figure 1): an Nfs3Server over the exported FileSystem, /GFS exported to
// a host set, and the NFSv3 and MOUNT programs registered on a started
// RpcServer.  Further programs (NFSv4) may be registered on `rpc` later.
#pragma once

#include <memory>
#include <set>
#include <string>

#include "nfs/nfs3_server.hpp"
#include "rpc/rpc_server.hpp"

namespace sgfs::nfs {

struct KernelNfs {
  std::shared_ptr<Nfs3Server> server;
  std::unique_ptr<rpc::RpcServer> rpc;

  KernelNfs() = default;
  /// `export_hosts` empty exports /GFS to any host.
  KernelNfs(net::Host& host, std::shared_ptr<vfs::FileSystem> fs,
            std::set<std::string> export_hosts, uint16_t port = 2049,
            ServerCostModel cost = ServerCostModel())
      : server(std::make_shared<Nfs3Server>(host, std::move(fs), 1, cost)),
        rpc(std::make_unique<rpc::RpcServer>(host, port)) {
    server->add_export(ExportEntry("/GFS", std::move(export_hosts)));
    rpc->register_program(kNfsProgram, kNfsVersion3, server);
    rpc->register_program(kMountProgram, kMountVersion3,
                          server->mount_program());
    rpc->start();
  }
};

}  // namespace sgfs::nfs

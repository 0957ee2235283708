// In-memory POSIX-style filesystem — the substrate under the kernel NFS
// server (the paper's exported /GFS/X tree).
//
// Synchronous by design: I/O *timing* (disk seeks, transfers) is charged by
// the NFS server layer against the host's disk resource; this module models
// semantics only — inodes, directories, permission bits, hard/symlinks,
// sparse files, rename, timestamps.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"

namespace sgfs::vfs {

using FileId = uint64_t;

enum class FileType : uint32_t { kRegular = 1, kDirectory = 2, kSymlink = 5 };

/// Subset of nfsstat3 that the VFS can produce.
enum class Status : uint32_t {
  kOk = 0,
  kPerm = 1,        // not owner
  kNoEnt = 2,
  kAcces = 13,
  kExist = 17,
  kNotDir = 20,
  kIsDir = 21,
  kInval = 22,
  kFBig = 27,
  kNoSpc = 28,
  kRoFs = 30,
  kNameTooLong = 63,
  kNotEmpty = 66,
  kStale = 70,
  // Protocol-only code (never produced by the VFS itself): RFC 1813
  // NFS3ERR_JUKEBOX — "try again later".  Overloaded servers and proxies
  // shedding load reply with it instead of queueing unboundedly; clients
  // retry after a delay without counting it as a failure.
  kJukebox = 10008,
};

const char* to_string(Status s);

struct Attributes {
  FileType type = FileType::kRegular;
  uint32_t mode = 0644;
  uint32_t nlink = 1;
  uint32_t uid = 0;
  uint32_t gid = 0;
  uint64_t size = 0;
  int64_t atime = 0;  // seconds
  int64_t mtime = 0;
  int64_t ctime = 0;
  FileId fileid = 0;
};

/// Caller credentials.  Non-aggregate (GCC 12 coroutine rule).
struct Cred {
  uint32_t uid = 0;
  uint32_t gid = 0;
  std::vector<uint32_t> gids;

  Cred() = default;
  Cred(uint32_t u, uint32_t g) : uid(u), gid(g) {}

  bool is_root() const { return uid == 0; }
  bool in_group(uint32_t g) const;
};

/// Fields settable through setattr (a subset of sattr3).
struct SetAttrs {
  std::optional<uint32_t> mode;
  std::optional<uint32_t> uid;
  std::optional<uint32_t> gid;
  std::optional<uint64_t> size;
  std::optional<int64_t> atime;
  std::optional<int64_t> mtime;

  SetAttrs() = default;
};

struct DirEntry {
  std::string name;
  FileId fileid = 0;
  uint64_t cookie = 0;  // opaque resume position

  DirEntry() = default;
  DirEntry(std::string n, FileId id, uint64_t c)
      : name(std::move(n)), fileid(id), cookie(c) {}
};

template <typename T>
struct Result {
  Status status = Status::kOk;
  T value{};

  Result() = default;
  explicit Result(Status s) : status(s) {}
  explicit Result(T v) : value(std::move(v)) {}

  bool ok() const { return status == Status::kOk; }
};

// ACCESS bit mask (NFSv3 ACCESS procedure).
inline constexpr uint32_t kAccessRead = 0x01;
inline constexpr uint32_t kAccessLookup = 0x02;
inline constexpr uint32_t kAccessModify = 0x04;
inline constexpr uint32_t kAccessExtend = 0x08;
inline constexpr uint32_t kAccessDelete = 0x10;
inline constexpr uint32_t kAccessExecute = 0x20;

class FileSystem {
 public:
  FileSystem();

  /// Injects a time source (seconds); default is a monotonic counter.
  void set_clock(std::function<int64_t()> clock) { clock_ = std::move(clock); }

  /// Caps total file data bytes; 0 = unlimited.
  void set_capacity(uint64_t bytes) { capacity_ = bytes; }
  uint64_t bytes_used() const { return bytes_used_; }

  FileId root() const { return root_; }

  Result<FileId> lookup(const Cred& cred, FileId dir,
                        const std::string& name) const;
  Result<Attributes> getattr(FileId id) const;
  Status setattr(const Cred& cred, FileId id, const SetAttrs& set);
  uint32_t access(const Cred& cred, FileId id, uint32_t want) const;

  Result<FileId> create(const Cred& cred, FileId dir, const std::string& name,
                        uint32_t mode, bool exclusive = false);
  Result<FileId> mkdir(const Cred& cred, FileId dir, const std::string& name,
                       uint32_t mode);
  Result<FileId> symlink(const Cred& cred, FileId dir,
                         const std::string& name, const std::string& target);
  Result<std::string> readlink(FileId id) const;
  Status remove(const Cred& cred, FileId dir, const std::string& name);
  Status rmdir(const Cred& cred, FileId dir, const std::string& name);
  Status rename(const Cred& cred, FileId from_dir, const std::string& from,
                FileId to_dir, const std::string& to);
  Status link(const Cred& cred, FileId file, FileId dir,
              const std::string& name);

  struct ReadResult {
    Buffer data;
    bool eof = false;
    ReadResult() = default;
  };
  Result<ReadResult> read(const Cred& cred, FileId id, uint64_t offset,
                          uint32_t count) const;
  Result<uint32_t> write(const Cred& cred, FileId id, uint64_t offset,
                         ByteView data);

  Result<std::vector<DirEntry>> readdir(const Cred& cred, FileId dir,
                                        uint64_t cookie,
                                        uint32_t max_entries) const;

  // --- path helpers (setup & tests; components separated by '/') -----------
  Result<FileId> resolve(const Cred& cred, const std::string& path) const;
  Result<FileId> mkdir_p(const Cred& cred, const std::string& path,
                         uint32_t mode = 0755);
  /// Creates/overwrites a file with the given content.
  Result<FileId> write_file(const Cred& cred, const std::string& path,
                            ByteView content, uint32_t mode = 0644);
  Result<Buffer> read_file(const Cred& cred, const std::string& path) const;
  /// Gives `id` to uid:gid, as root.
  void chown(FileId id, uint32_t uid, uint32_t gid);

  size_t inode_count() const { return inodes_.size(); }

 private:
  struct Inode {
    Attributes attrs;
    std::map<std::string, FileId> entries;  // directories
    FileId parent = 0;                      // directories
    Buffer data;                            // regular files
    std::string target;                     // symlinks
  };

  int64_t now() const { return clock_(); }
  const Inode* get(FileId id) const;
  Inode* get(FileId id);
  bool may(const Cred& cred, const Attributes& a, uint32_t rwx_bit) const;
  static bool name_ok(const std::string& name);
  FileId alloc_inode(FileType type, uint32_t mode, const Cred& cred);
  void touch(Inode& inode, bool data_changed);

  std::unordered_map<FileId, Inode> inodes_;
  FileId root_;
  FileId next_id_ = 1;
  uint64_t capacity_ = 0;
  uint64_t bytes_used_ = 0;
  std::function<int64_t()> clock_;
  int64_t fallback_clock_ = 0;
};

}  // namespace sgfs::vfs

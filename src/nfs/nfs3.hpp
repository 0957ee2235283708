// NFS version 3 wire protocol (RFC 1813) — types, XDR, procedure numbers.
//
// The field sets mirror RFC 1813's semantics with the attribute fields our
// VFS models (fattr3 minus rdev/fsid specifics); both peers run this code so
// the trimming is transparent.  Post-operation attributes are carried where
// kernel clients rely on them (READ/WRITE/LOOKUP/CREATE/...) — they are what
// keeps the client attribute cache warm without extra GETATTR round trips.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bufchain.hpp"
#include "common/bytes.hpp"
#include "vfs/vfs.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::nfs {

inline constexpr uint32_t kNfsProgram = 100003;
inline constexpr uint32_t kNfsVersion3 = 3;
inline constexpr uint32_t kMountProgram = 100005;
inline constexpr uint32_t kMountVersion3 = 3;

/// Per-field decode bounds.  Every variable-length field on the wire is
/// capped by what the protocol can legitimately carry, so a corrupted or
/// hostile length word is rejected before any allocation — not merely by
/// the blanket 64 MiB Decoder ceiling.
inline constexpr size_t kMaxDataBytes = 8u << 20;  // READ/WRITE payload
inline constexpr size_t kMaxPathBytes = 1024;      // symlink targets, paths

enum class Proc3 : uint32_t {
  kNull = 0,
  kGetattr = 1,
  kSetattr = 2,
  kLookup = 3,
  kAccess = 4,
  kReadlink = 5,
  kRead = 6,
  kWrite = 7,
  kCreate = 8,
  kMkdir = 9,
  kSymlink = 10,
  kRemove = 12,
  kRmdir = 13,
  kRename = 14,
  kLink = 15,
  kReaddir = 16,
  kReaddirplus = 17,
  kFsstat = 18,
  kFsinfo = 19,
  kCommit = 21,
};

enum class MountProc : uint32_t {
  kNull = 0,
  kMnt = 1,
  kUmnt = 3,
};

/// True when re-executing the procedure is harmless.  The non-idempotent
/// ones (CREATE, REMOVE, RENAME, ...) are what the server's
/// duplicate-request cache must protect against under RPC retransmission —
/// the classic NFSv3 DRC classification.
bool proc3_is_idempotent(Proc3 p);

/// Uppercase protocol name ("GETATTR", "READ", ...; "PROC<n>" for unknown
/// values) — used for per-procedure metric names.
const char* proc3_name(Proc3 p);

/// Serialized result body meaning "server overloaded, try again later":
/// the procedure's result shape with status NFS3ERR_JUKEBOX and no payload
/// (RFC 1813 §2.6 — the jukebox error was designed for exactly this "come
/// back later" signal).  Empty for procedures that carry no status (NULL),
/// in which case the shedding server should drop instead of replying.
BufChain busy_status_reply(Proc3 proc);

/// Peeks an encoded result's leading status word (every NFSv3 result begins
/// with one) for NFS3ERR_JUKEBOX, without decoding the procedure's shape.
bool reply_is_jukebox(const BufChain& reply);

/// nfsstat3 — shares values with vfs::Status plus protocol-only codes.
using Status = vfs::Status;
inline constexpr Status kNfs3Ok = Status::kOk;

/// Thrown by client-side wrappers when a call returns a non-OK status.
class FsError : public std::runtime_error {
 public:
  explicit FsError(Status status)
      : std::runtime_error(std::string("fs: ") + vfs::to_string(status)),
        status_(status) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

enum class StableHow : uint32_t {
  kUnstable = 0,
  kDataSync = 1,
  kFileSync = 2,
};

/// File handle: fsid + fileid, opaque on the wire.
struct Fh {
  uint64_t fsid = 0;
  uint64_t fileid = 0;

  Fh() = default;
  Fh(uint64_t fs, uint64_t id) : fsid(fs), fileid(id) {}

  bool operator==(const Fh&) const = default;
  auto operator<=>(const Fh&) const = default;

  void encode(xdr::Encoder& enc) const {
    enc.put_u64(fsid);
    enc.put_u64(fileid);
  }
  static Fh decode(xdr::Decoder& dec) {
    Fh fh;
    fh.fsid = dec.get_u64();
    fh.fileid = dec.get_u64();
    return fh;
  }
};

void encode_attrs(xdr::Encoder& enc, const vfs::Attributes& a);
vfs::Attributes decode_attrs(xdr::Decoder& dec);

void encode_opt_attrs(xdr::Encoder& enc,
                      const std::optional<vfs::Attributes>& a);
std::optional<vfs::Attributes> decode_opt_attrs(xdr::Decoder& dec);

void encode_sattr(xdr::Encoder& enc, const vfs::SetAttrs& s);
vfs::SetAttrs decode_sattr(xdr::Decoder& dec);

// --- per-procedure argument/result structures -------------------------------
// All are non-aggregates (user-declared default ctor) per the GCC 12 rule.

struct GetattrArgs {
  Fh fh;
  GetattrArgs() = default;
  void encode(xdr::Encoder& e) const { fh.encode(e); }
  static GetattrArgs decode(xdr::Decoder& d);
};

struct GetattrRes {
  Status status = Status::kOk;
  vfs::Attributes attrs;
  GetattrRes() = default;
  void encode(xdr::Encoder& e) const;
  static GetattrRes decode(xdr::Decoder& d);
};

struct SetattrArgs {
  Fh fh;
  vfs::SetAttrs sattr;
  SetattrArgs() = default;
  void encode(xdr::Encoder& e) const;
  static SetattrArgs decode(xdr::Decoder& d);
};

struct WccRes {  // status + post-op attributes (wcc_data simplified)
  Status status = Status::kOk;
  std::optional<vfs::Attributes> post_attrs;
  WccRes() = default;
  void encode(xdr::Encoder& e) const;
  static WccRes decode(xdr::Decoder& d);
};

struct DiropArgs {
  Fh dir;
  std::string name;
  DiropArgs() = default;
  DiropArgs(Fh d, std::string n) : dir(d), name(std::move(n)) {}
  void encode(xdr::Encoder& e) const;
  static DiropArgs decode(xdr::Decoder& d);
};

struct LookupRes {
  Status status = Status::kOk;
  Fh fh;
  std::optional<vfs::Attributes> attrs;
  std::optional<vfs::Attributes> dir_attrs;
  LookupRes() = default;
  void encode(xdr::Encoder& e) const;
  static LookupRes decode(xdr::Decoder& d);
};

struct AccessArgs {
  Fh fh;
  uint32_t access = 0;
  AccessArgs() = default;
  AccessArgs(Fh f, uint32_t a) : fh(f), access(a) {}
  void encode(xdr::Encoder& e) const;
  static AccessArgs decode(xdr::Decoder& d);
};

struct AccessRes {
  Status status = Status::kOk;
  uint32_t access = 0;
  std::optional<vfs::Attributes> post_attrs;
  AccessRes() = default;
  void encode(xdr::Encoder& e) const;
  static AccessRes decode(xdr::Decoder& d);
};

struct ReadlinkRes {
  Status status = Status::kOk;
  std::string target;
  ReadlinkRes() = default;
  void encode(xdr::Encoder& e) const;
  static ReadlinkRes decode(xdr::Decoder& d);
};

struct ReadArgs {
  Fh fh;
  uint64_t offset = 0;
  uint32_t count = 0;
  ReadArgs() = default;
  ReadArgs(Fh f, uint64_t off, uint32_t c) : fh(f), offset(off), count(c) {}
  void encode(xdr::Encoder& e) const;
  static ReadArgs decode(xdr::Decoder& d);
};

struct ReadRes {
  Status status = Status::kOk;
  uint32_t count = 0;
  bool eof = false;
  /// Shared slice of the decoded message (or of the server's block) — the
  /// payload travels by refcount, never duplicated per hop.
  BufChain data;
  std::optional<vfs::Attributes> post_attrs;
  ReadRes() = default;
  void encode(xdr::Encoder& e) const;
  static ReadRes decode(xdr::Decoder& d);
};

struct WriteArgs {
  Fh fh;
  uint64_t offset = 0;
  StableHow stable = StableHow::kFileSync;
  BufChain data;
  WriteArgs() = default;
  void encode(xdr::Encoder& e) const;
  static WriteArgs decode(xdr::Decoder& d);
};

struct WriteRes {
  Status status = Status::kOk;
  uint32_t count = 0;
  StableHow committed = StableHow::kFileSync;
  uint64_t verf = 0;  // write verifier (server instance cookie)
  std::optional<vfs::Attributes> post_attrs;
  WriteRes() = default;
  void encode(xdr::Encoder& e) const;
  static WriteRes decode(xdr::Decoder& d);
};

struct CreateArgs {
  Fh dir;
  std::string name;
  uint32_t mode = 0644;
  bool exclusive = false;
  CreateArgs() = default;
  void encode(xdr::Encoder& e) const;
  static CreateArgs decode(xdr::Decoder& d);
};

struct CreateRes {
  Status status = Status::kOk;
  Fh fh;
  std::optional<vfs::Attributes> attrs;
  std::optional<vfs::Attributes> dir_attrs;
  CreateRes() = default;
  void encode(xdr::Encoder& e) const;
  static CreateRes decode(xdr::Decoder& d);
};

struct MkdirArgs {
  Fh dir;
  std::string name;
  uint32_t mode = 0755;
  MkdirArgs() = default;
  void encode(xdr::Encoder& e) const;
  static MkdirArgs decode(xdr::Decoder& d);
};

struct SymlinkArgs {
  Fh dir;
  std::string name;
  std::string target;
  SymlinkArgs() = default;
  void encode(xdr::Encoder& e) const;
  static SymlinkArgs decode(xdr::Decoder& d);
};

struct RenameArgs {
  Fh from_dir;
  std::string from_name;
  Fh to_dir;
  std::string to_name;
  RenameArgs() = default;
  void encode(xdr::Encoder& e) const;
  static RenameArgs decode(xdr::Decoder& d);
};

struct LinkArgs {
  Fh file;
  Fh dir;
  std::string name;
  LinkArgs() = default;
  void encode(xdr::Encoder& e) const;
  static LinkArgs decode(xdr::Decoder& d);
};

struct ReaddirArgs {
  Fh dir;
  uint64_t cookie = 0;
  uint32_t count = 0;  // max entries
  bool plus = false;   // READDIRPLUS: include attrs + fh per entry
  ReaddirArgs() = default;
  void encode(xdr::Encoder& e) const;
  static ReaddirArgs decode(xdr::Decoder& d);
};

struct DirEntry3 {
  uint64_t fileid = 0;
  std::string name;
  uint64_t cookie = 0;
  std::optional<vfs::Attributes> attrs;  // READDIRPLUS only
  std::optional<Fh> fh;                  // READDIRPLUS only
  DirEntry3() = default;
};

struct ReaddirRes {
  Status status = Status::kOk;
  std::vector<DirEntry3> entries;
  bool eof = false;
  ReaddirRes() = default;
  void encode(xdr::Encoder& e) const;
  static ReaddirRes decode(xdr::Decoder& d);
};

struct FsstatRes {
  Status status = Status::kOk;
  uint64_t total_bytes = 0;
  uint64_t free_bytes = 0;
  uint64_t total_files = 0;
  FsstatRes() = default;
  void encode(xdr::Encoder& e) const;
};

struct FsinfoRes {
  Status status = Status::kOk;
  uint32_t rtmax = 32768;
  uint32_t wtmax = 32768;
  uint32_t dtpref = 4096;
  FsinfoRes() = default;
  void encode(xdr::Encoder& e) const;
};

struct CommitArgs {
  Fh fh;
  uint64_t offset = 0;
  uint32_t count = 0;  // 0 = whole file
  CommitArgs() = default;
  CommitArgs(Fh f, uint64_t off, uint32_t c) : fh(f), offset(off), count(c) {}
  void encode(xdr::Encoder& e) const;
  static CommitArgs decode(xdr::Decoder& d);
};

struct CommitRes {
  Status status = Status::kOk;
  uint64_t verf = 0;
  CommitRes() = default;
  void encode(xdr::Encoder& e) const;
  static CommitRes decode(xdr::Decoder& d);
};

// --- MOUNT protocol ----------------------------------------------------------

struct MntArgs {
  std::string dirpath;
  MntArgs() = default;
  explicit MntArgs(std::string p) : dirpath(std::move(p)) {}
  void encode(xdr::Encoder& e) const { e.put_string(dirpath); }
  static MntArgs decode(xdr::Decoder& d);
};

struct MntRes {
  Status status = Status::kOk;
  Fh root_fh;
  MntRes() = default;
  void encode(xdr::Encoder& e) const;
  static MntRes decode(xdr::Decoder& d);
};

}  // namespace sgfs::nfs

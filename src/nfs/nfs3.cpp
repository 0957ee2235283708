#include "nfs/nfs3.hpp"

namespace sgfs::nfs {

bool proc3_is_idempotent(Proc3 p) {
  switch (p) {
    case Proc3::kSetattr:
    case Proc3::kCreate:
    case Proc3::kMkdir:
    case Proc3::kSymlink:
    case Proc3::kRemove:
    case Proc3::kRmdir:
    case Proc3::kRename:
    case Proc3::kLink:
      return false;
    default:
      return true;
  }
}

const char* proc3_name(Proc3 p) {
  switch (p) {
    case Proc3::kNull: return "NULL";
    case Proc3::kGetattr: return "GETATTR";
    case Proc3::kSetattr: return "SETATTR";
    case Proc3::kLookup: return "LOOKUP";
    case Proc3::kAccess: return "ACCESS";
    case Proc3::kReadlink: return "READLINK";
    case Proc3::kRead: return "READ";
    case Proc3::kWrite: return "WRITE";
    case Proc3::kCreate: return "CREATE";
    case Proc3::kMkdir: return "MKDIR";
    case Proc3::kSymlink: return "SYMLINK";
    case Proc3::kRemove: return "REMOVE";
    case Proc3::kRmdir: return "RMDIR";
    case Proc3::kRename: return "RENAME";
    case Proc3::kLink: return "LINK";
    case Proc3::kReaddir: return "READDIR";
    case Proc3::kReaddirplus: return "READDIRPLUS";
    case Proc3::kFsstat: return "FSSTAT";
    case Proc3::kFsinfo: return "FSINFO";
    case Proc3::kCommit: return "COMMIT";
    default: return "PROC?";
  }
}

BufChain busy_status_reply(Proc3 proc) {
  // Encode the procedure's own result shape (status NFS3ERR_JUKEBOX, no
  // payload) so every decoder along the path — interposing proxies
  // included — parses it like any other failed result.
  xdr::Encoder enc;
  auto put = [&enc](auto res) {
    res.status = Status::kJukebox;
    res.encode(enc);
  };
  switch (proc) {
    case Proc3::kGetattr: put(GetattrRes()); break;
    case Proc3::kSetattr: put(WccRes()); break;
    case Proc3::kLookup: put(LookupRes()); break;
    case Proc3::kAccess: put(AccessRes()); break;
    case Proc3::kReadlink: put(ReadlinkRes()); break;
    case Proc3::kRead: put(ReadRes()); break;
    case Proc3::kWrite: put(WriteRes()); break;
    case Proc3::kCreate:
    case Proc3::kMkdir:
    case Proc3::kSymlink: put(CreateRes()); break;
    case Proc3::kRemove:
    case Proc3::kRmdir:
    case Proc3::kRename:
    case Proc3::kLink: put(WccRes()); break;
    case Proc3::kReaddir:
    case Proc3::kReaddirplus: put(ReaddirRes()); break;
    case Proc3::kFsstat: put(FsstatRes()); break;
    case Proc3::kFsinfo: put(FsinfoRes()); break;
    case Proc3::kCommit: put(CommitRes()); break;
    case Proc3::kNull:
    default:
      return BufChain();  // no status word to carry: shed by dropping
  }
  return enc.take();
}

bool reply_is_jukebox(const BufChain& reply) {
  if (reply.size() < 4) return false;
  xdr::Decoder dec(reply);
  return static_cast<Status>(dec.get_u32()) == Status::kJukebox;
}

void encode_attrs(xdr::Encoder& e, const vfs::Attributes& a) {
  e.put_enum(a.type);
  e.put_u32(a.mode);
  e.put_u32(a.nlink);
  e.put_u32(a.uid);
  e.put_u32(a.gid);
  e.put_u64(a.size);
  e.put_i64(a.atime);
  e.put_i64(a.mtime);
  e.put_i64(a.ctime);
  e.put_u64(a.fileid);
}

vfs::Attributes decode_attrs(xdr::Decoder& d) {
  vfs::Attributes a;
  a.type = d.get_enum<vfs::FileType>();
  a.mode = d.get_u32();
  a.nlink = d.get_u32();
  a.uid = d.get_u32();
  a.gid = d.get_u32();
  a.size = d.get_u64();
  a.atime = d.get_i64();
  a.mtime = d.get_i64();
  a.ctime = d.get_i64();
  a.fileid = d.get_u64();
  return a;
}

void encode_opt_attrs(xdr::Encoder& e,
                      const std::optional<vfs::Attributes>& a) {
  e.put_bool(a.has_value());
  if (a) encode_attrs(e, *a);
}

std::optional<vfs::Attributes> decode_opt_attrs(xdr::Decoder& d) {
  if (!d.get_bool()) return std::nullopt;
  return decode_attrs(d);
}

void encode_sattr(xdr::Encoder& e, const vfs::SetAttrs& s) {
  auto put_opt_u32 = [&](const std::optional<uint32_t>& v) {
    e.put_bool(v.has_value());
    if (v) e.put_u32(*v);
  };
  auto put_opt_u64 = [&](const std::optional<uint64_t>& v) {
    e.put_bool(v.has_value());
    if (v) e.put_u64(*v);
  };
  auto put_opt_i64 = [&](const std::optional<int64_t>& v) {
    e.put_bool(v.has_value());
    if (v) e.put_i64(*v);
  };
  put_opt_u32(s.mode);
  put_opt_u32(s.uid);
  put_opt_u32(s.gid);
  put_opt_u64(s.size);
  put_opt_i64(s.atime);
  put_opt_i64(s.mtime);
}

vfs::SetAttrs decode_sattr(xdr::Decoder& d) {
  vfs::SetAttrs s;
  if (d.get_bool()) s.mode = d.get_u32();
  if (d.get_bool()) s.uid = d.get_u32();
  if (d.get_bool()) s.gid = d.get_u32();
  if (d.get_bool()) s.size = d.get_u64();
  if (d.get_bool()) s.atime = d.get_i64();
  if (d.get_bool()) s.mtime = d.get_i64();
  return s;
}

// --- procedures ---------------------------------------------------------------

GetattrArgs GetattrArgs::decode(xdr::Decoder& d) {
  GetattrArgs a;
  a.fh = Fh::decode(d);
  return a;
}

void GetattrRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status == Status::kOk) encode_attrs(e, attrs);
}
GetattrRes GetattrRes::decode(xdr::Decoder& d) {
  GetattrRes r;
  r.status = d.get_enum<Status>();
  if (r.status == Status::kOk) r.attrs = decode_attrs(d);
  return r;
}

void SetattrArgs::encode(xdr::Encoder& e) const {
  fh.encode(e);
  encode_sattr(e, sattr);
}
SetattrArgs SetattrArgs::decode(xdr::Decoder& d) {
  SetattrArgs a;
  a.fh = Fh::decode(d);
  a.sattr = decode_sattr(d);
  return a;
}

void WccRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  encode_opt_attrs(e, post_attrs);
}
WccRes WccRes::decode(xdr::Decoder& d) {
  WccRes r;
  r.status = d.get_enum<Status>();
  r.post_attrs = decode_opt_attrs(d);
  return r;
}

void DiropArgs::encode(xdr::Encoder& e) const {
  dir.encode(e);
  e.put_string(name);
}
DiropArgs DiropArgs::decode(xdr::Decoder& d) {
  DiropArgs a;
  a.dir = Fh::decode(d);
  a.name = d.get_string(255);
  return a;
}

void LookupRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status == Status::kOk) {
    fh.encode(e);
    encode_opt_attrs(e, attrs);
  }
  encode_opt_attrs(e, dir_attrs);
}
LookupRes LookupRes::decode(xdr::Decoder& d) {
  LookupRes r;
  r.status = d.get_enum<Status>();
  if (r.status == Status::kOk) {
    r.fh = Fh::decode(d);
    r.attrs = decode_opt_attrs(d);
  }
  r.dir_attrs = decode_opt_attrs(d);
  return r;
}

void AccessArgs::encode(xdr::Encoder& e) const {
  fh.encode(e);
  e.put_u32(access);
}
AccessArgs AccessArgs::decode(xdr::Decoder& d) {
  AccessArgs a;
  a.fh = Fh::decode(d);
  a.access = d.get_u32();
  return a;
}

void AccessRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status == Status::kOk) e.put_u32(access);
  encode_opt_attrs(e, post_attrs);
}
AccessRes AccessRes::decode(xdr::Decoder& d) {
  AccessRes r;
  r.status = d.get_enum<Status>();
  if (r.status == Status::kOk) r.access = d.get_u32();
  r.post_attrs = decode_opt_attrs(d);
  return r;
}

void ReadlinkRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status == Status::kOk) e.put_string(target);
}
ReadlinkRes ReadlinkRes::decode(xdr::Decoder& d) {
  ReadlinkRes r;
  r.status = d.get_enum<Status>();
  if (r.status == Status::kOk) r.target = d.get_string(kMaxPathBytes);
  return r;
}

void ReadArgs::encode(xdr::Encoder& e) const {
  fh.encode(e);
  e.put_u64(offset);
  e.put_u32(count);
}
ReadArgs ReadArgs::decode(xdr::Decoder& d) {
  ReadArgs a;
  a.fh = Fh::decode(d);
  a.offset = d.get_u64();
  a.count = d.get_u32();
  return a;
}

void ReadRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status == Status::kOk) {
    e.put_u32(count);
    e.put_bool(eof);
    e.put_opaque_ref(data);
  }
  encode_opt_attrs(e, post_attrs);
}
ReadRes ReadRes::decode(xdr::Decoder& d) {
  ReadRes r;
  r.status = d.get_enum<Status>();
  if (r.status == Status::kOk) {
    r.count = d.get_u32();
    r.eof = d.get_bool();
    r.data = d.get_opaque_ref(kMaxDataBytes);
  }
  r.post_attrs = decode_opt_attrs(d);
  return r;
}

void WriteArgs::encode(xdr::Encoder& e) const {
  fh.encode(e);
  e.put_u64(offset);
  e.put_enum(stable);
  e.put_opaque_ref(data);
}
WriteArgs WriteArgs::decode(xdr::Decoder& d) {
  WriteArgs a;
  a.fh = Fh::decode(d);
  a.offset = d.get_u64();
  a.stable = d.get_enum<StableHow>();
  a.data = d.get_opaque_ref(kMaxDataBytes);
  return a;
}

void WriteRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status == Status::kOk) {
    e.put_u32(count);
    e.put_enum(committed);
    e.put_u64(verf);
  }
  encode_opt_attrs(e, post_attrs);
}
WriteRes WriteRes::decode(xdr::Decoder& d) {
  WriteRes r;
  r.status = d.get_enum<Status>();
  if (r.status == Status::kOk) {
    r.count = d.get_u32();
    r.committed = d.get_enum<StableHow>();
    r.verf = d.get_u64();
  }
  r.post_attrs = decode_opt_attrs(d);
  return r;
}

void CreateArgs::encode(xdr::Encoder& e) const {
  dir.encode(e);
  e.put_string(name);
  e.put_u32(mode);
  e.put_bool(exclusive);
}
CreateArgs CreateArgs::decode(xdr::Decoder& d) {
  CreateArgs a;
  a.dir = Fh::decode(d);
  a.name = d.get_string(255);
  a.mode = d.get_u32();
  a.exclusive = d.get_bool();
  return a;
}

void CreateRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status == Status::kOk) {
    fh.encode(e);
    encode_opt_attrs(e, attrs);
  }
  encode_opt_attrs(e, dir_attrs);
}
CreateRes CreateRes::decode(xdr::Decoder& d) {
  CreateRes r;
  r.status = d.get_enum<Status>();
  if (r.status == Status::kOk) {
    r.fh = Fh::decode(d);
    r.attrs = decode_opt_attrs(d);
  }
  r.dir_attrs = decode_opt_attrs(d);
  return r;
}

void MkdirArgs::encode(xdr::Encoder& e) const {
  dir.encode(e);
  e.put_string(name);
  e.put_u32(mode);
}
MkdirArgs MkdirArgs::decode(xdr::Decoder& d) {
  MkdirArgs a;
  a.dir = Fh::decode(d);
  a.name = d.get_string(255);
  a.mode = d.get_u32();
  return a;
}

void SymlinkArgs::encode(xdr::Encoder& e) const {
  dir.encode(e);
  e.put_string(name);
  e.put_string(target);
}
SymlinkArgs SymlinkArgs::decode(xdr::Decoder& d) {
  SymlinkArgs a;
  a.dir = Fh::decode(d);
  a.name = d.get_string(255);
  a.target = d.get_string(kMaxPathBytes);
  return a;
}

void RenameArgs::encode(xdr::Encoder& e) const {
  from_dir.encode(e);
  e.put_string(from_name);
  to_dir.encode(e);
  e.put_string(to_name);
}
RenameArgs RenameArgs::decode(xdr::Decoder& d) {
  RenameArgs a;
  a.from_dir = Fh::decode(d);
  a.from_name = d.get_string(255);
  a.to_dir = Fh::decode(d);
  a.to_name = d.get_string(255);
  return a;
}

void LinkArgs::encode(xdr::Encoder& e) const {
  file.encode(e);
  dir.encode(e);
  e.put_string(name);
}
LinkArgs LinkArgs::decode(xdr::Decoder& d) {
  LinkArgs a;
  a.file = Fh::decode(d);
  a.dir = Fh::decode(d);
  a.name = d.get_string(255);
  return a;
}

void ReaddirArgs::encode(xdr::Encoder& e) const {
  dir.encode(e);
  e.put_u64(cookie);
  e.put_u32(count);
  e.put_bool(plus);
}
ReaddirArgs ReaddirArgs::decode(xdr::Decoder& d) {
  ReaddirArgs a;
  a.dir = Fh::decode(d);
  a.cookie = d.get_u64();
  a.count = d.get_u32();
  a.plus = d.get_bool();
  return a;
}

void ReaddirRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status != Status::kOk) return;
  e.put_u32(static_cast<uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    e.put_u64(entry.fileid);
    e.put_string(entry.name);
    e.put_u64(entry.cookie);
    encode_opt_attrs(e, entry.attrs);
    e.put_bool(entry.fh.has_value());
    if (entry.fh) entry.fh->encode(e);
  }
  e.put_bool(eof);
}
ReaddirRes ReaddirRes::decode(xdr::Decoder& d) {
  ReaddirRes r;
  r.status = d.get_enum<Status>();
  if (r.status != Status::kOk) return r;
  uint32_t n = d.get_u32();
  if (n > 100000) throw xdr::XdrError("readdir reply too large");
  r.entries.resize(n);
  for (auto& entry : r.entries) {
    entry.fileid = d.get_u64();
    entry.name = d.get_string(255);
    entry.cookie = d.get_u64();
    entry.attrs = decode_opt_attrs(d);
    if (d.get_bool()) entry.fh = Fh::decode(d);
  }
  r.eof = d.get_bool();
  return r;
}

void FsstatRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status != Status::kOk) return;
  e.put_u64(total_bytes);
  e.put_u64(free_bytes);
  e.put_u64(total_files);
}

void FsinfoRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status != Status::kOk) return;
  e.put_u32(rtmax);
  e.put_u32(wtmax);
  e.put_u32(dtpref);
}

void CommitArgs::encode(xdr::Encoder& e) const {
  fh.encode(e);
  e.put_u64(offset);
  e.put_u32(count);
}
CommitArgs CommitArgs::decode(xdr::Decoder& d) {
  CommitArgs a;
  a.fh = Fh::decode(d);
  a.offset = d.get_u64();
  a.count = d.get_u32();
  return a;
}

void CommitRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status == Status::kOk) e.put_u64(verf);
}
CommitRes CommitRes::decode(xdr::Decoder& d) {
  CommitRes r;
  r.status = d.get_enum<Status>();
  if (r.status == Status::kOk) r.verf = d.get_u64();
  return r;
}

MntArgs MntArgs::decode(xdr::Decoder& d) {
  MntArgs a;
  a.dirpath = d.get_string(1024);
  return a;
}

void MntRes::encode(xdr::Encoder& e) const {
  e.put_enum(status);
  if (status == Status::kOk) root_fh.encode(e);
}
MntRes MntRes::decode(xdr::Decoder& d) {
  MntRes r;
  r.status = d.get_enum<Status>();
  if (r.status == Status::kOk) r.root_fh = Fh::decode(d);
  return r;
}

}  // namespace sgfs::nfs

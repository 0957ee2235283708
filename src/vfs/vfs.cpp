#include "vfs/vfs.hpp"

#include <algorithm>

namespace sgfs::vfs {

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kPerm: return "EPERM";
    case Status::kNoEnt: return "ENOENT";
    case Status::kAcces: return "EACCES";
    case Status::kExist: return "EEXIST";
    case Status::kNotDir: return "ENOTDIR";
    case Status::kIsDir: return "EISDIR";
    case Status::kInval: return "EINVAL";
    case Status::kFBig: return "EFBIG";
    case Status::kNoSpc: return "ENOSPC";
    case Status::kRoFs: return "EROFS";
    case Status::kNameTooLong: return "ENAMETOOLONG";
    case Status::kNotEmpty: return "ENOTEMPTY";
    case Status::kStale: return "ESTALE";
    case Status::kJukebox: return "EJUKEBOX";
  }
  return "E?";
}

bool Cred::in_group(uint32_t g) const {
  if (gid == g) return true;
  return std::find(gids.begin(), gids.end(), g) != gids.end();
}

FileSystem::FileSystem() {
  clock_ = [this] { return ++fallback_clock_; };
  // The export root is world-writable (like /tmp): per-user trees underneath
  // carry their own restrictive modes.
  Cred root_cred(0, 0);
  root_ = alloc_inode(FileType::kDirectory, 0777, root_cred);
  get(root_)->parent = root_;
  get(root_)->attrs.nlink = 2;
}

const FileSystem::Inode* FileSystem::get(FileId id) const {
  auto it = inodes_.find(id);
  return it == inodes_.end() ? nullptr : &it->second;
}

FileSystem::Inode* FileSystem::get(FileId id) {
  auto it = inodes_.find(id);
  return it == inodes_.end() ? nullptr : &it->second;
}

bool FileSystem::may(const Cred& cred, const Attributes& a,
                     uint32_t rwx_bit) const {
  if (cred.is_root()) return true;
  uint32_t shift = 0;  // "other"
  if (cred.uid == a.uid) {
    shift = 6;
  } else if (cred.in_group(a.gid)) {
    shift = 3;
  }
  return (a.mode >> shift) & rwx_bit;
}

bool FileSystem::name_ok(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string::npos && name.size() <= 255;
}

FileId FileSystem::alloc_inode(FileType type, uint32_t mode,
                               const Cred& cred) {
  FileId id = next_id_++;
  Inode inode;
  inode.attrs.type = type;
  inode.attrs.mode = mode;
  inode.attrs.uid = cred.uid;
  inode.attrs.gid = cred.gid;
  inode.attrs.fileid = id;
  inode.attrs.nlink = type == FileType::kDirectory ? 2 : 1;
  const int64_t t = now();
  inode.attrs.atime = inode.attrs.mtime = inode.attrs.ctime = t;
  inodes_[id] = std::move(inode);
  return id;
}

void FileSystem::touch(Inode& inode, bool data_changed) {
  const int64_t t = now();
  inode.attrs.ctime = t;
  if (data_changed) inode.attrs.mtime = t;
}

Result<FileId> FileSystem::lookup(const Cred& cred, FileId dir,
                                  const std::string& name) const {
  const Inode* d = get(dir);
  if (!d) return Result<FileId>(Status::kStale);
  if (d->attrs.type != FileType::kDirectory) {
    return Result<FileId>(Status::kNotDir);
  }
  if (!may(cred, d->attrs, 1)) return Result<FileId>(Status::kAcces);
  if (name == ".") return Result<FileId>(dir);
  if (name == "..") return Result<FileId>(d->parent);
  auto it = d->entries.find(name);
  if (it == d->entries.end()) return Result<FileId>(Status::kNoEnt);
  return Result<FileId>(it->second);
}

Result<Attributes> FileSystem::getattr(FileId id) const {
  const Inode* inode = get(id);
  if (!inode) return Result<Attributes>(Status::kStale);
  return Result<Attributes>(inode->attrs);
}

Status FileSystem::setattr(const Cred& cred, FileId id, const SetAttrs& set) {
  Inode* inode = get(id);
  if (!inode) return Status::kStale;
  Attributes& a = inode->attrs;
  const bool is_owner = cred.is_root() || cred.uid == a.uid;
  if ((set.mode || set.uid || set.gid) && !is_owner) return Status::kPerm;
  if (set.uid && *set.uid != a.uid && !cred.is_root()) return Status::kPerm;
  if (set.size) {
    if (a.type == FileType::kDirectory) return Status::kIsDir;
    if (!is_owner && !may(cred, a, 2)) return Status::kAcces;
    const uint64_t old = inode->data.size();
    if (*set.size > old && capacity_ &&
        bytes_used_ + (*set.size - old) > capacity_) {
      return Status::kNoSpc;
    }
    inode->data.resize(*set.size, 0);
    bytes_used_ += inode->data.size() - old;
    a.size = *set.size;
    touch(*inode, true);
  }
  if (set.mode) a.mode = *set.mode & 07777;
  if (set.uid) a.uid = *set.uid;
  if (set.gid) a.gid = *set.gid;
  if (set.atime) a.atime = *set.atime;
  if (set.mtime) a.mtime = *set.mtime;
  touch(*inode, false);
  return Status::kOk;
}

uint32_t FileSystem::access(const Cred& cred, FileId id,
                            uint32_t want) const {
  const Inode* inode = get(id);
  if (!inode) return 0;
  const Attributes& a = inode->attrs;
  uint32_t granted = 0;
  const bool r = may(cred, a, 4), w = may(cred, a, 2), x = may(cred, a, 1);
  if (r) granted |= kAccessRead;
  if (a.type == FileType::kDirectory) {
    if (x) granted |= kAccessLookup;
    if (w) granted |= kAccessModify | kAccessExtend | kAccessDelete;
  } else {
    if (x) granted |= kAccessExecute;
    if (w) granted |= kAccessModify | kAccessExtend;
  }
  return granted & want;
}

Result<FileId> FileSystem::create(const Cred& cred, FileId dir,
                                  const std::string& name, uint32_t mode,
                                  bool exclusive) {
  Inode* d = get(dir);
  if (!d) return Result<FileId>(Status::kStale);
  if (d->attrs.type != FileType::kDirectory) {
    return Result<FileId>(Status::kNotDir);
  }
  if (!name_ok(name)) {
    return Result<FileId>(name.size() > 255 ? Status::kNameTooLong
                                            : Status::kInval);
  }
  if (!may(cred, d->attrs, 2)) return Result<FileId>(Status::kAcces);
  auto it = d->entries.find(name);
  if (it != d->entries.end()) {
    if (exclusive) return Result<FileId>(Status::kExist);
    const Inode* existing = get(it->second);
    if (existing->attrs.type == FileType::kDirectory) {
      return Result<FileId>(Status::kIsDir);
    }
    return Result<FileId>(it->second);  // non-exclusive open of existing
  }
  FileId id = alloc_inode(FileType::kRegular, mode, cred);
  d->entries[name] = id;
  touch(*d, true);
  return Result<FileId>(id);
}

Result<FileId> FileSystem::mkdir(const Cred& cred, FileId dir,
                                 const std::string& name, uint32_t mode) {
  Inode* d = get(dir);
  if (!d) return Result<FileId>(Status::kStale);
  if (d->attrs.type != FileType::kDirectory) {
    return Result<FileId>(Status::kNotDir);
  }
  if (!name_ok(name)) {
    return Result<FileId>(name.size() > 255 ? Status::kNameTooLong
                                            : Status::kInval);
  }
  if (!may(cred, d->attrs, 2)) return Result<FileId>(Status::kAcces);
  if (d->entries.count(name)) return Result<FileId>(Status::kExist);
  FileId id = alloc_inode(FileType::kDirectory, mode, cred);
  get(id)->parent = dir;
  d->entries[name] = id;
  d->attrs.nlink++;
  touch(*d, true);
  return Result<FileId>(id);
}

Result<FileId> FileSystem::symlink(const Cred& cred, FileId dir,
                                   const std::string& name,
                                   const std::string& target) {
  Inode* d = get(dir);
  if (!d) return Result<FileId>(Status::kStale);
  if (d->attrs.type != FileType::kDirectory) {
    return Result<FileId>(Status::kNotDir);
  }
  if (!name_ok(name)) return Result<FileId>(Status::kInval);
  if (!may(cred, d->attrs, 2)) return Result<FileId>(Status::kAcces);
  if (d->entries.count(name)) return Result<FileId>(Status::kExist);
  FileId id = alloc_inode(FileType::kSymlink, 0777, cred);
  Inode* inode = get(id);
  inode->target = target;
  inode->attrs.size = target.size();
  d->entries[name] = id;
  touch(*d, true);
  return Result<FileId>(id);
}

Result<std::string> FileSystem::readlink(FileId id) const {
  const Inode* inode = get(id);
  if (!inode) return Result<std::string>(Status::kStale);
  if (inode->attrs.type != FileType::kSymlink) {
    return Result<std::string>(Status::kInval);
  }
  return Result<std::string>(inode->target);
}

Status FileSystem::remove(const Cred& cred, FileId dir,
                          const std::string& name) {
  Inode* d = get(dir);
  if (!d) return Status::kStale;
  if (d->attrs.type != FileType::kDirectory) return Status::kNotDir;
  if (!may(cred, d->attrs, 2)) return Status::kAcces;
  auto it = d->entries.find(name);
  if (it == d->entries.end()) return Status::kNoEnt;
  Inode* target = get(it->second);
  if (target->attrs.type == FileType::kDirectory) return Status::kIsDir;
  if (--target->attrs.nlink == 0) {
    bytes_used_ -= target->data.size();
    inodes_.erase(it->second);
  } else {
    touch(*target, false);
  }
  d->entries.erase(it);
  touch(*d, true);
  return Status::kOk;
}

Status FileSystem::rmdir(const Cred& cred, FileId dir,
                         const std::string& name) {
  Inode* d = get(dir);
  if (!d) return Status::kStale;
  if (d->attrs.type != FileType::kDirectory) return Status::kNotDir;
  if (!may(cred, d->attrs, 2)) return Status::kAcces;
  auto it = d->entries.find(name);
  if (it == d->entries.end()) return Status::kNoEnt;
  Inode* target = get(it->second);
  if (target->attrs.type != FileType::kDirectory) return Status::kNotDir;
  if (!target->entries.empty()) return Status::kNotEmpty;
  inodes_.erase(it->second);
  d->entries.erase(it);
  d->attrs.nlink--;
  touch(*d, true);
  return Status::kOk;
}

Status FileSystem::rename(const Cred& cred, FileId from_dir,
                          const std::string& from, FileId to_dir,
                          const std::string& to) {
  Inode* fd = get(from_dir);
  Inode* td = get(to_dir);
  if (!fd || !td) return Status::kStale;
  if (fd->attrs.type != FileType::kDirectory ||
      td->attrs.type != FileType::kDirectory) {
    return Status::kNotDir;
  }
  if (!may(cred, fd->attrs, 2) || !may(cred, td->attrs, 2)) {
    return Status::kAcces;
  }
  if (!name_ok(to)) return Status::kInval;
  auto fit = fd->entries.find(from);
  if (fit == fd->entries.end()) return Status::kNoEnt;
  const FileId moving = fit->second;
  Inode* m = get(moving);

  // A directory may not be moved into its own subtree.
  if (m->attrs.type == FileType::kDirectory) {
    FileId cursor = to_dir;
    for (;;) {
      if (cursor == moving) return Status::kInval;
      const Inode* c = get(cursor);
      if (cursor == c->parent) break;  // reached root
      cursor = c->parent;
    }
  }

  auto tit = td->entries.find(to);
  if (tit != td->entries.end()) {
    if (tit->second == moving) return Status::kOk;  // same object
    Inode* existing = get(tit->second);
    if (existing->attrs.type == FileType::kDirectory) {
      if (m->attrs.type != FileType::kDirectory) return Status::kIsDir;
      if (!existing->entries.empty()) return Status::kNotEmpty;
      inodes_.erase(tit->second);
      td->attrs.nlink--;
    } else {
      if (m->attrs.type == FileType::kDirectory) return Status::kNotDir;
      if (--existing->attrs.nlink == 0) {
        bytes_used_ -= existing->data.size();
        inodes_.erase(tit->second);
      }
    }
    td->entries.erase(to);
  }
  fd->entries.erase(fit);
  td->entries[to] = moving;
  if (m->attrs.type == FileType::kDirectory && from_dir != to_dir) {
    m->parent = to_dir;
    fd->attrs.nlink--;
    td->attrs.nlink++;
  }
  touch(*fd, true);
  touch(*td, true);
  touch(*m, false);
  return Status::kOk;
}

Status FileSystem::link(const Cred& cred, FileId file, FileId dir,
                        const std::string& name) {
  Inode* f = get(file);
  Inode* d = get(dir);
  if (!f || !d) return Status::kStale;
  if (f->attrs.type == FileType::kDirectory) return Status::kIsDir;
  if (d->attrs.type != FileType::kDirectory) return Status::kNotDir;
  if (!name_ok(name)) return Status::kInval;
  if (!may(cred, d->attrs, 2)) return Status::kAcces;
  if (d->entries.count(name)) return Status::kExist;
  d->entries[name] = file;
  f->attrs.nlink++;
  touch(*f, false);
  touch(*d, true);
  return Status::kOk;
}

Result<FileSystem::ReadResult> FileSystem::read(const Cred& cred, FileId id,
                                                uint64_t offset,
                                                uint32_t count) const {
  const Inode* inode = get(id);
  if (!inode) return Result<ReadResult>(Status::kStale);
  if (inode->attrs.type == FileType::kDirectory) {
    return Result<ReadResult>(Status::kIsDir);
  }
  if (inode->attrs.type != FileType::kRegular) {
    return Result<ReadResult>(Status::kInval);
  }
  if (!may(cred, inode->attrs, 4)) return Result<ReadResult>(Status::kAcces);
  ReadResult out;
  if (offset >= inode->data.size()) {
    out.eof = true;
    return Result<ReadResult>(std::move(out));
  }
  const size_t n =
      std::min<uint64_t>(count, inode->data.size() - offset);
  out.data.assign(inode->data.begin() + offset,
                  inode->data.begin() + offset + n);
  out.eof = offset + n >= inode->data.size();
  return Result<ReadResult>(std::move(out));
}

Result<uint32_t> FileSystem::write(const Cred& cred, FileId id,
                                   uint64_t offset, ByteView data) {
  Inode* inode = get(id);
  if (!inode) return Result<uint32_t>(Status::kStale);
  if (inode->attrs.type == FileType::kDirectory) {
    return Result<uint32_t>(Status::kIsDir);
  }
  if (inode->attrs.type != FileType::kRegular) {
    return Result<uint32_t>(Status::kInval);
  }
  if (!may(cred, inode->attrs, 2)) return Result<uint32_t>(Status::kAcces);
  const uint64_t end = offset + data.size();
  if (end > inode->data.size()) {
    const uint64_t grow = end - inode->data.size();
    if (capacity_ && bytes_used_ + grow > capacity_) {
      return Result<uint32_t>(Status::kNoSpc);
    }
    inode->data.resize(end, 0);
    bytes_used_ += grow;
  }
  std::copy(data.begin(), data.end(), inode->data.begin() + offset);
  inode->attrs.size = inode->data.size();
  touch(*inode, true);
  return Result<uint32_t>(static_cast<uint32_t>(data.size()));
}

Result<std::vector<DirEntry>> FileSystem::readdir(const Cred& cred,
                                                  FileId dir, uint64_t cookie,
                                                  uint32_t max_entries) const {
  const Inode* d = get(dir);
  if (!d) return Result<std::vector<DirEntry>>(Status::kStale);
  if (d->attrs.type != FileType::kDirectory) {
    return Result<std::vector<DirEntry>>(Status::kNotDir);
  }
  if (!may(cred, d->attrs, 4)) {
    return Result<std::vector<DirEntry>>(Status::kAcces);
  }
  std::vector<DirEntry> out;
  // Cookies: 0 = start; 1 = after "."; 2 = after ".."; beyond that we use
  // 2 + ordinal position in the (sorted) entry map.
  uint64_t pos = 0;
  auto emit = [&](const std::string& name, FileId id) {
    ++pos;
    if (pos <= cookie || out.size() >= max_entries) return;
    out.emplace_back(name, id, pos);
  };
  emit(".", dir);
  emit("..", d->parent);
  for (const auto& [name, id] : d->entries) {
    emit(name, id);
    if (out.size() >= max_entries && pos > cookie) break;
  }
  return Result<std::vector<DirEntry>>(std::move(out));
}

// --- path helpers -------------------------------------------------------------

Result<FileId> FileSystem::resolve(const Cred& cred,
                                   const std::string& path) const {
  FileId cur = root_;
  size_t start = 0;
  while (start < path.size()) {
    while (start < path.size() && path[start] == '/') ++start;
    if (start >= path.size()) break;
    size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    const std::string name = path.substr(start, end - start);
    auto r = lookup(cred, cur, name);
    if (!r.ok()) return r;
    cur = r.value;
    start = end;
  }
  return Result<FileId>(cur);
}

Result<FileId> FileSystem::mkdir_p(const Cred& cred, const std::string& path,
                                   uint32_t mode) {
  FileId cur = root_;
  size_t start = 0;
  while (start < path.size()) {
    while (start < path.size() && path[start] == '/') ++start;
    if (start >= path.size()) break;
    size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    const std::string name = path.substr(start, end - start);
    auto r = lookup(cred, cur, name);
    if (r.ok()) {
      cur = r.value;
    } else if (r.status == Status::kNoEnt) {
      auto made = mkdir(cred, cur, name, mode);
      if (!made.ok()) return made;
      cur = made.value;
    } else {
      return r;
    }
    start = end;
  }
  return Result<FileId>(cur);
}

Result<FileId> FileSystem::write_file(const Cred& cred,
                                      const std::string& path,
                                      ByteView content, uint32_t mode) {
  const size_t slash = path.find_last_of('/');
  const std::string dir_path =
      slash == std::string::npos ? "" : path.substr(0, slash);
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  auto dir = mkdir_p(cred, dir_path);
  if (!dir.ok()) return dir;
  auto file = create(cred, dir.value, name, mode);
  if (!file.ok()) return file;
  SetAttrs trunc;
  trunc.size = 0;
  Status st = setattr(cred, file.value, trunc);
  if (st != Status::kOk) return Result<FileId>(st);
  auto w = write(cred, file.value, 0, content);
  if (!w.ok()) return Result<FileId>(w.status);
  return file;
}

void FileSystem::chown(FileId id, uint32_t uid, uint32_t gid) {
  SetAttrs owner;
  owner.uid = uid;
  owner.gid = gid;
  setattr(Cred(0, 0), id, owner);
}

Result<Buffer> FileSystem::read_file(const Cred& cred,
                                     const std::string& path) const {
  auto id = resolve(cred, path);
  if (!id.ok()) return Result<Buffer>(id.status);
  auto attrs = getattr(id.value);
  if (!attrs.ok()) return Result<Buffer>(attrs.status);
  auto r = read(cred, id.value, 0,
                static_cast<uint32_t>(attrs.value.size));
  if (!r.ok()) return Result<Buffer>(r.status);
  return Result<Buffer>(std::move(r.value.data));
}

}  // namespace sgfs::vfs

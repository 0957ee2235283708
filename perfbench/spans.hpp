// Wall-clock spans recorded from outside the program (traced build only).
//
// wraps.cpp puts a Scope around each wrapped synchronous entry point and
// main.cpp opens one kOp root span around each MountPoint call.  A span's
// self time is its duration minus the time its child spans cover; the
// per-layer totals below keep both, so a report never has to walk the span
// list.  The simulation runs on one host thread, so the open-span stack is
// the call stack: synchronous wrappers nest strictly, and a root span stays
// open across the coroutine suspensions of its MountPoint call while every
// span opened meanwhile (client, proxies, server) nests under it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kOp,        // root: one MountPoint call (bulk-rw, wan-smallfile)
  kCipher,    // aes_cbc_*, Rc4::process
  kHash,      // Sha1/Sha256 update/finish/hash (HMAC included)
  kRsa,       // rsa_sign_sha1/verify_sha1/encrypt/decrypt
  kKeygen,    // rsa_generate
  kMerkle,    // MerkleTree::verify
  kEnvelope,  // services::sign_envelope/verify_envelope
  kVfs,       // FileSystem read/write/lookup/getattr/create/remove
  kCount,
};

inline constexpr std::array<const char*, static_cast<size_t>(Layer::kCount)>
    kLayerNames = {"op",           "crypto.cipher", "crypto.hash",
                   "crypto.rsa",   "crypto.keygen", "crypto.merkle",
                   "services.envelope", "vfs"};

struct LayerStat {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  int64_t self_ns = 0;  // duration minus the time child spans cover
};

using LayerStats = std::array<LayerStat, static_cast<size_t>(Layer::kCount)>;

class Spans {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;
  /// Upper bound on kept span records (~24 MB); totals keep counting past it.
  static constexpr size_t kMaxRecords = 1u << 19;

  static Spans& get() {
    static Spans spans;
    return spans;
  }

  static int64_t wall_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span; returns the stack depth to hand back to end().
  size_t begin(Layer layer, uint64_t bytes = 0, int64_t virt = -1) {
    Open o;
    o.layer = layer;
    o.bytes = bytes;
    o.start = wall_ns();
    if (recording_ && records_.size() < kMaxRecords) {
      o.record = static_cast<uint32_t>(records_.size());
      Record r;
      r.parent = stack_.empty() ? kNone : stack_.back().record;
      r.op = op_;
      r.layer = layer;
      r.wall_start = o.start;
      r.virt_start = virt;
      records_.push_back(r);
    } else if (recording_) {
      ++dropped_;
    }
    stack_.push_back(o);
    return stack_.size() - 1;
  }

  /// Closes the span begin() returned `depth` for (and any left open above
  /// it by an exception).
  void end(size_t depth, int64_t virt = -1) {
    const int64_t now = wall_ns();
    while (stack_.size() > depth) {
      const Open o = stack_.back();
      stack_.pop_back();
      const int64_t d = now - o.start;
      LayerStat& s = stats_[static_cast<size_t>(o.layer)];
      ++s.calls;
      s.bytes += o.bytes;
      s.self_ns += d - o.child_ns;
      if (!stack_.empty()) stack_.back().child_ns += d;
      if (o.record != kNone) {
        records_[o.record].wall_end = now;
        records_[o.record].virt_end = virt;
      }
    }
  }

  void set_op(uint32_t op) { op_ = op; }
  void set_recording(bool on) { recording_ = on; }
  const LayerStats& stats() const { return stats_; }

  /// One line per span: id parent op layer wall_start wall_end virt_start
  /// virt_end (ns; -1 = no virtual clock at that boundary).
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# id\tparent\top\tlayer\twall_start_ns\twall_end_ns\t"
                    "virt_start_ns\tvirt_end_ns\n");
    if (dropped_ > 0) {
      std::fprintf(f, "# %llu spans past the record cap not written\n",
                   static_cast<unsigned long long>(dropped_));
    }
    const int64_t base = records_.empty() ? 0 : records_.front().wall_start;
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "%zu\t%lld\t%u\t%s\t%lld\t%lld\t%lld\t%lld\n", i,
                   r.parent == kNone ? -1LL : static_cast<long long>(r.parent),
                   r.op, kLayerNames[static_cast<size_t>(r.layer)],
                   static_cast<long long>(r.wall_start - base),
                   static_cast<long long>(r.wall_end - base),
                   static_cast<long long>(r.virt_start),
                   static_cast<long long>(r.virt_end));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    Layer layer = Layer::kOp;
    uint64_t bytes = 0;
    int64_t start = 0;
    int64_t child_ns = 0;
    uint32_t record = kNone;
  };
  struct Record {
    uint32_t parent = kNone;
    uint32_t op = 0;
    Layer layer = Layer::kOp;
    int64_t wall_start = 0;
    int64_t wall_end = 0;
    int64_t virt_start = -1;
    int64_t virt_end = -1;
  };

  std::vector<Open> stack_;
  std::vector<Record> records_;
  LayerStats stats_{};
  uint64_t dropped_ = 0;
  uint32_t op_ = 0;
  bool recording_ = false;
};

/// RAII span for the synchronous wrappers.
class Scope {
 public:
  explicit Scope(Layer layer, uint64_t bytes = 0)
      : depth_(Spans::get().begin(layer, bytes)) {}
  ~Scope() { Spans::get().end(depth_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  size_t depth_;
};

}  // namespace perfbench

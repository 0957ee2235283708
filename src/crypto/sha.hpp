// SHA-1 and SHA-256 message digests (FIPS 180-4), implemented from scratch.
//
// SHA1-HMAC is the integrity mechanism of every SGFS security configuration
// in the paper (sgfs-sha / sgfs-rc / sgfs-aes); SHA-256 is used by the
// certificate layer for fingerprints and by the WS-Security substitute.
//
// Compression runs on a kernel from crypto/kernels.hpp: SHA-NI where the
// CPU has it, else the portable scalar code, which stays as the reference.
// Whole blocks of one update() go to the kernel in a single call.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace sgfs::crypto {

struct ShaKernel;  // crypto/kernels.hpp

class Sha1 {
 public:
  static constexpr size_t kDigestSize = 20;
  static constexpr size_t kBlockSize = 64;
  using Digest = std::array<uint8_t, kDigestSize>;

  /// Uses the fastest kernel this CPU supports.
  Sha1();
  /// Pins one kernel, so tests can compare them.
  explicit Sha1(const ShaKernel& kernel);
  void update(ByteView data);
  Digest finish();

  /// One-shot convenience.
  static Digest hash(ByteView data);

 private:
  const ShaKernel* kernel_;
  std::array<uint32_t, 5> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, kBlockSize> buffer_;
  size_t buffer_len_ = 0;
};

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;
  using Digest = std::array<uint8_t, kDigestSize>;

  /// Uses the fastest kernel this CPU supports.
  Sha256();
  /// Pins one kernel, so tests can compare them.
  explicit Sha256(const ShaKernel& kernel);
  void update(ByteView data);
  Digest finish();

  static Digest hash(ByteView data);

 private:
  const ShaKernel* kernel_;
  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, kBlockSize> buffer_;
  size_t buffer_len_ = 0;
};

/// Converts a digest to an owning Buffer.
template <typename D>
Buffer digest_bytes(const D& d) {
  return Buffer(d.begin(), d.end());
}

}  // namespace sgfs::crypto

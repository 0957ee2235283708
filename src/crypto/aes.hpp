// AES (Rijndael, FIPS-197) from scratch: AES-128 and AES-256, plus CBC mode
// with PKCS#7 padding.
//
// AES-256-CBC is the paper's "very strong cipher" (sgfs-aes configuration,
// §6.2.1) and the cipher of the emulated SSH tunnel (gfs-ssh).  Blocks run
// on a kernel from crypto/kernels.hpp: AES-NI where the CPU has it (no
// table lookups, so no cache-timing channel), else the classic 32-bit
// T-table formulation, whose tables are derived from the GF(2^8) S-box at
// first use and which stays as the reference.  CBC hands every run of whole
// blocks to the kernel in one call.
#pragma once

#include <array>
#include <cstdint>

#include "common/bufchain.hpp"
#include "common/bytes.hpp"

namespace sgfs::crypto {

struct AesKernel;  // crypto/kernels.hpp

class Aes {
 public:
  static constexpr size_t kBlockSize = 16;

  /// key must be 16 (AES-128) or 32 (AES-256) bytes.  Uses the fastest
  /// kernel this CPU supports.
  explicit Aes(ByteView key);
  /// Pins one kernel, so tests can compare them.
  Aes(ByteView key, const AesKernel& kernel);

  void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;
  void decrypt_block(const uint8_t in[16], uint8_t out[16]) const;

  /// CBC over n whole blocks, without padding; iv carries the chaining
  /// value in and out.  in and out may be the same buffer.
  void cbc_encrypt_blocks(uint8_t iv[16], const uint8_t* in, uint8_t* out,
                          size_t n) const;
  void cbc_decrypt_blocks(uint8_t iv[16], const uint8_t* in, uint8_t* out,
                          size_t n) const;

  int rounds() const { return rounds_; }

 private:
  const AesKernel* kernel_;
  int rounds_;
  // Round keys in FIPS-197 byte order, the layout every kernel loads: the
  // encryption schedule and the equivalent-inverse decryption schedule.
  std::array<uint8_t, 16 * 15> ek_{};
  std::array<uint8_t, 16 * 15> dk_{};
};

/// CBC-mode encryption with PKCS#7 padding; iv must be 16 bytes.
Buffer aes_cbc_encrypt(const Aes& aes, ByteView iv, ByteView plaintext);

/// Identical output to aes_cbc_encrypt over the flattened chain, but
/// encrypts whole blocks straight from each segment and stages only a block
/// that straddles segments — no contiguous plaintext copy is materialised.
Buffer aes_cbc_encrypt_chain(const Aes& aes, ByteView iv,
                             const BufChain& plaintext);

/// CBC-mode decryption; throws std::runtime_error on corrupt padding.
Buffer aes_cbc_decrypt(const Aes& aes, ByteView iv, ByteView ciphertext);

}  // namespace sgfs::crypto

// Block kernels behind Sha1, Sha256 and Aes: the portable scalar reference
// and the SHA-NI / AES-NI implementations.  Private to src/crypto, apart
// from the tests and micro_crypto, which pin each kernel to compare them.
//
// The hardware kernels are compiled with per-function target attributes, so
// every build carries them with no -march flag; which one runs is decided
// once per process from CPUID.  A CPU without the instructions runs the
// scalar kernels.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sgfs::crypto {

/// SHA-1 / SHA-256 compression of n consecutive 64-byte blocks into a state
/// of host-order words (a, b, c, ...).
struct ShaKernel {
  const char* name;
  void (*sha1)(uint32_t state[5], const uint8_t* blocks, size_t n);
  void (*sha256)(uint32_t state[8], const uint8_t* blocks, size_t n);
};

/// AES-CBC over n whole 16-byte blocks, no padding.  `rk` holds rounds+1
/// round keys in FIPS-197 byte order: the encryption schedule for
/// cbc_encrypt, the equivalent-inverse one for cbc_decrypt.  `iv` carries
/// the chaining value in and out; `in` and `out` may be the same buffer.
struct AesKernel {
  const char* name;
  void (*cbc_encrypt)(const uint8_t* rk, int rounds, uint8_t iv[16],
                      const uint8_t* in, uint8_t* out, size_t n);
  void (*cbc_decrypt)(const uint8_t* rk, int rounds, uint8_t iv[16],
                      const uint8_t* in, uint8_t* out, size_t n);
};

/// The from-scratch kernels: run on every CPU, and are the reference the
/// hardware kernels are tested against.
extern const ShaKernel kShaScalar;
extern const AesKernel kAesScalar;

/// The SHA-NI / AES-NI kernels, or nullptr when this CPU lacks them.
const ShaKernel* sha_ni_kernel();
const AesKernel* aes_ni_kernel();

/// The kernels Sha1, Sha256 and Aes use unless pinned to another: the
/// hardware one where present, else the scalar one.
const ShaKernel& sha_kernel();
const AesKernel& aes_kernel();

}  // namespace sgfs::crypto

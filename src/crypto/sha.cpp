#include "crypto/sha.hpp"

#include <cstring>

#include "crypto/kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sgfs::crypto {

namespace {
inline uint32_t rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }
inline uint32_t rotr32(uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

inline uint32_t load_be32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

inline void store_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

using Compress = void (*)(uint32_t* state, const uint8_t* blocks, size_t n);

// Merkle-Damgard buffering shared by both hashes: tops up a partial block,
// hands every whole block of `data` to the kernel in one call, and keeps
// the remainder for the next update().
void md_update(Compress compress, uint32_t* state, uint8_t* buffer,
               size_t& buffer_len, ByteView data) {
  constexpr size_t kBlock = 64;
  const uint8_t* p = data.data();
  size_t n = data.size();
  if (n == 0) return;
  if (buffer_len > 0) {
    const size_t take = std::min(kBlock - buffer_len, n);
    std::memcpy(buffer + buffer_len, p, take);
    buffer_len += take;
    if (buffer_len < kBlock) return;
    compress(state, buffer, 1);
    buffer_len = 0;
    p += take;
    n -= take;
  }
  if (n >= kBlock) {
    compress(state, p, n / kBlock);
    p += n / kBlock * kBlock;
    n %= kBlock;
  }
  if (n > 0) std::memcpy(buffer, p, n);
  buffer_len = n;
}

// Appends 0x80, zero fill and the big-endian bit length to the buffered
// tail and compresses the last one or two blocks.
void md_finish(Compress compress, uint32_t* state, const uint8_t* buffer,
               size_t buffer_len, uint64_t total_len) {
  uint8_t tail[128] = {};
  std::memcpy(tail, buffer, buffer_len);
  tail[buffer_len] = 0x80;
  const size_t len = buffer_len < 56 ? 64 : 128;
  const uint64_t bit_len = total_len * 8;
  store_be32(tail + len - 8, static_cast<uint32_t>(bit_len >> 32));
  store_be32(tail + len - 4, static_cast<uint32_t>(bit_len));
  compress(state, tail, len / 64);
}

// --- scalar kernels (the reference) -------------------------------------------

void sha1_scalar(uint32_t state[5], const uint8_t* block, size_t n) {
  for (; n > 0; --n, block += 64) {
    uint32_t w[80];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
             e = state[4];
    for (int i = 0; i < 80; ++i) {
      uint32_t f, k;
      if (i < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = tmp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

void sha256_scalar(uint32_t state[8], const uint8_t* block, size_t n) {
  for (; n > 0; --n, block += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^
                    (w[i - 15] >> 3);
      uint32_t s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^
                    (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
             e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

// --- SHA-NI kernels -------------------------------------------------------------
//
// The round structure follows Intel's SHA extensions reference: four
// message registers m[0..3] rotate through the schedule, and each step G
// below runs rounds 4G..4G+3 while it expands the words of later steps.
// Steps are template instances so that every index and SHA1RNDS4 function
// selector is a compile-time constant.

#if defined(__x86_64__)

template <int G>
[[gnu::target("sha,sse4.1"), gnu::always_inline]] inline void sha1_rounds(
    __m128i& abcd, __m128i (&e)[2], __m128i (&m)[4]) {
  // e[G % 2] carries E into this step; e[(G + 1) % 2] takes it out.
  if constexpr (G == 0) {
    e[0] = _mm_add_epi32(e[0], m[0]);
  } else {
    e[G % 2] = _mm_sha1nexte_epu32(e[G % 2], m[G % 4]);
  }
  e[(G + 1) % 2] = abcd;
  if constexpr (G >= 3 && G <= 18) {
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], m[G % 4]);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, e[G % 2], G / 5);
  if constexpr (G >= 1 && G <= 16) {
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], m[G % 4]);
  }
  if constexpr (G >= 2 && G <= 17) {
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], m[G % 4]);
  }
  if constexpr (G < 19) sha1_rounds<G + 1>(abcd, e, m);
}

[[gnu::target("sha,sse4.1")]] void sha1_ni(uint32_t state[5],
                                           const uint8_t* block, size_t n) {
  const __m128i reverse = _mm_set_epi64x(0x0001020304050607ULL,
                                         0x08090a0b0c0d0e0fULL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; n > 0; --n, block += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
          reverse);
    }
    __m128i e[2] = {e0, _mm_setzero_si128()};
    sha1_rounds<0>(abcd, e, m);
    e0 = _mm_sha1nexte_epu32(e[0], e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

template <int G>
[[gnu::target("sha,sse4.1"), gnu::always_inline]] inline void sha256_rounds(
    __m128i& abef, __m128i& cdgh, __m128i (&m)[4]) {
  const __m128i msg = _mm_add_epi32(
      m[G % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                    kSha256K + 4 * G)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
  if constexpr (G >= 3 && G <= 14) {
    m[(G + 1) % 4] = _mm_add_epi32(m[(G + 1) % 4],
                                   _mm_alignr_epi8(m[G % 4], m[(G + 3) % 4], 4));
    m[(G + 1) % 4] = _mm_sha256msg2_epu32(m[(G + 1) % 4], m[G % 4]);
  }
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
  if constexpr (G >= 1 && G <= 12) {
    m[(G + 3) % 4] = _mm_sha256msg1_epu32(m[(G + 3) % 4], m[G % 4]);
  }
  if constexpr (G < 15) sha256_rounds<G + 1>(abef, cdgh, m);
}

[[gnu::target("sha,sse4.1")]] void sha256_ni(uint32_t state[8],
                                             const uint8_t* block, size_t n) {
  const __m128i byteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL,
                                          0x0405060700010203ULL);
  // The SHA-NI state registers hold (a, b, e, f) and (c, d, g, h).
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);
  for (; n > 0; --n, block += 64) {
    const __m128i abef_save = abef;
    const __m128i cdgh_save = cdgh;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
          byteswap);
    }
    sha256_rounds<0>(abef, cdgh, m);
    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

const ShaKernel kShaNi{"sha-ni", sha1_ni, sha256_ni};

#endif  // __x86_64__

}  // namespace

const ShaKernel kShaScalar{"scalar", sha1_scalar, sha256_scalar};

const ShaKernel* sha_ni_kernel() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  if (supported) return &kShaNi;
#endif
  return nullptr;
}

const ShaKernel& sha_kernel() {
  static const ShaKernel& kernel =
      sha_ni_kernel() ? *sha_ni_kernel() : kShaScalar;
  return kernel;
}

// --- SHA-1 ------------------------------------------------------------------

Sha1::Sha1() : Sha1(sha_kernel()) {}

Sha1::Sha1(const ShaKernel& kernel)
    : kernel_(&kernel),
      state_{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u} {
}

void Sha1::update(ByteView data) {
  total_len_ += data.size();
  md_update(kernel_->sha1, state_.data(), buffer_.data(), buffer_len_, data);
}

Sha1::Digest Sha1::finish() {
  md_finish(kernel_->sha1, state_.data(), buffer_.data(), buffer_len_,
            total_len_);
  Digest out;
  for (int i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Sha1::Digest Sha1::hash(ByteView data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

// --- SHA-256 ----------------------------------------------------------------

Sha256::Sha256() : Sha256(sha_kernel()) {}

Sha256::Sha256(const ShaKernel& kernel)
    : kernel_(&kernel),
      state_{0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
             0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u} {}

void Sha256::update(ByteView data) {
  total_len_ += data.size();
  md_update(kernel_->sha256, state_.data(), buffer_.data(), buffer_len_,
            data);
}

Sha256::Digest Sha256::finish() {
  md_finish(kernel_->sha256, state_.data(), buffer_.data(), buffer_len_,
            total_len_);
  Digest out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Sha256::Digest Sha256::hash(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace sgfs::crypto

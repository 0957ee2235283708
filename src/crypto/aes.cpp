#include "crypto/aes.hpp"

#include <cstring>
#include <stdexcept>

#include "crypto/kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sgfs::crypto {

namespace {

// GF(2^8) helpers (polynomial x^8 + x^4 + x^3 + x + 1).
uint8_t xtime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

uint8_t gmul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  while (b) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

struct Tables {
  uint8_t sbox[256];
  uint8_t inv_sbox[256];
  uint32_t te[4][256];  // encryption T-tables
  uint32_t td[4][256];  // decryption T-tables

  Tables() {
    // Build the S-box from multiplicative inverses + affine transform,
    // using log/antilog tables over generator 3.
    uint8_t log_t[256], alog[256];
    uint8_t p = 1;
    for (int i = 0; i < 255; ++i) {
      alog[i] = p;
      log_t[p] = static_cast<uint8_t>(i);
      p = static_cast<uint8_t>(p ^ xtime(p));  // multiply by 3
    }
    alog[255] = alog[0];
    for (int i = 0; i < 256; ++i) {
      uint8_t inv = i == 0 ? 0 : alog[255 - log_t[i]];
      uint8_t s = inv;
      // Affine transform: s ^= rotl(inv,1..4); s ^= 0x63.
      uint8_t x = inv;
      for (int r = 0; r < 4; ++r) {
        x = static_cast<uint8_t>((x << 1) | (x >> 7));
        s ^= x;
      }
      s ^= 0x63;
      sbox[i] = s;
      inv_sbox[s] = static_cast<uint8_t>(i);
    }
    for (int i = 0; i < 256; ++i) {
      const uint8_t s = sbox[i];
      const uint32_t enc = (static_cast<uint32_t>(gmul(s, 2)) << 24) |
                           (static_cast<uint32_t>(s) << 16) |
                           (static_cast<uint32_t>(s) << 8) |
                           static_cast<uint32_t>(gmul(s, 3));
      te[0][i] = enc;
      te[1][i] = (enc >> 8) | (enc << 24);
      te[2][i] = (enc >> 16) | (enc << 16);
      te[3][i] = (enc >> 24) | (enc << 8);

      const uint8_t si = inv_sbox[i];
      const uint32_t dec = (static_cast<uint32_t>(gmul(si, 14)) << 24) |
                           (static_cast<uint32_t>(gmul(si, 9)) << 16) |
                           (static_cast<uint32_t>(gmul(si, 13)) << 8) |
                           static_cast<uint32_t>(gmul(si, 11));
      td[0][i] = dec;
      td[1][i] = (dec >> 8) | (dec << 24);
      td[2][i] = (dec >> 16) | (dec << 16);
      td[3][i] = (dec >> 24) | (dec << 8);
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

uint32_t load_be32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

void store_be32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

uint32_t sub_word(uint32_t w) {
  const auto& t = tables();
  return (static_cast<uint32_t>(t.sbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(t.sbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(t.sbox[(w >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(t.sbox[w & 0xff]);
}

uint32_t rot_word(uint32_t w) { return (w << 8) | (w >> 24); }

// InvMixColumns applied to a round-key word (equivalent inverse cipher).
uint32_t inv_mix(uint32_t w) {
  uint8_t b[4] = {static_cast<uint8_t>(w >> 24), static_cast<uint8_t>(w >> 16),
                  static_cast<uint8_t>(w >> 8), static_cast<uint8_t>(w)};
  uint8_t o[4];
  o[0] = gmul(b[0], 14) ^ gmul(b[1], 11) ^ gmul(b[2], 13) ^ gmul(b[3], 9);
  o[1] = gmul(b[0], 9) ^ gmul(b[1], 14) ^ gmul(b[2], 11) ^ gmul(b[3], 13);
  o[2] = gmul(b[0], 13) ^ gmul(b[1], 9) ^ gmul(b[2], 14) ^ gmul(b[3], 11);
  o[3] = gmul(b[0], 11) ^ gmul(b[1], 13) ^ gmul(b[2], 9) ^ gmul(b[3], 14);
  return (static_cast<uint32_t>(o[0]) << 24) |
         (static_cast<uint32_t>(o[1]) << 16) |
         (static_cast<uint32_t>(o[2]) << 8) | static_cast<uint32_t>(o[3]);
}

// --- scalar kernel (the reference) --------------------------------------------

// Round keys as the 32-bit words the T-table code works on.
struct Words {
  uint32_t w[4 * 15];
  Words(const uint8_t* rk, int rounds) {
    for (int i = 0; i < 4 * (rounds + 1); ++i) w[i] = load_be32(rk + 4 * i);
  }
};

void encrypt_words(const uint32_t* ek, int rounds, const uint8_t in[16],
                   uint8_t out[16]) {
  const auto& t = tables();
  uint32_t s0 = load_be32(in) ^ ek[0];
  uint32_t s1 = load_be32(in + 4) ^ ek[1];
  uint32_t s2 = load_be32(in + 8) ^ ek[2];
  uint32_t s3 = load_be32(in + 12) ^ ek[3];
  for (int r = 1; r < rounds; ++r) {
    const uint32_t* rk = &ek[4 * r];
    uint32_t t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
                  t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^ rk[0];
    uint32_t t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
                  t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^ rk[1];
    uint32_t t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
                  t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^ rk[2];
    uint32_t t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
                  t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  const uint32_t* rk = &ek[4 * rounds];
  auto final_word = [&](uint32_t a, uint32_t b, uint32_t c, uint32_t d,
                        uint32_t k) {
    return ((static_cast<uint32_t>(t.sbox[a >> 24]) << 24) |
            (static_cast<uint32_t>(t.sbox[(b >> 16) & 0xff]) << 16) |
            (static_cast<uint32_t>(t.sbox[(c >> 8) & 0xff]) << 8) |
            static_cast<uint32_t>(t.sbox[d & 0xff])) ^
           k;
  };
  store_be32(out, final_word(s0, s1, s2, s3, rk[0]));
  store_be32(out + 4, final_word(s1, s2, s3, s0, rk[1]));
  store_be32(out + 8, final_word(s2, s3, s0, s1, rk[2]));
  store_be32(out + 12, final_word(s3, s0, s1, s2, rk[3]));
}

void decrypt_words(const uint32_t* dk, int rounds, const uint8_t in[16],
                   uint8_t out[16]) {
  const auto& t = tables();
  uint32_t s0 = load_be32(in) ^ dk[0];
  uint32_t s1 = load_be32(in + 4) ^ dk[1];
  uint32_t s2 = load_be32(in + 8) ^ dk[2];
  uint32_t s3 = load_be32(in + 12) ^ dk[3];
  for (int r = 1; r < rounds; ++r) {
    const uint32_t* rk = &dk[4 * r];
    uint32_t t0 = t.td[0][s0 >> 24] ^ t.td[1][(s3 >> 16) & 0xff] ^
                  t.td[2][(s2 >> 8) & 0xff] ^ t.td[3][s1 & 0xff] ^ rk[0];
    uint32_t t1 = t.td[0][s1 >> 24] ^ t.td[1][(s0 >> 16) & 0xff] ^
                  t.td[2][(s3 >> 8) & 0xff] ^ t.td[3][s2 & 0xff] ^ rk[1];
    uint32_t t2 = t.td[0][s2 >> 24] ^ t.td[1][(s1 >> 16) & 0xff] ^
                  t.td[2][(s0 >> 8) & 0xff] ^ t.td[3][s3 & 0xff] ^ rk[2];
    uint32_t t3 = t.td[0][s3 >> 24] ^ t.td[1][(s2 >> 16) & 0xff] ^
                  t.td[2][(s1 >> 8) & 0xff] ^ t.td[3][s0 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  const uint32_t* rk = &dk[4 * rounds];
  auto final_word = [&](uint32_t a, uint32_t b, uint32_t c, uint32_t d,
                        uint32_t k) {
    return ((static_cast<uint32_t>(t.inv_sbox[a >> 24]) << 24) |
            (static_cast<uint32_t>(t.inv_sbox[(b >> 16) & 0xff]) << 16) |
            (static_cast<uint32_t>(t.inv_sbox[(c >> 8) & 0xff]) << 8) |
            static_cast<uint32_t>(t.inv_sbox[d & 0xff])) ^
           k;
  };
  store_be32(out, final_word(s0, s3, s2, s1, rk[0]));
  store_be32(out + 4, final_word(s1, s0, s3, s2, rk[1]));
  store_be32(out + 8, final_word(s2, s1, s0, s3, rk[2]));
  store_be32(out + 12, final_word(s3, s2, s1, s0, rk[3]));
}

void cbc_encrypt_scalar(const uint8_t* rk, int rounds, uint8_t iv[16],
                        const uint8_t* in, uint8_t* out, size_t n) {
  const Words ek(rk, rounds);
  for (; n > 0; --n, in += 16, out += 16) {
    uint8_t block[16];
    for (int i = 0; i < 16; ++i) block[i] = in[i] ^ iv[i];
    encrypt_words(ek.w, rounds, block, iv);
    std::memcpy(out, iv, 16);
  }
}

void cbc_decrypt_scalar(const uint8_t* rk, int rounds, uint8_t iv[16],
                        const uint8_t* in, uint8_t* out, size_t n) {
  const Words dk(rk, rounds);
  for (; n > 0; --n, in += 16, out += 16) {
    uint8_t block[16], next_iv[16];
    std::memcpy(next_iv, in, 16);
    decrypt_words(dk.w, rounds, in, block);
    for (int i = 0; i < 16; ++i) out[i] = block[i] ^ iv[i];
    std::memcpy(iv, next_iv, 16);
  }
}

// --- AES-NI kernel --------------------------------------------------------------
//
// AESENC/AESDEC take round keys in FIPS-197 byte order, and AESDEC's middle
// rounds take the InvMixColumns'd keys of the equivalent inverse cipher:
// exactly the ek_/dk_ schedules the scalar code uses.  Encryption is serial
// by CBC's definition; decryption runs eight independent blocks at a time.

#if defined(__x86_64__)

template <int R>
[[gnu::target("aes,sse4.1")]] void cbc_encrypt_ni(const uint8_t* rk,
                                                  uint8_t iv[16],
                                                  const uint8_t* in,
                                                  uint8_t* out, size_t n) {
  __m128i k[R + 1];
  for (int r = 0; r <= R; ++r) {
    k[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * r));
  }
  __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv));
  for (; n > 0; --n, in += 16, out += 16) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
    x = _mm_xor_si128(x, _mm_xor_si128(c, k[0]));
#pragma GCC unroll 14
    for (int r = 1; r < R; ++r) x = _mm_aesenc_si128(x, k[r]);
    c = _mm_aesenclast_si128(x, k[R]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), c);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(iv), c);
}

template <int R>
[[gnu::target("aes,sse4.1")]] void cbc_decrypt_ni(const uint8_t* rk,
                                                  uint8_t iv[16],
                                                  const uint8_t* in,
                                                  uint8_t* out, size_t n) {
  constexpr int kWays = 8;
  __m128i k[R + 1];
  for (int r = 0; r <= R; ++r) {
    k[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * r));
  }
  __m128i prev = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv));
  for (; n >= kWays; n -= kWays, in += 16 * kWays, out += 16 * kWays) {
    __m128i c[kWays], x[kWays];
    for (int j = 0; j < kWays; ++j) {
      c[j] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * j));
      x[j] = _mm_xor_si128(c[j], k[0]);
    }
#pragma GCC unroll 14
    for (int r = 1; r < R; ++r) {
      for (int j = 0; j < kWays; ++j) x[j] = _mm_aesdec_si128(x[j], k[r]);
    }
    for (int j = 0; j < kWays; ++j) {
      x[j] = _mm_aesdeclast_si128(x[j], k[R]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * j),
                       _mm_xor_si128(x[j], j == 0 ? prev : c[j - 1]));
    }
    prev = c[kWays - 1];
  }
  for (; n > 0; --n, in += 16, out += 16) {
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in));
    __m128i x = _mm_xor_si128(c, k[0]);
#pragma GCC unroll 14
    for (int r = 1; r < R; ++r) x = _mm_aesdec_si128(x, k[r]);
    x = _mm_aesdeclast_si128(x, k[R]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm_xor_si128(x, prev));
    prev = c;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(iv), prev);
}

void cbc_encrypt_ni_any(const uint8_t* rk, int rounds, uint8_t iv[16],
                        const uint8_t* in, uint8_t* out, size_t n) {
  if (rounds == 14) {
    cbc_encrypt_ni<14>(rk, iv, in, out, n);
  } else {
    cbc_encrypt_ni<10>(rk, iv, in, out, n);
  }
}

void cbc_decrypt_ni_any(const uint8_t* rk, int rounds, uint8_t iv[16],
                        const uint8_t* in, uint8_t* out, size_t n) {
  if (rounds == 14) {
    cbc_decrypt_ni<14>(rk, iv, in, out, n);
  } else {
    cbc_decrypt_ni<10>(rk, iv, in, out, n);
  }
}

const AesKernel kAesNi{"aes-ni", cbc_encrypt_ni_any, cbc_decrypt_ni_any};

#endif  // __x86_64__

void check_iv(ByteView iv) {
  if (iv.size() != Aes::kBlockSize) {
    throw std::invalid_argument("CBC IV must be 16 bytes");
  }
}

// PKCS#7 CBC encryption over plaintext that arrives in pieces: whole blocks
// go to the kernel straight from each piece, and only a block straddling
// two pieces, or the final padded block, is staged.
class CbcEncryptor {
 public:
  CbcEncryptor(const Aes& aes, ByteView iv, size_t total)
      : aes_(aes),
        out_(total + Aes::kBlockSize - total % Aes::kBlockSize) {
    check_iv(iv);
    std::memcpy(chain_, iv.data(), Aes::kBlockSize);
  }

  void feed(const uint8_t* p, size_t n) {
    if (n == 0) return;
    if (fill_ > 0) {
      const size_t take = std::min(n, Aes::kBlockSize - fill_);
      std::memcpy(staging_ + fill_, p, take);
      fill_ += take;
      if (fill_ < Aes::kBlockSize) return;
      emit(staging_, 1);
      fill_ = 0;
      p += take;
      n -= take;
    }
    emit(p, n / Aes::kBlockSize);
    p += n / Aes::kBlockSize * Aes::kBlockSize;
    n %= Aes::kBlockSize;
    if (n > 0) std::memcpy(staging_, p, n);
    fill_ = n;
  }

  Buffer finish() {
    const size_t pad = Aes::kBlockSize - fill_;
    std::memset(staging_ + fill_, static_cast<int>(pad), pad);
    emit(staging_, 1);
    return std::move(out_);
  }

 private:
  void emit(const uint8_t* p, size_t blocks) {
    if (blocks == 0) return;
    aes_.cbc_encrypt_blocks(chain_, p, out_.data() + off_, blocks);
    off_ += blocks * Aes::kBlockSize;
  }

  const Aes& aes_;
  Buffer out_;
  size_t off_ = 0;
  uint8_t chain_[Aes::kBlockSize];
  uint8_t staging_[Aes::kBlockSize];
  size_t fill_ = 0;
};

}  // namespace

const AesKernel kAesScalar{"scalar", cbc_encrypt_scalar, cbc_decrypt_scalar};

const AesKernel* aes_ni_kernel() {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") && __builtin_cpu_supports("sse4.1");
  }();
  if (supported) return &kAesNi;
#endif
  return nullptr;
}

const AesKernel& aes_kernel() {
  static const AesKernel& kernel =
      aes_ni_kernel() ? *aes_ni_kernel() : kAesScalar;
  return kernel;
}

Aes::Aes(ByteView key) : Aes(key, aes_kernel()) {}

Aes::Aes(ByteView key, const AesKernel& kernel) : kernel_(&kernel) {
  const size_t nk = key.size() / 4;  // key length in words
  if (key.size() != 16 && key.size() != 32) {
    throw std::invalid_argument("AES key must be 16 or 32 bytes");
  }
  rounds_ = static_cast<int>(nk) + 6;  // 10 or 14
  const size_t total = 4 * (rounds_ + 1);
  uint32_t ek[4 * 15];
  for (size_t i = 0; i < nk; ++i) ek[i] = load_be32(key.data() + 4 * i);
  uint32_t rcon = 0x01000000u;
  for (size_t i = nk; i < total; ++i) {
    uint32_t temp = ek[i - 1];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ rcon;
      rcon = static_cast<uint32_t>(xtime(static_cast<uint8_t>(rcon >> 24)))
             << 24;
    } else if (nk == 8 && i % nk == 4) {
      temp = sub_word(temp);
    }
    ek[i] = ek[i - nk] ^ temp;
  }
  // Equivalent inverse cipher round keys: reverse order, InvMixColumns on
  // all but the first and last rounds.
  for (int r = 0; r <= rounds_; ++r) {
    for (int c = 0; c < 4; ++c) {
      store_be32(&ek_[16 * r + 4 * c], ek[4 * r + c]);
      const uint32_t w = ek[4 * (rounds_ - r) + c];
      store_be32(&dk_[16 * r + 4 * c],
                 (r == 0 || r == rounds_) ? w : inv_mix(w));
    }
  }
}

void Aes::encrypt_block(const uint8_t in[16], uint8_t out[16]) const {
  uint8_t zero_iv[kBlockSize] = {};
  cbc_encrypt_blocks(zero_iv, in, out, 1);
}

void Aes::decrypt_block(const uint8_t in[16], uint8_t out[16]) const {
  uint8_t zero_iv[kBlockSize] = {};
  cbc_decrypt_blocks(zero_iv, in, out, 1);
}

void Aes::cbc_encrypt_blocks(uint8_t iv[16], const uint8_t* in, uint8_t* out,
                             size_t n) const {
  kernel_->cbc_encrypt(ek_.data(), rounds_, iv, in, out, n);
}

void Aes::cbc_decrypt_blocks(uint8_t iv[16], const uint8_t* in, uint8_t* out,
                             size_t n) const {
  kernel_->cbc_decrypt(dk_.data(), rounds_, iv, in, out, n);
}

Buffer aes_cbc_encrypt(const Aes& aes, ByteView iv, ByteView plaintext) {
  CbcEncryptor enc(aes, iv, plaintext.size());
  enc.feed(plaintext.data(), plaintext.size());
  return enc.finish();
}

Buffer aes_cbc_encrypt_chain(const Aes& aes, ByteView iv,
                             const BufChain& plaintext) {
  CbcEncryptor enc(aes, iv, plaintext.size());
  for (const auto& seg : plaintext.segments()) {
    enc.feed(seg.store->data() + seg.offset, seg.len);
  }
  return enc.finish();
}

Buffer aes_cbc_decrypt(const Aes& aes, ByteView iv, ByteView ciphertext) {
  check_iv(iv);
  if (ciphertext.empty() || ciphertext.size() % Aes::kBlockSize != 0) {
    throw std::runtime_error("CBC ciphertext not block-aligned");
  }
  Buffer out(ciphertext.size());
  uint8_t chain[Aes::kBlockSize];
  std::memcpy(chain, iv.data(), Aes::kBlockSize);
  aes.cbc_decrypt_blocks(chain, ciphertext.data(), out.data(),
                         ciphertext.size() / Aes::kBlockSize);
  const uint8_t pad = out.back();
  if (pad == 0 || pad > Aes::kBlockSize || pad > out.size()) {
    throw std::runtime_error("CBC padding corrupt");
  }
  for (size_t i = out.size() - pad; i < out.size(); ++i) {
    if (out[i] != pad) throw std::runtime_error("CBC padding corrupt");
  }
  // erase (never grows) rather than resize: GCC 12 + asan cannot prove the
  // pad guard above keeps resize's grow path dead and trips
  // -Wstringop-overflow on it.
  out.erase(out.end() - pad, out.end());
  return out;
}

}  // namespace sgfs::crypto

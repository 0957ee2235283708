// Known-answer tests from the primary standards documents, complementing
// the vectors already in sha_test.cpp / cipher_test.cpp:
//   - FIPS-197 Appendix B (AES-128 cipher example)
//   - NIST SP 800-38A F.2 (CBC mode, AES-128 and AES-256)
//   - RFC 2202 cases 4-7 (HMAC-SHA1; 1-3 live in sha_test.cpp)
//   - RFC 6229 (RC4 keystreams for 40- and 128-bit keys)
// The AES and HMAC-SHA1 vectors run on every kernel this CPU has
// (kernel_list.hpp).
#include <gtest/gtest.h>

#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rc4.hpp"
#include "kernel_list.hpp"

namespace sgfs::crypto {
namespace {

// Hmac builds its hashes with Hash(), so the kernel under test rides in a
// static member.
struct PinnedSha1 : Sha1 {
  static inline const ShaKernel* kernel = &kShaScalar;
  PinnedSha1() : Sha1(*kernel) {}
  static Digest hash(ByteView data) {
    PinnedSha1 h;
    h.update(data);
    return h.finish();
  }
};

void expect_hmac_sha1(ByteView key, ByteView data, const char* expected) {
  for (const ShaKernel* k : sha_kernels()) {
    SCOPED_TRACE(k->name);
    PinnedSha1::kernel = k;
    auto d = Hmac<PinnedSha1>::mac(key, data);
    EXPECT_EQ(to_hex(ByteView(d.data(), d.size())), expected);
  }
}

TEST(AesKat, Fips197AppendixB) {
  for (const AesKernel* k : aes_kernels()) {
    SCOPED_TRACE(k->name);
    Aes aes(from_hex("2b7e151628aed2a6abf7158809cf4f3c"), *k);
    Buffer pt = from_hex("3243f6a8885a308d313198a2e0370734");
    uint8_t ct[16];
    aes.encrypt_block(pt.data(), ct);
    EXPECT_EQ(to_hex(ByteView(ct, 16)), "3925841d02dc09fbdc118597196a0b32");
    uint8_t back[16];
    aes.decrypt_block(ct, back);
    EXPECT_EQ(to_hex(ByteView(back, 16)), to_hex(pt));
  }
}

// SP 800-38A F.2: four-block CBC vectors.  The raw block runs must match
// the standard exactly.  aes_cbc_encrypt always appends PKCS#7 padding (one
// extra block here), so compare its first 64 ciphertext bytes against the
// standard's blocks and round-trip for the decrypt side.
struct CbcVector {
  const char* key;
  const char* ciphertext;  // CT1..CT4 concatenated
};

constexpr char kCbcIv[] = "000102030405060708090a0b0c0d0e0f";
constexpr char kCbcPlaintext[] =
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710";

void check_cbc(const CbcVector& v) {
  for (const AesKernel* k : aes_kernels()) {
    SCOPED_TRACE(k->name);
    Aes aes(from_hex(v.key), *k);
    Buffer iv = from_hex(kCbcIv);
    Buffer pt = from_hex(kCbcPlaintext);

    Buffer raw(pt.size());
    Buffer chain = iv;
    aes.cbc_encrypt_blocks(chain.data(), pt.data(), raw.data(), 4);
    EXPECT_EQ(to_hex(raw), v.ciphertext);
    chain = iv;
    aes.cbc_decrypt_blocks(chain.data(), raw.data(), raw.data(), 4);
    EXPECT_EQ(raw, pt);

    Buffer ct = aes_cbc_encrypt(aes, iv, pt);
    ASSERT_EQ(ct.size(), pt.size() + 16);  // one PKCS#7 pad block
    EXPECT_EQ(to_hex(ByteView(ct.data(), pt.size())), v.ciphertext);
    EXPECT_EQ(aes_cbc_decrypt(aes, iv, ct), pt);
  }
}

TEST(AesKat, Sp80038aCbcAes128) {
  check_cbc({"2b7e151628aed2a6abf7158809cf4f3c",
             "7649abac8119b246cee98e9b12e9197d"
             "5086cb9b507219ee95db113a917678b2"
             "73bed6b8e3c1743b7116e69e22229516"
             "3ff1caa1681fac09120eca307586e1a7"});
}

TEST(AesKat, Sp80038aCbcAes256) {
  check_cbc({"603deb1015ca71be2b73aef0857d7781"
             "1f352c073b6108d72d9810a30914dff4",
             "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
             "9cfc4e967edb808d679f777bc6702c7d"
             "39f23369a9d9bacfa530e26304231461"
             "b2eb05e2c39be9fcda6c19078c6a9d1b"});
}

// RFC 2202 test cases 4-7 (1-3 are covered in sha_test.cpp).
TEST(HmacSha1Kat, Rfc2202Case4) {
  Buffer key = from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
  expect_hmac_sha1(key, Buffer(50, 0xcd),
                   "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
}

TEST(HmacSha1Kat, Rfc2202Case5) {
  expect_hmac_sha1(Buffer(20, 0x0c), to_bytes("Test With Truncation"),
                   "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04");
}

TEST(HmacSha1Kat, Rfc2202Case6) {
  expect_hmac_sha1(Buffer(80, 0xaa),
                   to_bytes("Test Using Larger Than Block-Size Key - Hash "
                            "Key First"),
                   "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha1Kat, Rfc2202Case7) {
  expect_hmac_sha1(Buffer(80, 0xaa),
                   to_bytes("Test Using Larger Than Block-Size Key and Larger "
                            "Than One Block-Size Data"),
                   "e8e99d0f45237d786d6bbaa7965c7808bbff1a91");
}

// RFC 6229: keystream bytes at offsets 0 and 16 for index keys.
void check_rc4_keystream(const char* key_hex, const char* ks0,
                         const char* ks16) {
  Rc4 rc4(from_hex(key_hex));
  Buffer stream(32, 0);  // XOR against zeros = raw keystream
  rc4.process(stream);
  EXPECT_EQ(to_hex(ByteView(stream.data(), 16)), ks0);
  EXPECT_EQ(to_hex(ByteView(stream.data() + 16, 16)), ks16);
}

TEST(Rc4Kat, Rfc6229Key40Bit) {
  check_rc4_keystream("0102030405",
                      "b2396305f03dc027ccc3524a0a1118a8",
                      "6982944f18fc82d589c403a47a0d0919");
}

TEST(Rc4Kat, Rfc6229Key128Bit) {
  check_rc4_keystream("0102030405060708090a0b0c0d0e0f10",
                      "9ac7cc9a609d1ef7b2932899cde41b97",
                      "5248c4959014126a6e8a84f11d1a9e1c");
}

}  // namespace
}  // namespace sgfs::crypto

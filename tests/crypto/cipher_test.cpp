#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/aes.hpp"
#include "crypto/rc4.hpp"
#include "kernel_list.hpp"

namespace sgfs::crypto {
namespace {

// FIPS-197 Appendix C known-answer tests.
TEST(Aes, Fips197Aes128) {
  Buffer key = from_hex("000102030405060708090a0b0c0d0e0f");
  Buffer pt = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex(ByteView(back, 16)), to_hex(pt));
}

TEST(Aes, Fips197Aes256) {
  Buffer key =
      from_hex("000102030405060708090a0b0c0d0e0f"
               "101112131415161718191a1b1c1d1e1f");
  Buffer pt = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex(ByteView(back, 16)), to_hex(pt));
}

TEST(Aes, RoundCounts) {
  EXPECT_EQ(Aes(Buffer(16, 0)).rounds(), 10);
  EXPECT_EQ(Aes(Buffer(32, 0)).rounds(), 14);
}

TEST(Aes, RejectsBadKeySizes) {
  EXPECT_THROW(Aes(Buffer(15, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Buffer(24, 0)), std::invalid_argument);  // no AES-192 here
  EXPECT_THROW(Aes(Buffer(0, 0)), std::invalid_argument);
}

TEST(AesCbc, RoundTripVariousLengths) {
  Rng rng(3);
  Aes aes(rng.bytes(32));
  Buffer iv = rng.bytes(16);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 1000u, 32768u}) {
    Buffer pt = rng.bytes(len);
    Buffer ct = aes_cbc_encrypt(aes, iv, pt);
    EXPECT_EQ(ct.size() % 16, 0u);
    EXPECT_GT(ct.size(), pt.size());  // PKCS#7 always pads
    EXPECT_EQ(aes_cbc_decrypt(aes, iv, ct), pt);
  }
}

TEST(AesCbc, TamperedCiphertextFailsPadding) {
  Rng rng(4);
  Aes aes(rng.bytes(32));
  Buffer iv = rng.bytes(16);
  Buffer pt = rng.bytes(100);
  Buffer ct = aes_cbc_encrypt(aes, iv, pt);
  // Flip a bit in the last block: padding check must reject (with high
  // probability) or decode to different plaintext.
  Buffer bad = ct;
  bad[bad.size() - 1] ^= 0x80;
  try {
    Buffer out = aes_cbc_decrypt(aes, iv, bad);
    EXPECT_NE(out, pt);
  } catch (const std::runtime_error&) {
    SUCCEED();
  }
}

TEST(AesCbc, WrongIvChangesPlaintext) {
  Rng rng(5);
  Aes aes(rng.bytes(16));
  Buffer iv1 = rng.bytes(16), iv2 = rng.bytes(16);
  Buffer pt = rng.bytes(64);
  Buffer ct = aes_cbc_encrypt(aes, iv1, pt);
  try {
    EXPECT_NE(aes_cbc_decrypt(aes, iv2, ct), pt);
  } catch (const std::runtime_error&) {
    SUCCEED();  // padding failure is also acceptable
  }
}

TEST(AesCbc, IdenticalBlocksDoNotRepeat) {
  // CBC chaining: equal plaintext blocks must yield distinct ciphertext.
  Rng rng(6);
  Aes aes(rng.bytes(32));
  Buffer iv = rng.bytes(16);
  Buffer pt(64, 0x42);  // four identical blocks
  Buffer ct = aes_cbc_encrypt(aes, iv, pt);
  EXPECT_NE(Buffer(ct.begin(), ct.begin() + 16),
            Buffer(ct.begin() + 16, ct.begin() + 32));
}

TEST(AesCbc, RejectsMisalignedCiphertext) {
  Rng rng(7);
  Aes aes(rng.bytes(16));
  Buffer iv = rng.bytes(16);
  EXPECT_THROW(aes_cbc_decrypt(aes, iv, Buffer(15, 0)), std::runtime_error);
  EXPECT_THROW(aes_cbc_decrypt(aes, iv, Buffer{}), std::runtime_error);
}

TEST(AesCbc, RejectsBadIv) {
  Rng rng(8);
  Aes aes(rng.bytes(16));
  EXPECT_THROW(aes_cbc_encrypt(aes, Buffer(8, 0), Buffer(16, 0)),
               std::invalid_argument);
}

// AES-NI against the scalar reference on seeded random input, for AES-128
// and AES-256: padded CBC at every length 0-4160 from start offsets 1-15
// (never 16-byte aligned), and raw CBC decrypt of 1-17 blocks, which is the
// 8-way body plus every tail length.
TEST(AesKernels, AesNiMatchesScalarRandomized) {
  const AesKernel* ni = aes_ni_kernel();
  if (ni == nullptr) {
    GTEST_SKIP() << "CPU lacks AES-NI: the scalar kernel is the only path";
  }
  Rng rng(197);
  const Buffer pool = rng.bytes(4160 + 16);
  for (size_t key_len : {16u, 32u}) {
    SCOPED_TRACE(key_len);
    const Buffer key = rng.bytes(key_len);
    const Buffer iv = rng.bytes(16);
    const Aes ref(key, kAesScalar), fast(key, *ni);
    for (size_t len = 0; len <= 4160; ++len) {
      const ByteView pt(pool.data() + rng.next_range(1, 15), len);
      const Buffer ct = aes_cbc_encrypt(ref, iv, pt);
      ASSERT_EQ(aes_cbc_encrypt(fast, iv, pt), ct) << "length " << len;
      ASSERT_EQ(aes_cbc_decrypt(fast, iv, ct), Buffer(pt.begin(), pt.end()))
          << "length " << len;
    }
    for (size_t blocks = 1; blocks <= 17; ++blocks) {
      const uint8_t* ct = pool.data() + rng.next_range(1, 15);
      Buffer ref_out(16 * blocks), fast_out(16 * blocks);
      Buffer ref_iv = iv, fast_iv = iv;
      ref.cbc_decrypt_blocks(ref_iv.data(), ct, ref_out.data(), blocks);
      fast.cbc_decrypt_blocks(fast_iv.data(), ct, fast_out.data(), blocks);
      ASSERT_EQ(fast_out, ref_out) << blocks << " blocks";
      ASSERT_EQ(fast_iv, ref_iv) << blocks << " blocks";
    }
  }
}

// aes_cbc_encrypt_chain equals aes_cbc_encrypt over the flattened bytes
// however the chain is cut: 1-byte segments, odd sizes, and segments that
// straddle block boundaries.
TEST(AesKernels, EncryptChainMatchesFlatOverAnySegmentation) {
  Rng rng(38);
  const Buffer key = rng.bytes(32);
  const Buffer iv = rng.bytes(16);
  const std::vector<std::vector<size_t>> cuts = {
      {1}, {7, 13}, {15, 17, 33}, {16, 1, 31, 2}, {0, 5, 48, 3}};
  for (const AesKernel* k : aes_kernels()) {
    SCOPED_TRACE(k->name);
    const Aes aes(key, *k);
    for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
      const Buffer pt = rng.bytes(len);
      const Buffer flat = aes_cbc_encrypt(aes, iv, pt);
      for (const auto& pattern : cuts) {
        BufChain chain;
        for (size_t off = 0, i = 0; off < len; ++i) {
          const size_t n = std::min(len - off, pattern[i % pattern.size()]);
          chain.append(Buffer(pt.begin() + off, pt.begin() + off + n));
          off += n;
        }
        EXPECT_EQ(aes_cbc_encrypt_chain(aes, iv, chain), flat)
            << "length " << len << ", first cut " << pattern[0];
      }
    }
  }
}

// Every kernel rejects corrupt PKCS#7 padding the same way.  Each case
// fixes the tail of a two-block plaintext, encrypts it raw (no padding
// added) and decrypts through the padded API.
TEST(AesKernels, CorruptPaddingRejectedAlike) {
  struct Case {
    Buffer tail;
    bool valid;
  };
  const std::vector<Case> cases = {
      {{0x00}, false},             // pad length 0
      {{0x11}, false},             // longer than a block
      {{0xff}, false},
      {{0x02, 0x03, 0x03}, false}, // one pad byte disagrees
      {{0x01}, true},
      {Buffer(16, 0x10), true},    // a whole pad block
  };
  Rng rng(39);
  const Buffer key = rng.bytes(32);
  const Buffer iv = rng.bytes(16);
  for (const AesKernel* k : aes_kernels()) {
    SCOPED_TRACE(k->name);
    const Aes aes(key, *k);
    for (const Case& c : cases) {
      Buffer pt = rng.bytes(32);
      std::copy(c.tail.begin(), c.tail.end(), pt.end() - c.tail.size());
      Buffer ct(pt.size());
      Buffer chain = iv;
      aes.cbc_encrypt_blocks(chain.data(), pt.data(), ct.data(), 2);
      if (c.valid) {
        pt.resize(pt.size() - pt.back());
        EXPECT_EQ(aes_cbc_decrypt(aes, iv, ct), pt);
        continue;
      }
      try {
        aes_cbc_decrypt(aes, iv, ct);
        ADD_FAILURE() << "accepted tail " << to_hex(c.tail);
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "CBC padding corrupt");
      }
    }
  }
}

// Classic RC4 vectors (Wikipedia / original cypherpunks post).
TEST(Rc4, KeyKeyPlaintext) {
  Rc4 rc4(to_bytes("Key"));
  Buffer ct = rc4.process_copy(to_bytes("Plaintext"));
  EXPECT_EQ(to_hex(ct), "bbf316e8d940af0ad3");
}

TEST(Rc4, WikiPedia) {
  Rc4 rc4(to_bytes("Wiki"));
  Buffer ct = rc4.process_copy(to_bytes("pedia"));
  EXPECT_EQ(to_hex(ct), "1021bf0420");
}

TEST(Rc4, SecretAttack) {
  Rc4 rc4(to_bytes("Secret"));
  Buffer ct = rc4.process_copy(to_bytes("Attack at dawn"));
  EXPECT_EQ(to_hex(ct), "45a01f645fc35b383552544b9bf5");
}

TEST(Rc4, EncryptDecryptSymmetry) {
  Rng rng(9);
  Buffer key = rng.bytes(16);
  Buffer pt = rng.bytes(10000);
  Rc4 enc(key), dec(key);
  Buffer ct = enc.process_copy(pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(dec.process_copy(ct), pt);
}

TEST(Rc4, StreamIsStateful) {
  Buffer key = to_bytes("k");
  Rc4 a(key);
  Buffer first = a.process_copy(Buffer(8, 0));
  Buffer second = a.process_copy(Buffer(8, 0));
  EXPECT_NE(first, second);  // keystream advances
}

TEST(Rc4, SkipMatchesManualDrop) {
  Buffer key = to_bytes("dropkey");
  Rc4 a(key), b(key);
  a.skip(1024);
  Buffer burn(1024, 0);
  b.process(burn);
  EXPECT_EQ(a.process_copy(Buffer(16, 0)), b.process_copy(Buffer(16, 0)));
}

TEST(Rc4, RejectsBadKeys) {
  EXPECT_THROW(Rc4(Buffer{}), std::invalid_argument);
  EXPECT_THROW(Rc4(Buffer(257, 1)), std::invalid_argument);
}

}  // namespace
}  // namespace sgfs::crypto

#include "crypto/sha.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "kernel_list.hpp"

namespace sgfs::crypto {
namespace {

std::string hex_digest(ByteView d) { return to_hex(d); }

template <typename H>
std::string hash_hex(std::string_view msg) {
  auto d = H::hash(to_bytes(msg));
  return to_hex(ByteView(d.data(), d.size()));
}

// FIPS 180-4 / classic known-answer vectors.
TEST(Sha1, EmptyString) {
  EXPECT_EQ(hash_hex<Sha1>(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(hash_hex<Sha1>("abc"),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(hash_hex<Sha1>(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Buffer chunk(1000, 'a');
  for (const ShaKernel* k : sha_kernels()) {
    SCOPED_TRACE(k->name);
    Sha1 h(*k);
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    auto d = h.finish();
    EXPECT_EQ(hex_digest(ByteView(d.data(), d.size())),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
  }
}

TEST(Sha1, IncrementalMatchesOneShot) {
  Rng rng(1);
  Buffer data = rng.bytes(10000);
  auto one = Sha1::hash(data);
  Sha1 h;
  size_t off = 0;
  size_t step = 1;
  while (off < data.size()) {
    size_t n = std::min(step, data.size() - off);
    h.update(ByteView(data.data() + off, n));
    off += n;
    step = step * 3 + 1;
  }
  EXPECT_EQ(h.finish(), one);
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex<Sha256>(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex<Sha256>("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex<Sha256>(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(2);
  Buffer data = rng.bytes(5000);
  auto one = Sha256::hash(data);
  Sha256 h;
  for (size_t off = 0; off < data.size(); off += 17) {
    h.update(ByteView(data.data() + off, std::min<size_t>(17, data.size() - off)));
  }
  EXPECT_EQ(h.finish(), one);
}

// Boundary sweep: messages of 'a' near the 64-byte block/padding boundary,
// on every kernel this CPU has.  Expected digests come from an independent
// implementation (Python's hashlib).
struct BoundaryDigests {
  const char* sha1;
  const char* sha256;
};

const std::map<size_t, BoundaryDigests> kBoundaryDigests = {
    {0,
     {"da39a3ee5e6b4b0d3255bfef95601890afd80709",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}},
    {1,
     {"86f7e437faa5a7fce15d1ddcb9eaeaea377667b8",
      "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"}},
    {54,
     {"b05d71c64979cb95fa74a33cdb31a40d258ae02e",
      "a3f01b6939256127582ac8ae9fb47a382a244680806a3f613a118851c1ca1d47"}},
    {55,
     {"c1c8bbdc22796e28c0e15163d20899b65621d65a",
      "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"}},
    {56,
     {"c2db330f6083854c99d4b5bfb6e8f29f201be699",
      "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"}},
    {57,
     {"f08f24908d682555111be7ff6f004e78283d989a",
      "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"}},
    {63,
     {"03f09f5b158a7a8cdad920bddc29b81c18a551f5",
      "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"}},
    {64,
     {"0098ba824b5c16427bd7a1122a5a442a25ec644d",
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"}},
    {65,
     {"11655326c708d70319be2610e8a57d9a5b959d3b",
      "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"}},
    {119,
     {"ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56",
      "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"}},
    {120,
     {"f34c1488385346a55709ba056ddd08280dd4c6d6",
      "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"}},
    {128,
     {"ad5b3fdbcb526778c2839d2f151ea753995e26a0",
      "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"}},
};

class ShaBoundaryTest : public ::testing::TestWithParam<size_t> {};

template <typename H>
void check_boundary(const ShaKernel& kernel, const Buffer& msg,
                    const char* expected) {
  // The digest must match the reference, incremental must agree with
  // one-shot, and Hash(msg) must differ from Hash(msg + one byte).
  H one(kernel);
  one.update(msg);
  auto a = one.finish();
  EXPECT_EQ(to_hex(ByteView(a.data(), a.size())), expected);
  H inc(kernel);
  if (!msg.empty()) {
    inc.update(ByteView(msg.data(), msg.size() / 2));
    inc.update(ByteView(msg.data() + msg.size() / 2,
                        msg.size() - msg.size() / 2));
  }
  EXPECT_EQ(inc.finish(), a);
  Buffer longer = msg;
  longer.push_back(0x61);
  H more(kernel);
  more.update(longer);
  EXPECT_NE(more.finish(), a);
}

TEST_P(ShaBoundaryTest, LengthEncodedCorrectly) {
  Buffer msg(GetParam(), 0x61);
  const BoundaryDigests& expected = kBoundaryDigests.at(GetParam());
  for (const ShaKernel* k : sha_kernels()) {
    SCOPED_TRACE(k->name);
    check_boundary<Sha1>(*k, msg, expected.sha1);
    check_boundary<Sha256>(*k, msg, expected.sha256);
  }
}

INSTANTIATE_TEST_SUITE_P(Boundaries, ShaBoundaryTest,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64, 65,
                                           119, 120, 128));

// SHA-NI against the scalar reference on seeded random input: every length
// 0-4160, so every position of the 0x80 byte and length field against the
// 64-byte block (55, 56, 63, 64, 65, ...); start offsets 1-15, so no input
// is 16-byte aligned; and random update() split points, empty ones
// included, on the SHA-NI side.
TEST(ShaKernels, ShaNiMatchesScalarRandomized) {
  const ShaKernel* ni = sha_ni_kernel();
  if (ni == nullptr) {
    GTEST_SKIP() << "CPU lacks SHA-NI: the scalar kernel is the only path";
  }
  Rng rng(180);
  const Buffer pool = rng.bytes(4160 + 16);
  for (size_t len = 0; len <= 4160; ++len) {
    const ByteView msg(pool.data() + rng.next_range(1, 15), len);
    Sha1 ref1(kShaScalar), fast1(*ni);
    Sha256 ref256(kShaScalar), fast256(*ni);
    ref1.update(msg);
    ref256.update(msg);
    for (size_t off = 0; off < len;) {
      const size_t piece = std::min<size_t>(len - off, rng.next_below(160));
      fast1.update(msg.subspan(off, piece));
      fast256.update(msg.subspan(off, piece));
      off += piece;
    }
    ASSERT_EQ(fast1.finish(), ref1.finish()) << "length " << len;
    ASSERT_EQ(fast256.finish(), ref256.finish()) << "length " << len;
  }
}

// RFC 2202 HMAC-SHA1 vectors.
TEST(HmacSha1, Rfc2202Case1) {
  Buffer key(20, 0x0b);
  auto d = HmacSha1::mac(key, to_bytes("Hi There"));
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacSha1, Rfc2202Case2) {
  auto d = HmacSha1::mac(to_bytes("Jefe"),
                         to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacSha1, Rfc2202Case3) {
  Buffer key(20, 0xaa);
  Buffer data(50, 0xdd);
  auto d = HmacSha1::mac(key, data);
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(HmacSha1, LongKeyIsHashedFirst) {
  // RFC 2202 case 6: 80-byte key.
  Buffer key(80, 0xaa);
  auto d = HmacSha1::mac(key, to_bytes("Test Using Larger Than Block-Size "
                                       "Key - Hash Key First"));
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacSha1, VerifyAcceptsAndRejects) {
  Buffer key = to_bytes("secret");
  Buffer msg = to_bytes("the message");
  auto mac = HmacSha1::mac(key, msg);
  EXPECT_TRUE(HmacSha1::verify(key, msg, ByteView(mac.data(), mac.size())));
  Buffer tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(
      HmacSha1::verify(key, tampered, ByteView(mac.data(), mac.size())));
  Buffer wrong_key = to_bytes("Secret");
  EXPECT_FALSE(HmacSha1::verify(wrong_key, msg,
                                ByteView(mac.data(), mac.size())));
}

TEST(HmacSha256, KnownVector) {
  // RFC 4231 test case 2.
  auto d = HmacSha256::mac(to_bytes("Jefe"),
                           to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(ByteView(d.data(), d.size())),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

}  // namespace
}  // namespace sgfs::crypto

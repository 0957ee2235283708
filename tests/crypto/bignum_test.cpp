#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sgfs::crypto {
namespace {

TEST(BigInt, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_odd());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_TRUE(z.to_bytes().empty());
}

TEST(BigInt, SmallValues) {
  BigInt v(0x1234);
  EXPECT_EQ(v.to_hex(), "1234");
  EXPECT_EQ(v.bit_length(), 13u);
  EXPECT_FALSE(v.is_odd());
  EXPECT_TRUE(BigInt(3).is_odd());
}

TEST(BigInt, FromToBytesRoundTrip) {
  Buffer raw = from_hex("00deadbeefcafebabe");
  BigInt v = BigInt::from_bytes(raw);
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe");  // leading zero stripped
  EXPECT_EQ(to_hex(v.to_bytes()), "deadbeefcafebabe");
}

TEST(BigInt, PaddedExport) {
  BigInt v(0xabcd);
  EXPECT_EQ(to_hex(v.to_bytes_padded(4)), "0000abcd");
  EXPECT_THROW(v.to_bytes_padded(1), std::overflow_error);
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(1), BigInt(2));
  EXPECT_GT(BigInt::from_hex("100000000"), BigInt(0xffffffffu));
  EXPECT_EQ(BigInt(42), BigInt(42));
}

TEST(BigInt, AddWithCarryChains) {
  BigInt a = BigInt::from_hex("ffffffffffffffffffffffff");
  BigInt one(1);
  EXPECT_EQ((a + one).to_hex(), "1000000000000000000000000");
}

TEST(BigInt, SubWithBorrow) {
  BigInt a = BigInt::from_hex("1000000000000000000000000");
  EXPECT_EQ((a - BigInt(1)).to_hex(), "ffffffffffffffffffffffff");
  EXPECT_THROW(BigInt(1) - BigInt(2), std::underflow_error);
}

TEST(BigInt, MultiplyKnownVector) {
  // Vectors computed with Python.
  BigInt a = BigInt::from_hex(
      "deadbeefcafebabe123456789abcdef0fedcba9876543210");
  BigInt b = BigInt::from_hex("1234567890abcdef1122334455667788");
  EXPECT_EQ((a * b).to_hex(),
            "fd5bdeee268600e876535e3a5511725915361aaf1f67112fa5fa2c3c1e817eae"
            "27f966b42600880");
}

TEST(BigInt, DivModKnownVector) {
  BigInt a = BigInt::from_hex(
      "deadbeefcafebabe123456789abcdef0fedcba9876543210");
  BigInt b = BigInt::from_hex("1234567890abcdef1122334455667788");
  auto [q, r] = BigInt::divmod(a, b);
  EXPECT_EQ(q.to_hex(), "c3b6b4d12da39a88c");
  EXPECT_EQ(r.to_hex(), "64c94b3a2f25a7172934404169193b0");
}

TEST(BigInt, DivisionIdentity) {
  // For random a, b: a == (a/b)*b + a%b and a%b < b.
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::random_bits(rng, 64 + (i * 13) % 512);
    BigInt b = BigInt::random_bits(rng, 16 + (i * 7) % 256);
    auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(5) / BigInt(0), std::domain_error);
}

TEST(BigInt, ShortDivision) {
  BigInt a = BigInt::from_hex("123456789abcdef0123456789");
  EXPECT_EQ((a / BigInt(7)) * BigInt(7) + (a % BigInt(7)), a);
}

TEST(BigInt, Shifts) {
  BigInt v(1);
  EXPECT_EQ((v << 100).bit_length(), 101u);
  EXPECT_EQ(((v << 100) >> 100), v);
  EXPECT_EQ((BigInt::from_hex("ff00") >> 8).to_hex(), "ff");
  EXPECT_TRUE((BigInt(1) >> 1).is_zero());
}

TEST(BigInt, ModExpKnownVector) {
  BigInt base = BigInt::from_hex("123456789abcdef");
  BigInt exp = BigInt::from_hex("fedcba987654321");
  BigInt mod = BigInt::from_hex("ffffffffffffffc5");
  EXPECT_EQ(BigInt::mod_exp(base, exp, mod).to_hex(), "8fdaa6008c268d34");
}

TEST(BigInt, ModExpEdgeCases) {
  EXPECT_EQ(BigInt::mod_exp(BigInt(5), BigInt(0), BigInt(7)), BigInt(1));
  EXPECT_EQ(BigInt::mod_exp(BigInt(5), BigInt(3), BigInt(1)), BigInt(0));
  EXPECT_EQ(BigInt::mod_exp(BigInt(2), BigInt(10), BigInt(1000)),
            BigInt(24));
  // Odd moduli run in fixed-capacity scratch: 4096 bits fit, wider throws.
  const BigInt wide = (BigInt(1) << 4095) + BigInt(1);
  EXPECT_EQ(BigInt::mod_exp(BigInt(3), BigInt(2), wide), BigInt(9));
  EXPECT_THROW(BigInt::mod_exp(BigInt(3), BigInt(2),
                               (BigInt(1) << 4096) + BigInt(1)),
               std::length_error);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(BigInt, ModInverseKnownVector) {
  // inverse of 65537 mod (2^127 - 2), computed with Python.
  BigInt m = (BigInt(1) << 127) - BigInt(1) - BigInt(1);
  BigInt inv = BigInt::mod_inverse(BigInt(65537), m);
  EXPECT_EQ(inv.to_hex(), "5555aaaa5555aaaa5555aaaa5555aaa9");
  EXPECT_EQ((inv * BigInt(65537)) % m, BigInt(1));
}

TEST(BigInt, ModInverseProperty) {
  Rng rng(12);
  BigInt m = BigInt::from_hex("fffffffb");  // prime
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt(2) + BigInt::random_below(rng, m - BigInt(2));
    BigInt inv = BigInt::mod_inverse(a, m);
    EXPECT_EQ((a * inv) % m, BigInt(1));
  }
}

TEST(BigInt, ModInverseNotCoprimeThrows) {
  EXPECT_THROW(BigInt::mod_inverse(BigInt(6), BigInt(9)), std::domain_error);
}

TEST(BigInt, RandomBitsExactWidth) {
  Rng rng(13);
  for (size_t bits : {8u, 9u, 31u, 32u, 33u, 100u, 512u}) {
    BigInt v = BigInt::random_bits(rng, bits);
    EXPECT_EQ(v.bit_length(), bits);
  }
}

TEST(BigInt, RandomBelowInRange) {
  Rng rng(14);
  BigInt bound = BigInt::from_hex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::random_below(rng, bound), bound);
  }
}

TEST(BigInt, PrimalityKnownValues) {
  Rng rng(15);
  EXPECT_TRUE(BigInt(2).is_probable_prime(rng));
  EXPECT_TRUE(BigInt(97).is_probable_prime(rng));
  EXPECT_TRUE(BigInt(65537).is_probable_prime(rng));
  // 2^127 - 1 is a Mersenne prime.
  EXPECT_TRUE(((BigInt(1) << 127) - BigInt(1)).is_probable_prime(rng));
  EXPECT_FALSE(BigInt(1).is_probable_prime(rng));
  EXPECT_FALSE(BigInt(561).is_probable_prime(rng));   // Carmichael number
  EXPECT_FALSE(BigInt(65536).is_probable_prime(rng));
  // 2^128 + 1 is composite (= 59649589127497217 * 5704689200685129054721).
  EXPECT_FALSE(((BigInt(1) << 128) + BigInt(1)).is_probable_prime(rng));
}

TEST(BigInt, GeneratePrime) {
  Rng rng(16);
  BigInt p = BigInt::generate_prime(rng, 128);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(p.is_probable_prime(rng));
}

TEST(BigInt, HexRoundTrip) {
  const char* samples[] = {"1", "ff", "100", "deadbeef",
                           "123456789abcdef0123456789abcdef"};
  for (const char* s : samples) {
    EXPECT_EQ(BigInt::from_hex(s).to_hex(), s);
  }
}

// Reference square-and-multiply from the public operators only, so the
// Montgomery path in mod_exp is checked against code it does not share.
BigInt reference_mod_exp(const BigInt& base, const BigInt& exp,
                         const BigInt& m) {
  BigInt result = BigInt(1) % m;
  BigInt b = base % m;
  for (size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = (result * b) % m;
    b = (b * b) % m;
  }
  return result;
}

TEST(BigInt, ModExpMatchesReferenceRandomized) {
  Rng rng(20);
  for (size_t bits : {64u, 65u, 127u, 128u, 191u, 256u, 512u, 1024u,
                      2048u}) {
    SCOPED_TRACE(bits);
    BigInt m = BigInt::random_bits(rng, bits);
    if (!m.is_odd()) m = m + BigInt(1);
    const BigInt m_minus_1 = m - BigInt(1);
    std::vector<BigInt> bases = {BigInt(0), BigInt(1), BigInt(2), m_minus_1,
                                 m, m + BigInt(5),
                                 BigInt::random_bits(rng, bits + 70),
                                 BigInt::random_below(rng, m)};
    std::vector<BigInt> exps = {BigInt(0), BigInt(1), BigInt(2),
                                BigInt(65537), m_minus_1,
                                BigInt::random_bits(rng, 23),
                                BigInt::random_bits(rng, 80)};
    if (bits <= 512) {
      exps.push_back(BigInt::random_bits(rng, bits / 2));
      exps.push_back(BigInt::random_bits(rng, 2 * bits));
    }
    for (const BigInt& base : bases) {
      // The widest moduli check every base against m-1 only (the
      // reference is slow there); the rest cross every base with every
      // exponent shape.
      const auto& es = bits >= 1024 ? std::vector<BigInt>{m_minus_1} : exps;
      for (const BigInt& e : es) {
        ASSERT_EQ(BigInt::mod_exp(base, e, m), reference_mod_exp(base, e, m))
            << "base " << base.to_hex() << " exp " << e.to_hex();
      }
    }
    for (const BigInt& e : exps) {
      const BigInt base = BigInt::random_below(rng, m);
      ASSERT_EQ(BigInt::mod_exp(base, e, m), reference_mod_exp(base, e, m))
          << "exp " << e.to_hex();
    }
  }
}

TEST(BigInt, ModExpUnitAndEvenModuli) {
  Rng rng(21);
  for (const BigInt& base : {BigInt(0), BigInt(7), BigInt::random_bits(rng, 300)}) {
    EXPECT_TRUE(BigInt::mod_exp(base, BigInt(0), BigInt(1)).is_zero());
    EXPECT_TRUE(BigInt::mod_exp(base, BigInt(12345), BigInt(1)).is_zero());
  }
  std::vector<BigInt> moduli = {BigInt(2), BigInt(4), BigInt(1000),
                                BigInt(1) << 64, (BigInt(1) << 64) + BigInt(2)};
  for (size_t bits : {100u, 512u}) {
    BigInt m = BigInt::random_bits(rng, bits);
    if (m.is_odd()) m = m + BigInt(1);
    moduli.push_back(m);
  }
  for (const BigInt& m : moduli) {
    for (int i = 0; i < 4; ++i) {
      const BigInt base = BigInt::random_bits(rng, m.bit_length() + 8);
      const BigInt e = BigInt::random_bits(rng, 1 + 40 * i);
      EXPECT_EQ(BigInt::mod_exp(base, e, m), reference_mod_exp(base, e, m))
          << "m " << m.to_hex();
    }
  }
}

TEST(BigInt, FromBytesMatchesShiftAndAdd) {
  Rng rng(22);
  for (size_t len = 0; len < 70; ++len) {
    Buffer raw = rng.bytes(len);
    if (len > 2) raw[0] = 0;  // leading zeros are stripped
    BigInt want;
    for (uint8_t b : raw) want = (want << 8) + BigInt(b);
    const BigInt got = BigInt::from_bytes(raw);
    EXPECT_EQ(got, want) << "length " << len;
    EXPECT_EQ(got.to_bytes(), want.to_bytes());
  }
}

// Every value below the bound against a sieve: exercises the batched
// small-prime trial division (equal to a small prime, divisible by one,
// products of primes above 113) and Miller–Rabin on small moduli.  A value
// with a prime factor up to 113 is decided by trial division and must not
// draw from the Rng: key generation's byte-identity depends on that.
TEST(BigInt, PrimalityMatchesSieveBelow20000) {
  constexpr uint32_t kBound = 20000;
  std::vector<uint32_t> least_factor(kBound, 0);
  for (uint32_t i = 2; i < kBound; ++i) {
    if (least_factor[i]) continue;
    for (uint32_t j = i; j < kBound; j += i) {
      if (!least_factor[j]) least_factor[j] = i;
    }
  }
  Rng rng(23);
  for (uint32_t v = 0; v < kBound; ++v) {
    Rng before = rng;
    const bool prime = v >= 2 && least_factor[v] == v;
    ASSERT_EQ(BigInt(v).is_probable_prime(rng), prime) << v;
    if (v >= 2 && least_factor[v] <= 113) {
      ASSERT_EQ(before.next_u64(), Rng(rng).next_u64()) << v;
    }
  }
  // A large prime times a small one, and a product of two large primes.
  const BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  const BigInt m61 = (BigInt(1) << 61) - BigInt(1);
  EXPECT_FALSE((m127 * BigInt(113)).is_probable_prime(rng));
  EXPECT_FALSE((m127 * m61).is_probable_prime(rng));
  EXPECT_TRUE(m61.is_probable_prime(rng));
}

}  // namespace
}  // namespace sgfs::crypto

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/cert.hpp"
#include "crypto/rsa.hpp"

namespace sgfs::crypto {
namespace {

// Key generation is the slow part; share one deterministic fixture.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(100);
    kp_ = new RsaKeyPair(rsa_generate(rng, 512));
  }
  static void TearDownTestSuite() {
    delete kp_;
    kp_ = nullptr;
  }
  static RsaKeyPair* kp_;
};
RsaKeyPair* RsaTest::kp_ = nullptr;

TEST_F(RsaTest, KeyProperties) {
  EXPECT_GE(kp_->pub.n.bit_length(), 504u);
  EXPECT_EQ(kp_->pub.e, BigInt(65537));
  EXPECT_EQ(kp_->priv.public_key(), kp_->pub);
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Buffer msg = to_bytes("grid file system message");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  EXPECT_EQ(sig.size(), kp_->pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify_sha1(kp_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  Buffer msg = to_bytes("original");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  EXPECT_FALSE(rsa_verify_sha1(kp_->pub, to_bytes("0riginal"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  Buffer msg = to_bytes("message");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  sig[sig.size() / 2] ^= 1;
  EXPECT_FALSE(rsa_verify_sha1(kp_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  Rng rng(101);
  RsaKeyPair other = rsa_generate(rng, 512);
  Buffer msg = to_bytes("message");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  EXPECT_FALSE(rsa_verify_sha1(other.pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLength) {
  Buffer msg = to_bytes("message");
  Buffer sig = rsa_sign_sha1(kp_->priv, msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify_sha1(kp_->pub, msg, sig));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  Rng rng(102);
  Buffer secret = rng.bytes(48);  // premaster size
  Buffer ct = rsa_encrypt(kp_->pub, rng, secret);
  EXPECT_EQ(ct.size(), kp_->pub.modulus_bytes());
  EXPECT_EQ(rsa_decrypt(kp_->priv, ct), secret);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  Rng rng(103);
  Buffer secret = to_bytes("same plaintext");
  Buffer c1 = rsa_encrypt(kp_->pub, rng, secret);
  Buffer c2 = rsa_encrypt(kp_->pub, rng, secret);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(rsa_decrypt(kp_->priv, c1), rsa_decrypt(kp_->priv, c2));
}

TEST_F(RsaTest, DecryptRejectsTamperedCiphertext) {
  Rng rng(104);
  Buffer ct = rsa_encrypt(kp_->pub, rng, to_bytes("secret"));
  ct[10] ^= 0xFF;
  // Either padding fails or the plaintext differs; both are detectable.
  try {
    Buffer out = rsa_decrypt(kp_->priv, ct);
    EXPECT_NE(out, to_bytes("secret"));
  } catch (const std::runtime_error&) {
    SUCCEED();
  }
}

TEST_F(RsaTest, PlaintextTooLargeThrows) {
  Rng rng(105);
  Buffer big(kp_->pub.modulus_bytes() - 10, 1);
  EXPECT_THROW(rsa_encrypt(kp_->pub, rng, big), std::runtime_error);
}

TEST_F(RsaTest, PublicKeySerializeRoundTrip) {
  Buffer raw = kp_->pub.serialize();
  RsaPublicKey back = RsaPublicKey::deserialize(raw);
  EXPECT_EQ(back, kp_->pub);
  EXPECT_EQ(back.fingerprint(), kp_->pub.fingerprint());
  EXPECT_EQ(back.fingerprint().size(), 64u);
}

TEST(Rsa, GenerationIsDeterministic) {
  Rng a(7), b(7);
  RsaKeyPair ka = rsa_generate(a, 256);
  RsaKeyPair kb = rsa_generate(b, 256);
  EXPECT_EQ(ka.pub, kb.pub);
}

// Keys, and the signature over "golden", recorded from the schoolbook
// implementation before Montgomery/CRT: key generation draws the same Rng
// bytes in the same order, and CRT signing is byte-identical to plain d.
TEST(Rsa, KeygenGoldenPin) {
  struct Golden {
    uint64_t seed;
    size_t bits;
    const char* n;
    const char* d;
    const char* sig;
  };
  const Golden goldens[] = {
      {1, 256,
       "c18adb33733be0c9fc4b47caa194b79f790b2684e7b5303d636b2cb6f33df8e7",
       "790874fc3fdbfa3f565f5d8e026e1645b5dbccd01f081360ea0f5a2906ae4e01",
       nullptr},
      {2, 256,
       "8c2ebb29e7c9138dc29e3a64f5354c1173d0ba34eda137f69bf35b73262c0b19",
       "2c3fc806a74a9a6882094e27761b77c206cf3df99db14a29c5cc80f078436581",
       nullptr},
      {3, 512,
       "d2f2c93b9cdf39017c7cc4c661310ec2a6d49cb55b5b2cce53c0b38057b73559"
       "a34b9c33425ad95ace32e24cb7ff45f83aa565e7c86380b69cdb8474d73e2765",
       "83a76f1c3b6dbda045d780dfe6ecbd2f92fb82ca5537f420d9789d0eeeafb325"
       "1a7b0d1551d42f41935caf1360f400ebc6112761b4be83bf8bd3c4e8ef3abf41",
       "3bdeffe5b2631516008ec913c9ad5160fe2963db5b2a6ccb7aee5b23a58bbde9"
       "7077d7bda7e64529b2d8d49095dc9b65470691cec7cd3566149aa2424f5a4fc4"},
      {4, 512,
       "b47bc4686a1b176b768ba0b57bf108a2581befcbdb9ee2536754c3f8313e1154"
       "524aa5b27d002ce84e105b74cfccb88e5e4617de93df1bd5c86a09212378748b",
       "f79691e96b259f0b1ca48ee268144ff3e54aedba8a9d7b7d4ed349c2c04a9518"
       "f55ced4ce41efda11762dba1a8cffe3c280b835549c06ff86cf2b7ab94e53b1",
       "8fd50afdcd63d49eaf628038e504b45033606c45fddcd1ee65eec37ab823ba06"
       "9b4df2a6b3ec51be6ec303dff0919095ec230d1d268450e5faba2167d086daec"},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.seed);
    Rng rng(g.seed);
    const RsaKeyPair kp = rsa_generate(rng, g.bits);
    EXPECT_EQ(kp.pub.n.to_hex(), g.n);
    EXPECT_EQ(kp.priv.d.to_hex(), g.d);
    if (g.sig) {
      EXPECT_EQ(to_hex(rsa_sign_sha1(kp.priv, to_bytes("golden"))), g.sig);
    }
  }
}

TEST(Rsa, CrtFactorsAreConsistent) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const RsaPrivateKey k = rsa_generate(rng, 512).priv;
    const BigInt one(1);
    EXPECT_EQ(k.p * k.q, k.n);
    EXPECT_EQ(k.dp, k.d % (k.p - one));
    EXPECT_EQ(k.dq, k.d % (k.q - one));
    EXPECT_EQ((k.q * k.qinv) % k.p, one);
  }
}

// The CRT result must equal m^d mod n computed with the plain exponent.
TEST(Rsa, CrtMatchesPlainExponent) {
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const RsaKeyPair kp = rsa_generate(rng, seed % 2 ? 512 : 768);
    const size_t width = kp.pub.modulus_bytes();
    for (int i = 0; i < 4; ++i) {
      const Buffer msg = rng.bytes(1 + 100 * i);
      const Buffer sig = rsa_sign_sha1(kp.priv, msg);
      const BigInt s = BigInt::from_bytes(sig);
      const BigInt em = BigInt::mod_exp(s, kp.pub.e, kp.pub.n);
      EXPECT_EQ(BigInt::mod_exp(em, kp.priv.d, kp.priv.n), s);

      const Buffer secret = rng.bytes(48);
      const Buffer wire = rsa_encrypt(kp.pub, rng, secret);
      const Buffer plain =
          BigInt::mod_exp(BigInt::from_bytes(wire), kp.priv.d, kp.priv.n)
              .to_bytes_padded(width);
      EXPECT_EQ(Buffer(plain.end() - 48, plain.end()), secret);
      EXPECT_EQ(rsa_decrypt(kp.priv, wire), secret);
    }
  }
}

// A fault in a CRT half-exponentiation must fail closed: no signature or
// plaintext leaves, since s^e != m would let gcd(s^e - m, n) factor n.
TEST_F(RsaTest, CorruptedCrtParameterFailsClosed) {
  const Buffer msg = to_bytes("fault me");
  for (int field = 0; field < 3; ++field) {
    SCOPED_TRACE(field);
    RsaPrivateKey bad = kp_->priv;
    BigInt& target = field == 0 ? bad.dp : field == 1 ? bad.dq : bad.qinv;
    target = target + BigInt(2);
    EXPECT_THROW(rsa_sign_sha1(bad, msg), std::runtime_error);
    Rng rng(5);
    const Buffer wire = rsa_encrypt(kp_->pub, rng, rng.bytes(48));
    EXPECT_THROW(rsa_decrypt(bad, wire), std::runtime_error);
  }
  RsaPrivateKey bare = kp_->priv;
  bare.p = BigInt();
  EXPECT_THROW(rsa_sign_sha1(bare, msg), std::invalid_argument);
}

TEST(Rsa, PrivateFromExponentsRecoversFactors) {
  for (uint64_t seed : {31u, 32u, 33u, 34u, 35u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const RsaKeyPair kp = rsa_generate(rng, seed % 2 ? 512 : 256);
    const RsaPrivateKey back =
        rsa_private_from_exponents(kp.priv.n, kp.priv.e, kp.priv.d);
    EXPECT_EQ(back.p * back.q, kp.priv.n);
    EXPECT_TRUE((back.p == kp.priv.p && back.q == kp.priv.q) ||
                (back.p == kp.priv.q && back.q == kp.priv.p));
    EXPECT_EQ(back.d, kp.priv.d);
    if (kp.pub.n.bit_length() >= 512) {
      const Buffer msg = rng.bytes(64);
      EXPECT_EQ(rsa_sign_sha1(back, msg), rsa_sign_sha1(kp.priv, msg));
    }
  }
}

TEST_F(RsaTest, PrivateFromExponentsRejectsNonKeys) {
  const RsaPrivateKey& k = kp_->priv;
  EXPECT_THROW(rsa_private_from_exponents(k.n, k.e, k.d + BigInt(2)),
               std::invalid_argument);
  EXPECT_THROW(rsa_private_from_exponents(k.n + BigInt(1), k.e, k.d),
               std::invalid_argument);
  EXPECT_THROW(rsa_private_from_exponents(k.n, k.e, BigInt()),
               std::invalid_argument);
}

// --- Distinguished names ----------------------------------------------------

TEST(Dn, ToStringAndParse) {
  DistinguishedName dn("UFL-ACIS", "Ming Zhao");
  EXPECT_EQ(dn.to_string(), "/O=UFL-ACIS/CN=Ming Zhao");
  EXPECT_EQ(DistinguishedName::parse(dn.to_string()), dn);
}

TEST(Dn, ParseRejectsMalformed) {
  EXPECT_THROW(DistinguishedName::parse("no tags"), std::invalid_argument);
  EXPECT_THROW(DistinguishedName::parse("/CN=only"), std::invalid_argument);
}

// --- Certificates -----------------------------------------------------------

class CertTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(200);
    ca_ = new CertificateAuthority(*rng_, DistinguishedName("Grid", "RootCA"),
                                   0, 1000000);
    user_ = new Credential(ca_->issue(
        *rng_, DistinguishedName("UFL", "alice"), CertType::kIdentity, 0,
        500000));
    host_ = new Credential(ca_->issue(
        *rng_, DistinguishedName("UFL", "fileserver"), CertType::kHost, 0,
        500000));
  }
  static void TearDownTestSuite() {
    delete user_;
    delete host_;
    delete ca_;
    delete rng_;
    user_ = nullptr;
    host_ = nullptr;
    ca_ = nullptr;
    rng_ = nullptr;
  }
  static Rng* rng_;
  static CertificateAuthority* ca_;
  static Credential* user_;
  static Credential* host_;
};
Rng* CertTest::rng_ = nullptr;
CertificateAuthority* CertTest::ca_ = nullptr;
Credential* CertTest::user_ = nullptr;
Credential* CertTest::host_ = nullptr;

TEST_F(CertTest, RootIsSelfSigned) {
  EXPECT_TRUE(ca_->root().is_self_signed());
  EXPECT_EQ(ca_->root().type, CertType::kCa);
  EXPECT_TRUE(rsa_verify_sha1(ca_->root().key, ca_->root().tbs_bytes(),
                              ca_->root().signature));
}

TEST_F(CertTest, SerializeRoundTrip) {
  Buffer raw = user_->cert.serialize();
  Certificate back = Certificate::deserialize(raw);
  EXPECT_EQ(back, user_->cert);
}

TEST_F(CertTest, ValidUserChainAccepted) {
  auto result = validate_chain({user_->cert}, {ca_->root()}, 100);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.effective_identity.to_string(), "/O=UFL/CN=alice");
}

TEST_F(CertTest, HostChainAccepted) {
  auto result = validate_chain({host_->cert}, {ca_->root()}, 100);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.effective_identity.common_name, "fileserver");
}

TEST_F(CertTest, ExpiredCertificateRejected) {
  auto result = validate_chain({user_->cert}, {ca_->root()}, 500001);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("expired"), std::string::npos);
}

TEST_F(CertTest, NotYetValidRejected) {
  Rng rng(201);
  auto late = ca_->issue(rng, DistinguishedName("UFL", "late"),
                         CertType::kIdentity, 1000, 2000);
  EXPECT_FALSE(validate_chain({late.cert}, {ca_->root()}, 500).ok);
  EXPECT_TRUE(validate_chain({late.cert}, {ca_->root()}, 1500).ok);
}

TEST_F(CertTest, UntrustedIssuerRejected) {
  Rng rng(202);
  CertificateAuthority rogue(rng, DistinguishedName("Evil", "RootCA"), 0,
                             1000000);
  auto mallory = rogue.issue(rng, DistinguishedName("Evil", "mallory"),
                             CertType::kIdentity, 0, 500000);
  auto result = validate_chain({mallory.cert}, {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
}

TEST_F(CertTest, ForgedSignatureRejected) {
  Certificate forged = user_->cert;
  forged.subject.common_name = "root";  // tamper with the subject
  auto result = validate_chain({forged}, {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("signature"), std::string::npos);
}

TEST_F(CertTest, EmptyChainRejected) {
  EXPECT_FALSE(validate_chain({}, {ca_->root()}, 100).ok);
}

TEST_F(CertTest, ProxyDelegationAccepted) {
  Rng rng(203);
  Credential proxy = issue_proxy(rng, *user_, 0, 3600);
  auto result = validate_chain(proxy.presented_chain(), {ca_->root()}, 100);
  ASSERT_TRUE(result.ok) << result.error;
  // Effective identity unwraps to the base user.
  EXPECT_EQ(result.effective_identity.to_string(), "/O=UFL/CN=alice");
}

TEST_F(CertTest, NestedProxyDelegationAccepted) {
  Rng rng(204);
  Credential proxy1 = issue_proxy(rng, *user_, 0, 3600);
  Credential proxy2 = issue_proxy(rng, proxy1, 0, 1800);
  auto result = validate_chain(proxy2.presented_chain(), {ca_->root()}, 100);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.effective_identity.to_string(), "/O=UFL/CN=alice");
}

TEST_F(CertTest, ExpiredProxyRejected) {
  Rng rng(205);
  Credential proxy = issue_proxy(rng, *user_, 0, 50);
  auto result = validate_chain(proxy.presented_chain(), {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("proxy"), std::string::npos);
}

TEST_F(CertTest, ProxyWithoutSignerRejected) {
  Rng rng(206);
  Credential proxy = issue_proxy(rng, *user_, 0, 3600);
  auto result = validate_chain({proxy.cert}, {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
}

TEST_F(CertTest, ProxySignedByWrongKeyRejected) {
  Rng rng(207);
  Credential other = ca_->issue(rng, DistinguishedName("UFL", "bob"),
                                CertType::kIdentity, 0, 500000);
  Credential proxy = issue_proxy(rng, *user_, 0, 3600);
  // Present alice's proxy with bob's identity as the signer.
  auto result = validate_chain({proxy.cert, other.cert}, {ca_->root()}, 100);
  EXPECT_FALSE(result.ok);
}

TEST_F(CertTest, CaRefusesToIssueProxyType) {
  Rng rng(208);
  RsaKeyPair kp = rsa_generate(rng, 256);
  EXPECT_THROW(ca_->sign(DistinguishedName("UFL", "x"), CertType::kProxy,
                         kp.pub, 0, 100),
               std::invalid_argument);
}

TEST_F(CertTest, HostsCannotDelegate) {
  Rng rng(209);
  EXPECT_THROW(issue_proxy(rng, *host_, 0, 100), std::invalid_argument);
}

}  // namespace
}  // namespace sgfs::crypto

#include "crypto/rsa.hpp"

#include <stdexcept>

#include "crypto/sha.hpp"
#include "xdr/xdr.hpp"

namespace sgfs::crypto {

Buffer RsaPublicKey::serialize() const {
  xdr::Encoder enc;
  enc.put_opaque(n.to_bytes());
  enc.put_opaque(e.to_bytes());
  return enc.take_flat();
}

RsaPublicKey RsaPublicKey::deserialize(ByteView data) {
  xdr::Decoder dec(data);
  RsaPublicKey key;
  key.n = BigInt::from_bytes(dec.get_opaque());
  key.e = BigInt::from_bytes(dec.get_opaque());
  return key;
}

std::string RsaPublicKey::fingerprint() const {
  auto d = Sha256::hash(serialize());
  return to_hex(ByteView(d.data(), d.size()));
}

namespace {

RsaPrivateKey with_crt(BigInt n, BigInt e, BigInt d, BigInt p, BigInt q) {
  RsaPrivateKey key;
  key.dp = d % (p - BigInt(1));
  key.dq = d % (q - BigInt(1));
  key.qinv = BigInt::mod_inverse(q, p);
  key.n = std::move(n);
  key.e = std::move(e);
  key.d = std::move(d);
  key.p = std::move(p);
  key.q = std::move(q);
  return key;
}

}  // namespace

RsaKeyPair rsa_generate(Rng& rng, size_t modulus_bits) {
  if (modulus_bits < 256) {
    throw std::invalid_argument("RSA modulus must be >= 256 bits");
  }
  const BigInt e(65537);
  for (;;) {
    BigInt p = BigInt::generate_prime(rng, modulus_bits / 2);
    BigInt q = BigInt::generate_prime(rng, modulus_bits - modulus_bits / 2);
    if (p == q) continue;
    BigInt n = p * q;
    BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (BigInt::gcd(e, phi) != BigInt(1)) continue;
    BigInt d = BigInt::mod_inverse(e, phi);
    RsaKeyPair kp;
    kp.pub = {n, e};
    kp.priv = with_crt(n, e, std::move(d), std::move(p), std::move(q));
    return kp;
  }
}

RsaPrivateKey rsa_private_from_exponents(const BigInt& n, const BigInt& e,
                                         const BigInt& d) {
  // d·e - 1 is a multiple of lcm(p-1, q-1).  Write it as 2^t · r with r
  // odd; for a base g, the chain g^r, g^2r, ... reaches 1 mod n, and the
  // step before is a square root of 1 that, half the time or more, is not
  // ±1 and so splits n through a gcd.  The bases 2..101 stand in for the
  // standard's random ones, so a key decodes the same way every time.
  if (!n.is_odd() || n < BigInt(15) || e < BigInt(3) || d.is_zero()) {
    throw std::invalid_argument("not an RSA private key");
  }
  const BigInt k = d * e - BigInt(1);
  size_t t = 0;
  while (!k.bit(t)) ++t;
  const BigInt r = k >> t;
  const BigInt n_minus_1 = n - BigInt(1);
  for (uint64_t g = 2; g < 102 && t > 0; ++g) {
    BigInt y = BigInt::mod_exp(BigInt(g), r, n);
    if (y == BigInt(1) || y == n_minus_1) continue;
    for (size_t i = 0; i < t; ++i) {
      BigInt x = (y * y) % n;
      if (x == BigInt(1)) {
        BigInt p = BigInt::gcd(y - BigInt(1), n);
        BigInt q = n / p;
        return with_crt(n, e, d, std::move(p), std::move(q));
      }
      if (x == n_minus_1) break;
      y = std::move(x);
    }
  }
  throw std::invalid_argument("not an RSA private key");
}

namespace {

// Simplified DigestInfo: an ASCII tag in place of the DER-encoded OID.
// Both peers run this code, so the exact prefix bytes only need to be
// unambiguous and length-stable.
constexpr char kSha1Prefix[] = "DigestInfo:SHA1:";

Buffer pkcs1_pad_type1(ByteView payload, size_t width) {
  if (payload.size() + 11 > width) {
    throw std::runtime_error("PKCS#1 payload too large for modulus");
  }
  Buffer out;
  out.reserve(width);
  out.push_back(0x00);
  out.push_back(0x01);
  out.insert(out.end(), width - payload.size() - 3, 0xFF);
  out.push_back(0x00);
  append(out, payload);
  return out;
}

Buffer digest_info_sha1(ByteView message) {
  Buffer payload = to_bytes(kSha1Prefix);
  auto digest = Sha1::hash(message);
  append(payload, ByteView(digest.data(), digest.size()));
  return payload;
}

// x^d mod n by CRT with Garner recombination.  The result is checked
// against the public exponent before release: a fault in one half-
// exponentiation would otherwise hand out a value whose gcd with n
// factors the modulus (the Bellcore attack).
BigInt private_op(const RsaPrivateKey& key, const BigInt& x) {
  if (key.p.is_zero() || key.q.is_zero()) {
    throw std::invalid_argument("RSA private key lacks its CRT factors");
  }
  const BigInt xp = BigInt::mod_exp(x, key.dp, key.p);
  const BigInt xq = BigInt::mod_exp(x, key.dq, key.q);
  const BigInt h = ((xp + key.p - xq % key.p) * key.qinv) % key.p;
  BigInt y = xq + h * key.q;
  if (BigInt::mod_exp(y, key.e, key.n) != x) {
    throw std::runtime_error("RSA private-key result failed its check");
  }
  return y;
}

}  // namespace

Buffer rsa_sign_sha1(const RsaPrivateKey& key, ByteView message) {
  const size_t width = key.modulus_bytes();
  Buffer em = pkcs1_pad_type1(digest_info_sha1(message), width);
  BigInt m = BigInt::from_bytes(em);
  return private_op(key, m).to_bytes_padded(width);
}

bool rsa_verify_sha1(const RsaPublicKey& key, ByteView message,
                     ByteView signature) {
  const size_t width = key.modulus_bytes();
  if (signature.size() != width) return false;
  BigInt s = BigInt::from_bytes(signature);
  if (s >= key.n) return false;
  BigInt m = BigInt::mod_exp(s, key.e, key.n);
  Buffer em;
  try {
    em = m.to_bytes_padded(width);
  } catch (const std::overflow_error&) {
    return false;
  }
  Buffer expected = pkcs1_pad_type1(digest_info_sha1(message), width);
  return ct_equal(em, expected);
}

Buffer rsa_encrypt(const RsaPublicKey& key, Rng& rng, ByteView message) {
  const size_t width = key.modulus_bytes();
  if (message.size() + 11 > width) {
    throw std::runtime_error("RSA plaintext too large for modulus");
  }
  Buffer em;
  em.reserve(width);
  em.push_back(0x00);
  em.push_back(0x02);
  // PS: non-zero random bytes.
  for (size_t i = 0; i < width - message.size() - 3; ++i) {
    uint8_t b;
    do {
      b = static_cast<uint8_t>(rng.next_u64());
    } while (b == 0);
    em.push_back(b);
  }
  em.push_back(0x00);
  append(em, message);
  BigInt m = BigInt::from_bytes(em);
  BigInt c = BigInt::mod_exp(m, key.e, key.n);
  return c.to_bytes_padded(width);
}

Buffer rsa_decrypt(const RsaPrivateKey& key, ByteView ciphertext) {
  const size_t width = key.modulus_bytes();
  if (ciphertext.size() != width) {
    throw std::runtime_error("RSA ciphertext has wrong length");
  }
  BigInt c = BigInt::from_bytes(ciphertext);
  if (c >= key.n) throw std::runtime_error("RSA ciphertext out of range");
  Buffer em = private_op(key, c).to_bytes_padded(width);
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    throw std::runtime_error("RSA padding corrupt");
  }
  size_t sep = 2;
  while (sep < em.size() && em[sep] != 0x00) ++sep;
  if (sep < 10 || sep == em.size()) {
    throw std::runtime_error("RSA padding corrupt");
  }
  return Buffer(em.begin() + sep + 1, em.end());
}

}  // namespace sgfs::crypto

#include "crypto/bignum.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>

namespace sgfs::crypto {

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt::BigInt(uint64_t v) {
  if (v) limbs_.push_back(static_cast<uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
}

BigInt BigInt::from_bytes(ByteView be) {
  BigInt out;
  out.limbs_.assign((be.size() + 3) / 4, 0);
  for (size_t i = 0; i < be.size(); ++i) {
    const size_t pos = be.size() - 1 - i;  // byte significance
    out.limbs_[pos / 4] |= static_cast<uint32_t>(be[i]) << (8 * (pos % 4));
  }
  out.trim();
  return out;
}

Buffer BigInt::to_bytes() const {
  if (is_zero()) return {};
  Buffer out;
  const size_t bytes = (bit_length() + 7) / 8;
  out.reserve(bytes);
  for (size_t i = bytes; i-- > 0;) {
    const size_t limb = i / 4, shift = (i % 4) * 8;
    uint8_t b = limb < limbs_.size()
                    ? static_cast<uint8_t>(limbs_[limb] >> shift)
                    : 0;
    out.push_back(b);
  }
  return out;
}

Buffer BigInt::to_bytes_padded(size_t width) const {
  Buffer raw = to_bytes();
  if (raw.size() > width) throw std::overflow_error("BigInt exceeds width");
  Buffer out(width - raw.size(), 0);
  append(out, raw);
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  return from_bytes(sgfs::from_hex(padded));
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = sgfs::to_hex(to_bytes());
  size_t nz = s.find_first_not_of('0');
  return s.substr(nz);
}

size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(size_t i) const {
  const size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::strong_ordering BigInt::operator<=>(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt out;
  const size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<uint32_t>(carry));
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (*this < other) throw std::underflow_error("BigInt subtraction");
  BigInt out;
  out.limbs_.resize(limbs_.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) diff -= other.limbs_[i];
    if (diff < 0) {
      diff += int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (is_zero() || other.is_zero()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < other.limbs_.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(limbs_[i]) * other.limbs_[j] +
                     out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + other.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(size_t bits) const {
  if (is_zero()) return {};
  const size_t limb_shift = bits / 32, bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(size_t bits) const {
  const size_t limb_shift = bits / 32, bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigInt, BigInt> BigInt::divmod(const BigInt& num,
                                         const BigInt& den) {
  if (den.is_zero()) throw std::domain_error("BigInt division by zero");
  if (num < den) return {BigInt{}, num};
  if (den.limbs_.size() == 1) {
    // Short division.
    const uint64_t d = den.limbs_[0];
    BigInt q;
    q.limbs_.resize(num.limbs_.size());
    uint64_t rem = 0;
    for (size_t i = num.limbs_.size(); i-- > 0;) {
      const uint64_t cur = (rem << 32) | num.limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, BigInt(rem)};
  }

  // Knuth Algorithm D.  Normalize so the divisor's top limb has its MSB set.
  size_t shift = 0;
  uint32_t top = den.limbs_.back();
  while (!(top & 0x80000000u)) {
    top <<= 1;
    ++shift;
  }
  BigInt u = num << shift;
  const BigInt v = den << shift;
  const size_t n = v.limbs_.size();
  const size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m+n+1 limbs

  BigInt q;
  q.limbs_.assign(m + 1, 0);
  const uint64_t v_top = v.limbs_[n - 1];
  const uint64_t v_next = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    const uint64_t u2 =
        (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = u2 / v_top;
    uint64_t rhat = u2 % v_top;
    while (qhat >= (uint64_t{1} << 32) ||
           qhat * v_next > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= (uint64_t{1} << 32)) break;
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      const int64_t sub = static_cast<int64_t>(u.limbs_[i + j]) -
                          static_cast<int64_t>(p & 0xffffffffu) - borrow;
      u.limbs_[i + j] = static_cast<uint32_t>(sub);
      borrow = sub < 0 ? 1 : 0;
    }
    const int64_t sub = static_cast<int64_t>(u.limbs_[j + n]) -
                        static_cast<int64_t>(carry) - borrow;
    u.limbs_[j + n] = static_cast<uint32_t>(sub);

    if (sub < 0) {
      // qhat was one too large: add v back once.
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t s =
            static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + c;
        u.limbs_[i + j] = static_cast<uint32_t>(s);
        c = s >> 32;
      }
      u.limbs_[j + n] = static_cast<uint32_t>(u.limbs_[j + n] + c);
    }
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }
  q.trim();
  u.limbs_.resize(n);
  u.trim();
  return {q, u >> shift};
}

BigInt BigInt::operator/(const BigInt& other) const {
  return divmod(*this, other).first;
}

BigInt BigInt::operator%(const BigInt& other) const {
  return divmod(*this, other).second;
}

// Montgomery arithmetic modulo an odd m > 1 over 64-bit words, R = 2^(64n).
// Values in Montgomery form (x·R mod m) are word arrays of length n; every
// buffer is fixed-capacity, so multiplying and exponentiating never touch
// the heap.
class Montgomery {
 public:
  using Word = uint64_t;
  static constexpr size_t kMaxWords = 64;  // moduli up to 4096 bits

  // m must outlive the context.
  explicit Montgomery(const BigInt& m)
      : modulus_(m), n_((m.limbs_.size() + 1) / 2) {
    if (n_ > kMaxWords) {
      throw std::length_error("mod_exp modulus exceeds 4096 bits");
    }
    pack(m, m_);
    // Newton iteration for m^-1 mod 2^64: m0 is its own inverse mod 8 and
    // each step doubles the correct low bits (3, 6, 12, 24, 48, 96).
    Word inv = m_[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - m_[0] * inv;
    m_inv_ = 0 - inv;
    pack((BigInt(1) << (128 * n_)) % m, r2_);
    Word unit[kMaxWords] = {1};
    mul(one_, r2_, unit);  // R^2 · R^-1 = R mod m
  }

  const Word* one() const { return one_; }

  /// out = x·R mod m (x of any size).
  void to_mont(Word* out, const BigInt& x) {
    Word plain[kMaxWords] = {};
    if (x.limbs_.size() > 2 * n_) {
      pack(x % modulus_, plain);
    } else {
      pack(x, plain);
      if (!less_than_modulus(plain, 0)) pack(x % modulus_, plain);
    }
    mul(out, plain, r2_);
  }

  /// x for a Montgomery-form a.
  BigInt from_mont(const Word* a) {
    Word unit[kMaxWords] = {1};
    Word plain[kMaxWords] = {};
    mul(plain, a, unit);
    return unpack(plain);
  }

  bool equal(const Word* a, const Word* b) const {
    return std::equal(a, a + n_, b);
  }

  /// out = a·b·R^-1 mod m by CIOS (coarsely integrated operand scanning);
  /// a, b < m.  out may alias a or b.
  void mul(Word* out, const Word* a, const Word* b) {
    using u128 = unsigned __int128;
    Word* t = t_;
    std::fill_n(t, n_ + 2, Word{0});
    for (size_t i = 0; i < n_; ++i) {
      const Word bi = b[i];
      u128 c = 0;
      for (size_t j = 0; j < n_; ++j) {
        c += static_cast<u128>(a[j]) * bi + t[j];
        t[j] = static_cast<Word>(c);
        c >>= 64;
      }
      c += t[n_];
      t[n_] = static_cast<Word>(c);
      t[n_ + 1] = static_cast<Word>(c >> 64);
      // Add q·m with q chosen so the low word cancels, then shift a word.
      const Word q = t[0] * m_inv_;
      c = (static_cast<u128>(q) * m_[0] + t[0]) >> 64;
      for (size_t j = 1; j < n_; ++j) {
        c += static_cast<u128>(q) * m_[j] + t[j];
        t[j - 1] = static_cast<Word>(c);
        c >>= 64;
      }
      c += t[n_];
      t[n_ - 1] = static_cast<Word>(c);
      t[n_] = t[n_ + 1] + static_cast<Word>(c >> 64);
    }
    // t < 2m: one conditional subtraction brings it into [0, m).
    if (less_than_modulus(t, t[n_])) {
      std::copy_n(t, n_, out);
      return;
    }
    Word borrow = 0;
    for (size_t j = 0; j < n_; ++j) {
      const u128 d = static_cast<u128>(t[j]) - m_[j] - borrow;
      out[j] = static_cast<Word>(d);
      borrow = static_cast<Word>(d >> 64) & 1;
    }
  }

  /// out = base^e in Montgomery form, base in Montgomery form.  Left-to-
  /// right sliding window over the odd powers base^1, base^3, ...
  void exp(Word* out, const Word* base, const BigInt& e) {
    const size_t bits = e.bit_length();
    if (bits == 0) {
      std::copy_n(one_, n_, out);
      return;
    }
    const size_t w = bits > 239 ? 5 : bits > 79 ? 4 : bits > 23 ? 3 : 1;
    Word table[size_t{1} << 4][kMaxWords] = {};  // table[k] = base^(2k+1)
    std::copy_n(base, n_, table[0]);
    if (w > 1) {
      Word sq[kMaxWords] = {};
      mul(sq, base, base);
      for (size_t k = 1; k < (size_t{1} << (w - 1)); ++k) {
        mul(table[k], table[k - 1], sq);
      }
    }
    Word acc[kMaxWords] = {};
    bool started = false;
    for (size_t i = bits; i > 0;) {
      if (!e.bit(i - 1)) {
        mul(acc, acc, acc);  // never before the top bit: it is set
        --i;
        continue;
      }
      // Widest window [lo, i) of at most w bits that ends in a set bit.
      size_t lo = i > w ? i - w : 0;
      while (!e.bit(lo)) ++lo;
      size_t val = 0;
      for (size_t k = i; k-- > lo;) val = (val << 1) | (e.bit(k) ? 1 : 0);
      if (started) {
        for (size_t k = lo; k < i; ++k) mul(acc, acc, acc);
        mul(acc, acc, table[val >> 1]);
      } else {
        std::copy_n(table[val >> 1], n_, acc);
        started = true;
      }
      i = lo;
    }
    std::copy_n(acc, n_, out);
  }

 private:
  // Little-endian 32-bit limbs into n_ zero-extended 64-bit words.
  void pack(const BigInt& x, Word* out) const {
    std::fill_n(out, n_, Word{0});
    for (size_t i = 0; i < x.limbs_.size(); ++i) {
      out[i / 2] |= static_cast<Word>(x.limbs_[i]) << (32 * (i % 2));
    }
  }

  BigInt unpack(const Word* a) const {
    BigInt out;
    out.limbs_.resize(2 * n_);
    for (size_t i = 0; i < 2 * n_; ++i) {
      out.limbs_[i] = static_cast<uint32_t>(a[i / 2] >> (32 * (i % 2)));
    }
    out.trim();
    return out;
  }

  // Is (top : a[n_-1] .. a[0]) < m?
  bool less_than_modulus(const Word* a, Word top) const {
    if (top) return false;
    for (size_t j = n_; j-- > 0;) {
      if (a[j] != m_[j]) return a[j] < m_[j];
    }
    return false;
  }

  const BigInt& modulus_;
  size_t n_;
  Word m_inv_ = 0;  // -m^-1 mod 2^64
  Word m_[kMaxWords] = {};
  Word r2_[kMaxWords] = {};   // R^2 mod m
  Word one_[kMaxWords] = {};  // R mod m
  Word t_[kMaxWords + 2] = {};  // mul's accumulator; t_[0, n_ + 2) in use
};

BigInt BigInt::mod_exp(const BigInt& base, const BigInt& exp,
                       const BigInt& m) {
  if (m.is_zero()) throw std::domain_error("mod_exp modulus is zero");
  if (m == BigInt(1)) return {};
  if (m.is_odd()) {
    Montgomery mont(m);
    Montgomery::Word x[Montgomery::kMaxWords] = {};
    mont.to_mont(x, base);
    mont.exp(x, x, exp);
    return mont.from_mont(x);
  }
  BigInt result(1);
  BigInt b = base % m;
  const size_t bits = exp.bit_length();
  for (size_t i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = (result * b) % m;
    b = (b * b) % m;
  }
  return result;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Iterative extended Euclid with explicit signs for the t coefficients.
  BigInt r0 = m, r1 = a % m;
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    auto [q, r2] = divmod(r0, r1);
    // t2 = t0 - q * t1 (signed arithmetic on unsigned magnitudes).
    BigInt qt = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt) {
        t2 = t0 - qt;
        t2_neg = t0_neg;
      } else {
        t2 = qt - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (r0 != BigInt(1)) throw std::domain_error("mod_inverse: not coprime");
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

BigInt BigInt::random_bits(Rng& rng, size_t bits) {
  if (bits == 0) return {};
  const size_t bytes = (bits + 7) / 8;
  Buffer raw = rng.bytes(bytes);
  // Clear excess bits, then force the MSB so the value has exactly `bits`.
  const size_t excess = bytes * 8 - bits;
  raw[0] &= static_cast<uint8_t>(0xff >> excess);
  raw[0] |= static_cast<uint8_t>(0x80 >> excess);
  return from_bytes(raw);
}

BigInt BigInt::random_below(Rng& rng, const BigInt& bound) {
  if (bound.is_zero()) throw std::domain_error("random_below zero bound");
  const size_t bits = bound.bit_length();
  for (;;) {
    const size_t bytes = (bits + 7) / 8;
    Buffer raw = rng.bytes(bytes);
    raw[0] &= static_cast<uint8_t>(0xff >> (bytes * 8 - bits));
    BigInt v = from_bytes(raw);
    if (v < bound) return v;
  }
}

bool BigInt::is_probable_prime(Rng& rng, int rounds) const {
  static constexpr uint32_t kSmallPrimes[] = {
      2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
      59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113};
  if (*this < BigInt(2)) return false;
  // Trial division: one single-limb remainder pass per run of small primes
  // whose product fits in 32 bits.  The first prime that divides decides:
  // composite, unless the value is that prime.
  for (size_t begin = 0; begin < std::size(kSmallPrimes);) {
    uint64_t product = 1;
    size_t end = begin;
    while (end < std::size(kSmallPrimes) &&
           product * kSmallPrimes[end] <= UINT32_MAX) {
      product *= kSmallPrimes[end++];
    }
    uint64_t rem = 0;
    for (size_t i = limbs_.size(); i-- > 0;) {
      rem = ((rem << 32) | limbs_[i]) % product;
    }
    for (size_t k = begin; k < end; ++k) {
      if (rem % kSmallPrimes[k] == 0) {
        return limbs_.size() == 1 && limbs_[0] == kSmallPrimes[k];
      }
    }
    begin = end;
  }
  // Odd and above 113 from here.  Write n-1 = d * 2^r.
  const BigInt n_minus_1 = *this - BigInt(1);
  size_t r = 0;
  while (!n_minus_1.bit(r)) ++r;
  const BigInt d = n_minus_1 >> r;
  const BigInt witness_span = *this - BigInt(4);
  // One Montgomery context serves every witness and squaring chain; the
  // comparisons against 1 and n-1 happen in Montgomery form.
  Montgomery mont(*this);
  Montgomery::Word minus_one[Montgomery::kMaxWords] = {};
  Montgomery::Word x[Montgomery::kMaxWords] = {};
  mont.to_mont(minus_one, n_minus_1);
  for (int round = 0; round < rounds; ++round) {
    const BigInt a = BigInt(2) + random_below(rng, witness_span);  // [2, n-2]
    mont.to_mont(x, a);
    mont.exp(x, x, d);
    if (mont.equal(x, mont.one()) || mont.equal(x, minus_one)) continue;
    bool composite = true;
    for (size_t i = 0; i + 1 < r; ++i) {
      mont.mul(x, x, x);
      if (mont.equal(x, minus_one)) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(Rng& rng, size_t bits) {
  if (bits < 8) throw std::invalid_argument("prime too small");
  for (;;) {
    BigInt candidate = random_bits(rng, bits);
    if (!candidate.is_odd()) candidate = candidate + BigInt(1);
    if (candidate.is_probable_prime(rng)) return candidate;
  }
}

}  // namespace sgfs::crypto

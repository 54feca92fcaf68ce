#include "support/rational.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "support/error.hpp"

namespace sparcs::support {
namespace {

using u128 = unsigned __int128;
using i128 = __int128;

constexpr i128 kI128Min = -static_cast<i128>(~u128{0} >> 1) - 1;  // -2^127

u128 magnitude_of(i128 v) {
  return v < 0 ? ~static_cast<u128>(v) + 1 : static_cast<u128>(v);
}

/// Binary gcd on unsigned 128-bit magnitudes (no division).
u128 gcd_u128(u128 a, u128 b) {
  if (a == 0) return b;
  if (b == 0) return a;
  if (a == 1 || b == 1) return 1;
  int shift = 0;
  while (((a | b) & 1) == 0) {
    a >>= 1;
    b >>= 1;
    ++shift;
  }
  while ((a & 1) == 0) a >>= 1;
  while (b != 0) {
    while ((b & 1) == 0) b >>= 1;
    if (a > b) std::swap(a, b);
    b -= a;
  }
  return a << shift;
}

}  // namespace

// ---- BigInt ---------------------------------------------------------------

BigInt::BigInt(std::int64_t value) { *this = from_i128(value); }

BigInt BigInt::from_i128(i128 value) {
  BigInt out;
  out.negative_ = value < 0;
  u128 mag = magnitude_of(value);
  while (mag != 0) {
    out.limbs_.push_back(static_cast<std::uint32_t>(mag & 0xffffffffu));
    mag >>= 32;
  }
  return out;
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::negated() const {
  BigInt out = *this;
  if (!out.limbs_.empty()) out.negative_ = !out.negative_;
  return out;
}

int BigInt::compare_magnitude(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

int BigInt::compare(const BigInt& other) const {
  if (sign() != other.sign()) return sign() < other.sign() ? -1 : 1;
  const int mag = compare_magnitude(other);
  return negative_ ? -mag : mag;
}

BigInt BigInt::add_magnitude(const BigInt& a, const BigInt& b, bool negative) {
  BigInt out;
  out.negative_ = negative;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_.push_back(static_cast<std::uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  out.trim();
  return out;
}

BigInt BigInt::sub_magnitude(const BigInt& a, const BigInt& b, bool negative) {
  BigInt out;
  out.negative_ = negative;
  out.limbs_.reserve(a.limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    borrow = 0;
    if (diff < 0) {
      diff += std::int64_t{1} << 32;
      borrow = 1;
    }
    out.limbs_.push_back(static_cast<std::uint32_t>(diff));
  }
  SPARCS_CHECK(borrow == 0, "BigInt magnitude subtraction underflow");
  out.trim();
  return out;
}

BigInt BigInt::operator+(const BigInt& other) const {
  if (negative_ == other.negative_) {
    return add_magnitude(*this, other, negative_);
  }
  const int mag = compare_magnitude(other);
  if (mag == 0) return BigInt();
  return mag > 0 ? sub_magnitude(*this, other, negative_)
                 : sub_magnitude(other, *this, other.negative_);
}

BigInt BigInt::operator-(const BigInt& other) const {
  return *this + other.negated();
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (is_zero() || other.is_zero()) return BigInt();
  BigInt out;
  out.negative_ = negative_ != other.negative_;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      std::uint64_t cur = out.limbs_[i + j] + carry +
                          static_cast<std::uint64_t>(limbs_[i]) *
                              other.limbs_[j];
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + other.limbs_.size();
    while (carry != 0) {
      std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::shifted_left(int bits) const {
  SPARCS_CHECK(bits >= 0, "negative shift");
  if (is_zero() || bits == 0) return *this;
  BigInt out;
  out.negative_ = negative_;
  const int limb_shift = bits / 32;
  const int bit_shift = bits % 32;
  out.limbs_.assign(static_cast<std::size_t>(limb_shift), 0);
  std::uint32_t carry = 0;
  for (const std::uint32_t limb : limbs_) {
    if (bit_shift == 0) {
      out.limbs_.push_back(limb);
    } else {
      out.limbs_.push_back((limb << bit_shift) | carry);
      carry = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(limb) >> (32 - bit_shift));
    }
  }
  if (carry != 0) out.limbs_.push_back(carry);
  out.trim();
  return out;
}

void BigInt::divmod(const BigInt& divisor, BigInt* quotient,
                    BigInt* remainder) const {
  SPARCS_REQUIRE(!divisor.is_zero(), "BigInt division by zero");
  // Shift-subtract long division on magnitudes, msb -> lsb.
  BigInt q, r;
  const std::size_t total_bits = limbs_.size() * 32;
  q.limbs_.assign(limbs_.size(), 0);
  BigInt div_mag = divisor;
  div_mag.negative_ = false;
  for (std::size_t bit = total_bits; bit-- > 0;) {
    // r = (r << 1) | bit_of(*this, bit)
    r = r.shifted_left(1);
    if ((limbs_[bit / 32] >> (bit % 32)) & 1u) {
      if (r.limbs_.empty()) r.limbs_.push_back(0);
      r.limbs_[0] |= 1u;
    }
    if (!(r.compare_magnitude(div_mag) < 0)) {
      r = sub_magnitude(r, div_mag, false);
      q.limbs_[bit / 32] |= (1u << (bit % 32));
    }
  }
  // Truncated division: quotient sign = operand signs xor, remainder takes
  // the dividend's sign.
  q.negative_ = negative_ != divisor.negative_;
  r.negative_ = negative_;
  q.trim();
  r.trim();
  if (quotient != nullptr) *quotient = std::move(q);
  if (remainder != nullptr) *remainder = std::move(r);
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    BigInt r;
    a.divmod(b, nullptr, &r);
    r.negative_ = false;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

bool BigInt::fits_i128(i128* out) const {
  if (limbs_.size() > 4) return false;
  u128 mag = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    mag = (mag << 32) | limbs_[i];
  }
  // |value| must fit the signed range; -2^127 is representable but awkward
  // to normalize, so it stays big.
  constexpr u128 kMax = ~u128{0} >> 1;  // 2^127 - 1
  if (mag > kMax) return false;
  *out = negative_ ? -static_cast<i128>(mag) : static_cast<i128>(mag);
  return true;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  // Peel 9 decimal digits at a time with the shift-subtract divmod.
  BigInt value = *this;
  value.negative_ = false;
  const BigInt chunk = BigInt(1000000000);
  std::string digits;
  while (!value.is_zero()) {
    BigInt q, r;
    value.divmod(chunk, &q, &r);
    std::uint64_t part = 0;
    for (std::size_t i = r.limbs_.size(); i-- > 0;) {
      part = (part << 32) | r.limbs_[i];
    }
    const bool last = q.is_zero();
    char buf[16];
    std::snprintf(buf, sizeof buf, last ? "%llu" : "%09llu",
                  static_cast<unsigned long long>(part));
    digits.insert(0, buf);
    value = std::move(q);
  }
  return negative_ ? "-" + digits : digits;
}

double BigInt::to_double() const {
  double mag = 0.0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    mag = mag * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -mag : mag;
}

// ---- Rational -------------------------------------------------------------

Rational::Rational(std::int64_t num, std::int64_t den) {
  SPARCS_REQUIRE(den != 0, "rational with zero denominator");
  *this = make_small(num, den);
}

Rational Rational::make_small(i128 num, i128 den) {
  if (num == kI128Min || den == kI128Min) {
    // -2^127 has no negation in __int128; the big representation is exact.
    return Rational(BigInt::from_i128(num), BigInt::from_i128(den));
  }
  Rational out;
  if (den < 0) {
    num = -num;
    den = -den;
  }
  const u128 g = gcd_u128(magnitude_of(num), magnitude_of(den));
  if (g > 1) {
    // Dividing by the gcd of the magnitudes is exact; do it on magnitudes to
    // sidestep the -2^127 edge case.
    const bool neg = num < 0;
    const u128 nmag = magnitude_of(num) / g;
    num = neg ? -static_cast<i128>(nmag) : static_cast<i128>(nmag);
    den = static_cast<i128>(magnitude_of(den) / g);
  }
  out.num_ = num;
  out.den_ = den;
  return out;
}

Rational::Rational(BigInt num, BigInt den) {
  SPARCS_REQUIRE(!den.is_zero(), "rational with zero denominator");
  if (den.sign() < 0) {
    num = num.negated();
    den = den.negated();
  }
  if (!num.is_zero()) {
    const BigInt g = BigInt::gcd(num, den);
    BigInt one = 1;
    if (g.compare(one) > 0) {
      BigInt qn, qd;
      num.divmod(g, &qn, nullptr);
      den.divmod(g, &qd, nullptr);
      num = std::move(qn);
      den = std::move(qd);
    }
  } else {
    den = 1;
  }
  i128 small_num = 0, small_den = 0;
  if (num.fits_i128(&small_num) && den.fits_i128(&small_den)) {
    num_ = small_num;
    den_ = small_den;
    return;
  }
  big_ = true;
  bnum_ = std::move(num);
  bden_ = std::move(den);
}

BigInt Rational::big_num() const {
  return big_ ? bnum_ : BigInt::from_i128(num_);
}

BigInt Rational::big_den() const {
  return big_ ? bden_ : BigInt::from_i128(den_);
}

Rational Rational::from_double(double value) {
  SPARCS_REQUIRE(std::isfinite(value), "rational from non-finite double");
  if (value == 0.0) return Rational();
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);
  // mantissa * 2^53 is an integer with |.| < 2^53.
  const auto scaled = static_cast<std::int64_t>(std::ldexp(mantissa, 53));
  exp -= 53;
  if (exp >= 0) {
    if (exp <= 70) {
      return make_small(static_cast<i128>(scaled) << exp, 1);
    }
    return Rational(BigInt::from_i128(scaled).shifted_left(exp), BigInt(1));
  }
  if (-exp <= 70) {
    return make_small(scaled, i128{1} << -exp);
  }
  return Rational(BigInt::from_i128(scaled), BigInt(1).shifted_left(-exp));
}

int Rational::sign() const {
  if (big_) return bnum_.sign();
  return num_ < 0 ? -1 : (num_ > 0 ? 1 : 0);
}

Rational Rational::negated() const {
  if (!big_) {
    Rational out = *this;
    out.num_ = -out.num_;
    return out;
  }
  return Rational(bnum_.negated(), bden_);
}

Rational Rational::operator+(const Rational& other) const {
  if (!big_ && !other.big_ && den_ == 1 && other.den_ == 1) {
    // Integers: the sum is already normalized.
    i128 sum = 0;
    if (!__builtin_add_overflow(num_, other.num_, &sum) && sum != kI128Min) {
      Rational out;
      out.num_ = sum;
      return out;
    }
  }
  if (!big_ && !other.big_) {
    // a/b + c/d = (a*d + c*b) / (b*d), each product overflow-checked.
    i128 ad = 0, cb = 0, bd = 0, sum = 0;
    if (!__builtin_mul_overflow(num_, other.den_, &ad) &&
        !__builtin_mul_overflow(other.num_, den_, &cb) &&
        !__builtin_mul_overflow(den_, other.den_, &bd) &&
        !__builtin_add_overflow(ad, cb, &sum)) {
      return make_small(sum, bd);
    }
  }
  const BigInt num = big_num() * other.big_den() + other.big_num() * big_den();
  return Rational(num, big_den() * other.big_den());
}

Rational Rational::operator-(const Rational& other) const {
  return *this + other.negated();
}

Rational Rational::operator*(const Rational& other) const {
  if (!big_ && !other.big_ && den_ == 1 && other.den_ == 1) {
    // Integers: nothing to cross-reduce.
    i128 product = 0;
    if (!__builtin_mul_overflow(num_, other.num_, &product) &&
        product != kI128Min) {
      Rational out;
      out.num_ = product;
      return out;
    }
  }
  if (!big_ && !other.big_) {
    // Cross-reduce first so products of already-reduced values rarely
    // overflow: (a/b)*(c/d) with g1=gcd(a,d), g2=gcd(c,b).
    const u128 g1 = gcd_u128(magnitude_of(num_), magnitude_of(other.den_));
    const u128 g2 = gcd_u128(magnitude_of(other.num_), magnitude_of(den_));
    const i128 a = g1 > 1 ? num_ / static_cast<i128>(g1) : num_;
    const i128 d = g1 > 1 ? other.den_ / static_cast<i128>(g1) : other.den_;
    const i128 c = g2 > 1 ? other.num_ / static_cast<i128>(g2) : other.num_;
    const i128 b = g2 > 1 ? den_ / static_cast<i128>(g2) : den_;
    i128 num = 0, den = 0;
    if (!__builtin_mul_overflow(a, c, &num) &&
        !__builtin_mul_overflow(b, d, &den)) {
      return make_small(num, den);
    }
  }
  return Rational(big_num() * other.big_num(), big_den() * other.big_den());
}

Rational Rational::operator/(const Rational& other) const {
  SPARCS_REQUIRE(other.sign() != 0, "rational division by zero");
  Rational flipped;
  if (!other.big_) {
    flipped.num_ = other.num_ < 0 ? -other.den_ : other.den_;
    flipped.den_ = other.num_ < 0 ? -other.num_ : other.num_;
  } else {
    return Rational(big_num() * other.big_den(), big_den() * other.big_num());
  }
  return *this * flipped;
}

int Rational::compare(const Rational& other) const {
  if (!big_ && !other.big_) {
    i128 ad = 0, cb = 0;
    if (!__builtin_mul_overflow(num_, other.den_, &ad) &&
        !__builtin_mul_overflow(other.num_, den_, &cb)) {
      return ad < cb ? -1 : (ad > cb ? 1 : 0);
    }
  }
  return (big_num() * other.big_den()).compare(other.big_num() * big_den());
}

bool Rational::is_integer() const {
  if (!big_) return den_ == 1;
  i128 v = 0;
  return bden_.fits_i128(&v) && v == 1;
}

Rational Rational::floor() const {
  if (!big_) {
    i128 q = num_ / den_;
    if (num_ % den_ != 0 && num_ < 0) --q;
    Rational out;
    out.num_ = q;
    return out;
  }
  BigInt q, r;
  bnum_.divmod(bden_, &q, &r);
  if (!r.is_zero() && bnum_.sign() < 0) q = q - BigInt(1);
  return Rational(std::move(q), BigInt(1));
}

Rational Rational::ceil() const { return negated().floor().negated(); }

std::string Rational::to_string() const {
  if (is_integer()) return big_num().to_string();
  return big_num().to_string() + "/" + big_den().to_string();
}

double Rational::to_double() const {
  if (!big_) {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }
  const double num = bnum_.to_double();
  const double den = bden_.to_double();
  if (std::isfinite(num) && std::isfinite(den)) return num / den;
  // Both huge: compare magnitudes through a scaled quotient.
  BigInt q;
  bnum_.divmod(bden_, &q, nullptr);
  return q.to_double();
}

}  // namespace sparcs::support

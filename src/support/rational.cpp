#include "support/rational.hpp"

#include <algorithm>
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

int ctz_u128(u128 v) {  // v != 0
  const auto low = static_cast<std::uint64_t>(v);
  return low != 0 ? __builtin_ctzll(low)
                  : 64 + __builtin_ctzll(static_cast<std::uint64_t>(v >> 64));
}

/// Binary gcd of an odd `x` and a non-zero `y`.
std::uint64_t odd_gcd_u64(std::uint64_t x, std::uint64_t y) {
  while (y != 0) {
    y >>= __builtin_ctzll(y);
    if (x > y) std::swap(x, y);
    y -= x;
  }
  return x;
}

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = __builtin_ctzll(a | b);
  return odd_gcd_u64(a >> __builtin_ctzll(a), b) << shift;
}

/// Binary gcd on unsigned magnitudes (no division); runs on 64-bit words
/// once both operands fit them.
u128 gcd_u128(u128 a, u128 b) {
  if (a == 0) return b;
  if (b == 0) return a;
  if (a == 1 || b == 1) return 1;
  const int shift = ctz_u128(a | b);
  a >>= ctz_u128(a);
  while (b >> 64 != 0 || a >> 64 != 0) {
    b >>= ctz_u128(b);
    if (a > b) std::swap(a, b);
    b -= a;
    if (b == 0) return a << shift;
  }
  return static_cast<u128>(odd_gcd_u64(static_cast<std::uint64_t>(a),
                                       static_cast<std::uint64_t>(b)))
         << shift;
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
  BigInt q, r;
  if (compare_magnitude(divisor) < 0) {
    r = *this;
  } else if (divisor.limbs_.size() == 1) {
    // Short division: one 64-by-32-bit step per limb, msb -> lsb.
    const std::uint64_t d = divisor.limbs_[0];
    q.limbs_.resize(limbs_.size());
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    r.limbs_.push_back(static_cast<std::uint32_t>(rem));
  } else {
    // Knuth, TAOCP vol. 2, 4.3.1, Algorithm D on base-2^32 limbs.
    constexpr std::uint64_t kBase = std::uint64_t{1} << 32;
    const std::size_t n = divisor.limbs_.size();
    const std::size_t m = limbs_.size() - n;
    // D1: normalize so the divisor's top limb has its high bit set; the
    // dividend gains one limb for the shifted-out bits.
    const int s = __builtin_clz(divisor.limbs_[n - 1]);
    const auto shift = [s](const std::vector<std::uint32_t>& in,
                           std::size_t out_size) {
      std::vector<std::uint32_t> out(out_size, 0);
      for (std::size_t i = 0; i < in.size(); ++i) {
        const std::uint64_t wide = static_cast<std::uint64_t>(in[i]) << s;
        out[i] |= static_cast<std::uint32_t>(wide);
        if (i + 1 < out_size) {
          out[i + 1] = static_cast<std::uint32_t>(wide >> 32);
        }
      }
      return out;
    };
    const std::vector<std::uint32_t> v = shift(divisor.limbs_, n);
    std::vector<std::uint32_t> u = shift(limbs_, limbs_.size() + 1);
    q.limbs_.resize(m + 1);
    for (std::size_t j = m + 1; j-- > 0;) {
      // D3: estimate q̂ from the top two limbs, then correct it (at most
      // twice) with the divisor's second limb.
      const std::uint64_t top =
          (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
      std::uint64_t qhat = top / v[n - 1];
      std::uint64_t rhat = top % v[n - 1];
      while (qhat >= kBase ||
             qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
        --qhat;
        rhat += v[n - 1];
        if (rhat >= kBase) break;
      }
      // D4: u[j .. j+n] -= q̂ * v.
      std::int64_t borrow = 0;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t product = qhat * v[i] + carry;
        carry = product >> 32;
        const std::int64_t diff =
            static_cast<std::int64_t>(u[i + j]) - borrow -
            static_cast<std::int64_t>(product & 0xffffffffu);
        u[i + j] = static_cast<std::uint32_t>(diff);
        borrow = diff < 0 ? 1 : 0;
      }
      const std::int64_t diff = static_cast<std::int64_t>(u[j + n]) - borrow -
                                static_cast<std::int64_t>(carry);
      u[j + n] = static_cast<std::uint32_t>(diff);
      // D5/D6: q̂ was one too large (rare): add the divisor back.
      if (diff < 0) {
        --qhat;
        std::uint64_t add_carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t sum =
              static_cast<std::uint64_t>(u[i + j]) + v[i] + add_carry;
          u[i + j] = static_cast<std::uint32_t>(sum);
          add_carry = sum >> 32;
        }
        u[j + n] = static_cast<std::uint32_t>(u[j + n] + add_carry);
      }
      q.limbs_[j] = static_cast<std::uint32_t>(qhat);
    }
    // D8: the remainder is u[0 .. n) shifted back down.
    r.limbs_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t wide =
          (static_cast<std::uint64_t>(u[i + 1]) << 32) | u[i];
      r.limbs_[i] = static_cast<std::uint32_t>(wide >> s);
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
  // Peel 9 decimal digits at a time with the short divmod.
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

std::unique_ptr<Rational::Big> Rational::clone(const Big& big) {
  return std::make_unique<Big>(big);
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
  const u128 num_mag = magnitude_of(num);
  if ((num_mag | static_cast<u128>(den)) >> 64 == 0) {
    // Both fit 64-bit words: reduce there.
    const auto n = static_cast<std::uint64_t>(num_mag);
    const auto d = static_cast<std::uint64_t>(den);
    const std::uint64_t g = gcd_u64(n, d);
    out.num_ = num < 0 ? -static_cast<i128>(n / g) : static_cast<i128>(n / g);
    out.den_ = d / g;
    return out;
  }
  const u128 g = gcd_u128(num_mag, magnitude_of(den));
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
  big_ = std::make_unique<Big>(Big{std::move(num), std::move(den)});
}

BigInt Rational::big_num() const {
  return big_ ? big_->num : BigInt::from_i128(num_);
}

BigInt Rational::big_den() const {
  return big_ ? big_->den : BigInt::from_i128(den_);
}

int Rational::big_sign() const { return big_->num.sign(); }

Rational Rational::from_double(double value) {
  SPARCS_REQUIRE(std::isfinite(value), "rational from non-finite double");
  constexpr double kTwo63 = 9223372036854775808.0;
  if (value >= -kTwo63 && value < kTwo63) {
    // Integral doubles (the bulk of a model's data) convert directly.
    const auto whole = static_cast<std::int64_t>(value);
    if (static_cast<double>(whole) == value) return integer(whole);
  }
  int exp = 0;
  const double mantissa = std::frexp(value, &exp);
  // mantissa * 2^53 is an integer with |.| < 2^53.
  auto scaled = static_cast<std::int64_t>(std::ldexp(mantissa, 53));
  exp -= 53;
  if (exp >= 0) {
    if (exp <= 70) return integer(static_cast<i128>(scaled) << exp);
    return Rational(BigInt::from_i128(scaled).shifted_left(exp), BigInt(1));
  }
  // scaled / 2^-exp: the gcd is the power of two scaled's trailing zeros
  // share with the denominator.
  const int shift =
      std::min(__builtin_ctzll(static_cast<std::uint64_t>(scaled)), -exp);
  scaled >>= shift;  // exact: the bits shifted out are zero
  exp += shift;
  if (-exp <= 126) {
    Rational out;
    out.num_ = scaled;
    out.den_ = i128{1} << -exp;
    return out;
  }
  return Rational(BigInt::from_i128(scaled), BigInt(1).shifted_left(-exp));
}

Rational Rational::negated() const {
  if (!big_) {
    Rational out = *this;
    out.num_ = -out.num_;
    return out;
  }
  return Rational(big_->num.negated(), big_->den);
}

Rational Rational::add(const Rational& other) const {
  if (!big_ && !other.big_ && den_ == 1 && other.den_ == 1) {
    // Integers: the sum is already normalized.
    i128 sum = 0;
    if (!__builtin_add_overflow(num_, other.num_, &sum) && sum != kI128Min) {
      return integer(sum);
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

Rational Rational::multiply(const Rational& other) const {
  if (!big_ && !other.big_ && den_ == 1 && other.den_ == 1) {
    // Integers: nothing to cross-reduce.
    i128 product = 0;
    if (!__builtin_mul_overflow(num_, other.num_, &product) &&
        product != kI128Min) {
      return integer(product);
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
  if (small_integer() && other.small_integer()) {
    // Integers: an exact quotient needs no gcd; only -2^63 / -1 would
    // overflow 64 bits, and dividing by -1 is a negation.
    const auto a = static_cast<std::int64_t>(num_);
    const auto b = static_cast<std::int64_t>(other.num_);
    if (b == -1) return integer(-num_);
    if (a % b == 0) return integer(a / b);
    return make_small(a, b);
  }
  if (other.big_) {
    return Rational(big_num() * other.big_den(), big_den() * other.big_num());
  }
  Rational flipped;
  flipped.num_ = other.num_ < 0 ? -other.den_ : other.den_;
  flipped.den_ = other.num_ < 0 ? -other.num_ : other.num_;
  return *this * flipped;
}

int Rational::cross_compare(const Rational& other) const {
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
  return big_->den.fits_i128(&v) && v == 1;
}

Rational Rational::floor() const {
  if (!big_) {
    i128 q = num_ / den_;
    if (num_ % den_ != 0 && num_ < 0) --q;
    return integer(q);
  }
  BigInt q, r;
  big_->num.divmod(big_->den, &q, &r);
  if (!r.is_zero() && big_->num.sign() < 0) q = q - BigInt(1);
  return Rational(std::move(q), BigInt(1));
}

Rational Rational::ceil() const {
  if (!big_) {
    i128 q = num_ / den_;
    if (num_ % den_ != 0 && num_ > 0) ++q;
    return integer(q);
  }
  return negated().floor().negated();
}

Rational Rational::general_quotient(const Rational& divisor, bool up) const {
  const Rational exact = *this / divisor;  // REQUIREs a non-zero divisor
  return up ? exact.ceil() : exact.floor();
}

std::string Rational::to_string() const {
  if (is_integer()) return big_num().to_string();
  return big_num().to_string() + "/" + big_den().to_string();
}

double Rational::to_double() const {
  if (!big_) {
    return static_cast<double>(num_) / static_cast<double>(den_);
  }
  const double num = big_->num.to_double();
  const double den = big_->den.to_double();
  if (std::isfinite(num) && std::isfinite(den)) return num / den;
  // Both huge: compare magnitudes through a scaled quotient.
  BigInt q;
  big_->num.divmod(big_->den, &q, nullptr);
  return q.to_double();
}

}  // namespace sparcs::support

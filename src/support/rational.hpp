// Exact rational arithmetic for certificate checking.
//
// Rational keeps its numerator/denominator in __int128 while they fit and
// every operation that could overflow checks for it with the compiler
// intrinsics; the moment a product or sum would overflow, the value is
// promoted to an arbitrary-precision sign-magnitude integer (BigInt) and
// stays exact. The certificate checker (milp/certify) is the only
// performance-sensitive user, and its inputs are doubles, whose exact
// rational form is num/2^k — small enough that the fast path handles almost
// every operation.
//
// Design notes:
//  - Rationals never divide integers except in floor()/ceil(), the floor or
//    ceil of a quotient, and printing: a/b is multiplication by the flipped
//    operand. BigInt divides by limbs (Knuth's Algorithm D, with a one-limb
//    short division), which gcd reduction, floor/ceil and printing share.
//  - from_double() is exact: d == m * 2^e is decomposed with frexp and the
//    power of two lands in the numerator or denominator verbatim (|e| can
//    reach 1074, so this is a routine promotion trigger).
//  - Every value is kept normalized (gcd-reduced, denominator > 0) and
//    demoted back to the __int128 representation when it fits again; -2^127
//    has no negation there and stays big.
//  - The BigInt pair of a promoted value sits behind one pointer, so a small
//    value is two words and a null pointer and copies as plain words.
//  - The integer fast path is inline: sign, compare at equal denominators,
//    and +, -, * when both operands are integers within +-2^63 (the result
//    then fits __int128 with room to spare and needs no overflow check).
//    Everything else goes out of line through the checked general path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sparcs::support {

/// Arbitrary-precision signed integer, sign + base-2^32 magnitude.
class BigInt {
 public:
  BigInt() = default;
  BigInt(std::int64_t value);  // NOLINT(google-explicit-constructor)
  static BigInt from_i128(__int128 value);

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  /// -1, 0, +1.
  [[nodiscard]] int sign() const {
    return limbs_.empty() ? 0 : (negative_ ? -1 : 1);
  }
  [[nodiscard]] BigInt negated() const;

  [[nodiscard]] BigInt operator+(const BigInt& other) const;
  [[nodiscard]] BigInt operator-(const BigInt& other) const;
  [[nodiscard]] BigInt operator*(const BigInt& other) const;
  /// Truncated division (C semantics): quotient rounds toward zero and the
  /// remainder takes the dividend's sign. REQUIREs a non-zero divisor.
  void divmod(const BigInt& divisor, BigInt* quotient, BigInt* remainder) const;

  /// Three-way compare: negative/zero/positive like memcmp.
  [[nodiscard]] int compare(const BigInt& other) const;
  bool operator==(const BigInt& other) const { return compare(other) == 0; }
  bool operator<(const BigInt& other) const { return compare(other) < 0; }

  [[nodiscard]] BigInt shifted_left(int bits) const;

  /// Non-negative gcd of the magnitudes (Euclid over divmod).
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);

  /// True when the value fits an __int128 (and writes it).
  [[nodiscard]] bool fits_i128(__int128* out) const;

  [[nodiscard]] std::string to_string() const;
  /// Nearest double (diagnostics only; may overflow to +-inf).
  [[nodiscard]] double to_double() const;

 private:
  [[nodiscard]] int compare_magnitude(const BigInt& other) const;
  static BigInt add_magnitude(const BigInt& a, const BigInt& b, bool negative);
  /// |a| - |b|, requires |a| >= |b|.
  static BigInt sub_magnitude(const BigInt& a, const BigInt& b, bool negative);
  void trim();

  bool negative_ = false;
  std::vector<std::uint32_t> limbs_;  ///< little-endian, no leading zeros
};

/// Exact rational number; see the file comment for the representation.
class Rational {
 public:
  Rational() = default;
  Rational(std::int64_t value)  // NOLINT(google-explicit-constructor)
      : num_(value) {}
  /// num/den in small representation; REQUIREs den != 0.
  Rational(std::int64_t num, std::int64_t den);

  Rational(const Rational& other)
      : num_(other.num_), den_(other.den_),
        big_(other.big_ ? clone(*other.big_) : nullptr) {}
  Rational(Rational&&) noexcept = default;
  Rational& operator=(const Rational& other) {
    if (this != &other) {
      num_ = other.num_;
      den_ = other.den_;
      big_ = other.big_ ? clone(*other.big_) : nullptr;
    }
    return *this;
  }
  Rational& operator=(Rational&&) noexcept = default;
  ~Rational() = default;

  /// Exact conversion of a finite double (REQUIREs finiteness).
  static Rational from_double(double value);

  [[nodiscard]] int sign() const {
    if (!big_) return (num_ > 0) - (num_ < 0);
    return big_sign();
  }
  [[nodiscard]] bool is_zero() const { return !big_ && num_ == 0; }
  [[nodiscard]] Rational negated() const;

  [[nodiscard]] Rational operator+(const Rational& other) const {
    if (small_integer() && other.small_integer()) {
      return integer(num_ + other.num_);
    }
    return add(other);
  }
  [[nodiscard]] Rational operator-(const Rational& other) const {
    if (small_integer() && other.small_integer()) {
      return integer(num_ - other.num_);
    }
    return add(other.negated());
  }
  [[nodiscard]] Rational operator*(const Rational& other) const {
    if (small_integer() && other.small_integer()) {
      return integer(wide_product(num_, other.num_));
    }
    return multiply(other);
  }
  /// REQUIREs a non-zero divisor.
  [[nodiscard]] Rational operator/(const Rational& other) const;
  Rational& operator+=(const Rational& other) {
    if (small_integer() && other.small_integer()) {
      num_ += other.num_;
      return *this;
    }
    return *this = add(other);
  }
  Rational& operator-=(const Rational& other) {
    if (small_integer() && other.small_integer()) {
      num_ -= other.num_;
      return *this;
    }
    return *this = add(other.negated());
  }
  Rational& operator*=(const Rational& other) { return *this = *this * other; }

  /// *this += a * b, in place; the row-activity accumulation of the checker.
  Rational& add_product(const Rational& a, const Rational& b) {
    if (small_integer() && a.small_integer() && b.small_integer()) {
      num_ += wide_product(a.num_, b.num_);  // |.| <= 2^63 + 2^126 < 2^127
      return *this;
    }
    return *this += a * b;
  }

  /// Three-way compare via cross multiplication (denominators positive).
  [[nodiscard]] int compare(const Rational& other) const {
    if (!big_ && !other.big_ && den_ == other.den_) {
      return (num_ > other.num_) - (num_ < other.num_);
    }
    return cross_compare(other);
  }
  bool operator==(const Rational& other) const { return compare(other) == 0; }
  bool operator!=(const Rational& other) const { return compare(other) != 0; }
  bool operator<(const Rational& other) const { return compare(other) < 0; }
  bool operator<=(const Rational& other) const { return compare(other) <= 0; }
  bool operator>(const Rational& other) const { return compare(other) > 0; }
  bool operator>=(const Rational& other) const { return compare(other) >= 0; }

  /// Largest integer <= value / smallest integer >= value, as a Rational.
  [[nodiscard]] Rational floor() const;
  [[nodiscard]] Rational ceil() const;
  /// floor(*this / divisor) and ceil(*this / divisor) as one operation
  /// (REQUIRE a non-zero divisor); integer operands divide in one 64-bit
  /// step, without a gcd.
  [[nodiscard]] Rational floor_quotient(const Rational& divisor) const {
    return quotient(divisor, /*up=*/false);
  }
  [[nodiscard]] Rational ceil_quotient(const Rational& divisor) const {
    return quotient(divisor, /*up=*/true);
  }
  [[nodiscard]] bool is_integer() const;

  /// True when this value ever left the __int128 fast path (test hook).
  [[nodiscard]] bool is_promoted() const { return big_ != nullptr; }

  /// "num/den" (or just "num" for integers), exact.
  [[nodiscard]] std::string to_string() const;
  /// Nearest double (diagnostics only).
  [[nodiscard]] double to_double() const;

 private:
  struct Big {
    BigInt num, den;
  };

  /// An integer within +-2^63 in the small representation.
  [[nodiscard]] bool small_integer() const {
    return !big_ && den_ == 1 &&
           num_ == static_cast<__int128>(static_cast<std::int64_t>(num_));
  }
  /// The product of two values within +-2^63, as one 64x64->128 multiply.
  static __int128 wide_product(__int128 a, __int128 b) {
    return static_cast<__int128>(static_cast<std::int64_t>(a)) *
           static_cast<std::int64_t>(b);
  }
  static Rational integer(__int128 value) {
    Rational out;
    out.num_ = value;
    return out;
  }
  static std::unique_ptr<Big> clone(const Big& big);

  Rational(BigInt num, BigInt den);  ///< normalizes and maybe demotes
  static Rational make_small(__int128 num, __int128 den);
  [[nodiscard]] Rational add(const Rational& other) const;
  [[nodiscard]] Rational multiply(const Rational& other) const;
  [[nodiscard]] int cross_compare(const Rational& other) const;
  /// floor(*this / divisor), rounded up instead when `up` is set.
  [[nodiscard]] Rational quotient(const Rational& divisor, bool up) const {
    // Only -2^63 / -1 overflows the 64-bit division; -1 goes the long way.
    if (small_integer() && divisor.small_integer() && divisor.num_ != 0 &&
        divisor.num_ != -1) {
      const auto a = static_cast<std::int64_t>(num_);
      const auto b = static_cast<std::int64_t>(divisor.num_);
      std::int64_t q = a / b;
      // Truncation rounds toward zero; step away from it when the exact
      // quotient lies on the side being rounded to (the remainder carries
      // the dividend's sign).
      const std::int64_t r = a % b;
      if (r != 0 && up == ((r < 0) == (b < 0))) q += up ? 1 : -1;
      return integer(q);
    }
    return general_quotient(divisor, up);
  }
  [[nodiscard]] Rational general_quotient(const Rational& divisor,
                                          bool up) const;
  [[nodiscard]] int big_sign() const;
  [[nodiscard]] BigInt big_num() const;
  [[nodiscard]] BigInt big_den() const;

  __int128 num_ = 0;  ///< small representation; den_ > 0, gcd-reduced
  __int128 den_ = 1;
  std::unique_ptr<Big> big_;  ///< the value when promoted, else null
};

}  // namespace sparcs::support

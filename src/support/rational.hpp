// Exact rational arithmetic for certificate checking.
//
// Rational keeps its numerator/denominator in __int128 while they fit and
// every operation checks for overflow with the compiler intrinsics; the
// moment a product or sum would overflow, the value is promoted to an
// arbitrary-precision sign-magnitude integer (BigInt) and stays exact. The
// certificate checker (milp/certify) is the only performance-sensitive user,
// and its inputs are doubles, whose exact rational form is num/2^k — small
// enough that the fast path handles almost every operation.
//
// Design notes:
//  - Rationals never divide integers except in floor()/round-trip printing:
//    a/b is multiplication by the flipped operand, so BigInt only needs
//    addition, subtraction, multiplication, comparison and a shift-subtract
//    divmod (used by floor/ceil, gcd reduction and decimal printing).
//  - from_double() is exact: d == m * 2^e is decomposed with frexp and the
//    power of two lands in the numerator or denominator verbatim (|e| can
//    reach 1074, so this is a routine promotion trigger).
//  - Every value is kept normalized (gcd-reduced, denominator > 0) and
//    demoted back to the __int128 representation when it fits again; -2^127
//    has no negation there and stays big.
//  - A sum or product of two integers (the bulk of a certificate check's
//    row activities) skips the gcd and the cross-reduction.
#pragma once

#include <cstdint>
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
      : num_(value), den_(1) {}
  /// num/den in small representation; REQUIREs den != 0.
  Rational(std::int64_t num, std::int64_t den);

  /// Exact conversion of a finite double (REQUIREs finiteness).
  static Rational from_double(double value);

  [[nodiscard]] int sign() const;
  [[nodiscard]] bool is_zero() const { return sign() == 0; }
  [[nodiscard]] Rational negated() const;

  [[nodiscard]] Rational operator+(const Rational& other) const;
  [[nodiscard]] Rational operator-(const Rational& other) const;
  [[nodiscard]] Rational operator*(const Rational& other) const;
  /// REQUIREs a non-zero divisor.
  [[nodiscard]] Rational operator/(const Rational& other) const;
  Rational& operator+=(const Rational& other) { return *this = *this + other; }
  Rational& operator-=(const Rational& other) { return *this = *this - other; }
  Rational& operator*=(const Rational& other) { return *this = *this * other; }

  /// Three-way compare via cross multiplication (denominators positive).
  [[nodiscard]] int compare(const Rational& other) const;
  bool operator==(const Rational& other) const { return compare(other) == 0; }
  bool operator!=(const Rational& other) const { return compare(other) != 0; }
  bool operator<(const Rational& other) const { return compare(other) < 0; }
  bool operator<=(const Rational& other) const { return compare(other) <= 0; }
  bool operator>(const Rational& other) const { return compare(other) > 0; }
  bool operator>=(const Rational& other) const { return compare(other) >= 0; }

  /// Largest integer <= value / smallest integer >= value, as a Rational.
  [[nodiscard]] Rational floor() const;
  [[nodiscard]] Rational ceil() const;
  [[nodiscard]] bool is_integer() const;

  /// True when this value ever left the __int128 fast path (test hook).
  [[nodiscard]] bool is_promoted() const { return big_; }

  /// "num/den" (or just "num" for integers), exact.
  [[nodiscard]] std::string to_string() const;
  /// Nearest double (diagnostics only).
  [[nodiscard]] double to_double() const;

 private:
  Rational(BigInt num, BigInt den);  ///< normalizes and maybe demotes
  static Rational make_small(__int128 num, __int128 den);
  [[nodiscard]] BigInt big_num() const;
  [[nodiscard]] BigInt big_den() const;

  bool big_ = false;
  __int128 num_ = 0;  ///< small representation; den_ > 0, gcd-reduced
  __int128 den_ = 1;
  BigInt bnum_, bden_;  ///< big representation when big_ is set
};

}  // namespace sparcs::support

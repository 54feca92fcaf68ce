// Exact rational arithmetic: fast-path correctness, overflow promotion to
// the arbitrary-precision fallback, and exactness of double conversion.
#include "support/rational.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

namespace sparcs::support {
namespace {

TEST(BigIntTest, SmallArithmetic) {
  EXPECT_EQ((BigInt(7) + BigInt(-3)).to_string(), "4");
  EXPECT_EQ((BigInt(-7) + BigInt(3)).to_string(), "-4");
  EXPECT_EQ((BigInt(-7) * BigInt(-6)).to_string(), "42");
  EXPECT_EQ((BigInt(0) * BigInt(123)).to_string(), "0");
  EXPECT_EQ(BigInt(std::int64_t{-1234567890123456789}).to_string(),
            "-1234567890123456789");
}

TEST(BigIntTest, CarryChainsAcrossLimbs) {
  // 2^128 = (2^64)^2 exercises multi-limb carry in both + and *.
  const BigInt two64 = BigInt(1).shifted_left(64);
  const BigInt two128 = two64 * two64;
  EXPECT_EQ(two128.to_string(), "340282366920938463463374607431768211456");
  EXPECT_EQ((two128 - BigInt(1)).to_string(),
            "340282366920938463463374607431768211455");
  EXPECT_EQ((two128 + two128.negated()).to_string(), "0");
}

TEST(BigIntTest, DivmodTruncatesTowardZero) {
  BigInt q, r;
  BigInt(-7).divmod(BigInt(2), &q, &r);
  EXPECT_EQ(q.to_string(), "-3");
  EXPECT_EQ(r.to_string(), "-1");
  const BigInt big = BigInt(1).shifted_left(200);
  big.divmod(BigInt(1000000007), &q, &r);
  // Verify q * d + r == n exactly.
  EXPECT_EQ((q * BigInt(1000000007) + r).compare(big), 0);
}

TEST(BigIntTest, GcdAndFits) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(-18)).to_string(), "6");
  __int128 out = 0;
  EXPECT_TRUE(BigInt(std::int64_t{42}).fits_i128(&out));
  EXPECT_EQ(static_cast<std::int64_t>(out), 42);
  EXPECT_FALSE(BigInt(1).shifted_left(127).fits_i128(&out));
  EXPECT_TRUE((BigInt(1).shifted_left(127) - BigInt(1)).fits_i128(&out));
}

TEST(RationalTest, NormalizesAndCompares) {
  const Rational half(1, 2);
  const Rational also_half(-2, -4);
  EXPECT_EQ(half, also_half);
  EXPECT_EQ(half.to_string(), "1/2");
  EXPECT_LT(Rational(1, 3), half);
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(4, 2).to_string(), "2");
}

TEST(RationalTest, ExactFieldArithmetic) {
  const Rational a(1, 3);
  const Rational b(1, 6);
  EXPECT_EQ(a + b, Rational(1, 2));
  EXPECT_EQ(a - b, b);
  EXPECT_EQ(a * b, Rational(1, 18));
  EXPECT_EQ(a / b, Rational(2));
  // The classic float counterexample is exact here.
  const Rational tenth(1, 10);
  EXPECT_EQ(tenth + tenth + tenth, Rational(3, 10));
}

TEST(RationalTest, FromDoubleIsExact) {
  // 0.1 as a double is 3602879701896397 / 2^55, not 1/10.
  const Rational tenth = Rational::from_double(0.1);
  EXPECT_NE(tenth, Rational(1, 10));
  EXPECT_EQ(tenth.to_string(), "3602879701896397/36028797018963968");
  EXPECT_EQ(Rational::from_double(0.5), Rational(1, 2));
  EXPECT_EQ(Rational::from_double(-3.0), Rational(-3));
  EXPECT_EQ(Rational::from_double(0.0), Rational());
  // Round-trip of an exactly representable sum stays exact.
  EXPECT_EQ(Rational::from_double(0.25) + Rational::from_double(0.25),
            Rational(1, 2));
}

TEST(RationalTest, FromDoubleExtremeExponents) {
  // Denormal-range and huge doubles force the BigInt representation.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const Rational r_tiny = Rational::from_double(tiny);
  EXPECT_TRUE(r_tiny.is_promoted());
  EXPECT_GT(r_tiny, Rational());
  EXPECT_DOUBLE_EQ(r_tiny.to_double(), tiny);
  const double huge = std::ldexp(1.0, 1000);
  const Rational r_huge = Rational::from_double(huge);
  EXPECT_TRUE(r_huge.is_promoted());
  EXPECT_DOUBLE_EQ(r_huge.to_double(), huge);
  EXPECT_EQ(r_huge * r_tiny, Rational::from_double(std::ldexp(1.0, 1000)) *
                                 Rational::from_double(tiny));
}

TEST(RationalTest, OverflowPromotesAndStaysExact) {
  // (2^96)/1 * (2^96)/1 overflows __int128 and must promote, not wrap.
  const Rational big = Rational::from_double(std::ldexp(1.0, 96));
  const Rational sq = big * big;
  EXPECT_TRUE(sq.is_promoted());
  EXPECT_EQ(sq, Rational::from_double(std::ldexp(1.0, 96)) *
                    Rational::from_double(std::ldexp(1.0, 96)));
  EXPECT_EQ((sq / big), big);
  // Addition with wildly different scales is exact too.
  const Rational sum = sq + Rational(1, 3);
  EXPECT_EQ(sum - sq, Rational(1, 3));
  EXPECT_GT(sum, sq);
}

TEST(RationalTest, PromotedValuesDemoteWhenSmallAgain) {
  const Rational big = Rational::from_double(std::ldexp(1.0, 96));
  const Rational one = (big * big) / (big * big);
  EXPECT_EQ(one, Rational(1));
  EXPECT_FALSE(one.is_promoted());
}

// Integer sums and products at the __int128 edge leave the fast path for
// BigInt and stay exact, -2^127 included.
TEST(RationalTest, IntegerEdgePromotesExactly) {
  const Rational two126 = Rational::from_double(std::ldexp(1.0, 126));
  ASSERT_FALSE(two126.is_promoted());
  const char* kTwo127 = "170141183460469231731687303715884105728";
  const Rational max = two126 + (two126 - Rational(1));  // 2^127 - 1
  EXPECT_FALSE(max.is_promoted());
  EXPECT_EQ(max.to_string(), "170141183460469231731687303715884105727");
  EXPECT_TRUE((max + Rational(1)).is_promoted());
  EXPECT_EQ((max + Rational(1)).to_string(), kTwo127);
  EXPECT_EQ((two126 + two126).to_string(), kTwo127);

  const Rational low = two126.negated() + two126.negated();  // -2^127
  EXPECT_TRUE(low.is_promoted());
  EXPECT_EQ(low.to_string(), std::string("-") + kTwo127);
  EXPECT_EQ(low.negated().to_string(), kTwo127);
  EXPECT_EQ(low + two126 + two126, Rational(0));

  const Rational two63 = Rational::from_double(std::ldexp(1.0, 63));
  const Rational two64 = Rational::from_double(std::ldexp(1.0, 64));
  EXPECT_TRUE((two63 * two64).is_promoted());
  EXPECT_EQ((two63 * two64).to_string(), kTwo127);
  EXPECT_EQ((two63.negated() * two64).to_string(), std::string("-") + kTwo127);
  EXPECT_EQ((two64 * two64).to_string(),
            "340282366920938463463374607431768211456");
  EXPECT_FALSE((two63 * two63).is_promoted());
}

// Random dyadic values, integers up to 2^127 about half the time: their sums
// and products equal the same operations routed through halves, whose
// denominators keep them off the integer fast path.
TEST(RationalTest, IntegerFastPathMatchesTheGeneralPath) {
  std::mt19937_64 rng(20260419);
  const auto dyadic = [&] {
    // |m| < 2^53, scaled by 2^e for e in [-40, 73].
    const auto m = static_cast<std::int64_t>(rng() >> 11) -
                   (std::int64_t{1} << 52);
    const int e = static_cast<int>(rng() % 114) - 40;
    return Rational::from_double(std::ldexp(static_cast<double>(m), e));
  };
  const Rational half(1, 2);
  int integer_pairs = 0, promoted = 0;
  for (int i = 0; i < 600; ++i) {
    const Rational x = dyadic();
    const Rational y = dyadic();
    integer_pairs += x.is_integer() && y.is_integer();
    const Rational sum = x + y;
    const Rational product = x * y;
    promoted += sum.is_promoted() || product.is_promoted();
    const Rational via_halves_sum = (x * half + y * half) / half;
    const Rational via_halves_product = (x * half) * (y * half) / half / half;
    EXPECT_EQ(sum.to_string(), via_halves_sum.to_string());
    EXPECT_EQ(product.to_string(), via_halves_product.to_string());
    EXPECT_EQ(sum - y, x);
  }
  EXPECT_GE(integer_pairs, 150);
  EXPECT_GE(promoted, 30);
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), Rational(3));
  EXPECT_EQ(Rational(7, 2).ceil(), Rational(4));
  EXPECT_EQ(Rational(-7, 2).floor(), Rational(-4));
  EXPECT_EQ(Rational(-7, 2).ceil(), Rational(-3));
  EXPECT_EQ(Rational(6, 2).floor(), Rational(3));
  EXPECT_EQ(Rational(6, 2).ceil(), Rational(3));
  // Floor of a promoted value.
  const Rational big = Rational::from_double(std::ldexp(1.0, 200));
  EXPECT_EQ((big + Rational(1, 2)).floor(), big);
  EXPECT_TRUE(big.is_integer());
  EXPECT_FALSE(Rational(1, 2).is_integer());
}

TEST(RationalTest, SignAndNegate) {
  EXPECT_EQ(Rational(-3, 7).sign(), -1);
  EXPECT_EQ(Rational().sign(), 0);
  EXPECT_EQ(Rational(3, 7).sign(), 1);
  EXPECT_EQ(Rational(-3, 7).negated(), Rational(3, 7));
  EXPECT_TRUE(Rational().is_zero());
}

TEST(RationalTest, MixedSmallBigComparisons) {
  const Rational big = Rational::from_double(std::ldexp(1.0, 300));
  EXPECT_GT(big, Rational(1));
  EXPECT_LT(big.negated(), Rational(-1));
  EXPECT_LT(Rational(1), big);
}

// A pseudo-random differential check against double arithmetic on values
// where doubles are exact (small dyadic rationals).
TEST(RationalTest, DifferentialAgainstExactDoubles) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<double>(static_cast<std::int32_t>(next())) / 4.0;
    const auto b = static_cast<double>(static_cast<std::int32_t>(next())) / 8.0;
    const Rational ra = Rational::from_double(a);
    const Rational rb = Rational::from_double(b);
    EXPECT_EQ((ra + rb).to_double(), a + b);
    EXPECT_EQ((ra - rb).to_double(), a - b);
    EXPECT_EQ((ra * rb).to_double(), a * b) << a << " * " << b;
    EXPECT_EQ(ra.compare(rb), a < b ? -1 : (a > b ? 1 : 0));
  }
}

}  // namespace
}  // namespace sparcs::support

// Exact rational arithmetic: fast-path correctness, overflow promotion to
// the arbitrary-precision fallback, and exactness of double conversion.
#include "support/rational.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

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

/// The value whose base-2^32 limbs are `limbs`, least significant first.
BigInt from_limbs(const std::vector<std::uint32_t>& limbs, bool negative) {
  BigInt value;
  for (std::size_t i = limbs.size(); i-- > 0;) {
    value = value.shifted_left(32) + BigInt(std::int64_t{limbs[i]});
  }
  return negative ? value.negated() : value;
}

/// Truncated division one dividend bit at a time (shift, compare, subtract):
/// the routine limb division replaced, kept as the reference.
void bit_serial_divmod(const std::vector<std::uint32_t>& n_limbs,
                       bool n_negative, const BigInt& divisor, BigInt* q,
                       BigInt* r) {
  const BigInt d = divisor.sign() < 0 ? divisor.negated() : divisor;
  BigInt quotient, remainder;
  for (std::size_t bit = n_limbs.size() * 32; bit-- > 0;) {
    const std::uint32_t set = (n_limbs[bit / 32] >> (bit % 32)) & 1u;
    remainder = remainder.shifted_left(1) + BigInt(std::int64_t{set});
    if (!(remainder < d)) {
      remainder = remainder - d;
      quotient = quotient + BigInt(1).shifted_left(static_cast<int>(bit));
    }
  }
  *q = n_negative != (divisor.sign() < 0) ? quotient.negated() : quotient;
  *r = n_negative ? remainder.negated() : remainder;
}

// Limb division against the bit-serial reference over 1-8-limb operands.
// Limbs drawn from 0, 1 and the values around 2^31 and 2^32 make the
// quotient-digit estimate overshoot: the divisor's second limb corrects it,
// and the rare estimate that is still one too large takes the add-back step
// (the fixed cases below reach both).
TEST(BigIntTest, LimbDivisionMatchesTheBitSerialReference) {
  struct Case {
    std::vector<std::uint32_t> n, d;
  };
  std::vector<Case> cases = {
      // Add-back: the multiply-subtract goes negative.
      {{0, 0, 0x80000000u, 0x7fffffffu}, {1, 0, 0x80000000u}},
      {{0, 0xfffffffeu, 0, 0x80000000u}, {0xffffffffu, 0x80000000u}},
      {{0x00000003u, 0, 0x80000000u}, {0x00000001u, 0, 0x20000000u}},
      // The second-limb correction of the estimate: once, twice, and from
      // an estimate of a whole base (top limbs equal).
      {{0, 0, 0x7fffffffu, 0x80000000u}, {0xffffffffu, 0x7fffffffu}},
      {{0xe9ba4816u, 0xb0486fb3u, 0xffffffffu, 0x8df16b71u, 0x7fffffffu,
        0xffffffffu},
       {0xd1c6aafau, 1, 1}},
      {{0xfca16474u, 0x80000000u, 0x80000001u, 0xffffffffu, 0x7fffffffu,
        0x80000001u},
       {0xa11cb8f7u, 0x80000001u}},
      {{0xffffffffu, 0xffffffffu, 0xffffffffu}, {0xffffffffu, 0xffffffffu}},
      {{0, 0, 0, 0, 1}, {0xffffffffu, 0xffffffffu, 1}},
  };
  std::mt19937_64 rng(20261020);
  const std::uint32_t kSpecial[] = {0,           1,           0x7fffffffu,
                                    0x80000000u, 0x80000001u, 0xfffffffeu,
                                    0xffffffffu};
  const auto limbs = [&](std::size_t count) {
    std::vector<std::uint32_t> out(count);
    for (std::uint32_t& limb : out) {
      limb = rng() % 2 == 0 ? kSpecial[rng() % std::size(kSpecial)]
                            : static_cast<std::uint32_t>(rng());
    }
    if (out.back() == 0) out.back() = 1;  // keep the length
    return out;
  };
  for (int i = 0; i < 3000; ++i) {
    cases.push_back({limbs(1 + rng() % 8), limbs(1 + rng() % 8)});
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (const bool n_negative : {false, true}) {
      const bool d_negative = (i + (n_negative ? 1 : 0)) % 3 == 0;
      const BigInt n = from_limbs(cases[i].n, n_negative);
      const BigInt d = from_limbs(cases[i].d, d_negative);
      BigInt q, r, want_q, want_r;
      n.divmod(d, &q, &r);
      bit_serial_divmod(cases[i].n, n_negative, d, &want_q, &want_r);
      ASSERT_EQ(q.to_string(), want_q.to_string()) << "case " << i;
      ASSERT_EQ(r.to_string(), want_r.to_string()) << "case " << i;
      ASSERT_EQ((q * d + r).compare(n), 0) << "case " << i;
      const BigInt abs_r = r.sign() < 0 ? r.negated() : r;
      const BigInt abs_d = d.sign() < 0 ? d.negated() : d;
      ASSERT_TRUE(abs_r < abs_d) << "case " << i;
    }
  }
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

  // The inline path's edges: integers at and just past +-2^63, values with
  // other denominators, and the largest small values, whose sums and
  // products must promote. Each result matches the general path, and the
  // in-place accumulation and rounded quotients match their spelled-out
  // forms.
  const Rational two63 = Rational::from_double(std::ldexp(1.0, 63));
  const Rational two126 = Rational::from_double(std::ldexp(1.0, 126));
  const Rational one(1);
  const Rational int64_max(std::numeric_limits<std::int64_t>::max());
  const Rational int64_min(std::numeric_limits<std::int64_t>::min());
  const Rational edges[] = {
      Rational(),       one,
      one.negated(),    int64_max,
      int64_min,        two63,
      int64_min - one,  int64_max / Rational(2),
      Rational(-7, 3),  two63 / Rational(3),
      two126 + (two126 - one),  // 2^127 - 1, the largest small integer
      two126.negated(),
  };
  int edge_promoted = 0;
  for (const Rational& x : edges) {
    for (const Rational& y : edges) {
      const Rational sum = x + y;
      const Rational product = x * y;
      edge_promoted += sum.is_promoted() || product.is_promoted();
      EXPECT_EQ(sum.to_string(), ((x * half + y * half) / half).to_string());
      EXPECT_EQ((x - y).to_string(),
                ((x * half - y * half) / half).to_string());
      EXPECT_EQ(product.to_string(),
                ((x * half) * (y * half) / half / half).to_string());
      Rational acc = x;
      acc.add_product(y, y);
      EXPECT_EQ(acc, x + y * y);
      Rational moved = x;
      moved += y;
      EXPECT_EQ(moved, sum);
      moved -= y;
      EXPECT_EQ(moved, x);
      if (!y.is_zero()) {
        EXPECT_EQ(x.floor_quotient(y), (x / y).floor());
        EXPECT_EQ(x.ceil_quotient(y), (x / y).ceil());
      }
    }
  }
  EXPECT_GE(edge_promoted, 20);
  EXPECT_FALSE((int64_min * int64_min).is_promoted());  // 2^126
  EXPECT_FALSE((int64_max + int64_max).is_promoted());
  EXPECT_TRUE((two63 * two63 * Rational(2)).is_promoted());  // 2^127
  EXPECT_EQ((int64_min * int64_min).to_string(),
            "85070591730234615865843651857942052864");
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

// Field-axiom tests for GF(256), the symbol field of the RS[18,16] Chipkill
// baseline: associativity/distributivity are sampled, inverses exhaustive.
#include <gtest/gtest.h>

#include "ecc/gf256.hpp"

namespace astra::ecc {
namespace {

TEST(Gf256Test, InversesExhaustive) {
  for (int a = 1; a < 256; ++a) {
    const auto sa = static_cast<Gf256::Symbol>(a);
    EXPECT_EQ(Gf256::Mul(sa, Gf256::Inverse(sa)), 1) << a;
  }
}

TEST(Gf256Test, GeneratorHasFullOrder) {
  bool seen[256] = {};
  for (int e = 0; e < 255; ++e) seen[Gf256::Pow(e)] = true;
  int covered = 0;
  for (int v = 1; v < 256; ++v) covered += seen[v];
  EXPECT_EQ(covered, 255);
  EXPECT_EQ(Gf256::Pow(255), 1);
}

TEST(Gf256Test, AxiomsSampled) {
  // Pseudo-random triples cover associativity and distributivity.
  std::uint32_t state = 12345;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<Gf256::Symbol>(state >> 24);
  };
  for (int i = 0; i < 20000; ++i) {
    const Gf256::Symbol a = next(), b = next(), c = next();
    EXPECT_EQ(Gf256::Mul(a, b), Gf256::Mul(b, a));
    EXPECT_EQ(Gf256::Mul(Gf256::Mul(a, b), c), Gf256::Mul(a, Gf256::Mul(b, c)));
    EXPECT_EQ(Gf256::Mul(a, Gf256::Add(b, c)),
              Gf256::Add(Gf256::Mul(a, b), Gf256::Mul(a, c)));
  }
}

TEST(Gf256Test, KnownProducts) {
  // In GF(256) with 0x11D: 0x02 * 0x80 = 0x1D (reduction kicks in), and
  // squaring the generator walks the exp table.
  EXPECT_EQ(Gf256::Mul(0x02, 0x80), 0x1D);
  EXPECT_EQ(Gf256::Mul(0x02, 0x02), 0x04);
  EXPECT_EQ(Gf256::Pow(8), 0x1D);  // alpha^8 = reduction polynomial tail
}

TEST(Gf256Test, DivisionConsistent) {
  std::uint32_t state = 999;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<Gf256::Symbol>(state >> 24);
  };
  for (int i = 0; i < 5000; ++i) {
    const Gf256::Symbol a = next();
    Gf256::Symbol b = next();
    if (b == 0) b = 1;
    EXPECT_EQ(Gf256::Mul(Gf256::Div(a, b), b), a);
  }
}

}  // namespace
}  // namespace astra::ecc

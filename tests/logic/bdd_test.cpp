#include "logic/bdd.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/rng.h"

namespace fpgadbg::logic {
namespace {

BitVec assignment_from_word(std::uint64_t word, int num_vars) {
  BitVec a(static_cast<std::size_t>(num_vars));
  for (int v = 0; v < num_vars; ++v) {
    a.set(static_cast<std::size_t>(v), ((word >> v) & 1) != 0);
  }
  return a;
}

TEST(Bdd, Constants) {
  BddManager mgr(3);
  EXPECT_TRUE(mgr.is_const(mgr.zero()));
  EXPECT_TRUE(mgr.is_const(mgr.one()));
  EXPECT_FALSE(mgr.const_value(mgr.zero()));
  EXPECT_TRUE(mgr.const_value(mgr.one()));
}

TEST(Bdd, VarAndEvaluate) {
  BddManager mgr(4);
  const BddRef x2 = mgr.var(2);
  for (std::uint64_t w = 0; w < 16; ++w) {
    EXPECT_EQ(mgr.evaluate(x2, assignment_from_word(w, 4)), ((w >> 2) & 1) != 0);
  }
}

TEST(Bdd, NVarIsComplementOfVar) {
  BddManager mgr(2);
  EXPECT_EQ(mgr.nvar(1), mgr.bdd_not(mgr.var(1)));
}

TEST(Bdd, CanonicityPointerEquality) {
  BddManager mgr(3);
  const BddRef a = mgr.bdd_and(mgr.var(0), mgr.var(1));
  const BddRef b = mgr.bdd_and(mgr.var(1), mgr.var(0));
  EXPECT_EQ(a, b);
  const BddRef c = mgr.bdd_or(mgr.bdd_and(mgr.var(0), mgr.var(1)),
                              mgr.bdd_and(mgr.var(0), mgr.bdd_not(mgr.var(1))));
  EXPECT_EQ(c, mgr.var(0));  // absorption reduces to x0
}

TEST(Bdd, OperatorsMatchSemantics) {
  BddManager mgr(3);
  const BddRef x0 = mgr.var(0);
  const BddRef x1 = mgr.var(1);
  const BddRef x2 = mgr.var(2);
  const BddRef f = mgr.bdd_or(mgr.bdd_and(x0, x1), mgr.bdd_xor(x1, x2));
  for (std::uint64_t w = 0; w < 8; ++w) {
    const bool b0 = w & 1, b1 = (w >> 1) & 1, b2 = (w >> 2) & 1;
    EXPECT_EQ(mgr.evaluate(f, assignment_from_word(w, 3)),
              (b0 && b1) || (b1 != b2));
  }
}

TEST(Bdd, IteMatchesMux) {
  BddManager mgr(3);
  const BddRef f = mgr.bdd_ite(mgr.var(2), mgr.var(1), mgr.var(0));
  for (std::uint64_t w = 0; w < 8; ++w) {
    const bool lo = w & 1, hi = (w >> 1) & 1, sel = (w >> 2) & 1;
    EXPECT_EQ(mgr.evaluate(f, assignment_from_word(w, 3)), sel ? hi : lo);
  }
}

TEST(Bdd, RestrictVar) {
  BddManager mgr(3);
  const BddRef f = mgr.bdd_ite(mgr.var(2), mgr.var(1), mgr.var(0));
  EXPECT_EQ(mgr.restrict_var(f, 2, true), mgr.var(1));
  EXPECT_EQ(mgr.restrict_var(f, 2, false), mgr.var(0));
  // Restricting an absent variable is identity.
  EXPECT_EQ(mgr.restrict_var(mgr.var(1), 0, true), mgr.var(1));
  EXPECT_EQ(mgr.restrict_var(mgr.var(1), 2, false), mgr.var(1));
}

TEST(Bdd, Support) {
  BddManager mgr(5);
  const BddRef f = mgr.bdd_xor(mgr.var(1), mgr.var(4));
  EXPECT_EQ(mgr.support(f), (std::vector<int>{1, 4}));
  EXPECT_TRUE(mgr.support(mgr.one()).empty());
}

TEST(Bdd, SupportIndexIsTheInvertedSupport) {
  BddManager mgr(4);
  const std::vector<BddRef> fs = {
      mgr.bdd_xor(mgr.var(1), mgr.var(3)), mgr.one(),
      mgr.bdd_and(mgr.var(0), mgr.bdd_or(mgr.var(1), mgr.var(3))),
      mgr.var(3)};
  const BddManager::SupportIndex index =
      mgr.support_index(fs.data(), fs.size());
  ASSERT_EQ(index.begin.size(), 5u);
  auto row = [&](std::size_t v) {
    return std::vector<std::uint32_t>(index.items.begin() + index.begin[v],
                                      index.items.begin() + index.begin[v + 1]);
  };
  EXPECT_EQ(row(0), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(row(1), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_TRUE(row(2).empty());
  EXPECT_EQ(row(3), (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(Bdd, NodeCount) {
  BddManager mgr(3);
  EXPECT_EQ(mgr.node_count(mgr.zero()), 0u);
  EXPECT_EQ(mgr.node_count(mgr.var(0)), 1u);
  // xor of 3 variables has 2^1 + 2 + 1... structure: 3 levels; count is 5
  // for plain BDDs: x0 node, two x1 nodes, two x2 nodes.
  const BddRef x = mgr.bdd_xor(mgr.bdd_xor(mgr.var(0), mgr.var(1)), mgr.var(2));
  EXPECT_EQ(mgr.node_count(x), 5u);
}

TEST(Bdd, SatCount) {
  BddManager mgr(4);
  EXPECT_EQ(mgr.sat_count(mgr.zero()), 0u);
  EXPECT_EQ(mgr.sat_count(mgr.one()), 16u);
  EXPECT_EQ(mgr.sat_count(mgr.var(0)), 8u);
  EXPECT_EQ(mgr.sat_count(mgr.bdd_and(mgr.var(0), mgr.var(3))), 4u);
  EXPECT_EQ(mgr.sat_count(mgr.bdd_xor(mgr.var(1), mgr.var(2))), 8u);
}

TEST(Bdd, FromTruthTableIdentityMap) {
  BddManager mgr(3);
  const BddRef f = mgr.from_truth_table(tt_mux21(), {0, 1, 2});
  EXPECT_EQ(f, mgr.bdd_ite(mgr.var(2), mgr.var(1), mgr.var(0)));
}

TEST(Bdd, FromTruthTableRemapped) {
  BddManager mgr(10);
  // AND2 with tt vars {0,1} mapped to BDD vars {7, 3}.
  const BddRef f = mgr.from_truth_table(tt_and(2), {7, 3});
  EXPECT_EQ(f, mgr.bdd_and(mgr.var(7), mgr.var(3)));
}

TEST(Bdd, EnsureVarsGrows) {
  BddManager mgr(0);
  EXPECT_EQ(mgr.num_vars(), 0);
  mgr.var(9);
  EXPECT_EQ(mgr.num_vars(), 10);
}

TEST(Bdd, AdoptArenaRejectsDuplicateNodes) {
  BddManager src(2);
  const BddRef f = src.bdd_and(src.var(0), src.var(1));
  const std::vector<BddManager::Node> arena(src.arena_data(),
                                            src.arena_data() + src.size());
  BddManager adopted;
  ASSERT_TRUE(adopted.adopt_arena(2, arena.data(), arena.size(), nullptr).ok());
  EXPECT_TRUE(adopted.borrowed());
  EXPECT_TRUE(adopted.evaluate(f, assignment_from_word(3, 2)));
  EXPECT_FALSE(adopted.evaluate(f, assignment_from_word(1, 2)));

  // Repeat the last node: ordered and in range, but no longer canonical.
  std::vector<BddManager::Node> duplicated = arena;
  duplicated.push_back(arena.back());
  BddManager rejected;
  const support::Status status = rejected.adopt_arena(
      2, duplicated.data(), duplicated.size(), nullptr);
  EXPECT_EQ(status.code(), support::StatusCode::kCorruptArtifact);
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

class BddRandomEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomEquivalence, TruthTableAgreesExhaustively) {
  const int n = GetParam();
  Rng rng(3000 + static_cast<std::uint64_t>(n));
  BddManager mgr(n);
  std::vector<int> identity;
  for (int v = 0; v < n; ++v) identity.push_back(v);
  for (int trial = 0; trial < 20; ++trial) {
    TruthTable tt(n);
    for (std::size_t i = 0; i < tt.num_bits(); ++i) {
      tt.set_bit(i, rng.next_bool());
    }
    const BddRef f = mgr.from_truth_table(tt, identity);
    for (std::uint64_t w = 0; w < (1ULL << n); ++w) {
      EXPECT_EQ(mgr.evaluate(f, assignment_from_word(w, n)), tt.evaluate(w))
          << "n=" << n << " trial=" << trial << " w=" << w;
    }
    EXPECT_EQ(mgr.sat_count(f),
              tt.count_ones() << (mgr.num_vars() - n));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BddRandomEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8));

}  // namespace
}  // namespace fpgadbg::logic

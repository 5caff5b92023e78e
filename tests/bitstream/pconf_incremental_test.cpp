#include <gtest/gtest.h>

#include <set>

#include "bitstream/pconf.h"
#include "debug/flow.h"
#include "genbench/genbench.h"
#include "support/error.h"
#include "support/rng.h"

namespace fpgadbg::bitstream {
namespace {

constexpr std::size_t kFrameBits = arch::FrameGeometry::kFrameBits;

TEST(PConfIncremental, MatchesFullSpecialization) {
  PConf pconf(kFrameBits * 2, {"a", "b", "c", "d"});
  auto& bdd = pconf.bdd();
  Rng rng(11);
  for (std::size_t bit = 0; bit < 300; ++bit) {
    const int v1 = static_cast<int>(rng.next_below(4));
    const int v2 = static_cast<int>(rng.next_below(4));
    pconf.set_function(bit, bdd.bdd_xor(bdd.var(v1), bdd.bdd_and(bdd.var(v2),
                                                                 bdd.var(v1))));
  }

  std::unordered_map<std::string, bool> prev{{"a", false}, {"b", true}};
  auto base = pconf.specialize(prev);
  for (int trial = 0; trial < 20; ++trial) {
    std::unordered_map<std::string, bool> next;
    for (const char* p : {"a", "b", "c", "d"}) next[p] = rng.next_bool();
    const auto full = pconf.specialize(next);
    const auto incr = pconf.specialize_incremental(base, prev, next);
    EXPECT_EQ(full.memory, incr.memory) << "trial " << trial;
    base = incr;
    prev = next;
  }
}

TEST(PConfIncremental, NoChangeEvaluatesNothing) {
  PConf pconf(kFrameBits, {"p", "q"});
  pconf.set_function(0, pconf.bdd().var(0));
  pconf.set_function(1, pconf.bdd().var(1));
  const std::unordered_map<std::string, bool> asg{{"p", true}};
  const auto base = pconf.specialize(asg);
  const auto same = pconf.specialize_incremental(base, asg, asg);
  EXPECT_EQ(same.bits_evaluated, 0u);
  EXPECT_EQ(same.memory, base.memory);
}

TEST(PConfIncremental, OnlyAffectedBitsEvaluated) {
  PConf pconf(kFrameBits, {"p", "q"});
  auto& bdd = pconf.bdd();
  for (std::size_t bit = 0; bit < 50; ++bit) pconf.set_function(bit, bdd.var(0));
  for (std::size_t bit = 50; bit < 60; ++bit) pconf.set_function(bit, bdd.var(1));
  const std::unordered_map<std::string, bool> a{{"p", false}, {"q", false}};
  const std::unordered_map<std::string, bool> b{{"p", false}, {"q", true}};
  const auto base = pconf.specialize(a);
  const auto incr = pconf.specialize_incremental(base, a, b);
  EXPECT_EQ(incr.bits_evaluated, 10u);  // only the q-dependent bits
  EXPECT_EQ(incr.memory, pconf.specialize(b).memory);
}

TEST(PConfBatch, MatchesPerAssignmentSpecialization) {
  PConf pconf(kFrameBits * 2, {"a", "b", "c", "d", "e"});
  auto& bdd = pconf.bdd();
  Rng rng(31);
  for (std::size_t bit = 0; bit < 400; ++bit) {
    const int v1 = static_cast<int>(rng.next_below(5));
    const int v2 = static_cast<int>(rng.next_below(5));
    const int v3 = static_cast<int>(rng.next_below(5));
    pconf.set_function(
        bit, bdd.bdd_ite(bdd.var(v1), bdd.var(v2), bdd.bdd_not(bdd.var(v3))));
  }

  std::vector<std::unordered_map<std::string, bool>> assignments;
  for (int k = 0; k < 64; ++k) {
    auto& asg = assignments.emplace_back();
    for (const char* p : {"a", "b", "c", "d", "e"}) asg[p] = rng.next_bool();
  }
  const auto batch = pconf.specialize_batch(assignments);
  ASSERT_EQ(batch.size(), assignments.size());
  for (std::size_t k = 0; k < assignments.size(); ++k) {
    const auto single = pconf.specialize(assignments[k]);
    EXPECT_EQ(batch[k].memory, single.memory) << "assignment " << k;
    EXPECT_EQ(batch[k].bits_evaluated, single.bits_evaluated);
  }
}

TEST(PConfBatch, HandlesEmptyAndPartialBatches) {
  PConf pconf(kFrameBits, {"p", "q"});
  pconf.set_function(0, pconf.bdd().bdd_and(pconf.bdd().var(0),
                                            pconf.bdd().var(1)));
  EXPECT_TRUE(pconf.specialize_batch({}).empty());
  const auto batch = pconf.specialize_batch(
      {{{"p", true}, {"q", true}}, {{"p", true}, {"q", false}}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].memory.get(0));
  EXPECT_FALSE(batch[1].memory.get(0));
  std::vector<std::unordered_map<std::string, bool>> too_many(65);
  EXPECT_THROW(pconf.specialize_batch(too_many), Error);
}

TEST(PConfIncremental, RealFlowTurnByTurn) {
  genbench::CircuitSpec spec{"incr", 8, 6, 4, 40, 3, 5, 21};
  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  const auto offline = debug::run_offline(genbench::generate(spec), options);
  const auto& inst = offline.instrumented;

  auto prev_asg = inst.select_signals({});
  auto prev = offline.pconf->specialize(prev_asg);
  const std::size_t full_evals = prev.bits_evaluated;
  Rng rng(21);
  for (int turn = 0; turn < 10; ++turn) {
    const auto& lane = inst.lane_signals[rng.next_below(inst.lane_signals.size())];
    const auto asg =
        inst.select_signals({lane[rng.next_below(lane.size())]});
    const auto full = offline.pconf->specialize(asg);
    const auto incr =
        offline.pconf->specialize_incremental(prev, prev_asg, asg);
    EXPECT_EQ(full.memory, incr.memory) << "turn " << turn;
    EXPECT_LE(incr.bits_evaluated, full_evals);
    prev = incr;
    prev_asg = asg;
  }
}

/// Support of f by a plain set-based walk, independent of the stamp index.
std::set<std::uint32_t> reference_support(const logic::BddManager& bdd,
                                          logic::BddRef f) {
  std::set<std::uint32_t> vars;
  std::set<logic::BddRef> seen;
  std::vector<logic::BddRef> stack{f};
  while (!stack.empty()) {
    const logic::BddRef r = stack.back();
    stack.pop_back();
    if (bdd.is_const(r) || !seen.insert(r).second) continue;
    vars.insert(bdd.node_var(r));
    stack.push_back(bdd.node_low(r));
    stack.push_back(bdd.node_high(r));
  }
  return vars;
}

// The incremental SCG's CSR index: row p holds exactly the functions whose
// BDD support contains parameter p, and flipping p alone re-evaluates
// exactly those functions.
TEST(PConfIncremental, ParameterIndexListsExactlyTheDependentFunctions) {
  genbench::CircuitSpec spec{"csr", 8, 6, 4, 60, 3, 5, 23};
  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  const auto offline = debug::run_offline(genbench::generate(spec), options);
  const PConf& pconf = *offline.pconf;
  const FunctionView view = pconf.functions();
  const std::size_t params = pconf.num_params();
  std::vector<std::vector<std::uint32_t>> expect(params);
  for (std::size_t i = 0; i < view.count; ++i) {
    for (std::uint32_t v : reference_support(pconf.bdd(), view.refs[i])) {
      ASSERT_LT(v, params);
      expect[v].push_back(static_cast<std::uint32_t>(i));
    }
  }
  const logic::BddManager::SupportIndex index =
      pconf.bdd().support_index(view.refs, view.count);
  for (std::size_t p = 0; p < params; ++p) {
    const auto first = index.items.begin();
    const std::vector<std::uint32_t> row(first + index.begin[p],
                                         first + index.begin[p + 1]);
    EXPECT_EQ(row, expect[p]) << "parameter " << p;
  }

  const BitVec base(params);
  const auto base_spec = pconf.specialize_values(base);
  for (std::size_t p = 0; p < params; ++p) {
    BitVec flipped = base;
    flipped.set(p, true);
    const auto incr = pconf.specialize_values_incremental(base_spec, base,
                                                          flipped);
    EXPECT_EQ(incr.bits_evaluated, expect[p].size()) << "parameter " << p;
    const auto full = pconf.specialize_values(flipped);
    EXPECT_EQ(incr.memory, full.memory) << "parameter " << p;
    EXPECT_EQ(incr.bits_changed, base_spec.memory.bit_distance(full.memory));
    EXPECT_EQ(incr.changed_frames,
              base_spec.memory.changed_frames(full.memory));
  }
}

TEST(PConfIncremental, IndexFollowsFunctionEdits) {
  PConf pconf(kFrameBits * 2, {"p", "q"});
  auto& bdd = pconf.bdd();
  pconf.set_function(0, bdd.var(0));
  pconf.set_function(kFrameBits + 3, bdd.var(1));
  pconf.prepare_incremental();
  // A function added after the index was built is still found.
  pconf.set_function(5, bdd.bdd_and(bdd.var(0), bdd.var(1)));
  const BitVec none(2);
  BitVec q(2);
  q.set(1, true);
  const auto base = pconf.specialize_values(none);
  const auto incr = pconf.specialize_values_incremental(base, none, q);
  EXPECT_EQ(incr.bits_evaluated, 2u);
  EXPECT_EQ(incr.bits_changed, 1u);
  EXPECT_EQ(incr.changed_frames, std::vector<std::size_t>{1});
  EXPECT_EQ(incr.memory, pconf.specialize_values(q).memory);
}

}  // namespace
}  // namespace fpgadbg::bitstream

#include "logic/bdd.h"

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "support/error.h"

namespace fpgadbg::logic {

BddManager::BddManager(int num_vars) : num_vars_(num_vars) {
  FPGADBG_REQUIRE(num_vars >= 0, "negative BDD variable count");
  nodes_.push_back(Node{kConstVar, 0, 0});  // 0 = false
  nodes_.push_back(Node{kConstVar, 1, 1});  // 1 = true
}

void BddManager::ensure_vars(int num_vars) {
  num_vars_ = std::max(num_vars_, num_vars);
}

BddRef BddManager::var(int v) {
  FPGADBG_REQUIRE(v >= 0, "negative BDD variable");
  ensure_vars(v + 1);
  return make_node(static_cast<std::uint32_t>(v), 0, 1);
}

BddRef BddManager::nvar(int v) {
  FPGADBG_REQUIRE(v >= 0, "negative BDD variable");
  ensure_vars(v + 1);
  return make_node(static_cast<std::uint32_t>(v), 1, 0);
}

support::Status BddManager::adopt_arena(int num_vars, const Node* nodes,
                                        std::size_t count,
                                        std::shared_ptr<const void> backing) {
  using support::Status;
  if (num_vars < 0) {
    return Status::corrupt_artifact("BDD arena: negative variable count");
  }
  if (count < 2 || count > 0xffffffffu) {
    return Status::corrupt_artifact("BDD arena: bad node count");
  }
  if (nodes[0].var != kConstVar || nodes[0].low != 0 || nodes[0].high != 0 ||
      nodes[1].var != kConstVar || nodes[1].low != 1 || nodes[1].high != 1) {
    return Status::corrupt_artifact("BDD arena: malformed constant nodes");
  }
  // Open-addressing set of the refs seen so far, keyed by node contents
  // (slot 0 = empty: decision refs start at 2).
  std::vector<BddRef> seen(std::bit_ceil(2 * count), 0);
  const std::size_t mask = seen.size() - 1;
  for (std::size_t ref = 2; ref < count; ++ref) {
    const Node& n = nodes[ref];
    // Children strictly before parents keeps every walk in bounds and
    // guarantees termination without per-step checks.
    if (n.var >= static_cast<std::uint32_t>(num_vars) || n.low == n.high ||
        n.low >= ref || n.high >= ref) {
      return Status::corrupt_artifact(
          "BDD arena: node breaks the ordering invariant");
    }
    // make_node hash-conses, so a canonical arena never repeats a node;
    // a repeat would break pointer equality of equal functions.
    std::size_t slot = NodeKeyHash{}(NodeKey{n.var, n.low, n.high}) & mask;
    for (; seen[slot] != 0; slot = (slot + 1) & mask) {
      const Node& m = nodes[seen[slot]];
      if (m.var == n.var && m.low == n.low && m.high == n.high) {
        return Status::corrupt_artifact(
            "BDD arena: duplicate node (not canonical)");
      }
    }
    seen[slot] = static_cast<BddRef>(ref);
  }
  num_vars_ = std::max(num_vars_, num_vars);
  nodes_.clear();
  unique_.clear();
  ite_cache_.clear();
  arena_ = nodes;
  arena_count_ = count;
  backing_ = std::move(backing);
  return Status();
}

void BddManager::thaw() {
  nodes_.assign(arena_, arena_ + arena_count_);
  arena_ = nullptr;
  arena_count_ = 0;
  backing_.reset();
  unique_.clear();
  unique_.reserve(nodes_.size());
  for (BddRef ref = 2; ref < nodes_.size(); ++ref) {
    const Node& n = nodes_[ref];
    // adopt_arena rejected duplicates, so every key is new.
    unique_.try_emplace(NodeKey{n.var, n.low, n.high}, ref);
  }
}

BddRef BddManager::make_node(std::uint32_t var, BddRef low, BddRef high) {
  if (borrowed()) thaw();
  if (low == high) return low;
  const NodeKey key{var, low, high};
  auto [it, inserted] = unique_.try_emplace(key, 0);
  if (!inserted) return it->second;
  nodes_.push_back(Node{var, low, high});
  const BddRef ref = static_cast<BddRef>(nodes_.size() - 1);
  it->second = ref;
  return ref;
}

std::uint32_t BddManager::top_var(BddRef f, BddRef g, BddRef h) const {
  std::uint32_t top = kConstVar;
  top = std::min(top, node_at(f).var);
  top = std::min(top, node_at(g).var);
  top = std::min(top, node_at(h).var);
  return top;
}

BddRef BddManager::cofactor(BddRef f, std::uint32_t var, bool value) const {
  const Node& n = node_at(f);
  if (n.var != var) return f;
  return value ? n.high : n.low;
}

BddRef BddManager::bdd_ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == 1) return g;
  if (f == 0) return h;
  if (g == h) return g;
  if (g == 1 && h == 0) return f;

  const IteKey key{f, g, h};
  if (auto it = ite_cache_.find(key); it != ite_cache_.end()) {
    return it->second;
  }

  const std::uint32_t v = top_var(f, g, h);
  FPGADBG_ASSERT(v != kConstVar, "ITE recursion on constants");
  const BddRef lo =
      bdd_ite(cofactor(f, v, false), cofactor(g, v, false), cofactor(h, v, false));
  const BddRef hi =
      bdd_ite(cofactor(f, v, true), cofactor(g, v, true), cofactor(h, v, true));
  const BddRef result = make_node(v, lo, hi);
  ite_cache_.emplace(key, result);
  return result;
}

BddRef BddManager::bdd_not(BddRef f) { return bdd_ite(f, 0, 1); }
BddRef BddManager::bdd_and(BddRef f, BddRef g) { return bdd_ite(f, g, 0); }
BddRef BddManager::bdd_or(BddRef f, BddRef g) { return bdd_ite(f, 1, g); }
BddRef BddManager::bdd_xor(BddRef f, BddRef g) {
  return bdd_ite(f, bdd_not(g), g);
}

BddRef BddManager::restrict_var(BddRef f, int v, bool value) {
  if (is_const(f)) return f;
  const Node& n = node_at(f);
  const std::uint32_t uv = static_cast<std::uint32_t>(v);
  if (n.var > uv) return f;  // ordered: v cannot appear below
  if (n.var == uv) return value ? n.high : n.low;
  const BddRef lo = restrict_var(n.low, v, value);
  const BddRef hi = restrict_var(n.high, v, value);
  return make_node(n.var, lo, hi);
}

std::uint64_t BddManager::evaluate_word(
    BddRef f, const std::vector<std::uint64_t>& var_words,
    std::unordered_map<BddRef, std::uint64_t>& memo) const {
  if (is_const(f)) return f == 1 ? ~std::uint64_t{0} : 0;
  const auto it = memo.find(f);
  if (it != memo.end()) return it->second;
  const Node& n = node_at(f);
  FPGADBG_ASSERT(n.var < var_words.size(),
                 "BDD evaluation assignment too short");
  const std::uint64_t lo = evaluate_word(n.low, var_words, memo);
  const std::uint64_t hi = evaluate_word(n.high, var_words, memo);
  const std::uint64_t r = lo ^ ((lo ^ hi) & var_words[n.var]);
  memo.emplace(f, r);
  return r;
}

std::vector<int> BddManager::support(BddRef f) const {
  const SupportIndex index = support_index(&f, 1);
  std::vector<int> vars;
  for (std::size_t v = 0; v + 1 < index.begin.size(); ++v) {
    if (index.begin[v + 1] != index.begin[v]) {
      vars.push_back(static_cast<int>(v));
    }
  }
  return vars;
}

BddManager::SupportIndex BddManager::support_index(const BddRef* fs,
                                                   std::size_t count) const {
  // Pass 1: each function's variables, CSR by function.  A node or variable
  // stamped with i + 1 was already seen by function i.
  std::vector<std::uint32_t> node_stamp(size(), 0);
  std::vector<std::uint32_t> var_stamp(static_cast<std::size_t>(num_vars_), 0);
  std::vector<std::uint32_t> fn_begin(count + 1, 0);
  std::vector<std::uint32_t> fn_vars;
  std::vector<BddRef> stack;
  SupportIndex index;
  index.begin.assign(static_cast<std::size_t>(num_vars_) + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const auto stamp = static_cast<std::uint32_t>(i + 1);
    stack.push_back(fs[i]);
    while (!stack.empty()) {
      const BddRef r = stack.back();
      stack.pop_back();
      if (is_const(r) || node_stamp[r] == stamp) continue;
      node_stamp[r] = stamp;
      const Node& n = node_at(r);
      if (var_stamp[n.var] != stamp) {
        var_stamp[n.var] = stamp;
        fn_vars.push_back(n.var);
        ++index.begin[n.var + 1];
      }
      stack.push_back(n.low);
      stack.push_back(n.high);
    }
    fn_begin[i + 1] = static_cast<std::uint32_t>(fn_vars.size());
  }
  // Pass 2: transpose into rows per variable; filling in function order
  // keeps every row ascending.
  for (std::size_t v = 0; v + 1 < index.begin.size(); ++v) {
    index.begin[v + 1] += index.begin[v];
  }
  index.items.resize(fn_vars.size());
  std::vector<std::uint32_t> cursor(index.begin.begin(), index.begin.end() - 1);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::uint32_t k = fn_begin[i]; k < fn_begin[i + 1]; ++k) {
      index.items[cursor[fn_vars[k]]++] = static_cast<std::uint32_t>(i);
    }
  }
  return index;
}

std::size_t BddManager::node_count(BddRef f) const {
  std::set<BddRef> seen;
  std::vector<BddRef> stack{f};
  while (!stack.empty()) {
    const BddRef r = stack.back();
    stack.pop_back();
    if (is_const(r) || !seen.insert(r).second) continue;
    stack.push_back(node_at(r).low);
    stack.push_back(node_at(r).high);
  }
  return seen.size();
}

std::uint64_t BddManager::sat_count_rec(
    BddRef f, std::unordered_map<BddRef, std::uint64_t>& memo,
    int* level_of) const {
  // Returns count over variables strictly below level_of[f]'s own level; the
  // caller scales.  We instead compute counts normalized to "assignments of
  // all variables >= node's level" and scale at the top.
  if (f == 0) return 0;
  if (f == 1) return 1;
  if (auto it = memo.find(f); it != memo.end()) return it->second;
  const Node& n = node_at(f);
  const std::uint64_t lo = sat_count_rec(n.low, memo, level_of);
  const std::uint64_t hi = sat_count_rec(n.high, memo, level_of);
  const std::uint32_t lo_var = node_at(n.low).var == kConstVar
                                   ? static_cast<std::uint32_t>(num_vars_)
                                   : node_at(n.low).var;
  const std::uint32_t hi_var = node_at(n.high).var == kConstVar
                                   ? static_cast<std::uint32_t>(num_vars_)
                                   : node_at(n.high).var;
  const unsigned lo_gap = lo_var - n.var - 1;
  const unsigned hi_gap = hi_var - n.var - 1;
  const std::uint64_t result = (lo_gap >= 63 ? (lo ? ~0ULL : 0) : lo << lo_gap) +
                               (hi_gap >= 63 ? (hi ? ~0ULL : 0) : hi << hi_gap);
  memo.emplace(f, result);
  (void)level_of;
  return result;
}

std::uint64_t BddManager::sat_count(BddRef f) const {
  if (f == 0) return 0;
  if (f == 1) {
    return num_vars_ >= 64 ? ~0ULL : (1ULL << num_vars_);
  }
  std::unordered_map<BddRef, std::uint64_t> memo;
  const std::uint64_t below = sat_count_rec(f, memo, nullptr);
  const std::uint32_t top = node_at(f).var;
  return top >= 63 ? (below ? ~0ULL : 0) : below << top;
}

BddRef BddManager::from_truth_table(const TruthTable& tt,
                                    const std::vector<int>& var_map) {
  FPGADBG_REQUIRE(static_cast<int>(var_map.size()) == tt.num_vars(),
                  "BDD variable map arity mismatch");
  if (tt.is_const0()) return zero();
  if (tt.is_const1()) return one();
  // Shannon-expand on tt variable 0; recursion depth <= 16.
  const TruthTable f0 = tt.cofactor0(0);
  const TruthTable f1 = tt.cofactor1(0);
  std::vector<int> rest(var_map.begin() + 1, var_map.end());
  // Rebase the cofactors so variable 1.. become 0.. for the recursive call.
  const int n = tt.num_vars();
  std::vector<int> down(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) down[static_cast<std::size_t>(v)] = v == 0 ? 0 : v - 1;
  const int new_n = std::max(1, n - 1);
  const BddRef lo = from_truth_table(f0.permuted(down, new_n),
                                     rest.empty() ? std::vector<int>{0} : rest);
  const BddRef hi = from_truth_table(f1.permuted(down, new_n),
                                     rest.empty() ? std::vector<int>{0} : rest);
  const BddRef v0 = var(var_map[0]);
  return bdd_ite(v0, hi, lo);
}

}  // namespace fpgadbg::logic

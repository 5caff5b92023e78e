// Reduced Ordered Binary Decision Diagrams.
//
// PConf configuration bits are Boolean functions of debug parameters; the
// Specialized Configuration Generator evaluates thousands of them per
// debugging turn.  BDDs give canonical, shared storage for those functions:
// equality is pointer equality and evaluation is a walk from the root.
//
// Design notes:
//  - no complement edges (simpler invariants; the functions involved are
//    tiny mux-select expressions, so the 2x node overhead is irrelevant);
//  - a unique table for hash-consing and an operation cache for ITE;
//  - nodes are never freed (arena semantics); managers are cheap to discard;
//  - the arena can BORROW node storage from a memory-mapped artifact
//    (adopt_arena): reads walk the mapping directly with zero copies, and
//    the first mutation transparently materializes an owned copy and
//    rebuilds the unique table (copy-on-write).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "support/bitvec.h"
#include "support/error.h"
#include "support/status.h"
#include "logic/truth_table.h"

namespace fpgadbg::logic {

/// Handle to a BDD node within its manager.  Index 0/1 are the constants.
using BddRef = std::uint32_t;

class BddManager {
 public:
  /// Arena node layout.  Public (and layout-pinned) because blob artifacts
  /// serialize the arena as one contiguous span and borrow it back on
  /// load; all twelve bytes are explicit, so the raw bytes are
  /// deterministic.
  struct Node {
    std::uint32_t var;  // level; constants use var = 0xffffffff
    BddRef low;
    BddRef high;
  };
  static_assert(sizeof(Node) == 12, "arena nodes must be packed");

  explicit BddManager(int num_vars = 0);

  int num_vars() const { return num_vars_; }
  /// Grows the variable universe (existing functions are unaffected).
  void ensure_vars(int num_vars);

  BddRef zero() const { return 0; }
  BddRef one() const { return 1; }
  BddRef var(int v);
  BddRef nvar(int v);

  BddRef bdd_not(BddRef f);
  BddRef bdd_and(BddRef f, BddRef g);
  BddRef bdd_or(BddRef f, BddRef g);
  BddRef bdd_xor(BddRef f, BddRef g);
  BddRef bdd_ite(BddRef f, BddRef g, BddRef h);

  /// Restrict variable v to a constant.
  BddRef restrict_var(BddRef f, int v, bool value);

  bool is_const(BddRef f) const { return f <= 1; }
  bool const_value(BddRef f) const { return f == 1; }

  /// Evaluate under a full assignment (bit v of `assignment` = value of
  /// variable v).  When `visited` is non-null it is incremented once per
  /// decision node walked (SCG telemetry).
  bool evaluate(BddRef f, const BitVec& assignment,
                std::size_t* visited = nullptr) const {
    // Inline: the SCG calls this once per re-evaluated configuration bit.
    const Node* nodes = arena_data();
    std::size_t steps = 0;
    while (!is_const(f)) {
      const Node& n = nodes[f];
      FPGADBG_ASSERT(n.var < assignment.size(),
                     "BDD evaluation assignment too short");
      f = assignment.get(n.var) ? n.high : n.low;
      ++steps;
    }
    if (visited) *visited += steps;
    return f == 1;
  }

  /// Word-parallel evaluation: lane k of the result is evaluate(f) under
  /// the assignment whose variable v has the value in bit k of
  /// `var_words[v]`.  One Shannon walk serves all 64 lanes; `memo` caches
  /// per-node results and is shared across calls that use the same
  /// var_words (the SCG evaluates thousands of functions over one shared
  /// BDD, so cross-function sharing is where the win comes from).
  std::uint64_t evaluate_word(
      BddRef f, const std::vector<std::uint64_t>& var_words,
      std::unordered_map<BddRef, std::uint64_t>& memo) const;

  /// Variables in the support of f, ascending.
  std::vector<int> support(BddRef f) const;

  /// Inverted support of many functions as a CSR table: row v,
  /// `items[begin[v] .. begin[v+1])`, lists ascending every i whose fs[i]
  /// depends on variable v.  One walk per function over stamp arrays (no
  /// sets), so the cost is the nodes each function reaches plus the output.
  struct SupportIndex {
    std::vector<std::uint32_t> begin;  ///< num_vars() + 1 row offsets
    std::vector<std::uint32_t> items;  ///< function indices, row by row
  };
  SupportIndex support_index(const BddRef* fs, std::size_t count) const;

  /// Number of decision nodes reachable from f (constants excluded).
  std::size_t node_count(BddRef f) const;

  /// Number of satisfying assignments over the full variable universe.
  /// Saturates at ~2^63.
  std::uint64_t sat_count(BddRef f) const;

  /// Build a BDD from a truth table, mapping tt variable i to BDD var
  /// var_map[i].
  BddRef from_truth_table(const TruthTable& tt, const std::vector<int>& var_map);

  /// Total nodes allocated in the manager (diagnostics).
  std::size_t size() const { return borrowed() ? arena_count_ : nodes_.size(); }

  // --- raw node access (artifact serialization) ----------------------------
  // Decision nodes occupy indices [2, size()); children always precede their
  // parents, so replaying insert_node in index order on a fresh manager
  // reproduces identical refs (make_node hash-conses and both managers apply
  // the same reduction rules).
  std::uint32_t node_var(BddRef f) const { return node_at(f).var; }
  BddRef node_low(BddRef f) const { return node_at(f).low; }
  BddRef node_high(BddRef f) const { return node_at(f).high; }
  /// Contiguous arena [0, size()) for bulk serialization (constants first).
  const Node* arena_data() const {
    return borrowed() ? arena_ : nodes_.data();
  }
  /// Re-inserts a node during deserialization; returns the canonical ref.
  BddRef insert_node(std::uint32_t var, BddRef low, BddRef high) {
    return make_node(var, low, high);
  }

  // --- zero-copy arena adoption --------------------------------------------
  /// Replaces this manager's contents with a borrowed arena of `count`
  /// nodes living inside `backing` (typically an mmap'd blob).  Validates
  /// the structural invariants that keep every read in bounds — constants
  /// at [0,2), children strictly before parents, variables within
  /// `num_vars`, low != high — and canonicity (no duplicate nodes, so equal
  /// functions keep equal refs), rejecting violations as kCorruptArtifact.
  /// After adoption reads are zero-copy; the first make_node materializes
  /// an owned copy.
  support::Status adopt_arena(int num_vars, const Node* nodes,
                              std::size_t count,
                              std::shared_ptr<const void> backing);

  bool borrowed() const { return arena_ != nullptr; }

 private:
  struct NodeKey {
    std::uint32_t var;
    BddRef low;
    BddRef high;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    std::size_t operator()(const NodeKey& k) const {
      std::uint64_t h = k.var;
      h = h * 0x9e3779b97f4a7c15ULL + k.low;
      h = h * 0x9e3779b97f4a7c15ULL + k.high;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  struct IteKey {
    BddRef f, g, h;
    bool operator==(const IteKey&) const = default;
  };
  struct IteKeyHash {
    std::size_t operator()(const IteKey& k) const {
      std::uint64_t h = k.f;
      h = h * 0x9e3779b97f4a7c15ULL + k.g;
      h = h * 0x9e3779b97f4a7c15ULL + k.h;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  static constexpr std::uint32_t kConstVar = 0xffffffffu;

  const Node& node_at(BddRef f) const {
    return borrowed() ? arena_[f] : nodes_[f];
  }
  /// Copy-on-write: copies the borrowed arena into owned storage and
  /// rebuilds the unique table so mutation can proceed.
  void thaw();

  BddRef make_node(std::uint32_t var, BddRef low, BddRef high);
  std::uint32_t top_var(BddRef f, BddRef g, BddRef h) const;
  BddRef cofactor(BddRef f, std::uint32_t var, bool value) const;
  std::uint64_t sat_count_rec(BddRef f,
                              std::unordered_map<BddRef, std::uint64_t>& memo,
                              int* level_of) const;

  int num_vars_;
  std::vector<Node> nodes_;
  // Borrowed mode: reads go through arena_ (which points into backing_)
  // and nodes_/unique_ stay empty until thaw().  The raw pointer is safe
  // to copy between managers because every copy shares the backing.
  const Node* arena_ = nullptr;
  std::size_t arena_count_ = 0;
  std::shared_ptr<const void> backing_;
  std::unordered_map<NodeKey, BddRef, NodeKeyHash> unique_;
  std::unordered_map<IteKey, BddRef, IteKeyHash> ite_cache_;
};

}  // namespace fpgadbg::logic

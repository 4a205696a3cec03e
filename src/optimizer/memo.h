#ifndef QTF_OPTIMIZER_MEMO_H_
#define QTF_OPTIMIZER_MEMO_H_

#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "logical/ops.h"
#include "logical/props.h"
#include "optimizer/rule.h"
#include "pattern/pattern.h"

namespace qtf {

/// One logical expression inside a memo group: an operator whose children
/// are GroupRefOp leaves pointing at other groups.
struct GroupExpr {
  LogicalOpPtr op;
  std::vector<int> child_groups;
  /// Per-rule memo version (total expression count) at the last application
  /// of that rule to this expression; -1 = never applied. Exploration
  /// re-applies a rule when the memo has grown since, so multi-level
  /// patterns see bindings that materialized later.
  std::vector<int64_t> applied_version;
};

/// An equivalence class of logical expressions plus its physical
/// alternatives and costing state.
struct Group {
  int id = -1;
  LogicalProps props;
  std::vector<std::unique_ptr<GroupExpr>> exprs;

  std::vector<PhysicalAlternative> alternatives;
  bool implemented = false;

  // Costing / extraction state.
  enum class CostState { kUntouched, kInProgress, kDone };
  CostState cost_state = CostState::kUntouched;
  double best_cost = std::numeric_limits<double>::infinity();
  int best_alternative = -1;
  PhysicalOpPtr best_plan;  // memoized extraction
};

/// The Cascades-style memo: groups of equivalent logical expressions with
/// global deduplication on (operator arguments, child group ids).
class Memo {
 public:
  /// `rule_count` sizes the per-expression applied-rule bookkeeping.
  explicit Memo(int rule_count) : rule_count_(rule_count) {}
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// Recursively copies a plain logical tree into the memo; returns the
  /// root group id. GroupRef leaves are resolved to their groups.
  int InsertTree(const LogicalOp& op);

  /// Inserts an expression produced by a rule. Children may be GroupRefs
  /// (reused groups) or fresh operator subtrees (inserted recursively).
  /// `target_group` is the group the root expression belongs to, or -1 to
  /// place it by global lookup (creating a new group if unseen).
  /// Returns {group id, whether a new expression was added}. Duplicate
  /// insertions are detected from `op` in place (no bound-form clone); an
  /// already-bound `op` (all children GroupRefs) is stored as-is.
  std::pair<int, bool> Insert(const LogicalOpPtr& op, int target_group);

  Group& group(int id) {
    QTF_CHECK(id >= 0 && static_cast<size_t>(id) < groups_.size());
    return *groups_[static_cast<size_t>(id)];
  }
  const Group& group(int id) const {
    QTF_CHECK(id >= 0 && static_cast<size_t>(id) < groups_.size());
    return *groups_[static_cast<size_t>(id)];
  }

  int group_count() const { return static_cast<int>(groups_.size()); }
  int64_t expr_count() const { return expr_count_; }
  bool saturated() const { return saturated_; }

  /// Enumerates the bound trees of `expr` against `pattern` (top-anchored):
  /// placeholder positions become the expression's GroupRef children;
  /// operator-pattern children are expanded against every matching
  /// expression of the child group. At most `kMaxBindings` trees.
  std::vector<LogicalOpPtr> BindPattern(const GroupExpr& expr,
                                        const PatternNode& pattern) const;

  /// Returns the GroupRef leaf for a group (shared, stable props pointer).
  /// Memoized: every call for the same group returns the same instance.
  LogicalOpPtr MakeGroupRef(int group_id) const;

  /// Search-space limits; exploration stops adding expressions beyond them
  /// (saturated() turns true). Well-behaved rule sets stay far below these
  /// (hundreds of expressions for typical test queries); the caps bound the
  /// damage when a *buggy* rule pollutes groups with inequivalent
  /// expressions and exploration stops converging.
  static constexpr int64_t kMaxTotalExprs = 6000;
  static constexpr int kMaxGroupExprs = 160;
  static constexpr int kMaxBindings = 64;

 private:
  struct Signature {
    size_t local_hash;
    std::vector<int> child_groups;
  };
  /// What lookups probe with: a Signature's fields without copying the
  /// child-group list (most probes are duplicates and never store one).
  struct SignatureRef {
    size_t local_hash;
    const std::vector<int>& child_groups;
  };
  struct SignatureHash {
    using is_transparent = void;
    template <typename Sig>
    size_t operator()(const Sig& sig) const {
      size_t h = sig.local_hash;
      for (int g : sig.child_groups) {
        h = h * 1099511628211ULL + static_cast<size_t>(g);
      }
      return h;
    }
  };
  struct SignatureEqual {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return a.local_hash == b.local_hash && a.child_groups == b.child_groups;
    }
  };

  int NewGroup(LogicalProps props);

  /// Shared implementation of InsertTree/Insert once children are resolved
  /// to group ids. `bound_hint`, when non-null, is `op` already in bound
  /// form (children are GroupRef leaves) and is stored directly; otherwise
  /// the bound form is materialized only if the expression is new.
  std::pair<int, bool> InsertNormalized(const LogicalOp& op,
                                        const std::vector<int>& child_groups,
                                        const LogicalOpPtr* bound_hint,
                                        int target_group);

  int rule_count_;
  std::vector<std::unique_ptr<Group>> groups_;
  int64_t expr_count_ = 0;
  bool saturated_ = false;
  /// Global dedup: expression signature -> (group, expr index). Hash
  /// collisions resolved by LocalEquals on the stored op.
  std::unordered_multimap<Signature, std::pair<int, int>, SignatureHash,
                          SignatureEqual>
      signature_index_;
  /// Lazily-built shared GroupRef leaves, one slot per group (see
  /// MakeGroupRef). Mutable: memoization only, and a memo is confined to
  /// one search thread.
  mutable std::vector<LogicalOpPtr> group_ref_cache_;
};

}  // namespace qtf

#endif  // QTF_OPTIMIZER_MEMO_H_

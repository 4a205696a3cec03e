#ifndef QTF_LOGICAL_OPS_H_
#define QTF_LOGICAL_OPS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "expr/aggregate.h"
#include "expr/analysis.h"
#include "expr/expr.h"
#include "logical/column_registry.h"

namespace qtf {

/// Logical relational operators. The optimizer is initialized with a tree of
/// these (paper Section 2.1) and transformation rules rewrite them.
enum class LogicalOpKind {
  kGet = 0,     // base-table access
  kSelect,      // filter
  kProject,     // projection / computed columns
  kJoin,        // inner / left-outer / left-semi / left-anti
  kGroupByAgg,  // grouping + aggregation (empty grouping = scalar agg)
  kUnionAll,
  kDistinct,
  kGroupRef,    // leaf bound to a memo group during rule application
};

/// Number of LogicalOpKind values (kGroupRef is the last), for tables
/// indexed by kind.
inline constexpr size_t kLogicalOpKindCount =
    static_cast<size_t>(LogicalOpKind::kGroupRef) + 1;

const char* LogicalOpKindToString(LogicalOpKind kind);

enum class JoinKind {
  kInner = 0,
  kLeftOuter,
  kLeftSemi,
  kLeftAnti,
};

const char* JoinKindToString(JoinKind kind);

class LogicalOp;
class NodeInterner;
using LogicalOpPtr = std::shared_ptr<const LogicalOp>;

/// Derived logical properties of an operator (sub)tree: output columns,
/// cardinality estimate, candidate keys and per-column distinct counts.
/// Computed by DeriveProps (logical/props.h) and cached per memo group.
struct LogicalProps {
  std::vector<ColumnId> output_cols;
  double cardinality = 1.0;
  /// Candidate keys: each entry is a set of output columns guaranteed
  /// unique. An empty set means "at most one row".
  std::vector<ColumnSet> keys;
  /// Estimated distinct values per output column.
  std::map<ColumnId, double> distinct;
  /// Output columns that may contain NULL (conservative superset). Used by
  /// rules that rely on a provably non-NULL column, e.g. anti-join to
  /// outer-join-plus-IS-NULL.
  ColumnSet nullable;
  /// Value types of output columns (needed by rules that synthesize new
  /// column references without registry access).
  std::map<ColumnId, ValueType> col_types;

  ColumnSet OutputSet() const {
    return ColumnSet(output_cols.begin(), output_cols.end());
  }
  /// True iff some candidate key is a subset of `cols` (i.e. `cols`
  /// functionally determines the whole row).
  bool HasKeyWithin(const ColumnSet& cols) const;
  /// Distinct estimate for a column (falls back to cardinality).
  double DistinctOf(ColumnId id) const;
  /// Type of an output column; CHECK-fails if untracked.
  ValueType TypeOf(ColumnId id) const;
};

/// Immutable logical operator node. Children are shared; rules build new
/// parents over existing subtrees.
class LogicalOp {
 public:
  virtual ~LogicalOp() = default;
  LogicalOp(const LogicalOp&) = delete;
  LogicalOp& operator=(const LogicalOp&) = delete;

  LogicalOpKind kind() const { return kind_; }
  const std::vector<LogicalOpPtr>& children() const { return children_; }
  const LogicalOpPtr& child(size_t i) const {
    QTF_CHECK(i < children_.size());
    return children_[i];
  }

  /// Output column ids, in order. Derived from children and arguments.
  virtual std::vector<ColumnId> OutputColumns() const = 0;

  /// One-line description of this node (without children).
  virtual std::string Describe(const ColumnNameResolver* resolver) const = 0;

  /// Hash of this node's kind and arguments, excluding children. Used with
  /// LocalEquals for memo deduplication where children are compared as
  /// group ids.
  virtual size_t LocalHash() const = 0;

  /// Equality of kind and arguments, excluding children.
  virtual bool LocalEquals(const LogicalOp& other) const = 0;

  /// Copy of this node (same arguments) over different children. Child
  /// count must match; output columns of the new children must be a
  /// superset of what the node's arguments reference (callers — the memo
  /// binder and transformation rules — guarantee this).
  virtual LogicalOpPtr WithNewChildren(
      std::vector<LogicalOpPtr> children) const = 0;

  /// Cached TreeFingerprint of the subtree rooted here, or 0 if not yet
  /// computed. Filled in (idempotently — the fingerprint is a pure
  /// function of the structure) by the first TreeFingerprint() call.
  uint64_t cached_fingerprint() const {
    return fingerprint_.load(std::memory_order_relaxed);
  }

  /// Cached CountOps of the subtree rooted here, or 0 if not yet computed.
  int cached_subtree_size() const {
    return subtree_size_.load(std::memory_order_relaxed);
  }

  /// Id of the interner epoch that canonicalized this node, or 0. Nodes
  /// tagged with the same live epoch are pointer-comparable (see
  /// NodeInterner::Equal). A later interner may retag a node; that only
  /// downgrades the earlier interner's comparisons to deep equality.
  uint64_t interner_tag() const {
    return interner_tag_.load(std::memory_order_acquire);
  }

 protected:
  LogicalOp(LogicalOpKind kind, std::vector<LogicalOpPtr> children)
      : kind_(kind), children_(std::move(children)) {}

 private:
  friend uint64_t TreeFingerprint(const LogicalOp& root);
  friend int CountOps(const LogicalOp& root);
  friend class NodeInterner;

  LogicalOpKind kind_;
  std::vector<LogicalOpPtr> children_;

  // Lazily-computed caches. Nodes are immutable, so each cache converges
  // to a single value; relaxed stores are safe because every writer
  // derives the identical value from the same immutable structure.
  mutable std::atomic<uint64_t> fingerprint_{0};
  mutable std::atomic<int> subtree_size_{0};
  mutable std::atomic<uint64_t> interner_tag_{0};
};

/// Base-table access. Allocates (at construction time, via the registry)
/// fresh column ids for every column of the table.
class GetOp final : public LogicalOp {
 public:
  GetOp(std::shared_ptr<const TableDef> table, std::vector<ColumnId> columns)
      : LogicalOp(LogicalOpKind::kGet, {}),
        table_(std::move(table)),
        columns_(std::move(columns)) {
    QTF_CHECK(table_ != nullptr);
    QTF_CHECK(columns_.size() == table_->columns().size());
  }

  /// Creates a Get over `table`, allocating ids in `registry`.
  static std::shared_ptr<const GetOp> Create(
      std::shared_ptr<const TableDef> table, ColumnRegistry* registry);

  const TableDef& table() const { return *table_; }
  const std::shared_ptr<const TableDef>& table_ptr() const { return table_; }
  const std::vector<ColumnId>& columns() const { return columns_; }

  std::vector<ColumnId> OutputColumns() const override { return columns_; }
  std::string Describe(const ColumnNameResolver* resolver) const override;
  size_t LocalHash() const override;
  bool LocalEquals(const LogicalOp& other) const override;
  LogicalOpPtr WithNewChildren(
      std::vector<LogicalOpPtr> children) const override;

 private:
  std::shared_ptr<const TableDef> table_;
  std::vector<ColumnId> columns_;
};

/// Filter: keeps rows where the predicate is TRUE.
class SelectOp final : public LogicalOp {
 public:
  SelectOp(LogicalOpPtr input, ExprPtr predicate)
      : LogicalOp(LogicalOpKind::kSelect, {std::move(input)}),
        predicate_(std::move(predicate)) {
    QTF_CHECK(predicate_ != nullptr);
  }

  const ExprPtr& predicate() const { return predicate_; }

  std::vector<ColumnId> OutputColumns() const override {
    return child(0)->OutputColumns();
  }
  std::string Describe(const ColumnNameResolver* resolver) const override;
  size_t LocalHash() const override;
  bool LocalEquals(const LogicalOp& other) const override;
  LogicalOpPtr WithNewChildren(
      std::vector<LogicalOpPtr> children) const override;

 private:
  ExprPtr predicate_;
};

/// One projection output: an expression and the column id it defines. For a
/// bare column reference the id equals the referenced id (pass-through);
/// computed expressions carry a freshly allocated id.
struct ProjectItem {
  ExprPtr expr;
  ColumnId id = -1;
};

class ProjectOp final : public LogicalOp {
 public:
  ProjectOp(LogicalOpPtr input, std::vector<ProjectItem> items)
      : LogicalOp(LogicalOpKind::kProject, {std::move(input)}),
        items_(std::move(items)) {
    QTF_CHECK(!items_.empty());
  }

  const std::vector<ProjectItem>& items() const { return items_; }

  std::vector<ColumnId> OutputColumns() const override;
  std::string Describe(const ColumnNameResolver* resolver) const override;
  size_t LocalHash() const override;
  bool LocalEquals(const LogicalOp& other) const override;
  LogicalOpPtr WithNewChildren(
      std::vector<LogicalOpPtr> children) const override;

 private:
  std::vector<ProjectItem> items_;
};

/// Join. `predicate` may be nullptr (cross join / TRUE). Semi/anti joins
/// output only the left side's columns; left-outer joins null-extend the
/// right side.
class JoinOp final : public LogicalOp {
 public:
  JoinOp(JoinKind join_kind, LogicalOpPtr left, LogicalOpPtr right,
         ExprPtr predicate)
      : LogicalOp(LogicalOpKind::kJoin, {std::move(left), std::move(right)}),
        join_kind_(join_kind),
        predicate_(std::move(predicate)) {}

  JoinKind join_kind() const { return join_kind_; }
  const ExprPtr& predicate() const { return predicate_; }

  std::vector<ColumnId> OutputColumns() const override;
  std::string Describe(const ColumnNameResolver* resolver) const override;
  size_t LocalHash() const override;
  bool LocalEquals(const LogicalOp& other) const override;
  LogicalOpPtr WithNewChildren(
      std::vector<LogicalOpPtr> children) const override;

 private:
  JoinKind join_kind_;
  ExprPtr predicate_;  // nullptr == TRUE
};

/// One aggregate output of a GroupByAgg.
struct AggregateItem {
  AggregateCall call;
  ColumnId id = -1;
};

/// Grouping + aggregation. Output columns are the grouping columns followed
/// by the aggregate outputs. Empty grouping = scalar aggregate (one row).
class GroupByAggOp final : public LogicalOp {
 public:
  GroupByAggOp(LogicalOpPtr input, std::vector<ColumnId> group_cols,
               std::vector<AggregateItem> aggregates)
      : LogicalOp(LogicalOpKind::kGroupByAgg, {std::move(input)}),
        group_cols_(std::move(group_cols)),
        aggregates_(std::move(aggregates)) {}

  const std::vector<ColumnId>& group_cols() const { return group_cols_; }
  const std::vector<AggregateItem>& aggregates() const { return aggregates_; }

  std::vector<ColumnId> OutputColumns() const override;
  std::string Describe(const ColumnNameResolver* resolver) const override;
  size_t LocalHash() const override;
  bool LocalEquals(const LogicalOp& other) const override;
  LogicalOpPtr WithNewChildren(
      std::vector<LogicalOpPtr> children) const override;

 private:
  std::vector<ColumnId> group_cols_;
  std::vector<AggregateItem> aggregates_;
};

/// Bag union of two inputs with positionally matching types. Allocates its
/// own output column ids (`output_ids`), one per position.
class UnionAllOp final : public LogicalOp {
 public:
  UnionAllOp(LogicalOpPtr left, LogicalOpPtr right,
             std::vector<ColumnId> output_ids)
      : LogicalOp(LogicalOpKind::kUnionAll, {std::move(left), std::move(right)}),
        output_ids_(std::move(output_ids)) {}

  const std::vector<ColumnId>& output_ids() const { return output_ids_; }

  std::vector<ColumnId> OutputColumns() const override { return output_ids_; }
  std::string Describe(const ColumnNameResolver* resolver) const override;
  size_t LocalHash() const override;
  bool LocalEquals(const LogicalOp& other) const override;
  LogicalOpPtr WithNewChildren(
      std::vector<LogicalOpPtr> children) const override;

 private:
  std::vector<ColumnId> output_ids_;
};

/// Duplicate elimination over all output columns.
class DistinctOp final : public LogicalOp {
 public:
  explicit DistinctOp(LogicalOpPtr input)
      : LogicalOp(LogicalOpKind::kDistinct, {std::move(input)}) {}

  std::vector<ColumnId> OutputColumns() const override {
    return child(0)->OutputColumns();
  }
  std::string Describe(const ColumnNameResolver* resolver) const override;
  size_t LocalHash() const override;
  bool LocalEquals(const LogicalOp& other) const override;
  LogicalOpPtr WithNewChildren(
      std::vector<LogicalOpPtr> children) const override;
};

/// Leaf standing for a memo group during rule binding (see
/// optimizer/memo.h). Carries the group's derived properties so rule
/// preconditions can reason about cardinality/keys without touching the
/// memo.
class GroupRefOp final : public LogicalOp {
 public:
  GroupRefOp(int group_id, const LogicalProps* props)
      : LogicalOp(LogicalOpKind::kGroupRef, {}),
        group_id_(group_id),
        props_(props) {
    QTF_CHECK(props_ != nullptr);
  }

  int group_id() const { return group_id_; }
  const LogicalProps& props() const { return *props_; }

  std::vector<ColumnId> OutputColumns() const override {
    return props_->output_cols;
  }
  std::string Describe(const ColumnNameResolver* resolver) const override;
  size_t LocalHash() const override;
  bool LocalEquals(const LogicalOp& other) const override;
  LogicalOpPtr WithNewChildren(
      std::vector<LogicalOpPtr> children) const override;

 private:
  int group_id_;
  const LogicalProps* props_;  // borrowed from the memo; memo outlives rules.
};

/// Multi-line indented rendering of a logical tree.
std::string LogicalTreeToString(const LogicalOp& root,
                                const ColumnNameResolver* resolver);

/// Deep structural equality (LocalEquals at every node, recursively).
/// Fast paths: identical roots compare equal without recursion, and roots
/// whose fingerprints are both cached and differ compare unequal in O(1).
bool LogicalTreeEquals(const LogicalOp& a, const LogicalOp& b);

/// Number of operator nodes in the tree. Memoized per node (see
/// LogicalOp::cached_subtree_size): O(1) after the first call.
int CountOps(const LogicalOp& root);

/// Stable 64-bit structural fingerprint of a logical tree: trees that are
/// LogicalTreeEquals share a fingerprint, and the value depends only on
/// the tree (kind, arguments, child order) — not on allocation addresses —
/// so it is stable across processes and standard-library implementations
/// (all node hashes avoid std::hash). Used as the plan-cache hash key and
/// the NodeInterner bucket key (collisions are resolved by deep equality).
/// Memoized per node (see LogicalOp::cached_fingerprint): O(1) after the
/// first call on any given node, which re-keys PlanCache lookups from a
/// full-tree rehash to a single atomic load.
uint64_t TreeFingerprint(const LogicalOp& root);

}  // namespace qtf

#endif  // QTF_LOGICAL_OPS_H_

#ifndef QTF_PATTERN_PATTERN_H_
#define QTF_PATTERN_PATTERN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "logical/ops.h"

namespace qtf {

class PatternNode;
using PatternNodePtr = std::shared_ptr<const PatternNode>;

/// A rule pattern tree (paper Section 3.1, Figure 3): concrete operator
/// nodes that must be present, plus generic placeholders ("circles") that
/// match any logical operator. A logical tree containing the pattern is a
/// *necessary* condition for the rule to be exercised.
///
/// The paper's key API extension is that the DBMS exports these patterns
/// (in XML) so the query generator can instantiate them directly; see
/// PatternToXml / PatternFromXml.
class PatternNode {
 public:
  enum class Type {
    kOperator,  // concrete logical operator kind (optionally join-kind-constrained)
    kAny,       // generic placeholder; matches any operator subtree
  };

  /// Generic placeholder.
  static PatternNodePtr Any();
  /// Concrete operator with children patterns.
  static PatternNodePtr Op(LogicalOpKind kind,
                           std::vector<PatternNodePtr> children);
  /// Join with a specific join kind.
  static PatternNodePtr Join(JoinKind join_kind, PatternNodePtr left,
                             PatternNodePtr right);

  Type type() const { return type_; }
  LogicalOpKind op_kind() const { return op_kind_; }
  const std::optional<JoinKind>& join_kind() const { return join_kind_; }
  const std::vector<PatternNodePtr>& children() const { return children_; }

  /// Number of nodes (placeholders included).
  int Size() const;
  /// Number of generic placeholders in the tree.
  int PlaceholderCount() const;

  /// "Join[Inner](Any, GroupByAgg(Any))"-style rendering.
  std::string ToString() const;

  // Public for make_shared; use the factories above.
  PatternNode(Type type, LogicalOpKind op_kind,
              std::optional<JoinKind> join_kind,
              std::vector<PatternNodePtr> children)
      : type_(type),
        op_kind_(op_kind),
        join_kind_(join_kind),
        children_(std::move(children)) {}

 private:
  Type type_;
  LogicalOpKind op_kind_;  // valid when type_ == kOperator
  std::optional<JoinKind> join_kind_;
  std::vector<PatternNodePtr> children_;
};

/// Top-anchored structural match: does `op`'s tree shape satisfy `pattern`?
/// Placeholders match any subtree (including GroupRef leaves).
bool MatchesPattern(const LogicalOp& op, const PatternNode& pattern);

/// The root level of MatchesPattern alone: `pattern` is a placeholder, or
/// names `op`'s kind (and join kind, if constrained) with `op`'s arity.
/// Children are not inspected.
bool MatchesPatternRoot(const LogicalOp& op, const PatternNode& pattern);

/// True if any subtree of `op` matches `pattern`.
bool ContainsPattern(const LogicalOp& op, const PatternNode& pattern);

/// Serializes a pattern to the XML format the extended DBMS API returns
/// (paper Section 3.1: "We have extended the database server with an API
/// through which it returns the rule pattern tree for a rule in a XML
/// format").
std::string PatternToXml(const PatternNode& pattern,
                         const std::string& rule_name);

/// Parses the XML produced by PatternToXml. Returns the pattern tree; the
/// rule name attribute is written to `rule_name` when non-null.
Result<PatternNodePtr> PatternFromXml(const std::string& xml,
                                      std::string* rule_name);

/// Pattern composition for rule pairs (paper Section 3.2). Produces
/// composite patterns by:
///  (1) creating a new root (Join or UnionAll) with both patterns as
///      children, and
///  (2) substituting each generic placeholder of one pattern with the other
///      pattern (both directions).
std::vector<PatternNodePtr> ComposePatterns(const PatternNodePtr& a,
                                            const PatternNodePtr& b);

}  // namespace qtf

#endif  // QTF_PATTERN_PATTERN_H_

#ifndef QTF_EXPR_EXPR_H_
#define QTF_EXPR_EXPR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "types/value.h"

namespace qtf {

/// Globally unique identifier of a column instance within one query.
///
/// Every Get operator instantiates fresh ids for the columns of its base
/// table, and computed/aggregate outputs allocate new ids. Expressions
/// reference ids, never positions, so transformation rules never need to
/// rebind columns when operators are reordered (mirroring column identities
/// in Cascades-style optimizers).
using ColumnId = int32_t;

enum class ExprKind {
  kColumnRef = 0,
  kConstant,
  kComparison,
  kAnd,
  kOr,
  kNot,
  kArithmetic,
  kIsNull,
};

enum class CompareOp { kEq = 0, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd = 0, kSub, kMul, kDiv };

const char* CompareOpToSql(CompareOp op);
const char* ArithOpToSql(ArithOp op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Maps a ColumnId to its display name for SQL/debug rendering.
using ColumnNameResolver = std::function<std::string(ColumnId)>;

/// Immutable scalar expression node. Shared freely between plans;
/// construction goes through the factory helpers at the bottom of this
/// header (Col, Lit, Cmp, And, Or, Not, Arith, IsNull).
class Expr {
 public:
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }
  /// Static result type of the expression.
  ValueType type() const { return type_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// The subtree's ExprHash and StableExprHash (expr/analysis.h), memoized.
  /// Both are computed in the constructor from the node's own data and its
  /// children's memoized values, so they are O(1) to read and settled
  /// before the node can be shared between threads.
  size_t hash() const { return hash_; }
  uint64_t stable_hash() const { return stable_hash_; }

  /// SQL-ish rendering; `resolver` supplies column names (pass nullptr to
  /// render ids as "c<id>").
  virtual std::string ToString(const ColumnNameResolver* resolver) const = 0;

 protected:
  /// `hash_payload` and `stable_payload` fold the node's own data (column
  /// id, constant, operator) into the two hashes; kinds without such data
  /// pass neither.
  Expr(ExprKind kind, ValueType type, std::vector<ExprPtr> children,
       size_t hash_payload = 0, uint64_t stable_payload = 0);

 private:
  ExprKind kind_;
  ValueType type_;
  std::vector<ExprPtr> children_;
  size_t hash_;
  uint64_t stable_hash_;
};

class ColumnRefExpr final : public Expr {
 public:
  ColumnRefExpr(ColumnId id, ValueType type)
      : Expr(ExprKind::kColumnRef, type, {},
             static_cast<size_t>(id) + 0x1234567, static_cast<uint64_t>(id)),
        id_(id) {}
  ColumnId id() const { return id_; }
  std::string ToString(const ColumnNameResolver* resolver) const override;

 private:
  ColumnId id_;
};

class ConstantExpr final : public Expr {
 public:
  explicit ConstantExpr(Value value)
      : Expr(ExprKind::kConstant, value.type(), {}, value.Hash(),
             value.StableHash()),
        value_(std::move(value)) {}
  const Value& value() const { return value_; }
  std::string ToString(const ColumnNameResolver* resolver) const override;

 private:
  Value value_;
};

class ComparisonExpr final : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kComparison, ValueType::kBool,
             {std::move(left), std::move(right)},
             static_cast<size_t>(op) << 8, static_cast<uint64_t>(op)),
        op_(op) {}
  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return children()[0]; }
  const ExprPtr& right() const { return children()[1]; }
  std::string ToString(const ColumnNameResolver* resolver) const override;

 private:
  CompareOp op_;
};

class AndExpr final : public Expr {
 public:
  AndExpr(ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kAnd, ValueType::kBool,
             {std::move(left), std::move(right)}) {}
  std::string ToString(const ColumnNameResolver* resolver) const override;
};

class OrExpr final : public Expr {
 public:
  OrExpr(ExprPtr left, ExprPtr right)
      : Expr(ExprKind::kOr, ValueType::kBool,
             {std::move(left), std::move(right)}) {}
  std::string ToString(const ColumnNameResolver* resolver) const override;
};

class NotExpr final : public Expr {
 public:
  explicit NotExpr(ExprPtr input)
      : Expr(ExprKind::kNot, ValueType::kBool, {std::move(input)}) {}
  std::string ToString(const ColumnNameResolver* resolver) const override;
};

class ArithmeticExpr final : public Expr {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr left, ExprPtr right, ValueType type)
      : Expr(ExprKind::kArithmetic, type, {std::move(left), std::move(right)},
             static_cast<size_t>(op) << 16, static_cast<uint64_t>(op)),
        op_(op) {}
  ArithOp op() const { return op_; }
  std::string ToString(const ColumnNameResolver* resolver) const override;

 private:
  ArithOp op_;
};

class IsNullExpr final : public Expr {
 public:
  explicit IsNullExpr(ExprPtr input)
      : Expr(ExprKind::kIsNull, ValueType::kBool, {std::move(input)}) {}
  std::string ToString(const ColumnNameResolver* resolver) const override;
};

// ---- Factory helpers ----

ExprPtr Col(ColumnId id, ValueType type);
ExprPtr Lit(Value value);
ExprPtr LitInt(int64_t v);
ExprPtr LitDouble(double v);
ExprPtr LitString(std::string v);
ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right);
ExprPtr Eq(ExprPtr left, ExprPtr right);
ExprPtr And(ExprPtr left, ExprPtr right);
ExprPtr Or(ExprPtr left, ExprPtr right);
ExprPtr Not(ExprPtr input);
ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right);
ExprPtr IsNull(ExprPtr input);

}  // namespace qtf

#endif  // QTF_EXPR_EXPR_H_

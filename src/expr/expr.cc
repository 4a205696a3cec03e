#include "expr/expr.h"

#include "common/hash.h"

namespace qtf {

Expr::Expr(ExprKind kind, ValueType type, std::vector<ExprPtr> children,
           size_t hash_payload, uint64_t stable_payload)
    : kind_(kind), type_(type), children_(std::move(children)) {
  // The recursive definitions of ExprHash and StableExprHash, one level at
  // a time: children are built first, so their values are already cached.
  size_t h = static_cast<size_t>(kind) * 0x9e3779b97f4a7c15ULL;
  h ^= hash_payload;
  uint64_t stable = Mix64(static_cast<uint64_t>(kind) + 0xe1234);
  switch (kind) {
    case ExprKind::kColumnRef:
    case ExprKind::kConstant:
    case ExprKind::kComparison:
    case ExprKind::kArithmetic:
      stable = HashCombine(stable, stable_payload);
      break;
    default:
      break;
  }
  for (const ExprPtr& child : children_) {
    h = h * 1099511628211ULL + child->hash_;
    stable = HashCombine(stable, child->stable_hash_);
  }
  hash_ = h;
  stable_hash_ = stable;
}

const char* CompareOpToSql(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpToSql(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

std::string ColumnRefExpr::ToString(const ColumnNameResolver* resolver) const {
  if (resolver != nullptr) return (*resolver)(id_);
  return "c" + std::to_string(id_);
}

std::string ConstantExpr::ToString(const ColumnNameResolver*) const {
  return value_.ToSqlLiteral();
}

std::string ComparisonExpr::ToString(const ColumnNameResolver* resolver) const {
  return "(" + left()->ToString(resolver) + " " + CompareOpToSql(op_) + " " +
         right()->ToString(resolver) + ")";
}

std::string AndExpr::ToString(const ColumnNameResolver* resolver) const {
  return "(" + children()[0]->ToString(resolver) + " AND " +
         children()[1]->ToString(resolver) + ")";
}

std::string OrExpr::ToString(const ColumnNameResolver* resolver) const {
  return "(" + children()[0]->ToString(resolver) + " OR " +
         children()[1]->ToString(resolver) + ")";
}

std::string NotExpr::ToString(const ColumnNameResolver* resolver) const {
  return "(NOT " + children()[0]->ToString(resolver) + ")";
}

std::string ArithmeticExpr::ToString(const ColumnNameResolver* resolver) const {
  return "(" + children()[0]->ToString(resolver) + " " + ArithOpToSql(op_) +
         " " + children()[1]->ToString(resolver) + ")";
}

std::string IsNullExpr::ToString(const ColumnNameResolver* resolver) const {
  return "(" + children()[0]->ToString(resolver) + " IS NULL)";
}

ExprPtr Col(ColumnId id, ValueType type) {
  return std::make_shared<ColumnRefExpr>(id, type);
}
ExprPtr Lit(Value value) {
  return std::make_shared<ConstantExpr>(std::move(value));
}
ExprPtr LitInt(int64_t v) { return Lit(Value::Int64(v)); }
ExprPtr LitDouble(double v) { return Lit(Value::Double(v)); }
ExprPtr LitString(std::string v) { return Lit(Value::String(std::move(v))); }
ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ComparisonExpr>(op, std::move(left),
                                          std::move(right));
}
ExprPtr Eq(ExprPtr left, ExprPtr right) {
  return Cmp(CompareOp::kEq, std::move(left), std::move(right));
}
ExprPtr And(ExprPtr left, ExprPtr right) {
  return std::make_shared<AndExpr>(std::move(left), std::move(right));
}
ExprPtr Or(ExprPtr left, ExprPtr right) {
  return std::make_shared<OrExpr>(std::move(left), std::move(right));
}
ExprPtr Not(ExprPtr input) {
  return std::make_shared<NotExpr>(std::move(input));
}
ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right) {
  // Result is double if either side is double, else int64.
  ValueType type =
      (left->type() == ValueType::kDouble || right->type() == ValueType::kDouble)
          ? ValueType::kDouble
          : ValueType::kInt64;
  return std::make_shared<ArithmeticExpr>(op, std::move(left),
                                          std::move(right), type);
}
ExprPtr IsNull(ExprPtr input) {
  return std::make_shared<IsNullExpr>(std::move(input));
}

}  // namespace qtf

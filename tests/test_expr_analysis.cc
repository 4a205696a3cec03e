// Expression analysis: conjunct handling, column collection, substitution,
// null-rejection (the outer-join simplification precondition), structural
// equality/hash.

#include <gtest/gtest.h>

#include <set>

#include "expr/analysis.h"

#include "common/hash.h"
#include "common/rng.h"

namespace qtf {
namespace {

ExprPtr IntCol(ColumnId id) { return Col(id, ValueType::kInt64); }

// ---- flat ColumnSet: std::set semantics over a sorted vector ----

TEST(ColumnSetTest, DedupsAndIteratesSorted) {
  ColumnSet set{5, 1, 3, 1, 5};
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(std::vector<ColumnId>(set.begin(), set.end()),
            (std::vector<ColumnId>{1, 3, 5}));

  auto [it, added] = set.insert(2);
  EXPECT_TRUE(added);
  EXPECT_EQ(*it, 2);
  auto [again, added_again] = set.insert(2);
  EXPECT_FALSE(added_again);
  EXPECT_EQ(again, it);

  EXPECT_TRUE(set.insert(7).second);  // past the end: appended
  EXPECT_FALSE(set.insert(7).second);

  std::vector<ColumnId> more = {9, 0, 3, 9};
  set.insert(more.begin(), more.end());
  EXPECT_EQ(std::vector<ColumnId>(set.begin(), set.end()),
            (std::vector<ColumnId>{0, 1, 2, 3, 5, 7, 9}));
  EXPECT_TRUE(ColumnSet().empty());
}

TEST(ColumnSetTest, FindEraseAndCompare) {
  ColumnSet set{4, 2, 8};
  EXPECT_EQ(set.count(4), 1u);
  EXPECT_EQ(set.count(5), 0u);
  EXPECT_TRUE(set.contains(8));
  EXPECT_EQ(set.find(7), set.end());
  ASSERT_NE(set.find(2), set.end());
  EXPECT_EQ(*set.find(2), 2);

  EXPECT_EQ(set.erase(7), 0u);
  EXPECT_EQ(set.erase(4), 1u);
  EXPECT_EQ(set, (ColumnSet{2, 8}));
  EXPECT_EQ(*set.erase(set.find(2)), 8);
  EXPECT_EQ(set, (ColumnSet{8}));
  set.clear();
  EXPECT_TRUE(set.empty());

  EXPECT_EQ((ColumnSet{3, 1}), (ColumnSet{1, 3, 3}));
  EXPECT_NE((ColumnSet{1}), (ColumnSet{1, 2}));

  // Lexicographic order over the sorted ids, exactly as between std::sets.
  const std::vector<std::vector<ColumnId>> samples = {
      {}, {0}, {1, 2}, {1, 3}, {1, 2, 5}, {2}, {1, 9}, {2, 1, 0}};
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      const std::set<ColumnId> sa(a.begin(), a.end()), sb(b.begin(), b.end());
      const ColumnSet ca(a.begin(), a.end()), cb(b.begin(), b.end());
      EXPECT_EQ(ca < cb, sa < sb);
      EXPECT_EQ(ca == cb, sa == sb);
    }
  }
}

TEST(ColumnsOfTest, CollectsAllReferences) {
  ExprPtr e = And(Eq(IntCol(1), IntCol(2)),
                  Cmp(CompareOp::kLt, Arith(ArithOp::kAdd, IntCol(3), LitInt(1)),
                      IntCol(1)));
  ColumnSet cols = ColumnsOf(*e);
  EXPECT_EQ(cols, (ColumnSet{1, 2, 3}));
}

TEST(ReferencesTest, OnlyAndAny) {
  ExprPtr e = Eq(IntCol(1), IntCol(2));
  EXPECT_TRUE(ReferencesOnly(*e, {1, 2, 3}));
  EXPECT_FALSE(ReferencesOnly(*e, {1}));
  EXPECT_TRUE(ReferencesAny(*e, {2, 9}));
  EXPECT_FALSE(ReferencesAny(*e, {9}));
  // Column-free expressions reference only anything and nothing of any set.
  EXPECT_TRUE(ReferencesOnly(*LitInt(1), {}));
  EXPECT_FALSE(ReferencesAny(*LitInt(1), {1}));
}

TEST(ConjunctTest, SplitFlattensNestedAnds) {
  ExprPtr a = Eq(IntCol(1), LitInt(1));
  ExprPtr b = Eq(IntCol(2), LitInt(2));
  ExprPtr c = Eq(IntCol(3), LitInt(3));
  ExprPtr nested = And(And(a, b), c);
  std::vector<ExprPtr> conjuncts = SplitConjuncts(nested);
  EXPECT_EQ(conjuncts.size(), 3u);
}

TEST(ConjunctTest, OrIsNotSplit) {
  ExprPtr e = Or(Eq(IntCol(1), LitInt(1)), Eq(IntCol(2), LitInt(2)));
  EXPECT_EQ(SplitConjuncts(e).size(), 1u);
}

TEST(ConjunctTest, NullPredicateSplitsToEmpty) {
  EXPECT_TRUE(SplitConjuncts(nullptr).empty());
  EXPECT_EQ(MakeConjunction({}), nullptr);
}

TEST(ConjunctTest, MakeConjunctionIsCanonical) {
  // Same conjunct set in any order must produce a structurally identical
  // expression (memo dedup depends on this).
  ExprPtr a = Eq(IntCol(1), LitInt(1));
  ExprPtr b = Cmp(CompareOp::kLt, IntCol(2), LitInt(5));
  ExprPtr c = IsNull(IntCol(3));
  ExprPtr e1 = MakeConjunction({a, b, c});
  ExprPtr e2 = MakeConjunction({c, a, b});
  ExprPtr e3 = MakeConjunction({b, c, a});
  EXPECT_TRUE(ExprEquals(*e1, *e2));
  EXPECT_TRUE(ExprEquals(*e1, *e3));
}

TEST(ConjunctTest, RoundTripSplitMake) {
  ExprPtr a = Eq(IntCol(1), LitInt(1));
  ExprPtr b = Eq(IntCol(2), LitInt(2));
  ExprPtr e = MakeConjunction({a, b});
  std::vector<ExprPtr> again = SplitConjuncts(e);
  EXPECT_EQ(again.size(), 2u);
  EXPECT_TRUE(ExprEquals(*MakeConjunction(again), *e));
}

TEST(SubstituteTest, ReplacesMappedColumns) {
  std::map<ColumnId, ExprPtr> repl;
  repl[1] = Arith(ArithOp::kAdd, IntCol(5), LitInt(1));
  ExprPtr e = Eq(IntCol(1), IntCol(2));
  ExprPtr out = SubstituteColumns(e, repl);
  ColumnSet cols = ColumnsOf(*out);
  EXPECT_EQ(cols, (ColumnSet{5, 2}));
}

TEST(SubstituteTest, IdentityWhenNothingMapped) {
  ExprPtr e = And(Eq(IntCol(1), LitInt(3)), IsNull(IntCol(2)));
  ExprPtr out = SubstituteColumns(e, {});
  EXPECT_TRUE(ExprEquals(*e, *out));
}

TEST(SubstituteTest, RecursesThroughAllOperators) {
  std::map<ColumnId, ExprPtr> repl;
  repl[1] = IntCol(9);
  ExprPtr e = Or(Not(IsNull(IntCol(1))),
                 Cmp(CompareOp::kGt, Arith(ArithOp::kMul, IntCol(1), LitInt(2)),
                     LitInt(10)));
  ExprPtr out = SubstituteColumns(e, repl);
  EXPECT_EQ(ColumnsOf(*out), (ColumnSet{9}));
}

// ---- RejectsAllNull: the LojToJoin precondition ----

TEST(RejectsAllNullTest, ComparisonOnTargetColumnRejects) {
  ExprPtr e = Eq(IntCol(1), LitInt(5));
  EXPECT_TRUE(RejectsAllNull(*e, {1}));
  EXPECT_FALSE(RejectsAllNull(*e, {2}));
}

TEST(RejectsAllNullTest, ArithmeticIsStrict) {
  ExprPtr e = Cmp(CompareOp::kLt, Arith(ArithOp::kAdd, IntCol(1), LitInt(1)),
                  LitInt(10));
  EXPECT_TRUE(RejectsAllNull(*e, {1}));
}

TEST(RejectsAllNullTest, AndNeedsOneRejectingConjunct) {
  ExprPtr rejecting = Eq(IntCol(1), LitInt(5));
  ExprPtr other = Eq(IntCol(2), LitInt(5));
  EXPECT_TRUE(RejectsAllNull(*And(rejecting, other), {1}));
  EXPECT_TRUE(RejectsAllNull(*And(other, rejecting), {1}));
  EXPECT_FALSE(RejectsAllNull(*And(other, other), {1}));
}

TEST(RejectsAllNullTest, OrNeedsBothBranchesRejecting) {
  ExprPtr on1 = Eq(IntCol(1), LitInt(5));
  ExprPtr on2 = Eq(IntCol(2), LitInt(5));
  EXPECT_FALSE(RejectsAllNull(*Or(on1, on2), {1}));
  EXPECT_TRUE(RejectsAllNull(*Or(on1, on2), {1, 2}));
  EXPECT_TRUE(RejectsAllNull(
      *Or(on1, Cmp(CompareOp::kGt, IntCol(1), LitInt(0))), {1}));
}

TEST(RejectsAllNullTest, IsNullDoesNotReject) {
  // IS NULL is satisfied by the null-extended row — it must NOT count as
  // null-rejecting.
  EXPECT_FALSE(RejectsAllNull(*IsNull(IntCol(1)), {1}));
  EXPECT_FALSE(RejectsAllNull(*Not(IsNull(IntCol(1))), {1}));
}

TEST(RejectsAllNullTest, NotOverStrictComparisonRejects) {
  // NOT(c1 = 5) on NULL c1 evaluates NOT(NULL) = NULL -> rejected.
  EXPECT_TRUE(RejectsAllNull(*Not(Eq(IntCol(1), LitInt(5))), {1}));
}

TEST(RejectsAllNullTest, ConstantsNeverReject) {
  EXPECT_FALSE(RejectsAllNull(*Lit(Value::Bool(true)), {1}));
}

// ---- structural equality / hash ----

TEST(ExprEqualsTest, DistinguishesOpsAndConstants) {
  EXPECT_TRUE(ExprEquals(*Eq(IntCol(1), LitInt(5)), *Eq(IntCol(1), LitInt(5))));
  EXPECT_FALSE(
      ExprEquals(*Eq(IntCol(1), LitInt(5)), *Eq(IntCol(1), LitInt(6))));
  EXPECT_FALSE(ExprEquals(*Eq(IntCol(1), LitInt(5)),
                          *Cmp(CompareOp::kNe, IntCol(1), LitInt(5))));
  EXPECT_FALSE(ExprEquals(*Eq(IntCol(1), LitInt(5)), *IsNull(IntCol(1))));
  EXPECT_FALSE(ExprEquals(*Arith(ArithOp::kAdd, IntCol(1), LitInt(1)),
                          *Arith(ArithOp::kSub, IntCol(1), LitInt(1))));
}

TEST(ExprEqualsTest, NullConstantsCompareEqual) {
  EXPECT_TRUE(ExprEquals(*Lit(Value::Null(ValueType::kInt64)),
                         *Lit(Value::Null(ValueType::kInt64))));
  EXPECT_FALSE(ExprEquals(*Lit(Value::Null(ValueType::kInt64)),
                          *Lit(Value::Null(ValueType::kString))));
}

TEST(ExprHashTest, EqualExpressionsHashEqual) {
  ExprPtr a = And(Eq(IntCol(1), LitInt(5)), IsNull(IntCol(2)));
  ExprPtr b = And(Eq(IntCol(1), LitInt(5)), IsNull(IntCol(2)));
  EXPECT_EQ(ExprHash(*a), ExprHash(*b));
}

TEST(ExprHashTest, DifferentExpressionsUsuallyDiffer) {
  EXPECT_NE(ExprHash(*Eq(IntCol(1), LitInt(5))),
            ExprHash(*Eq(IntCol(2), LitInt(5))));
  EXPECT_NE(ExprHash(*Eq(IntCol(1), LitInt(5))),
            ExprHash(*Eq(IntCol(1), LitInt(7))));
}

// ---- memoized hashes vs a fresh recompute, fast-path equality vs a walk ----

/// The recursive definitions the constructor-memoized Expr::hash() must
/// reproduce bit for bit (MakeConjunction's conjunct order depends on it).
size_t RecomputeHash(const Expr& expr) {
  size_t h = static_cast<size_t>(expr.kind()) * 0x9e3779b97f4a7c15ULL;
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      h ^= static_cast<size_t>(static_cast<const ColumnRefExpr&>(expr).id()) +
           0x1234567;
      break;
    case ExprKind::kConstant:
      h ^= static_cast<const ConstantExpr&>(expr).value().Hash();
      break;
    case ExprKind::kComparison:
      h ^= static_cast<size_t>(static_cast<const ComparisonExpr&>(expr).op())
           << 8;
      break;
    case ExprKind::kArithmetic:
      h ^= static_cast<size_t>(static_cast<const ArithmeticExpr&>(expr).op())
           << 16;
      break;
    default:
      break;
  }
  for (const ExprPtr& child : expr.children()) {
    h = h * 1099511628211ULL + RecomputeHash(*child);
  }
  return h;
}

uint64_t RecomputeStableHash(const Expr& expr) {
  uint64_t h = Mix64(static_cast<uint64_t>(expr.kind()) + 0xe1234);
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      h = HashCombine(h, static_cast<uint64_t>(
                             static_cast<const ColumnRefExpr&>(expr).id()));
      break;
    case ExprKind::kConstant:
      h = HashCombine(
          h, static_cast<const ConstantExpr&>(expr).value().StableHash());
      break;
    case ExprKind::kComparison:
      h = HashCombine(h, static_cast<uint64_t>(
                             static_cast<const ComparisonExpr&>(expr).op()));
      break;
    case ExprKind::kArithmetic:
      h = HashCombine(h, static_cast<uint64_t>(
                             static_cast<const ArithmeticExpr&>(expr).op()));
      break;
    default:
      break;
  }
  for (const ExprPtr& child : expr.children()) {
    h = HashCombine(h, RecomputeStableHash(*child));
  }
  return h;
}

/// Structural comparison with no shortcuts: kind, own data, then children.
bool PlainEquals(const Expr& a, const Expr& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ExprKind::kColumnRef:
      return static_cast<const ColumnRefExpr&>(a).id() ==
             static_cast<const ColumnRefExpr&>(b).id();
    case ExprKind::kConstant: {
      const Value& va = static_cast<const ConstantExpr&>(a).value();
      const Value& vb = static_cast<const ConstantExpr&>(b).value();
      if (va.type() != vb.type() || va.is_null() != vb.is_null()) return false;
      return va.is_null() || va.Compare(vb) == 0;
    }
    case ExprKind::kComparison:
      if (static_cast<const ComparisonExpr&>(a).op() !=
          static_cast<const ComparisonExpr&>(b).op()) {
        return false;
      }
      break;
    case ExprKind::kArithmetic:
      if (static_cast<const ArithmeticExpr&>(a).op() !=
          static_cast<const ArithmeticExpr&>(b).op()) {
        return false;
      }
      break;
    default:
      break;
  }
  if (a.children().size() != b.children().size()) return false;
  for (size_t i = 0; i < a.children().size(); ++i) {
    if (!PlainEquals(*a.children()[i], *b.children()[i])) return false;
  }
  return true;
}

/// Random expression over a deliberately small vocabulary (3 columns, a few
/// constants of every type, both zeros) so independent draws often collide
/// structurally.
ExprPtr RandomExpr(Rng* rng, int depth) {
  if (depth == 0 || rng->UniformInt(0, 3) == 0) {
    switch (rng->UniformInt(0, 6)) {
      case 0:
      case 1:
        return IntCol(static_cast<ColumnId>(rng->UniformInt(1, 3)));
      case 2:
        return LitInt(rng->UniformInt(0, 2));
      case 3:
        return LitDouble(rng->UniformInt(0, 1) == 0 ? 0.0 : -0.0);
      case 4:
        return LitString(rng->UniformInt(0, 1) == 0 ? "a" : "b");
      case 5:
        return Lit(Value::Bool(rng->UniformInt(0, 1) == 0));
      default:
        return Lit(Value::Null(ValueType::kInt64));
    }
  }
  auto sub = [&] { return RandomExpr(rng, depth - 1); };
  switch (rng->UniformInt(0, 5)) {
    case 0:
      return Cmp(static_cast<CompareOp>(rng->UniformInt(0, 5)), sub(), sub());
    case 1:
      return And(sub(), sub());
    case 2:
      return Or(sub(), sub());
    case 3:
      return Not(sub());
    case 4:
      return Arith(static_cast<ArithOp>(rng->UniformInt(0, 3)), sub(), sub());
    default:
      return IsNull(sub());
  }
}

void ExpectCachedHashesFresh(const Expr& expr) {
  EXPECT_EQ(expr.hash(), RecomputeHash(expr));
  EXPECT_EQ(expr.stable_hash(), RecomputeStableHash(expr));
  EXPECT_EQ(ExprHash(expr), expr.hash());
  EXPECT_EQ(StableExprHash(expr), expr.stable_hash());
  for (const ExprPtr& child : expr.children()) ExpectCachedHashesFresh(*child);
}

TEST(ExprHashTest, MemoizedHashesEqualFreshRecompute) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    ExprPtr e = RandomExpr(&rng, 4);
    ExpectCachedHashesFresh(*e);
    // Rebuilt through the other factories on the way.
    ExpectCachedHashesFresh(*SubstituteColumns(e, {{1, IntCol(9)}}));
  }
  ExpectCachedHashesFresh(*MakeConjunction(
      {Eq(IntCol(1), LitInt(5)), IsNull(IntCol(2)), LitDouble(1.5)}));
}

TEST(ExprEqualsTest, AgreesWithPlainStructuralCompare) {
  Rng rng(11);
  int equal_pairs = 0;
  for (int i = 0; i < 20000; ++i) {
    const int depth = static_cast<int>(rng.UniformInt(0, 3));
    ExprPtr a = RandomExpr(&rng, depth);
    ExprPtr b = RandomExpr(&rng, depth);
    const bool plain = PlainEquals(*a, *b);
    ASSERT_EQ(ExprEquals(*a, *b), plain)
        << a->ToString(nullptr) << " vs " << b->ToString(nullptr);
    if (plain) {
      ++equal_pairs;
      EXPECT_EQ(ExprHash(*a), ExprHash(*b));
    }
    EXPECT_TRUE(ExprEquals(*a, *a));
    // A structurally equal copy built from fresh nodes.
    ExprPtr copy = SubstituteColumns(a, {});
    EXPECT_TRUE(ExprEquals(*a, *copy));
  }
  // The vocabulary is small enough that the comparison is not vacuous.
  EXPECT_GT(equal_pairs, 500);
}

TEST(ExprEqualsTest, SignedZerosAreEqual) {
  EXPECT_TRUE(ExprEquals(*LitDouble(0.0), *LitDouble(-0.0)));
  EXPECT_EQ(StableExprHash(*LitDouble(0.0)), StableExprHash(*LitDouble(-0.0)));
}

}  // namespace
}  // namespace qtf

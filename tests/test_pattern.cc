// Rule patterns: matching, XML export/import (the paper's DBMS API), and
// composition for rule pairs (Section 3.2).

#include <gtest/gtest.h>

#include "pattern/pattern.h"
#include "rules/default_rules.h"
#include "storage/tpch.h"

namespace qtf {
namespace {

using P = PatternNode;

class PatternTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTpchDatabase(TpchConfig{}).value();
    registry_ = std::make_shared<ColumnRegistry>();
    region_ = GetOp::Create(db_->catalog().GetTable("region").value(),
                            registry_.get());
    nation_ = GetOp::Create(db_->catalog().GetTable("nation").value(),
                            registry_.get());
  }

  std::unique_ptr<Database> db_;
  ColumnRegistryPtr registry_;
  std::shared_ptr<const GetOp> region_, nation_;
};

TEST_F(PatternTest, AnyMatchesEverything) {
  EXPECT_TRUE(MatchesPattern(*region_, *P::Any()));
  auto select = std::make_shared<SelectOp>(
      region_, Eq(Col(region_->columns()[0], ValueType::kInt64), LitInt(1)));
  EXPECT_TRUE(MatchesPattern(*select, *P::Any()));
}

TEST_F(PatternTest, JoinPatternMatchesKindAndShape) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  EXPECT_TRUE(
      MatchesPattern(*join, *P::Join(JoinKind::kInner, P::Any(), P::Any())));
  EXPECT_FALSE(MatchesPattern(
      *join, *P::Join(JoinKind::kLeftOuter, P::Any(), P::Any())));
  EXPECT_FALSE(
      MatchesPattern(*join, *P::Op(LogicalOpKind::kSelect, {P::Any()})));
  // Unconstrained join kind matches any join.
  EXPECT_TRUE(MatchesPattern(
      *join, *P::Op(LogicalOpKind::kJoin, {P::Any(), P::Any()})));
}

TEST_F(PatternTest, TwoLevelPattern) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  auto select = std::make_shared<SelectOp>(
      join, Eq(Col(region_->columns()[0], ValueType::kInt64), LitInt(1)));
  PatternNodePtr select_over_join =
      P::Op(LogicalOpKind::kSelect,
            {P::Join(JoinKind::kInner, P::Any(), P::Any())});
  EXPECT_TRUE(MatchesPattern(*select, *select_over_join));
  EXPECT_FALSE(MatchesPattern(*join, *select_over_join));
}

TEST_F(PatternTest, RootMatchIgnoresChildPatterns) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  auto select = std::make_shared<SelectOp>(
      region_, Eq(Col(region_->columns()[0], ValueType::kInt64), LitInt(1)));
  PatternNodePtr select_over_join =
      P::Op(LogicalOpKind::kSelect,
            {P::Join(JoinKind::kInner, P::Any(), P::Any())});
  // The root fits even though the child (a Get) does not.
  EXPECT_TRUE(MatchesPatternRoot(*select, *select_over_join));
  EXPECT_FALSE(MatchesPattern(*select, *select_over_join));
  EXPECT_FALSE(MatchesPatternRoot(*join, *select_over_join));
  EXPECT_TRUE(MatchesPatternRoot(*join, *P::Any()));
  EXPECT_FALSE(MatchesPatternRoot(
      *join, *P::Join(JoinKind::kLeftSemi, P::Any(), P::Any())));
  // Arity is part of the root: a unary pattern never fits a join.
  EXPECT_FALSE(
      MatchesPatternRoot(*join, *P::Op(LogicalOpKind::kJoin, {P::Any()})));
}

TEST_F(PatternTest, ContainsPatternSearchesSubtrees) {
  auto join = std::make_shared<JoinOp>(JoinKind::kInner, nation_, region_,
                                       nullptr);
  auto distinct = std::make_shared<DistinctOp>(join);
  PatternNodePtr join_pattern =
      P::Join(JoinKind::kInner, P::Any(), P::Any());
  EXPECT_FALSE(MatchesPattern(*distinct, *join_pattern));
  EXPECT_TRUE(ContainsPattern(*distinct, *join_pattern));
}

TEST(PatternNodeTest, SizeAndPlaceholders) {
  PatternNodePtr p =
      P::Op(LogicalOpKind::kGroupByAgg,
            {P::Join(JoinKind::kInner, P::Any(), P::Any())});
  EXPECT_EQ(p->Size(), 4);
  EXPECT_EQ(p->PlaceholderCount(), 2);
  EXPECT_EQ(p->ToString(), "GroupByAgg(Join[Inner](Any, Any))");
}

TEST(PatternXmlTest, RoundTripSimple) {
  PatternNodePtr p = P::Join(JoinKind::kLeftOuter, P::Any(),
                             P::Op(LogicalOpKind::kGroupByAgg, {P::Any()}));
  std::string xml = PatternToXml(*p, "TestRule");
  EXPECT_NE(xml.find("<rulepattern name=\"TestRule\">"), std::string::npos);
  EXPECT_NE(xml.find("join=\"LeftOuter\""), std::string::npos);

  std::string name;
  auto parsed = PatternFromXml(xml, &name);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(name, "TestRule");
  EXPECT_EQ((*parsed)->ToString(), p->ToString());
}

TEST(PatternXmlTest, RoundTripAllOperatorKinds) {
  PatternNodePtr p = P::Op(
      LogicalOpKind::kSelect,
      {P::Op(LogicalOpKind::kProject,
             {P::Op(LogicalOpKind::kUnionAll,
                    {P::Op(LogicalOpKind::kDistinct, {P::Any()}),
                     P::Op(LogicalOpKind::kGet, {})})})});
  std::string xml = PatternToXml(*p, "Deep");
  auto parsed = PatternFromXml(xml, nullptr);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->ToString(), p->ToString());
}

TEST(PatternXmlTest, MalformedXmlRejected) {
  EXPECT_FALSE(PatternFromXml("<bogus/>", nullptr).ok());
  EXPECT_FALSE(PatternFromXml("<rulepattern name=\"x\"><op kind=\"Nope\"/>"
                              "</rulepattern>",
                              nullptr)
                   .ok());
  EXPECT_FALSE(
      PatternFromXml("<rulepattern name=\"x\"><any/>", nullptr).ok());
}

TEST(PatternComposeTest, ProducesRootAndSubstitutionComposites) {
  PatternNodePtr a = P::Join(JoinKind::kInner, P::Any(), P::Any());
  PatternNodePtr b = P::Op(LogicalOpKind::kGroupByAgg, {P::Any()});
  std::vector<PatternNodePtr> composites = ComposePatterns(a, b);
  // 2 new-root composites + 2 substitutions into a's placeholders + 1 into
  // b's placeholder.
  EXPECT_EQ(composites.size(), 5u);

  int with_join_root = 0, with_union_root = 0;
  for (const PatternNodePtr& c : composites) {
    if (c->type() == PatternNode::Type::kOperator &&
        c->op_kind() == LogicalOpKind::kJoin && c->children().size() == 2) {
      ++with_join_root;
    }
    if (c->type() == PatternNode::Type::kOperator &&
        c->op_kind() == LogicalOpKind::kUnionAll) {
      ++with_union_root;
    }
  }
  EXPECT_GE(with_join_root, 1);
  EXPECT_EQ(with_union_root, 1);
}

TEST(PatternComposeTest, SubstitutedCompositeContainsBothPatterns) {
  PatternNodePtr a = P::Op(LogicalOpKind::kSelect, {P::Any()});
  PatternNodePtr b = P::Op(LogicalOpKind::kDistinct, {P::Any()});
  std::vector<PatternNodePtr> composites = ComposePatterns(a, b);
  bool found_nested = false;
  for (const PatternNodePtr& c : composites) {
    if (c->ToString() == "Select(Distinct(Any))") found_nested = true;
  }
  EXPECT_TRUE(found_nested);
}

TEST(PatternRegistryTest, EveryRegisteredRulePatternRoundTripsThroughXml) {
  // The paper's API: the DBMS exports each rule's pattern in XML and the
  // generator consumes it. Round-trip every pattern in the default
  // registry.
  auto registry = MakeDefaultRuleRegistry();
  for (const auto& rule : registry->rules()) {
    std::string xml = PatternToXml(*rule->pattern(), rule->name());
    std::string name;
    auto parsed = PatternFromXml(xml, &name);
    ASSERT_TRUE(parsed.ok()) << rule->name() << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(name, rule->name());
    EXPECT_EQ((*parsed)->ToString(), rule->pattern()->ToString());
  }
}

TEST(PatternRegistryTest, CompositeCountMatchesPlaceholderArithmetic) {
  // ComposePatterns produces 2 new-root composites plus one substitution
  // per placeholder of either pattern (Section 3.2).
  auto registry = MakeDefaultRuleRegistry();
  const auto& a = registry->rule(0).pattern();   // join commutativity
  const auto& b = registry->rule(12).pattern();  // group-by push below join
  std::vector<PatternNodePtr> composites = ComposePatterns(a, b);
  EXPECT_EQ(static_cast<int>(composites.size()),
            2 + a->PlaceholderCount() + b->PlaceholderCount());
  // Every composite must still contain at least one placeholder to
  // instantiate, and be strictly larger than either input.
  for (const PatternNodePtr& c : composites) {
    EXPECT_GE(c->PlaceholderCount(), 1);
    EXPECT_GT(c->Size(), std::max(a->Size(), b->Size()) - 1);
  }
}

}  // namespace
}  // namespace qtf

// Golden search fingerprints: the observable output of every memo search
// over the paper's pipeline workloads, pinned to constants. Each case
// generates a suite (pairs over the first 6 logical rules with k=5, or
// singletons over all 30 with k=3), then runs Cost(q) for every query and
// Cost(q, ¬R) for every query × target edge of the bipartite graph. Per
// search it folds the cost (%.17g), a hash of PhysicalTreeToString,
// RuleSet(q), the memo's group and expression counts and the saturated flag
// into one digest. The generated SQL is folded in too, so the searches run
// during generation are covered as well.
//
// The constants were captured before the search kernel was optimized
// (memoized expression hashes, flat column sets, root-indexed exploration);
// the kernel may get faster, but these numbers must not move. The 4-thread
// variants run the edge searches concurrently over the same shared query
// trees and must reproduce the serial digest.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "testing/framework.h"

namespace qtf {
namespace {

struct SearchRecord {
  std::string cost;  // %.17g
  uint64_t plan_hash = 0;
  RuleIdSet rule_set;
  int groups = 0;
  int64_t exprs = 0;
  bool saturated = false;
};

/// Aggregate over one generated suite's searches.
struct Fingerprint {
  int searches = 0;
  int64_t groups = 0;
  int64_t exprs = 0;
  int saturated = 0;
  uint64_t digest = 0;

  bool operator==(const Fingerprint& other) const = default;
};

/// Renders as the initializer used in kGolden below.
void PrintTo(const Fingerprint& fp, std::ostream* os) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{%d, %" PRId64 ", %" PRId64 ", %d, 0x%016" PRIx64 "ULL}",
                fp.searches, fp.groups, fp.exprs, fp.saturated, fp.digest);
  *os << buf;
}

SearchRecord Search(Optimizer* optimizer, const Query& query,
                    const RuleIdSet& disabled) {
  OptimizerOptions options;
  options.disabled_rules = disabled;
  Result<OptimizeResult> result = optimizer->Optimize(query, options);
  SearchRecord rec;
  if (!result.ok()) {
    rec.cost = "error: " + result.status().ToString();
    return rec;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", result->cost);
  rec.cost = buf;
  rec.plan_hash = Fnv1a(PhysicalTreeToString(*result->plan, nullptr));
  rec.rule_set = result->exercised_rules;
  rec.groups = result->group_count;
  rec.exprs = result->expr_count;
  rec.saturated = result->saturated;
  return rec;
}

/// Generates the suite for (`pairs`, `seed`) and fingerprints every search
/// of its edge graph. With `threads` > 1 the searches fan out over a pool.
Fingerprint FingerprintSuite(bool pairs, uint64_t seed, int threads) {
  RuleTestFramework::Options options;
  options.threads = threads;
  auto created = RuleTestFramework::Create(std::move(options));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return {};
  RuleTestFramework& fw = **created;

  const std::vector<RuleTarget> targets =
      pairs ? fw.LogicalRulePairs(6) : fw.LogicalRuleSingletons(30);
  GenerationConfig config;
  config.method = GenerationMethod::kPattern;
  config.seed = seed;
  Result<TestSuite> suite =
      fw.suite_generator()->Generate(targets, pairs ? 5 : 3, config);
  EXPECT_TRUE(suite.ok()) << suite.status().ToString();
  if (!suite.ok()) return {};

  // Cost(q) for every query, then Cost(q, ¬R) for every edge.
  std::vector<std::pair<int, RuleIdSet>> searches;
  for (size_t q = 0; q < suite->queries.size(); ++q) {
    searches.emplace_back(static_cast<int>(q), RuleIdSet{});
  }
  for (size_t t = 0; t < suite->targets.size(); ++t) {
    const std::vector<RuleId>& rules = suite->targets[t].rules;
    for (int q : suite->CandidatesFor(static_cast<int>(t))) {
      searches.emplace_back(q, RuleIdSet(rules.begin(), rules.end()));
    }
  }

  // Every search runs the kernel: no plan-cache hits.
  PlanCacheDetachGuard cold(fw.optimizer());
  std::vector<SearchRecord> records = ParallelFor(
      fw.thread_pool(), static_cast<int>(searches.size()), [&](int i) {
        const auto& [q, disabled] = searches[static_cast<size_t>(i)];
        return Search(fw.optimizer(),
                      suite->queries[static_cast<size_t>(q)].query, disabled);
      });

  Fingerprint fp;
  for (const TestCase& test_case : suite->queries) {
    fp.digest = HashCombine(fp.digest, Fnv1a(test_case.sql));
  }
  for (size_t i = 0; i < records.size(); ++i) {
    const SearchRecord& rec = records[i];
    uint64_t h = HashCombine(static_cast<uint64_t>(searches[i].first),
                             Fnv1a(rec.cost));
    h = HashCombine(h, rec.plan_hash);
    for (RuleId id : searches[i].second) {
      h = HashCombine(h, 0xd15ab1e0ULL + static_cast<uint64_t>(id));
    }
    for (RuleId id : rec.rule_set) {
      h = HashCombine(h, static_cast<uint64_t>(id));
    }
    h = HashCombine(h, static_cast<uint64_t>(rec.groups));
    h = HashCombine(h, static_cast<uint64_t>(rec.exprs));
    h = HashCombine(h, rec.saturated ? 1 : 0);
    fp.digest = HashCombine(fp.digest, h);
    ++fp.searches;
    fp.groups += rec.groups;
    fp.exprs += rec.exprs;
    fp.saturated += rec.saturated ? 1 : 0;
  }
  return fp;
}

struct GoldenCase {
  bool pairs;
  uint64_t seed;
  Fingerprint expected;
};

const GoldenCase kGolden[] = {
    {true, 1, {695, 19131, 149449, 61, 0xde97f3a8ebe96fb7ULL}},
    {true, 2, {668, 19483, 178157, 79, 0x172ecaf0dceccc07ULL}},
    {true, 3, {709, 20187, 168786, 88, 0x74eb772420dd8138ULL}},
    {false, 1, {398, 2787, 7706, 0, 0x70f7c739d0f254c2ULL}},
    {false, 2, {391, 2321, 4874, 0, 0x602f34fcc8a3208bULL}},
    {false, 3, {401, 2479, 6459, 0, 0x0400ef9b2f9c098fULL}},
    {false, 4, {396, 2512, 6675, 0, 0x1456008caf2ef356ULL}},
    {false, 5, {387, 2457, 6993, 0, 0x236e33f68bbec4f0ULL}},
    {false, 6, {391, 2437, 6017, 0, 0x010e6691fb14471fULL}},
};

void CheckGolden(bool pairs, int threads, bool first_seed_only) {
  for (const GoldenCase& golden : kGolden) {
    if (golden.pairs != pairs) continue;
    Fingerprint got = FingerprintSuite(pairs, golden.seed, threads);
    EXPECT_EQ(got, golden.expected)
        << (pairs ? "pairs" : "singletons") << " seed " << golden.seed
        << " threads " << threads;
    if (first_seed_only) break;
  }
}

TEST(SearchGolden, PairsSerial) { CheckGolden(true, 1, false); }

TEST(SearchGolden, SingletonsSerial) { CheckGolden(false, 1, false); }

// Searches on four threads share the suite's query trees (and so their
// expression nodes and cached hashes); the digests must not move.
TEST(SearchGolden, PairsParallel4) { CheckGolden(true, 4, true); }

TEST(SearchGolden, SingletonsParallel4) { CheckGolden(false, 4, true); }

}  // namespace
}  // namespace qtf

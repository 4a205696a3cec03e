#ifndef QTF_LOGICAL_INTERNER_H_
#define QTF_LOGICAL_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "logical/ops.h"

namespace qtf {

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

/// Hash-consing interner for logical operator trees.
///
/// Intern() maps every structurally-distinct subtree to one canonical
/// shared immutable instance, so repeated constructions of the same
/// logical shape — rule outputs re-deriving a parent over shared children,
/// generators emitting near-duplicate queries, the compression layer
/// optimizing thousands of sibling trees — collapse to pointer-shared
/// nodes. Canonical nodes carry their fingerprint and subtree size caches
/// (filled at intern time), and Equal() compares two canonical trees in
/// O(1) by pointer identity.
///
/// Invariants (see docs/architecture.md):
///  - Interned nodes are immutable and always held by shared_ptr; the
///    table stores weak references and never extends a node's lifetime.
///  - Intern() is purely structural: the returned tree is
///    LogicalTreeEquals-identical to its input, so optimizer results are
///    bit-for-bit unchanged whether or not trees are interned first.
///  - GroupRef leaves are memo-scoped (they borrow the memo's LogicalProps
///    and group ids); any tree containing one is returned untouched and
///    never enters the shared table.
///
/// Thread-safe: the table is sharded by fingerprint, each shard behind its
/// own mutex; node-side caches are atomics. Aggregate hit/miss counts are
/// schedule-independent for a fixed multiset of Intern() calls, so serial
/// and parallel runs over the same work agree on results (and tests only
/// pin counter values in serial sections).
class NodeInterner {
 public:
  NodeInterner();
  ~NodeInterner();

  NodeInterner(const NodeInterner&) = delete;
  NodeInterner& operator=(const NodeInterner&) = delete;

  /// Canonicalizes `node` bottom-up. Returns the canonical instance for
  /// its structure — `node` itself if it is first to claim the structure
  /// or already canonical, an existing pointer-shared instance otherwise.
  /// Null and GroupRef-containing trees pass through unchanged.
  LogicalOpPtr Intern(const LogicalOpPtr& node);

  /// O(1)-biased structural equality. Pointer-equal trees are equal; two
  /// distinct roots both canonical in this interner's current epoch are
  /// unequal; anything else falls back to LogicalTreeEquals (which itself
  /// short-circuits on cached fingerprints).
  bool Equal(const LogicalOpPtr& a, const LogicalOpPtr& b) const;

  /// True iff `node` is the canonical instance of its structure in this
  /// interner's current epoch.
  bool IsCanonical(const LogicalOpPtr& node) const;

  /// Drops every table entry and starts a new epoch: previously-interned
  /// nodes stay valid but are no longer treated as canonical.
  void Clear();

  /// Number of nodes whose structure was already interned (fast-path and
  /// table lookups included) / number of nodes newly inserted.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Live canonical entries across all shards (expired entries that have
  /// not been swept yet are counted until the next sweep touches them).
  size_t size() const;

  /// Mirrors hit/miss/size into `qtf.interner.{hits,misses,size}`. Pass
  /// nullptr to detach. Counters are cumulative from attach time.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  struct Shard;

  LogicalOpPtr InternNode(const LogicalOpPtr& node);

  static constexpr size_t kShardCount = 16;
  std::unique_ptr<Shard[]> shards_;

  // Current epoch id, stored in each canonical node's interner_tag.
  // Replaced (never reused — see NewEpochId) by Clear().
  std::atomic<uint64_t> epoch_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};

  std::atomic<obs::Counter*> hits_counter_{nullptr};
  std::atomic<obs::Counter*> misses_counter_{nullptr};
  std::atomic<obs::Gauge*> size_gauge_{nullptr};
};

}  // namespace qtf

#endif  // QTF_LOGICAL_INTERNER_H_

#include "logical/interner.h"

#include <atomic>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace qtf {

namespace {

/// Epoch ids come from one process-wide counter and are never reused: a
/// node may outlive the interner that tagged it, and if its id were
/// recycled for a later epoch (possibly of a different interner), the
/// stale tag would masquerade as canonical there. 0 means "untagged", so
/// ids start at 1; 2^64 epochs do not run out.
uint64_t NewEpochId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

struct NodeInterner::Shard {
  std::mutex mu;
  // fingerprint -> weak canonical node. Weak so the table never extends a
  // node's lifetime; expired entries are pruned during bucket scans and by
  // the size-triggered sweep below.
  std::unordered_multimap<uint64_t, std::weak_ptr<const LogicalOp>> table;
  size_t sweep_threshold = 256;
};

NodeInterner::NodeInterner()
    : shards_(new Shard[kShardCount]), epoch_(NewEpochId()) {}

NodeInterner::~NodeInterner() = default;

LogicalOpPtr NodeInterner::Intern(const LogicalOpPtr& node) {
  if (node == nullptr) return node;
  return InternNode(node);
}

LogicalOpPtr NodeInterner::InternNode(const LogicalOpPtr& node) {
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (node->interner_tag() == epoch) {
    // Already the canonical instance for this epoch.
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (auto* c = hits_counter_.load(std::memory_order_relaxed)) {
      c->Increment();
    }
    return node;
  }
  // GroupRef leaves borrow memo-scoped state (group ids and a LogicalProps
  // pointer owned by one search's memo); sharing them across searches
  // would alias unrelated groups. Leave such trees untouched and untagged.
  if (node->kind() == LogicalOpKind::kGroupRef) return node;

  std::vector<LogicalOpPtr> canonical_children;
  canonical_children.reserve(node->children().size());
  bool changed = false;
  for (const LogicalOpPtr& child : node->children()) {
    LogicalOpPtr canonical = InternNode(child);
    // A child that stayed untagged contains a GroupRef somewhere below:
    // propagate the pass-through without rebuilding or tagging.
    if (canonical->interner_tag() != epoch) return node;
    changed = changed || canonical.get() != child.get();
    canonical_children.push_back(std::move(canonical));
  }

  LogicalOpPtr candidate =
      changed ? node->WithNewChildren(std::move(canonical_children)) : node;
  // Fill both per-node caches (memoized into the node's atomics) so every
  // later TreeFingerprint/CountOps on a canonical tree is O(1).
  CountOps(*candidate);
  const uint64_t fp = TreeFingerprint(*candidate);
  Shard& shard = shards_[fp % kShardCount];

  std::lock_guard<std::mutex> lock(shard.mu);
  auto range = shard.table.equal_range(fp);
  for (auto it = range.first; it != range.second;) {
    LogicalOpPtr existing = it->second.lock();
    if (existing == nullptr) {
      it = shard.table.erase(it);
      continue;
    }
    // Children on both sides are canonical for this epoch, so structural
    // equality of the whole node reduces to LocalEquals plus child
    // pointer identity.
    bool same = existing->LocalEquals(*candidate) &&
                existing->children().size() == candidate->children().size();
    for (size_t i = 0; same && i < candidate->children().size(); ++i) {
      same = existing->children()[i].get() == candidate->children()[i].get();
    }
    if (same) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (auto* c = hits_counter_.load(std::memory_order_relaxed)) {
        c->Increment();
      }
      return existing;
    }
    ++it;
  }

  shard.table.emplace(fp, candidate);
  candidate->interner_tag_.store(epoch, std::memory_order_release);
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (auto* c = misses_counter_.load(std::memory_order_relaxed)) {
    c->Increment();
  }
  if (auto* g = size_gauge_.load(std::memory_order_relaxed)) g->Add(1);

  if (shard.table.size() >= shard.sweep_threshold) {
    size_t removed = 0;
    for (auto it = shard.table.begin(); it != shard.table.end();) {
      if (it->second.expired()) {
        it = shard.table.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    shard.sweep_threshold =
        shard.table.size() * 2 < 256 ? 256 : shard.table.size() * 2;
    if (removed > 0) {
      if (auto* g = size_gauge_.load(std::memory_order_relaxed)) {
        g->Add(-static_cast<int64_t>(removed));
      }
    }
  }
  return candidate;
}

bool NodeInterner::Equal(const LogicalOpPtr& a, const LogicalOpPtr& b) const {
  if (a.get() == b.get()) return true;
  if (a == nullptr || b == nullptr) return false;
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (a->interner_tag() == epoch && b->interner_tag() == epoch) {
    // Two distinct canonical instances cannot share a structure.
    return false;
  }
  return LogicalTreeEquals(*a, *b);
}

bool NodeInterner::IsCanonical(const LogicalOpPtr& node) const {
  return node != nullptr &&
         node->interner_tag() == epoch_.load(std::memory_order_acquire);
}

void NodeInterner::Clear() {
  for (size_t i = 0; i < kShardCount; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    shards_[i].table.clear();
    shards_[i].sweep_threshold = 256;
  }
  epoch_.store(NewEpochId(), std::memory_order_release);
  if (auto* g = size_gauge_.load(std::memory_order_relaxed)) g->Set(0);
}

size_t NodeInterner::size() const {
  size_t total = 0;
  for (size_t i = 0; i < kShardCount; ++i) {
    std::lock_guard<std::mutex> lock(shards_[i].mu);
    total += shards_[i].table.size();
  }
  return total;
}

void NodeInterner::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    hits_counter_.store(nullptr, std::memory_order_relaxed);
    misses_counter_.store(nullptr, std::memory_order_relaxed);
    size_gauge_.store(nullptr, std::memory_order_relaxed);
    return;
  }
  obs::Gauge* gauge = metrics->gauge("qtf.interner.size");
  gauge->Set(static_cast<int64_t>(size()));
  hits_counter_.store(metrics->counter("qtf.interner.hits"),
                      std::memory_order_relaxed);
  misses_counter_.store(metrics->counter("qtf.interner.misses"),
                        std::memory_order_relaxed);
  size_gauge_.store(gauge, std::memory_order_relaxed);
}

}  // namespace qtf

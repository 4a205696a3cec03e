#ifndef QTF_EXPR_COLUMN_SET_H_
#define QTF_EXPR_COLUMN_SET_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "expr/expr.h"

namespace qtf {

/// Set of column ids, used throughout the optimizer for property reasoning.
///
/// Stored as a sorted vector without duplicates: column sets hold a handful
/// of ids and are built, copied and probed far more often than they are
/// edited, so one contiguous buffer beats a node allocation per id. The
/// interface is the part of std::set's the code base uses, with the same
/// ascending iteration order and the same lexicographic ordering between
/// sets.
class ColumnSet {
 public:
  using value_type = ColumnId;
  using key_type = ColumnId;
  using size_type = size_t;
  using const_iterator = std::vector<ColumnId>::const_iterator;
  using iterator = const_iterator;

  ColumnSet() = default;
  ColumnSet(std::initializer_list<ColumnId> ids)
      : ColumnSet(ids.begin(), ids.end()) {}
  template <typename It>
  ColumnSet(It first, It last) : ids_(first, last) {
    Normalize();
  }

  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  void clear() { ids_.clear(); }

  std::pair<iterator, bool> insert(ColumnId id) {
    // Sets are mostly filled from output-column lists, which ascend within
    // each base table: appending is the common case.
    if (ids_.empty() || ids_.back() < id) {
      ids_.push_back(id);
      return {ids_.end() - 1, true};
    }
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it != ids_.end() && *it == id) return {it, false};
    return {ids_.insert(it, id), true};
  }
  template <typename It>
  void insert(It first, It last) {
    ids_.insert(ids_.end(), first, last);
    Normalize();
  }

  size_t erase(ColumnId id) {
    auto it = find(id);
    if (it == end()) return 0;
    ids_.erase(it);
    return 1;
  }
  iterator erase(iterator pos) { return ids_.erase(pos); }

  iterator find(ColumnId id) const {
    auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    return it != ids_.end() && *it == id ? it : ids_.end();
  }
  bool contains(ColumnId id) const {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }
  size_t count(ColumnId id) const { return contains(id) ? 1 : 0; }

  friend bool operator==(const ColumnSet& a, const ColumnSet& b) = default;
  friend std::strong_ordering operator<=>(const ColumnSet& a,
                                          const ColumnSet& b) {
    return a.ids_ <=> b.ids_;
  }

 private:
  void Normalize() {
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }

  std::vector<ColumnId> ids_;
};

}  // namespace qtf

#endif  // QTF_EXPR_COLUMN_SET_H_

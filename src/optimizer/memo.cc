#include "optimizer/memo.h"

#include <algorithm>

namespace qtf {

LogicalOpPtr Memo::MakeGroupRef(int group_id) const {
  const Group& g = group(group_id);
  // One shared leaf per group (memo-local hash-consing): bound trees built
  // during exploration all point at the same GroupRef instance instead of
  // allocating a fresh one per bind. Safe because Group objects (and so
  // their props) are stable behind unique_ptr for the memo's lifetime.
  if (group_ref_cache_.size() < groups_.size()) {
    group_ref_cache_.resize(groups_.size());
  }
  LogicalOpPtr& slot = group_ref_cache_[static_cast<size_t>(group_id)];
  if (slot == nullptr) {
    slot = std::make_shared<GroupRefOp>(group_id, &g.props);
  }
  return slot;
}

int Memo::NewGroup(LogicalProps props) {
  auto g = std::make_unique<Group>();
  g->id = group_count();
  g->props = std::move(props);
  groups_.push_back(std::move(g));
  return groups_.back()->id;
}

int Memo::InsertTree(const LogicalOp& op) {
  if (op.kind() == LogicalOpKind::kGroupRef) {
    return static_cast<const GroupRefOp&>(op).group_id();
  }
  std::vector<int> child_groups;
  child_groups.reserve(op.children().size());
  for (const LogicalOpPtr& child : op.children()) {
    child_groups.push_back(InsertTree(*child));
  }
  return InsertNormalized(op, child_groups, /*bound_hint=*/nullptr,
                          /*target_group=*/-1)
      .first;
}

std::pair<int, bool> Memo::Insert(const LogicalOpPtr& op, int target_group) {
  QTF_CHECK(op != nullptr);
  if (op->kind() == LogicalOpKind::kGroupRef) {
    // Degenerate rule output: the whole expression is an existing group.
    return {static_cast<const GroupRefOp&>(*op).group_id(), false};
  }
  // Normalize children to group ids (recursively inserting new subtrees).
  std::vector<int> child_groups;
  child_groups.reserve(op->children().size());
  bool all_refs = true;
  for (const LogicalOpPtr& child : op->children()) {
    if (child->kind() == LogicalOpKind::kGroupRef) {
      child_groups.push_back(static_cast<const GroupRefOp&>(*child).group_id());
    } else {
      child_groups.push_back(InsertTree(*child));
      all_refs = false;
    }
  }
  // When the expression is already in bound form (every child a GroupRef —
  // the common case for rule outputs built over bound inputs), it can be
  // stored as-is instead of being cloned.
  return InsertNormalized(*op, child_groups, all_refs ? &op : nullptr,
                          target_group);
}

std::pair<int, bool> Memo::InsertNormalized(const LogicalOp& op,
                                            const std::vector<int>& child_groups,
                                            const LogicalOpPtr* bound_hint,
                                            int target_group) {
  // Dedup before materializing: LocalHash/LocalEquals exclude children, so
  // the signature lookup works on `op` directly and duplicate insertions
  // (the overwhelming majority once exploration converges) never pay for a
  // WithNewChildren clone.
  const size_t local_hash = op.LocalHash();
  auto [begin, end] =
      signature_index_.equal_range(SignatureRef{local_hash, child_groups});
  for (auto it = begin; it != end; ++it) {
    const auto& [g, idx] = it->second;
    const GroupExpr& existing = *group(g).exprs[static_cast<size_t>(idx)];
    if (existing.op->LocalEquals(op) &&
        existing.child_groups == child_groups) {
      // Known expression. If it already lives in the target group (or no
      // target), nothing to do.
      if (target_group < 0 || g == target_group) return {g, false};
      // Expression known in another group: fall through and also add it to
      // the target group (group merging is intentionally not implemented;
      // see DESIGN.md). Per-group dedup below prevents duplicates.
      break;
    }
  }

  LogicalOpPtr bound;
  if (bound_hint != nullptr) {
    bound = *bound_hint;
  } else {
    std::vector<LogicalOpPtr> ref_children;
    ref_children.reserve(child_groups.size());
    for (int cg : child_groups) ref_children.push_back(MakeGroupRef(cg));
    bound = op.WithNewChildren(std::move(ref_children));
  }

  int g = target_group;
  if (g < 0) {
    // Derive properties for a fresh group from this expression.
    std::vector<const LogicalProps*> child_props;
    child_props.reserve(child_groups.size());
    for (int cg : child_groups) child_props.push_back(&group(cg).props);
    g = NewGroup(DeriveProps(*bound, child_props));
  }

  Group& grp = group(g);
  // Per-group dedup.
  for (const auto& existing : grp.exprs) {
    if (existing->op->LocalEquals(*bound) &&
        existing->child_groups == child_groups) {
      return {g, false};
    }
  }
  if (expr_count_ >= kMaxTotalExprs ||
      static_cast<int>(grp.exprs.size()) >= kMaxGroupExprs) {
    saturated_ = true;
    return {g, false};
  }

  auto expr = std::make_unique<GroupExpr>();
  expr->op = bound;
  expr->child_groups = child_groups;
  expr->applied_version.assign(static_cast<size_t>(rule_count_), -1);
  grp.exprs.push_back(std::move(expr));
  ++expr_count_;
  signature_index_.emplace(
      Signature{local_hash, child_groups},
      std::make_pair(g, static_cast<int>(grp.exprs.size()) - 1));
  return {g, true};
}

namespace {

void CrossProduct(
    const std::vector<std::vector<LogicalOpPtr>>& options, size_t index,
    std::vector<LogicalOpPtr>* current,
    const LogicalOpPtr& op, std::vector<LogicalOpPtr>* out, int max_bindings) {
  if (static_cast<int>(out->size()) >= max_bindings) return;
  if (index == options.size()) {
    // When every chosen child is the expression's own stored child (true
    // for any single-level pattern, whose non-root positions are all
    // placeholders), the binding IS the stored expression: share it
    // instead of cloning a structurally-identical copy.
    bool same = current->size() == op->children().size();
    for (size_t i = 0; same && i < current->size(); ++i) {
      same = (*current)[i].get() == op->children()[i].get();
    }
    out->push_back(same ? op : op->WithNewChildren(*current));
    return;
  }
  for (const LogicalOpPtr& option : options[index]) {
    current->push_back(option);
    CrossProduct(options, index + 1, current, op, out, max_bindings);
    current->pop_back();
    if (static_cast<int>(out->size()) >= max_bindings) return;
  }
}

}  // namespace

std::vector<LogicalOpPtr> Memo::BindPattern(const GroupExpr& expr,
                                            const PatternNode& pattern) const {
  if (!MatchesPatternRoot(*expr.op, pattern)) return {};
  // Placeholders alone below the root (or a placeholder root): the only
  // binding is the stored expression itself, as CrossProduct would find.
  if (std::all_of(pattern.children().begin(), pattern.children().end(),
                  [](const PatternNodePtr& child) {
                    return child->type() == PatternNode::Type::kAny;
                  })) {
    return {expr.op};
  }
  std::vector<LogicalOpPtr> out;
  std::vector<std::vector<LogicalOpPtr>> options(pattern.children().size());
  for (size_t i = 0; i < pattern.children().size(); ++i) {
    const PatternNode& child_pattern = *pattern.children()[i];
    int child_group = expr.child_groups[i];
    if (child_pattern.type() == PatternNode::Type::kAny) {
      // Reuse the stored GroupRef leaf.
      options[i].push_back(expr.op->children()[i]);
    } else {
      const Group& cg = group(child_group);
      for (const auto& child_expr : cg.exprs) {
        // Most of a group's expressions fail at the root; reject them
        // before paying for the recursive call and its result vector.
        if (!MatchesPatternRoot(*child_expr->op, child_pattern)) continue;
        std::vector<LogicalOpPtr> sub = BindPattern(*child_expr, child_pattern);
        options[i].insert(options[i].end(), sub.begin(), sub.end());
        if (static_cast<int>(options[i].size()) >= kMaxBindings) break;
      }
    }
    if (options[i].empty()) return {};
  }
  std::vector<LogicalOpPtr> current;
  CrossProduct(options, 0, &current, expr.op, &out, kMaxBindings);
  return out;
}

}  // namespace qtf

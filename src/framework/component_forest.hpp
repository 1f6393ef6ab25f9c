// Conflict-component forest: the per-group connected components of the
// instance conflict graph, for every group of a layered plan at once.
//
// A group's partition into conflict-disjoint components (no raise in
// one component can touch the LHS of another's members) depends only on
// static data — the Problem's paths/demands, the plan's group
// assignment and the active mask — never on the dual state.  build()
// computes it in one way: per group, a walk over the active members'
// paths that chains each edge's (and each demand's) members into a
// union-find.  The result is stored flat (two-level CSR: group ->
// components -> members).
//
// Determinism contract (tests/test_component_forest.cpp enforces it
// with == against an independent BFS):
//  * components of a group are ordered by their smallest member *rank*
//    (rank = position among the group's active members in plan order) —
//    exactly the order a min-root union-find over the ranks emits;
//  * members within a component are in ascending rank;
//  * so the layout is a function of (plan, active mask) alone.
//
// Users: the online scheduler (online/online_scheduler.hpp) keeps one
// forest per height class, rebuilt by build() after every event batch,
// and keys its warm-start caches on the components; the benchmark's
// solve-tree workload builds one to report the component count and the
// largest component's share.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "decomp/layered.hpp"
#include "model/problem.hpp"

namespace treesched {

class ComponentForest {
 public:
  ComponentForest() = default;

  // Builds the forest over the instances with active_mask[i] != 0,
  // replacing whatever an earlier call built.  active_mask is indexed by
  // instance id and must cover the problem.
  void build(const Problem& problem, const LayeredPlan& plan,
             const std::vector<char>& active_mask);

  int num_groups() const { return num_groups_; }
  int total_components() const {
    return static_cast<int>(comp_member_begin_.size()) - 1;
  }
  int components_in_group(int g) const {
    return group_first_comp_[static_cast<std::size_t>(g) + 1] -
           group_first_comp_[static_cast<std::size_t>(g)];
  }
  // Members of component c of group g, ascending rank order.
  std::span<const InstanceId> component_ids(int g, int c) const {
    const int comp = group_first_comp_[static_cast<std::size_t>(g)] + c;
    return {member_ids_.data() + comp_member_begin_[comp],
            static_cast<std::size_t>(comp_member_begin_[comp + 1] -
                                     comp_member_begin_[comp])};
  }
  // Global (cross-group) component id of an active member, -1 for
  // inactive ids.  Stable only until the next build().
  int component_of(InstanceId i) const {
    return comp_of_member_[static_cast<std::size_t>(i)];
  }
  // Members of a component by its global id, ascending rank order.
  std::span<const InstanceId> component_members(int comp) const {
    const auto c = static_cast<std::size_t>(comp);
    return {member_ids_.data() + comp_member_begin_[c],
            static_cast<std::size_t>(comp_member_begin_[c + 1] -
                                     comp_member_begin_[c])};
  }

 private:
  int find(int x);

  int num_groups_ = 0;
  // Union-find over instance ids (-1 = inactive), roots canonicalized to
  // the smallest member id; scratch reused across build() calls.
  std::vector<int> parent_;
  // Per-edge / per-demand chain scratch for the path walk: last active
  // member seen, stamped per group so no clearing is needed.
  std::vector<int> edge_last_, edge_stamp_, demand_last_, demand_stamp_;
  // Root -> dense component id, stamped per group.
  std::vector<int> comp_of_root_, root_stamp_;
  // Member id -> global component id (-1 inactive); what the online
  // scheduler's row splitting keys on.
  std::vector<int> comp_of_member_;

  // The flat forest: group g owns components
  // [group_first_comp_[g], group_first_comp_[g+1]); component c owns
  // members [comp_member_begin_[c], comp_member_begin_[c+1]) of
  // member_ids_.
  std::vector<int> group_first_comp_;
  std::vector<std::int64_t> comp_member_begin_;
  std::vector<InstanceId> member_ids_;
};

}  // namespace treesched

#include "framework/component_forest.hpp"

#include "obs/trace.hpp"

namespace treesched {

int ComponentForest::find(int x) {
  // Path halving; roots are canonicalized to the smallest id by unite
  // below, so find(i) of any member returns the component's minimum
  // active instance id.
  while (parent_[static_cast<std::size_t>(x)] != x) {
    parent_[static_cast<std::size_t>(x)] =
        parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
    x = parent_[static_cast<std::size_t>(x)];
  }
  return x;
}

void ComponentForest::build(const Problem& problem, const LayeredPlan& plan,
                            const std::vector<char>& active_mask) {
  TRACE_SPAN1("forest", "build", "instances", problem.num_instances());
  TS_REQUIRE(problem.finalized());
  const int n = problem.num_instances();
  TS_REQUIRE(plan.group.size() == static_cast<std::size_t>(n));
  TS_REQUIRE(active_mask.size() == static_cast<std::size_t>(n));
  num_groups_ = plan.num_groups;

  parent_.assign(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i)
    if (active_mask[static_cast<std::size_t>(i)]) parent_[static_cast<std::size_t>(i)] = i;

  const auto unite = [&](int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Smaller id becomes the root: the canonical representative every
    // derived ordering below keys on.
    if (a < b)
      parent_[static_cast<std::size_t>(b)] = a;
    else
      parent_[static_cast<std::size_t>(a)] = b;
  };

  // Walk the active members' paths, group by group: each member is
  // united with the previous member of its group seen on the same edge
  // or demand.  Conflicts only matter *within* a group (an epoch
  // processes one group), so the chain scratch is stamped per group and
  // never needs clearing.
  edge_last_.assign(static_cast<std::size_t>(problem.num_global_edges()), -1);
  edge_stamp_.assign(edge_last_.size(), 0);
  demand_last_.assign(static_cast<std::size_t>(problem.num_demands()), -1);
  demand_stamp_.assign(demand_last_.size(), 0);
  for (int g = 0; g < num_groups_; ++g) {
    const int stamp = g + 1;
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)]) {
      if (!active_mask[static_cast<std::size_t>(i)]) continue;
      const DemandInstance& inst = problem.instance(i);
      const auto d = static_cast<std::size_t>(inst.demand);
      if (demand_stamp_[d] == stamp) unite(i, demand_last_[d]);
      demand_stamp_[d] = stamp;
      demand_last_[d] = i;
      for (EdgeId e : inst.edges) {
        const auto ge = static_cast<std::size_t>(e);
        if (edge_stamp_[ge] == stamp) unite(i, edge_last_[ge]);
        edge_stamp_[ge] = stamp;
        edge_last_[ge] = i;
      }
    }
  }

  // Flatten per group: components ordered by first member rank, members
  // in ascending rank.  Two passes over the plan's member lists: count
  // component sizes, then fill with cursors.
  comp_of_root_.assign(static_cast<std::size_t>(n), -1);
  root_stamp_.assign(static_cast<std::size_t>(n), -1);
  group_first_comp_.assign(static_cast<std::size_t>(num_groups_) + 1, 0);
  std::vector<std::int64_t> comp_size;
  for (int g = 0; g < num_groups_; ++g) {
    int comps_here = 0;
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)]) {
      if (!active_mask[static_cast<std::size_t>(i)]) continue;
      const auto root = static_cast<std::size_t>(find(i));
      if (root_stamp_[root] != g) {
        root_stamp_[root] = g;
        comp_of_root_[root] =
            group_first_comp_[static_cast<std::size_t>(g)] + comps_here;
        ++comps_here;
        comp_size.push_back(0);
      }
      ++comp_size[static_cast<std::size_t>(comp_of_root_[root])];
    }
    group_first_comp_[static_cast<std::size_t>(g) + 1] =
        group_first_comp_[static_cast<std::size_t>(g)] + comps_here;
  }

  const int total_comps = group_first_comp_[static_cast<std::size_t>(num_groups_)];
  comp_member_begin_.assign(static_cast<std::size_t>(total_comps) + 1, 0);
  for (int c = 0; c < total_comps; ++c)
    comp_member_begin_[static_cast<std::size_t>(c) + 1] =
        comp_member_begin_[static_cast<std::size_t>(c)] +
        comp_size[static_cast<std::size_t>(c)];
  member_ids_.resize(static_cast<std::size_t>(comp_member_begin_.back()));

  std::vector<std::int64_t> cursor(comp_member_begin_.begin(),
                                   comp_member_begin_.end() - 1);
  comp_of_member_.assign(static_cast<std::size_t>(n), -1);
  for (int g = 0; g < num_groups_; ++g) {
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)]) {
      if (!active_mask[static_cast<std::size_t>(i)]) continue;
      const int c = comp_of_root_[static_cast<std::size_t>(find(i))];
      member_ids_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(c)]++)] = i;
      comp_of_member_[static_cast<std::size_t>(i)] = c;
    }
  }
}

}  // namespace treesched

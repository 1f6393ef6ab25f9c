// ComponentForest correctness: the forest must partition every group's
// active members into exactly the connected components of the conflict
// graph restricted to the group — checked with == against an
// independent BFS over Problem::conflicting — in its deterministic
// order (components by first member rank, members rank-ascending), and
// component_of must name, for every active id, the global component
// that lists it (-1 for inactive ids).  Full and restricted masks, tree
// and line plans.
#include "framework/component_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "decomp/layered.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::small_line_problem;
using testutil::small_tree_problem;

// Independent reference partition of one group: BFS over the conflict
// relation restricted to the group's active members, components emitted
// in first-member-rank order, members in rank order.
std::vector<std::vector<InstanceId>> bfs_components(
    const Problem& p, const LayeredPlan& plan,
    const std::vector<char>& active, int group) {
  std::vector<InstanceId> members;
  for (InstanceId i : plan.members[static_cast<std::size_t>(group)])
    if (active[static_cast<std::size_t>(i)]) members.push_back(i);
  const int m = static_cast<int>(members.size());
  std::vector<char> visited(static_cast<std::size_t>(m), 0);
  std::vector<std::vector<InstanceId>> comps;
  for (int r = 0; r < m; ++r) {
    if (visited[static_cast<std::size_t>(r)]) continue;
    std::vector<int> frontier{r};
    visited[static_cast<std::size_t>(r)] = 1;
    std::vector<char> in_comp(static_cast<std::size_t>(m), 0);
    in_comp[static_cast<std::size_t>(r)] = 1;
    while (!frontier.empty()) {
      const int a = frontier.back();
      frontier.pop_back();
      for (int b = 0; b < m; ++b) {
        if (visited[static_cast<std::size_t>(b)]) continue;
        if (!p.conflicting(members[static_cast<std::size_t>(a)],
                           members[static_cast<std::size_t>(b)]))
          continue;
        visited[static_cast<std::size_t>(b)] = 1;
        in_comp[static_cast<std::size_t>(b)] = 1;
        frontier.push_back(b);
      }
    }
    std::vector<InstanceId> comp;
    for (int b = 0; b < m; ++b)
      if (in_comp[static_cast<std::size_t>(b)])
        comp.push_back(members[static_cast<std::size_t>(b)]);
    comps.push_back(std::move(comp));
  }
  return comps;
}

void expect_forest_matches_reference(const Problem& p,
                                     const LayeredPlan& plan,
                                     const std::vector<char>& active,
                                     const std::string& what) {
  ComponentForest forest;
  forest.build(p, plan, active);
  ASSERT_EQ(forest.num_groups(), plan.num_groups) << what;
  std::vector<int> rank(active.size(), -1);
  for (int g = 0; g < plan.num_groups; ++g) {
    const auto ref = bfs_components(p, plan, active, g);
    ASSERT_EQ(static_cast<std::size_t>(forest.components_in_group(g)),
              ref.size())
        << what << " group " << g;
    // Rank: a member's position among the group's active members.
    int active_members = 0;
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)])
      if (active[static_cast<std::size_t>(i)])
        rank[static_cast<std::size_t>(i)] = active_members++;
    int placed = 0;
    for (std::size_t c = 0; c < ref.size(); ++c) {
      const auto ids = forest.component_ids(g, static_cast<int>(c));
      const std::vector<InstanceId> got(ids.begin(), ids.end());
      EXPECT_EQ(got, ref[c]) << what << " group " << g << " comp " << c;
      // Members come in ascending rank within the component.
      for (std::size_t k = 1; k < ids.size(); ++k)
        EXPECT_LT(rank[static_cast<std::size_t>(ids[k - 1])],
                  rank[static_cast<std::size_t>(ids[k])])
            << what;
      placed += static_cast<int>(ids.size());
    }
    // Every active member appears exactly once across the components.
    EXPECT_EQ(placed, active_members) << what << " group " << g;
  }
  // component_of: -1 exactly for inactive ids, otherwise the global
  // index of the one component that lists the id.
  for (InstanceId i = 0; i < static_cast<InstanceId>(active.size()); ++i) {
    const int c = forest.component_of(i);
    if (!active[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(c, -1) << what << " inactive id " << i;
      continue;
    }
    ASSERT_GE(c, 0) << what << " active id " << i;
    ASSERT_LT(c, forest.total_components()) << what << " id " << i;
    const auto ids = forest.component_members(c);
    EXPECT_NE(std::find(ids.begin(), ids.end(), i), ids.end())
        << what << " id " << i << " comp " << c;
  }
}

TEST(ComponentForest, MatchesBfsReferenceOnTreesAndLines) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem tree = small_tree_problem(seed + 500, 32, 2, 18);
    for (const DecompKind kind :
         {DecompKind::kIdeal, DecompKind::kRootFixing}) {
      const LayeredPlan plan = build_tree_layered_plan(tree, kind);
      std::vector<char> all(static_cast<std::size_t>(tree.num_instances()),
                            1);
      expect_forest_matches_reference(
          tree, plan, all,
          "tree seed=" + std::to_string(seed) + " " + to_string(kind));
      // Restricted mask: every other instance (the wide/narrow regime's
      // shape — the forest must partition the *active* subset only).
      std::vector<char> evens(all.size(), 0);
      for (std::size_t i = 0; i < evens.size(); i += 2) evens[i] = 1;
      expect_forest_matches_reference(
          tree, plan, evens,
          "tree-evens seed=" + std::to_string(seed) + " " +
              to_string(kind));
    }
    const Problem line = small_line_problem(seed + 70, 28, 2, 9);
    const LayeredPlan plan = build_line_layered_plan(line);
    std::vector<char> all(static_cast<std::size_t>(line.num_instances()), 1);
    expect_forest_matches_reference(line, plan, all,
                                    "line seed=" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace treesched

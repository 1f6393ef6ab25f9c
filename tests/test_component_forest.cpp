// ComponentForest correctness and forest-vs-reference engine parity.
//
// The persistent forest must partition every group's active members
// into exactly the connected components of the conflict graph restricted
// to the group — checked against an independent BFS over
// Problem::conflicting — with its deterministic ordering (components by
// first member rank, members rank-ascending).  The suite also holds the
// engine to outputs bit-identical to the central reference
// (tests/support/central_reference.hpp) on component-rich inputs: raise
// stacks, selected sets and lambda are compared with ==, across threads
// in {1, 4} and both tree decompositions, for the deterministic greedy
// oracle AND the randomized LubyMis.
#include "framework/component_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "decomp/layered.hpp"
#include "dist/luby_mis.hpp"
#include "framework/two_phase.hpp"
#include "support/central_reference.hpp"
#include "test_util.hpp"
#include "workload/scenario.hpp"

namespace treesched {
namespace {

using testutil::require_feasible;
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
  ASSERT_TRUE(forest.built()) << what;
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

// Field-by-field exact comparison of two engine runs.
void expect_same_run(const SolveResult& a, const SolveResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.solution.selected, b.solution.selected) << what;
  EXPECT_EQ(a.raise_stack, b.raise_stack) << what;
  EXPECT_EQ(a.stats.epochs, b.stats.epochs) << what;
  EXPECT_EQ(a.stats.stages, b.stats.stages) << what;
  EXPECT_EQ(a.stats.steps, b.stats.steps) << what;
  EXPECT_EQ(a.stats.raises, b.stats.raises) << what;
  EXPECT_EQ(a.stats.mis_rounds, b.stats.mis_rounds) << what;
  EXPECT_EQ(a.stats.comm_rounds, b.stats.comm_rounds) << what;
  // Doubles with ==: bit-identical, not merely close.
  EXPECT_EQ(a.stats.dual_objective, b.stats.dual_objective) << what;
  EXPECT_EQ(a.stats.lambda_observed, b.stats.lambda_observed) << what;
  EXPECT_EQ(a.stats.profit, b.stats.profit) << what;
  EXPECT_EQ(a.stats.lockstep_ok, b.stats.lockstep_ok) << what;
  EXPECT_EQ(a.stats.mis_ok, b.stats.mis_ok) << what;
}

TEST(ComponentForest, ForestVsReferenceBitIdenticalGreedy) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Problem p = small_tree_problem(seed + 600, 36, 2, 20,
                                         seed % 2 ? HeightLaw::kBimodal
                                                  : HeightLaw::kUnit);
    for (const DecompKind kind :
         {DecompKind::kIdeal, DecompKind::kRootFixing}) {
      const LayeredPlan plan = build_tree_layered_plan(p, kind);
      for (const bool lockstep : {false, true}) {
        SolverConfig config;
        config.keep_stack = true;
        config.lockstep = lockstep;
        config.rule = p.unit_height() ? RaiseRuleKind::kUnit
                                      : RaiseRuleKind::kNarrow;
        const SolveResult ref = reference::solve(p, plan, config);
        for (const int threads : {1, 4}) {
          config.threads = threads;
          const SolveResult got = solve_with_plan(p, plan, config);
          expect_same_run(ref, got,
                          "greedy seed=" + std::to_string(seed) + " " +
                              to_string(kind) +
                              " lockstep=" + std::to_string(lockstep) +
                              " threads=" + std::to_string(threads));
          require_feasible(p, got.solution);
        }
      }
    }
  }
}

TEST(ComponentForest, ForestVsReferenceBitIdenticalLuby) {
  // LubyMis draws from per-instance streams, so the randomized runs at
  // threads 1 and 4 both coincide exactly with one reference run.
  const Problem p = small_tree_problem(777, 40, 2, 24);
  for (const DecompKind kind :
       {DecompKind::kIdeal, DecompKind::kRootFixing}) {
    const LayeredPlan plan = build_tree_layered_plan(p, kind);
    for (const bool lockstep : {false, true}) {
      SolverConfig config;
      config.keep_stack = true;
      config.lockstep = lockstep;
      LubyMis ref_oracle(p, 9);
      const SolveResult ref = reference::solve(p, plan, config, &ref_oracle);
      EXPECT_TRUE(ref.stats.mis_ok);
      for (const int threads : {1, 4}) {
        config.threads = threads;
        LubyMis oracle(p, 9);
        const SolveResult got = solve_with_plan(p, plan, config, &oracle);
        expect_same_run(ref, got,
                        std::string("luby ") + to_string(kind) +
                            " lockstep=" + std::to_string(lockstep) +
                            " threads=" + std::to_string(threads));
      }
    }
  }
}

// GreedyMis with its winners reported in reverse: a deterministic
// oracle whose decision order is never the ascending-id order.
class ReversedGreedy : public MisOracle {
 public:
  explicit ReversedGreedy(const Problem& problem) : inner_(problem) {}
  MisResult run(std::span<const InstanceId> candidates) override {
    MisResult result = inner_.run(candidates);
    std::reverse(result.selected.begin(), result.selected.end());
    return result;
  }

 private:
  GreedyMis inner_;
};

TEST(ComponentForest, RowOrderIsRankOrderWhateverTheOracleReports) {
  // A step's raises are logged in ascending id order whatever order the
  // oracle reports its winners in, and the reference does the same.  So
  // the reversed oracle's runs at threads 1 and 4 equal each other, the
  // reference, and the plain GreedyMis run.
  const Problem tree = small_tree_problem(779, 40, 2, 24);
  const Problem line = small_line_problem(780, 24, 1, 14);
  for (const Problem* p : {&tree, &line}) {
    const LayeredPlan plan = p == &tree
                                 ? build_tree_layered_plan(*p,
                                                           DecompKind::kIdeal)
                                 : build_line_layered_plan(*p);
    SolverConfig config;
    config.keep_stack = true;
    ReversedGreedy ref_oracle(*p);
    const SolveResult ref = reference::solve(*p, plan, config, &ref_oracle);
    expect_same_run(reference::solve(*p, plan, config), ref,
                    std::string(p == &tree ? "tree" : "line") + " greedy");
    for (const int threads : {1, 4}) {
      config.threads = threads;
      ReversedGreedy oracle(*p);
      expect_same_run(ref, solve_with_plan(*p, plan, config, &oracle),
                      std::string(p == &tree ? "tree" : "line") +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST(ComponentForest, ReusedEngineMatchesReferenceAcrossRestrictions) {
  // One engine object, two different restrictions: nothing of the first
  // active set may leak into the second run.  Each restricted run must
  // match the reference over the same subset bit for bit.
  const Problem p = small_tree_problem(888, 32, 2, 18,
                                       HeightLaw::kBimodal);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  const HeightClasses classes = classify_wide_narrow(p);
  ASSERT_TRUE(classes.has_wide());
  ASSERT_TRUE(classes.has_narrow());

  SolverConfig config;
  config.keep_stack = true;
  config.threads = 4;
  TwoPhaseEngine reused(p, plan, config);
  for (const bool wide : {true, false}) {
    const auto& ids = wide ? classes.wide_ids : classes.narrow_ids;
    reused.restrict_to(ids);
    const SolveResult got = reused.run();
    const SolveResult want = reference::solve_restricted(p, plan, config, ids);
    expect_same_run(want, got,
                    std::string("restricted wide=") + std::to_string(wide));
  }
}

}  // namespace
}  // namespace treesched

#include "dist/luby_mis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "decomp/layered.hpp"
#include "dist/conflict_graph.hpp"
#include "framework/component_forest.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::small_line_problem;
using testutil::small_tree_problem;

std::vector<InstanceId> all_instances(const Problem& p) {
  std::vector<InstanceId> all(static_cast<std::size_t>(p.num_instances()));
  for (InstanceId i = 0; i < p.num_instances(); ++i)
    all[static_cast<std::size_t>(i)] = i;
  return all;
}

void check_mis(const Problem& p, const std::vector<InstanceId>& candidates,
               const std::vector<InstanceId>& selected) {
  // Map into the explicit conflict graph and use its checker.
  ConflictGraph graph(p, {candidates.data(), candidates.size()});
  std::vector<int> indexes;
  for (InstanceId s : selected) {
    int idx = -1;
    for (int v = 0; v < graph.size(); ++v)
      if (graph.instance(v) == s) idx = v;
    ASSERT_GE(idx, 0);
    indexes.push_back(idx);
  }
  EXPECT_TRUE(graph.is_maximal_independent_set(indexes));
}

TEST(LubyMis, ValidMisOnTreeProblems) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Problem p = small_tree_problem(seed, 32, 2, 20);
    LubyMis mis(p, seed * 3 + 1);
    const auto candidates = all_instances(p);
    const MisResult result = mis.run(candidates);
    ASSERT_FALSE(result.selected.empty());
    EXPECT_GE(result.rounds, 2);
    EXPECT_EQ(result.rounds % 2, 0);  // 2 rounds per Luby iteration
    check_mis(p, candidates, result.selected);
    // Ascending id order: the member-rank order the engine raises in.
    EXPECT_TRUE(std::is_sorted(result.selected.begin(),
                               result.selected.end()));
  }
}

TEST(LubyMis, ValidMisOnLineProblems) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Problem p = small_line_problem(seed, 30, 2, 12, HeightLaw::kUnit,
                                         2.0);
    LubyMis mis(p, seed);
    const auto candidates = all_instances(p);
    const MisResult result = mis.run(candidates);
    check_mis(p, candidates, result.selected);
  }
}

TEST(LubyMis, WorksOnCandidateSubsets) {
  const Problem p = small_tree_problem(9, 32, 2, 20);
  LubyMis mis(p, 5);
  std::vector<InstanceId> subset;
  for (InstanceId i = 0; i < p.num_instances(); i += 3) subset.push_back(i);
  const MisResult result = mis.run(subset);
  check_mis(p, subset, result.selected);
  // Selected instances must come from the candidate set.
  for (InstanceId s : result.selected)
    EXPECT_NE(std::find(subset.begin(), subset.end(), s), subset.end());
}

TEST(LubyMis, DeterministicBySeed) {
  const Problem p = small_tree_problem(11, 32, 2, 20);
  const auto candidates = all_instances(p);
  LubyMis a(p, 77), b(p, 77);
  const MisResult ra = a.run(candidates);
  const MisResult rb = b.run(candidates);
  EXPECT_EQ(ra.selected, rb.selected);
  EXPECT_EQ(ra.rounds, rb.rounds);
}

TEST(LubyMis, SingletonCandidate) {
  const Problem p = small_tree_problem(12, 16, 1, 4);
  LubyMis mis(p, 1);
  const MisResult result = mis.run(std::vector<InstanceId>{0});
  EXPECT_EQ(result.selected, std::vector<InstanceId>{0});
  EXPECT_EQ(result.rounds, 2);
}

TEST(LubyMis, IterationCountIsLogarithmicOnAverage) {
  // Luby terminates in O(log N) iterations w.h.p.; with N ~ 300
  // candidates the observed iteration count should be far below N.
  const Problem p = small_tree_problem(13, 64, 4, 80);
  LubyMis mis(p, 3);
  const auto candidates = all_instances(p);
  const MisResult result = mis.run(candidates);
  EXPECT_LE(result.rounds / 2, 30);
}

TEST(LubyMis, MatchesTheMessageLevelProtocol) {
  // Over all instances, protocol node v is instance v and holds the same
  // make_node_streams stream, so the implicit-clique oracle picks exactly
  // the protocol's winners in exactly its Luby rounds.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem p = small_tree_problem(seed + 20, 32, 2, 20);
    const auto all = all_instances(p);
    LubyMis mis(p, seed);
    const MisResult modeled = mis.run(all);
    const ProtocolResult wire = run_luby_protocol(p, all, seed);
    EXPECT_EQ(modeled.selected, wire.selected) << "seed " << seed;
    EXPECT_EQ(modeled.rounds, wire.rounds - wire.discovery_rounds)
        << "seed " << seed;
  }
}

TEST(LubyMis, ClonesShareStreamsSoComponentRunsMatchTheWholeRun) {
  // Running each conflict component of a plan group on its own clone —
  // what the engine's parallel epochs do — consumes exactly the draws a
  // whole-group run does: the union of the component winners is the
  // whole run's selection, the rounds and retries are the slowest
  // component's, and the streams stay in step across calls — under both
  // schedules.
  const Problem p = small_tree_problem(31, 48, 2, 24);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  ComponentForest forest;
  forest.build(p, plan,
               std::vector<char>(static_cast<std::size_t>(p.num_instances()),
                                 1));
  int split_groups = 0;
  for (int g = 0; g < plan.num_groups; ++g) {
    const auto& members = plan.members[static_cast<std::size_t>(g)];
    const int count = forest.components_in_group(g);
    if (count < 2) continue;
    ++split_groups;
    for (const bool budgeted : {false, true}) {
      const auto make = [&] {
        return budgeted ? LubyMis::budgeted(p, 5, /*luby_budget=*/1)
                        : LubyMis(p, 5);
      };
      LubyMis whole = make();
      LubyMis parent = make();
      for (int call = 0; call < 3; ++call) {
        const MisResult want = whole.run(members);
        MisResult merged;
        merged.rounds = 0;
        for (int c = 0; c < count; ++c) {
          const std::unique_ptr<MisOracle> clone = parent.component_clone();
          const MisResult part = clone->run(forest.component_ids(g, c));
          merged.rounds = std::max(merged.rounds, part.rounds);
          merged.retries = std::max(merged.retries, part.retries);
          merged.selected.insert(merged.selected.end(),
                                 part.selected.begin(), part.selected.end());
        }
        std::sort(merged.selected.begin(), merged.selected.end());
        const std::string what = "group=" + std::to_string(g) +
                                 " budgeted=" + std::to_string(budgeted) +
                                 " call=" + std::to_string(call);
        EXPECT_EQ(want.selected, merged.selected) << what;
        EXPECT_EQ(want.rounds, merged.rounds) << what;
        EXPECT_EQ(want.retries, merged.retries) << what;
      }
    }
  }
  EXPECT_GT(split_groups, 0);
}

TEST(LubyMis, BudgetedDefaultsFollowTheProtocol) {
  const Problem p = small_tree_problem(12, 16, 1, 4);
  const LubyMis mis = LubyMis::budgeted(p, 1);
  EXPECT_EQ(mis.luby_budget(), default_luby_budget(p.num_instances()));
  EXPECT_EQ(mis.max_retries(), kDefaultMisMaxRetries);
  EXPECT_EQ(LubyMis::budgeted(p, 1, 3, -1).luby_budget(), 3);
  EXPECT_EQ(LubyMis::budgeted(p, 1, 3, -1).max_retries(), 0);
  EXPECT_EQ(LubyMis(p, 1).luby_budget(), 0);  // run until decided
}

TEST(LubyMis, BudgetedRunChargesTheFixedSchedule) {
  // A sufficient budget decides everything in the same iterations as the
  // run-until-decided schedule (same streams), but charges the whole
  // fixed budget of 2 rounds per iteration.
  const Problem p = small_tree_problem(14, 32, 2, 20);
  const auto all = all_instances(p);
  LubyMis adaptive(p, 8);
  LubyMis fixed = LubyMis::budgeted(p, 8, /*luby_budget=*/64);
  const MisResult a = adaptive.run(all);
  const MisResult f = fixed.run(all);
  EXPECT_EQ(f.selected, a.selected);
  EXPECT_LT(a.rounds, 128);
  EXPECT_EQ(f.rounds, 128);
  EXPECT_EQ(f.retries, 0);
}

TEST(LubyMis, StarvedBudgetRetriesWithDoubledBudget) {
  // Budget 1 on a dense candidate set leaves nodes undecided.  Without
  // retries they stay unselected; with retries each attempt doubles the
  // budget and charges only the iterations it executes, so the run ends
  // with the run-until-decided selection and rounds.
  const Problem p = small_tree_problem(13, 64, 4, 80);
  const auto all = all_instances(p);
  LubyMis adaptive(p, 3);
  const MisResult a = adaptive.run(all);
  const int iterations = a.rounds / 2;
  ASSERT_GT(iterations, 1);

  LubyMis starved = LubyMis::budgeted(p, 3, /*luby_budget=*/1,
                                      /*max_retries=*/0);
  const MisResult s = starved.run(all);
  EXPECT_EQ(s.rounds, 2);
  EXPECT_EQ(s.retries, 0);
  EXPECT_LT(s.selected.size(), a.selected.size());
  EXPECT_TRUE(std::includes(a.selected.begin(), a.selected.end(),
                            s.selected.begin(), s.selected.end()));

  LubyMis retried = LubyMis::budgeted(p, 3, /*luby_budget=*/1,
                                      /*max_retries=*/30);
  const MisResult r = retried.run(all);
  EXPECT_EQ(r.selected, a.selected);
  EXPECT_EQ(r.rounds, a.rounds);
  // Attempt k adds 2^k iterations to the budget's one.
  int expected_retries = 0;
  int covered = 1;
  while (covered < iterations) covered += 1 << ++expected_retries;
  EXPECT_EQ(r.retries, expected_retries);
}

}  // namespace
}  // namespace treesched

// Engine-vs-reference parity (the oracle that keeps the engine honest):
// the shard-backed frontier engine — at one worker thread and with its
// deferred out-of-group propagation split across several — must
// reproduce the central-DualState reference engine
// (tests/support/central_reference.hpp) EXACTLY.  Selected set, raise
// stack and its tags, final LHS, lambda_observed, dual_objective and
// every count are compared with ==, no tolerances: the engine replays
// the reference's floating-point operation order (ordered beta walks,
// chronological objective accumulation), so even the doubles are
// bit-identical.
#include "framework/two_phase.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <thread>

#include "decomp/layered.hpp"
#include "dist/luby_mis.hpp"
#include "obs/trace.hpp"
#include "support/central_reference.hpp"
#include "test_util.hpp"
#include "workload/scenario.hpp"

namespace treesched {
namespace {

// TREESCHED_TRACE=1 reruns this whole suite with the flight recorder on:
// the CI sanitizer job uses it to prove tracing cannot perturb any field
// compared with == below (the ISSUE's "tracing is invisible" guarantee).
[[maybe_unused]] const bool trace_env_hook = [] {
  if (std::getenv("TREESCHED_TRACE") != nullptr) obs::enable_tracing();
  return true;
}();

using testutil::require_feasible;
using testutil::small_line_problem;
using testutil::small_tree_problem;

// Compares two runs field by field with exact equality.
void expect_identical(const SolveResult& ref, const SolveResult& got,
                      const std::string& what) {
  EXPECT_EQ(ref.solution.selected, got.solution.selected) << what;
  EXPECT_EQ(ref.raise_stack, got.raise_stack) << what;
  EXPECT_EQ(ref.stack_tags, got.stack_tags) << what;
  EXPECT_EQ(ref.final_lhs, got.final_lhs) << what;
  EXPECT_EQ(ref.stats.epochs, got.stats.epochs) << what;
  EXPECT_EQ(ref.stats.stages, got.stats.stages) << what;
  EXPECT_EQ(ref.stats.steps, got.stats.steps) << what;
  EXPECT_EQ(ref.stats.max_steps_in_stage, got.stats.max_steps_in_stage)
      << what;
  EXPECT_EQ(ref.stats.raises, got.stats.raises) << what;
  EXPECT_EQ(ref.stats.mis_rounds, got.stats.mis_rounds) << what;
  EXPECT_EQ(ref.stats.comm_rounds, got.stats.comm_rounds) << what;
  EXPECT_EQ(ref.stats.messages, got.stats.messages) << what;
  EXPECT_EQ(ref.stats.message_bytes, got.stats.message_bytes) << what;
  // Doubles with ==: bit-identical, not merely close.
  EXPECT_EQ(ref.stats.dual_objective, got.stats.dual_objective) << what;
  EXPECT_EQ(ref.stats.lambda_observed, got.stats.lambda_observed) << what;
  EXPECT_EQ(ref.stats.dual_upper_bound, got.stats.dual_upper_bound) << what;
  EXPECT_EQ(ref.stats.profit, got.stats.profit) << what;
  EXPECT_EQ(ref.stats.delta, got.stats.delta) << what;
  EXPECT_EQ(ref.stats.xi, got.stats.xi) << what;
  EXPECT_EQ(ref.stats.stages_per_epoch, got.stats.stages_per_epoch) << what;
  EXPECT_EQ(ref.stats.lockstep_ok, got.stats.lockstep_ok) << what;
  EXPECT_EQ(ref.stats.mis_ok, got.stats.mis_ok) << what;
  EXPECT_EQ(ref.stats.interference_ok, got.stats.interference_ok) << what;
  EXPECT_EQ(ref.stats.mis_failed_steps, got.stats.mis_failed_steps) << what;
  EXPECT_EQ(ref.stats.mis_retries, got.stats.mis_retries) << what;
}

// Runs the reference engine and the engine (threads = 1 and threads = 4)
// on the same problem/plan/config and demands bitwise equality.
void expect_parity(const Problem& p, const LayeredPlan& plan,
                   SolverConfig config, const std::string& what) {
  config.keep_stack = true;
  config.keep_lhs = true;
  config.count_messages = true;

  const SolveResult ref = reference::solve(p, plan, config);
  for (const int threads : {1, 4}) {
    SolverConfig engine = config;
    engine.threads = threads;
    const SolveResult got = solve_with_plan(p, plan, engine);
    expect_identical(ref, got,
                     what + " threads=" + std::to_string(threads));
    require_feasible(p, got.solution);
  }
}

TEST(EngineParity, TreeUnitAcrossLockstepAndThreads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Problem p = small_tree_problem(seed, 40, 2, 24);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    for (const bool lockstep : {false, true}) {
      SolverConfig config;
      config.epsilon = 0.15;
      config.lockstep = lockstep;
      expect_parity(p, plan, config,
                    "tree-unit seed=" + std::to_string(seed) +
                        " lockstep=" + std::to_string(lockstep));
    }
  }
}

TEST(EngineParity, TreeArbitraryHeightsNarrowRule) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem p = small_tree_problem(seed + 30, 36, 2, 20,
                                         HeightLaw::kUniformRange);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    SolverConfig config;
    config.rule = RaiseRuleKind::kNarrow;
    expect_parity(p, plan, config,
                  "tree-narrow seed=" + std::to_string(seed));
  }
}

TEST(EngineParity, LineUnitAndArbitrary) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem unit = small_line_problem(seed, 30, 2, 10);
    const LayeredPlan unit_plan = build_line_layered_plan(unit);
    SolverConfig config;
    config.epsilon = 0.2;
    expect_parity(unit, unit_plan,
                  config, "line-unit seed=" + std::to_string(seed));

    const Problem arb = small_line_problem(seed + 60, 30, 2, 10,
                                           HeightLaw::kUniformRange);
    const LayeredPlan arb_plan = build_line_layered_plan(arb);
    SolverConfig narrow = config;
    narrow.rule = RaiseRuleKind::kNarrow;
    expect_parity(arb, arb_plan, narrow,
                  "line-narrow seed=" + std::to_string(seed));
  }
}

TEST(EngineParity, StageModesAndRefinements) {
  const Problem p = small_tree_problem(77, 36, 2, 20);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  for (const StageMode mode :
       {StageMode::kMultiStage, StageMode::kSingleStagePS,
        StageMode::kExact}) {
    SolverConfig config;
    config.stage_mode = mode;
    expect_parity(p, plan, config,
                  "mode=" + std::to_string(static_cast<int>(mode)));
  }
  // Appendix-A refinement: no alpha raise.  (Approximation-wise this is
  // only sound for single-instance demands, but both engines must agree
  // mechanically on any input.)
  const LayeredPlan mu_plan = build_tree_layered_plan(
      p, DecompKind::kRootFixing, /*mu_wings_only=*/true);
  SolverConfig no_alpha;
  no_alpha.raise_alpha = false;
  expect_parity(p, mu_plan, no_alpha, "no-alpha root-fixing");
  SolverConfig interference;
  interference.check_interference = true;
  expect_parity(p, plan, interference, "check-interference");
}

TEST(EngineParity, HeightSplitAndRestriction) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem p = small_tree_problem(seed + 200, 32, 2, 20,
                                         HeightLaw::kBimodal);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    const SolveResult ref =
        reference::solve_height_split(p, plan, SolverConfig{});
    for (const int threads : {1, 4}) {
      SolverConfig engine;
      engine.threads = threads;
      const SolveResult got = solve_height_split(p, plan, engine);
      EXPECT_EQ(ref.solution.selected, got.solution.selected);
      EXPECT_EQ(ref.stats.steps, got.stats.steps);
      EXPECT_EQ(ref.stats.dual_objective, got.stats.dual_objective);
      EXPECT_EQ(ref.stats.lambda_observed, got.stats.lambda_observed);
      EXPECT_EQ(ref.stats.profit, got.stats.profit);
    }
    // restrict_to: the subset runs must also coincide.
    std::vector<InstanceId> evens;
    for (InstanceId i = 0; i < p.num_instances(); i += 2) evens.push_back(i);
    SolverConfig config;
    config.keep_stack = true;
    config.keep_lhs = true;
    const SolveResult restricted_ref =
        reference::solve_restricted(p, plan, config, evens);
    for (const int threads : {1, 4}) {
      config.threads = threads;
      TwoPhaseEngine engine(p, plan, config);
      engine.restrict_to(evens);
      const SolveResult got = engine.run();
      expect_identical(restricted_ref, got, "restricted threads=" +
                                                std::to_string(threads));
    }
  }
}

TEST(EngineParity, LubyOracleSerialIsBitIdenticalToCentral) {
  // The unit-height rule with the default config: the engine presents
  // LubyMis the same candidate sequences as the reference engine, so the
  // whole run — draws included — is reproduced bit for bit.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Problem p = small_tree_problem(seed + 400, 40, 2, 24);
    const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
    SolverConfig config;
    config.keep_stack = true;
    LubyMis ref_oracle(p, seed);
    const SolveResult ref = reference::solve(p, plan, config, &ref_oracle);
    LubyMis engine_oracle(p, seed);
    const SolveResult got = solve_with_plan(p, plan, config, &engine_oracle);
    expect_identical(ref, got, "luby seed=" + std::to_string(seed));
  }
}

TEST(EngineParity, LubyMatchesCentralAtEveryThreadCount) {
  // The thread count cannot change a single draw: at threads 1, 2 and 4
  // the whole run equals the central reference driven by one LubyMis,
  // bit for bit — on trees and lines, with the lockstep schedule on and
  // off, and through the Section 6 height split.  Two arms: unit heights
  // under the default config (the unit rule, eps 0.1), and bimodal
  // heights under the narrow rule.
  for (const HeightLaw heights : {HeightLaw::kUnit, HeightLaw::kBimodal}) {
    const bool unit = heights == HeightLaw::kUnit;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const Problem tree = small_tree_problem(seed + 400, 40, 2, 24, heights);
      const Problem line = small_line_problem(seed + 450, 30, 2, 12, heights);
      for (const Problem* p : {&tree, &line}) {
        const LayeredPlan plan =
            p == &tree ? build_tree_layered_plan(*p, DecompKind::kIdeal)
                       : build_line_layered_plan(*p);
        for (const bool lockstep : {false, true}) {
          SolverConfig config;
          config.lockstep = lockstep;
          config.keep_stack = true;
          config.keep_lhs = true;
          config.count_messages = true;
          if (!unit) {
            config.epsilon = 0.2;
            config.rule = RaiseRuleKind::kNarrow;
          }
          LubyMis ref_oracle(*p, seed);
          const SolveResult ref =
              reference::solve(*p, plan, config, &ref_oracle);
          LubyMis ref_split_oracle(*p, seed);
          const SolveResult ref_split = reference::solve_height_split(
              *p, plan, config, &ref_split_oracle);
          for (const int threads : {1, 2, 4}) {
            SolverConfig engine = config;
            engine.threads = threads;
            const std::string what =
                std::string(unit ? "unit " : "bimodal ") +
                (p == &tree ? "tree" : "line") +
                " seed=" + std::to_string(seed) +
                " lockstep=" + std::to_string(lockstep) +
                " threads=" + std::to_string(threads);
            LubyMis oracle(*p, seed);
            const SolveResult got = solve_with_plan(*p, plan, engine, &oracle);
            expect_identical(ref, got, what);
            require_feasible(*p, got.solution);
            LubyMis split_oracle(*p, seed);
            expect_identical(
                ref_split, solve_height_split(*p, plan, engine, &split_oracle),
                what + " split");
          }
        }
      }
    }
  }
}

// The line and tree workloads of bench/bench_f12_engine_throughput.cpp.
// At f12's smallest sizes (256 slots, 1024 vertices) their epochs
// already reach enough out-of-group shard entries for the deferred
// propagation to split across workers.
Problem f12_line(int slots) {
  LineScenarioSpec spec;
  spec.line.num_slots = slots;
  spec.line.num_resources = 2;
  spec.line.num_demands = slots / 2;
  spec.line.min_proc_time = 8;
  spec.line.max_proc_time = slots / 8;
  spec.line.window_slack = 2.0;
  spec.line.profit_max = 1e4;
  spec.seed = 42;
  return make_line_problem(spec);
}

Problem f12_tree(int n) {
  TreeScenarioSpec spec;
  spec.num_vertices = n;
  spec.num_networks = 2;
  spec.demands.num_demands = 3 * n / 4;
  spec.demands.profit_max = 1e4;
  spec.seed = 42;
  return make_tree_problem(spec);
}

TEST(EngineParity, DeferredPropagationPartitionMatchesReference) {
  // The engine's one threaded step: an epoch's raises reach the other
  // groups' shards through a propagation split by target id across
  // workers.  On these inputs the split really runs — the merge_slab
  // spans come from at least two threads — and every output still
  // equals the one-thread central reference exactly.
  if (std::thread::hardware_concurrency() < 2)
    GTEST_SKIP() << "the propagation split needs two hardware threads";
#ifdef TREESCHED_TRACING_DISABLED
  GTEST_SKIP() << "tracing is compiled out; the split cannot be observed";
#endif
  const Problem line = f12_line(256);   // 5480 instances
  const Problem tree = f12_tree(1024);  // 1536 instances
  const bool traced_before = obs::tracing_enabled();
  for (const Problem* p : {&line, &tree}) {
    const LayeredPlan plan = p == &tree
                                 ? build_tree_layered_plan(*p,
                                                           DecompKind::kIdeal)
                                 : build_line_layered_plan(*p);
    for (const bool lockstep : {false, true}) {
      for (const bool luby : {false, true}) {
        SolverConfig config;
        config.lockstep = lockstep;
        config.keep_stack = true;
        config.keep_lhs = true;
        config.count_messages = true;
        LubyMis ref_oracle(*p, 3);
        const SolveResult ref = reference::solve(
            *p, plan, config, luby ? &ref_oracle : nullptr);
        for (const int threads : {2, 4}) {
          const std::string what =
              std::string(p == &tree ? "tree" : "line") +
              " lockstep=" + std::to_string(lockstep) +
              " luby=" + std::to_string(luby) +
              " threads=" + std::to_string(threads);
          config.threads = threads;
          LubyMis oracle(*p, 3);
          obs::enable_tracing();
          const SolveResult got =
              solve_with_plan(*p, plan, config, luby ? &oracle : nullptr);
          std::set<int> slab_tids;
          for (const obs::SpanRecord& span : obs::collect_spans())
            if (std::string(span.name) == "merge_slab")
              slab_tids.insert(span.tid);
          if (!traced_before) obs::disable_tracing();
          obs::reset_trace();
          expect_identical(ref, got, what);
          EXPECT_GE(slab_tids.size(), 2u) << what;
        }
      }
    }
  }
}


TEST(EngineParity, NonUniformCapacitiesAndXiOverride) {
  TreeScenarioSpec spec;
  spec.num_vertices = 36;
  spec.num_networks = 2;
  spec.demands.num_demands = 22;
  spec.demands.profit_max = 40.0;
  spec.seed = 321;
  spec.capacities = CapacityLaw::kTwoClass;
  spec.capacity_spread = 4.0;
  const Problem p = make_tree_problem(spec);
  const LayeredPlan plan = build_tree_layered_plan(p, DecompKind::kIdeal);
  for (const bool aware : {true, false}) {
    SolverConfig config;
    config.capacity_aware_raises = aware;
    expect_parity(p, plan, config,
                  "nonuniform aware=" + std::to_string(aware));
  }
  SolverConfig override_config;
  override_config.xi_override = 0.9;
  expect_parity(p, plan, override_config, "xi-override");
}

}  // namespace
}  // namespace treesched

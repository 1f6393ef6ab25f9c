#include "support/central_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "framework/certify.hpp"
#include "framework/dual_state.hpp"
#include "framework/raise_rule.hpp"

namespace treesched::reference {
namespace {

// Every previously raised overlapping instance must have a critical edge
// on path(i) (the interference property).
bool interference_holds(const Problem& problem, const LayeredPlan& plan,
                        const std::vector<InstanceId>& raised_order,
                        InstanceId i) {
  const auto& path_i = problem.instance(i).edges;
  for (InstanceId prev : raised_order) {
    if (!problem.overlap(prev, i)) continue;
    const auto& critical = plan.critical[static_cast<std::size_t>(prev)];
    const bool hit = std::any_of(critical.begin(), critical.end(),
                                 [&](EdgeId e) {
                                   return std::binary_search(
                                       path_i.begin(), path_i.end(), e);
                                 });
    if (!hit) return false;
  }
  return true;
}

// One raise notification per distinct demand sharing an edge with the
// raised path (other than the raised demand), 48 bytes each.
std::int64_t notified_demands(const Problem& problem, InstanceId i,
                              std::vector<int>& seen, int stamp) {
  const DemandInstance& inst = problem.instance(i);
  std::int64_t neighbors = 0;
  for (EdgeId e : inst.edges) {
    for (InstanceId other : problem.instances_on_edge(e)) {
      const DemandId od = problem.instance(other).demand;
      if (od == inst.demand || seen[static_cast<std::size_t>(od)] == stamp)
        continue;
      seen[static_cast<std::size_t>(od)] = stamp;
      ++neighbors;
    }
  }
  return neighbors;
}

SolveResult solve_masked(const Problem& problem, const LayeredPlan& plan,
                         const SolverConfig& config,
                         const std::vector<char>& active, MisOracle* oracle) {
  TS_REQUIRE(problem.finalized());
  TS_REQUIRE(config.epsilon > 0.0 && config.epsilon < 1.0);
  GreedyMis default_oracle(problem);
  if (oracle == nullptr) oracle = &default_oracle;

  SolveResult result;
  SolveStats& stats = result.stats;
  const int n = problem.num_instances();
  if (config.keep_lhs)
    result.final_lhs.assign(static_cast<std::size_t>(n), 0.0);

  const StageParams params =
      derive_stage_params(problem, plan, active, config.rule, config.epsilon,
                          config.xi_override);
  stats.delta = params.delta;
  if (!params.any_active) {
    stats.lambda_observed = 1.0;
    return result;
  }
  stats.xi = params.xi;
  int stages = 1;
  double fixed_target = 1.0;  // kExact: raise until tight
  if (config.stage_mode == StageMode::kMultiStage)
    stages = params.stages_per_epoch;
  else if (config.stage_mode == StageMode::kSingleStagePS)
    fixed_target = 1.0 / (5.0 + config.epsilon);
  stats.stages_per_epoch = stages;
  const int budget = lockstep_step_budget(problem, config.lockstep_slack);

  DualState dual(problem);
  const RaiseRule rule(config.rule, problem, config.raise_alpha,
                       config.capacity_aware_raises);
  const auto lhs = [&](InstanceId i) {
    const DemandInstance& inst = problem.instance(i);
    return dual.lhs(inst, rule.beta_coeff(inst));
  };

  std::vector<std::vector<InstanceId>> stack;
  std::vector<InstanceId> raised_order, members, unsatisfied;
  std::vector<double> increments;
  std::vector<int> notify_seen(static_cast<std::size_t>(problem.num_demands()),
                               0);
  int notify_stamp = 0;

  for (int g = 0; g < plan.num_groups; ++g) {
    members.clear();
    for (InstanceId i : plan.members[static_cast<std::size_t>(g)])
      if (active[static_cast<std::size_t>(i)]) members.push_back(i);
    if (members.empty()) continue;
    ++stats.epochs;

    for (int j = 1; j <= stages; ++j) {
      const double target = config.stage_mode == StageMode::kMultiStage
                                ? 1.0 - std::pow(params.xi, j)
                                : fixed_target;
      ++stats.stages;
      int steps = 0;
      int rows = 0;
      for (;;) {
        unsatisfied.clear();
        for (InstanceId i : members) {
          const double p = problem.instance(i).profit;
          if (lhs(i) < target * p - kEps * p) unsatisfied.push_back(i);
        }
        if (config.lockstep) {
          if (steps >= budget) {
            // Lemma 5.1 predicts U is empty once the budget is spent.
            if (!unsatisfied.empty()) stats.lockstep_ok = false;
            break;
          }
          if (unsatisfied.empty()) {
            // Idle step: processors cannot observe global emptiness, so
            // they spend one silent Luby iteration plus propagation.
            ++stats.steps;
            ++steps;
            stats.mis_rounds += 2;
            stats.comm_rounds += 3;
            continue;
          }
        } else if (unsatisfied.empty()) {
          break;
        }
        MisResult mis = oracle->run(unsatisfied);
        ++stats.steps;
        ++steps;
        stats.mis_rounds += mis.rounds;
        stats.comm_rounds += mis.rounds + 1;  // +1: dual propagation
        stats.mis_retries += mis.retries;
        if (mis.selected.empty()) {
          // A budgeted oracle decided nobody: the step is spent in
          // silence; without a fixed budget the stage ends short.
          stats.mis_ok = false;
          ++stats.mis_failed_steps;
          if (config.lockstep) continue;
          stats.lockstep_ok = false;
          break;
        }
        // A step raises its winners in ascending id (= member-rank)
        // order, whatever order the oracle reports them in.
        std::sort(mis.selected.begin(), mis.selected.end());
        for (InstanceId i : mis.selected) {
          const DemandInstance& inst = problem.instance(i);
          const auto& critical = plan.critical[static_cast<std::size_t>(i)];
          const double delta =
              rule.tight_raise(inst, critical, inst.profit - lhs(i),
                               increments);
          if (config.raise_alpha) dual.raise_alpha(inst.demand, delta);
          for (std::size_t c = 0; c < critical.size(); ++c)
            dual.raise_beta(critical[c], increments[c]);
          // The raise must satisfy i's constraint tightly (paper, 3.2).
          TS_DCHECK(std::abs(lhs(i) - inst.profit) <=
                    1e-6 * std::max(1.0, inst.profit));
          ++stats.raises;
          if (config.check_interference &&
              !interference_holds(problem, plan, raised_order, i))
            stats.interference_ok = false;
          raised_order.push_back(i);
          if (config.count_messages) {
            const std::int64_t notified =
                notified_demands(problem, i, notify_seen, ++notify_stamp);
            stats.messages += notified;
            stats.message_bytes += notified * 48;
          }
        }
        if (config.keep_stack) result.stack_tags.push_back({g, j, rows});
        ++rows;
        stack.push_back(mis.selected);
        TS_REQUIRE(steps <= kMaxStepsPerStage);
      }
      stats.max_steps_in_stage = std::max(stats.max_steps_in_stage, steps);
    }
  }

  // Certification: observed slackness and the scaled-dual upper bound.
  stats.dual_objective = dual.objective();
  stats.lambda_observed = observed_lambda(problem, dual, rule, active);
  stats.dual_upper_bound =
      stats.lambda_observed > 0.0
          ? stats.dual_objective / std::min(1.0, stats.lambda_observed)
          : std::numeric_limits<double>::infinity();
  if (config.keep_lhs)
    for (InstanceId i = 0; i < n; ++i)
      if (active[static_cast<std::size_t>(i)])
        result.final_lhs[static_cast<std::size_t>(i)] = lhs(i);
  result.solution = prune_stack(problem, stack);
  stats.profit = result.solution.profit(problem);
  if (config.keep_stack) result.raise_stack = std::move(stack);
  return result;
}

std::vector<char> mask_of(const Problem& problem,
                          std::span<const InstanceId> active) {
  std::vector<char> mask(static_cast<std::size_t>(problem.num_instances()), 0);
  for (InstanceId i : active) {
    TS_REQUIRE(i >= 0 && i < problem.num_instances());
    mask[static_cast<std::size_t>(i)] = 1;
  }
  return mask;
}

}  // namespace

SolveResult solve(const Problem& problem, const LayeredPlan& plan,
                  const SolverConfig& config, MisOracle* oracle) {
  const std::vector<char> all(static_cast<std::size_t>(problem.num_instances()),
                              1);
  return solve_masked(problem, plan, config, all, oracle);
}

SolveResult solve_restricted(const Problem& problem, const LayeredPlan& plan,
                             const SolverConfig& config,
                             std::span<const InstanceId> active,
                             MisOracle* oracle) {
  return solve_masked(problem, plan, config, mask_of(problem, active), oracle);
}

SolveResult solve_height_split(const Problem& problem,
                               const LayeredPlan& plan,
                               const SolverConfig& config,
                               MisOracle* oracle) {
  const HeightClasses classes = classify_wide_narrow(problem);
  std::vector<SolveResult> parts;
  if (classes.has_wide()) {
    SolverConfig wide = config;
    wide.rule = RaiseRuleKind::kUnit;
    parts.push_back(
        solve_masked(problem, plan, wide, classes.wide_mask, oracle));
  }
  if (classes.has_narrow()) {
    SolverConfig narrow = config;
    narrow.rule = RaiseRuleKind::kNarrow;
    parts.push_back(
        solve_masked(problem, plan, narrow, classes.narrow_mask, oracle));
  }
  if (parts.size() == 1) return std::move(parts.front());
  TS_REQUIRE(parts.size() == 2);
  SolveResult combined;
  combined.solution = combine_better_of_per_network(
      problem, parts[0].solution, parts[1].solution);
  combined.stats = parts[0].stats;
  combined.stats.merge(parts[1].stats);
  combined.stats.profit = combined.solution.profit(problem);
  return combined;
}

}  // namespace treesched::reference

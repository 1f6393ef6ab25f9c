// Phase 1 of the two-phase engine (framework/two_phase.hpp), written once
// over the dual store.  Included only by the files that instantiate it:
// framework/two_phase.cpp (the model's store) and
// dist/protocol_scheduler.cpp (the wire's sharded store).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "framework/two_phase.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched {

template <class Store>
SolveResult TwoPhaseEngine::run_on(Store& store, const StageParams* pinned) {
  TRACE_SPAN("engine", "run");
  SolveResult result;
  SolveStats& stats = result.stats;
  stack_tags_.clear();
  const StageSchedule sched = prepare(stats, pinned);
  if (config_.keep_lhs)
    result.final_lhs.assign(
        static_cast<std::size_t>(problem_->num_instances()), 0.0);
  if (!sched.any_active) {
    stats.lambda_observed = 1.0;
    return result;
  }
  const RaiseRule rule(config_.rule, *problem_, config_.raise_alpha,
                       config_.capacity_aware_raises);
  double objective = 0.0;
  std::vector<std::vector<InstanceId>> stack;
  std::vector<InstanceId> raised_order;
  std::vector<InstanceId> members;

  for (int g = 0; g < plan_->num_groups; ++g) {
    // Timing only: no field the parity suites compare depends on it.
    const auto setup_start = std::chrono::steady_clock::now();
    members.clear();
    for (InstanceId i : plan_->members[static_cast<std::size_t>(g)])
      if (is_active(i)) members.push_back(i);
    stats.epoch_setup_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - setup_start)
            .count();
    if (members.empty()) {
      // No processor can see that the group is empty: the lockstep
      // schedule idles through all of its stages.
      if (config_.lockstep)
        store.idle(static_cast<std::int64_t>(sched.stages_per_epoch) *
                   sched.lockstep_budget);
      continue;
    }
    ++stats.epochs;
    TRACE_SPAN1("engine", "epoch", "group", g);
    run_epoch(store, members, rule, sched, g, objective, stats, stack,
              raised_order);
  }

  // Certification: every instance reports its own satisfaction level (the
  // same operation sequence as observed_lambda over a central DualState).
  stats.dual_objective = objective;
  double lambda = 1.0;
  bool any = false;
  for (InstanceId i = 0; i < problem_->num_instances(); ++i) {
    if (!is_active(i)) continue;
    const DemandInstance& inst = problem_->instance(i);
    const double lhs = store.lhs(i, rule.beta_coeff(inst));
    if (config_.keep_lhs) result.final_lhs[static_cast<std::size_t>(i)] = lhs;
    lambda = any ? std::min(lambda, lhs / inst.profit) : lhs / inst.profit;
    any = true;
  }
  stats.lambda_observed = any ? lambda : 1.0;
  finish(result, stack);
  return result;
}

// One epoch: the group's stages run inline on the caller's oracle.  Each
// dual variable receives its increments in (step, id) order, exactly the
// chronological order the reference applies them in.
template <class Store>
void TwoPhaseEngine::run_epoch(Store& store,
                               const std::vector<InstanceId>& members,
                               const RaiseRule& rule,
                               const StageSchedule& sched, int group,
                               double& objective, SolveStats& stats,
                               std::vector<std::vector<InstanceId>>& stack,
                               std::vector<InstanceId>& raised_order) {
  TRACE_SPAN2("engine", "solve", "size", members.size(), "group", group);
  const auto unsatisfied = [&](InstanceId i, double target) {
    const DemandInstance& inst = problem_->instance(i);
    return store.lhs(i, rule.beta_coeff(inst)) <
           target * inst.profit - kEps * inst.profit;
  };
  for (int j = 1; j <= sched.stages_per_epoch; ++j) {
    ++stats.stages;
    const double target = stage_target(sched, j);
    int steps_this_stage = 0;
    int rows_this_stage = 0;
    unsat_.assign(members.begin(), members.end());
    for (;;) {
      // The frontier: members still below the target.  Raises never lower
      // an LHS, so only the previous frontier needs testing.
      std::size_t w = 0;
      for (std::size_t r = 0; r < unsat_.size(); ++r)
        if (unsatisfied(unsat_[r], target)) unsat_[w++] = unsat_[r];
      unsat_.resize(w);
      // Lemma 5.1: the fixed step budget must have satisfied the stage.
      if (config_.lockstep && steps_this_stage >= sched.lockstep_budget) {
        if (!unsat_.empty()) stats.lockstep_ok = false;
        break;
      }
      if (unsat_.empty()) {
        // U is empty before the budget: the lockstep schedule idles
        // through the remaining steps, exactly as the reference does.
        if (config_.lockstep) {
          const int idle = sched.lockstep_budget - steps_this_stage;
          stats.steps += idle;
          stats.mis_rounds += 2 * static_cast<std::int64_t>(idle);
          stats.comm_rounds += 3 * static_cast<std::int64_t>(idle);
          store.idle(idle);
          steps_this_stage = sched.lockstep_budget;
        }
        break;
      }
      const MisResult mis = oracle_->run(
          std::span<const InstanceId>(unsat_.data(), unsat_.size()));
      ++steps_this_stage;
      ++stats.steps;
      stats.mis_rounds += mis.rounds;
      stats.comm_rounds += mis.rounds + 1;
      stats.mis_retries += mis.retries;
      TS_REQUIRE(steps_this_stage <= kMaxStepsPerStage);
      winners_.clear();
      for (InstanceId i : mis.selected) {
        const DemandInstance& inst = problem_->instance(i);
        const auto& critical = plan_->critical[static_cast<std::size_t>(i)];
        const double slack = inst.profit - store.lhs(i, rule.beta_coeff(inst));
        TS_DCHECK(slack > 0.0);
        const double delta =
            rule.tight_raise(inst, critical, slack, increments_);
        store.raise(i, delta, critical, increments_);
        // The raise must satisfy i's constraint tightly (paper, 3.2).
        TS_DCHECK(std::abs(store.lhs(i, rule.beta_coeff(inst)) -
                           inst.profit) <= 1e-6 * std::max(1.0, inst.profit));
        winners_.emplace_back(i, delta);
      }
      store.end_step();
      if (mis.selected.empty()) {
        stats.mis_ok = false;
        ++stats.mis_failed_steps;
        TRACE_COUNTER("engine.mis_failed_steps", 1);
        if (config_.lockstep) continue;
        stats.lockstep_ok = false;
        break;
      }
      // Winners are logged in ascending id order whatever order the
      // oracle reports them in (raises within a step commute), as the
      // reference raises them; the in-repo oracles already report
      // ascending ids, which the check passes without sorting.
      if (!std::is_sorted(winners_.begin(), winners_.end()))
        std::sort(winners_.begin(), winners_.end());
      std::vector<InstanceId> row;
      row.reserve(winners_.size());
      for (const auto& [i, delta] : winners_) {
        const DemandInstance& inst = problem_->instance(i);
        const auto& critical = plan_->critical[static_cast<std::size_t>(i)];
        rule.beta_increments(inst, critical, delta, increments_);
        bookkeep_raise(i, delta, increments_, objective, stats, raised_order);
        row.push_back(i);
      }
      if (config_.keep_stack)
        stack_tags_.push_back(StackTag{group, j, rows_this_stage});
      ++rows_this_stage;
      stack.push_back(std::move(row));
    }
    stats.max_steps_in_stage =
        std::max(stats.max_steps_in_stage, steps_this_stage);
  }
}

}  // namespace treesched

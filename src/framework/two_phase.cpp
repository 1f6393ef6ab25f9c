#include "framework/two_phase.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched {

// ---------------------------------------------------------------------------
// GreedyMis

GreedyMis::GreedyMis(const Problem& problem)
    : problem_(&problem),
      edge_stamp_(static_cast<std::size_t>(problem.num_global_edges()), 0),
      demand_stamp_(static_cast<std::size_t>(problem.num_demands()), 0) {}

MisResult GreedyMis::run(std::span<const InstanceId> candidates) {
  ++stamp_;
  MisResult result;
  result.rounds = 1;
  for (InstanceId i : candidates) {
    const DemandInstance& inst = problem_->instance(i);
    if (demand_stamp_[static_cast<std::size_t>(inst.demand)] == stamp_)
      continue;
    bool blocked = false;
    for (EdgeId e : inst.edges) {
      if (edge_stamp_[static_cast<std::size_t>(e)] == stamp_) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    demand_stamp_[static_cast<std::size_t>(inst.demand)] = stamp_;
    for (EdgeId e : inst.edges)
      edge_stamp_[static_cast<std::size_t>(e)] = stamp_;
    result.selected.push_back(i);
  }
  return result;
}

// ---------------------------------------------------------------------------
// SolveStats

void SolveStats::merge(const SolveStats& other) {
  epochs += other.epochs;
  stages += other.stages;
  steps += other.steps;
  max_steps_in_stage = std::max(max_steps_in_stage, other.max_steps_in_stage);
  raises += other.raises;
  mis_rounds += other.mis_rounds;
  comm_rounds += other.comm_rounds;
  messages += other.messages;
  message_bytes += other.message_bytes;
  dual_objective += other.dual_objective;
  dual_upper_bound += other.dual_upper_bound;
  // 0.0 means "no run contributed a lambda yet" — on either side.  An
  // unset side must not clobber a real value through std::min (a 0.0
  // lambda would then poison every bound derived from the merged stats).
  if (lambda_observed == 0.0) {
    lambda_observed = other.lambda_observed;
  } else if (other.lambda_observed != 0.0) {
    lambda_observed = std::min(lambda_observed, other.lambda_observed);
  }
  delta = std::max(delta, other.delta);
  xi = std::max(xi, other.xi);
  stages_per_epoch = std::max(stages_per_epoch, other.stages_per_epoch);
  interference_ok = interference_ok && other.interference_ok;
  lockstep_ok = lockstep_ok && other.lockstep_ok;
  mis_ok = mis_ok && other.mis_ok;
  mis_failed_steps += other.mis_failed_steps;
  mis_retries += other.mis_retries;
  epoch_setup_ns += other.epoch_setup_ns;
}

namespace {

// Monotone wall-clock reads for the stats' timing breakdown.  Timing
// only — no field the parity suites compare with == depends on these.
inline std::int64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// TwoPhaseEngine — shared setup

TwoPhaseEngine::TwoPhaseEngine(const Problem& problem, const LayeredPlan& plan,
                               SolverConfig config, MisOracle* oracle)
    : problem_(&problem),
      plan_(&plan),
      config_(config),
      oracle_(oracle),
      active_mask_(static_cast<std::size_t>(problem.num_instances()), 1),
      demand_seen_stamp_(static_cast<std::size_t>(problem.num_demands()), 0) {
  TS_REQUIRE(problem.finalized());
  TS_REQUIRE(plan.group.size() ==
             static_cast<std::size_t>(problem.num_instances()));
  TS_REQUIRE(config_.epsilon > 0.0 && config_.epsilon < 1.0);
  if (oracle_ == nullptr) {
    default_oracle_ = std::make_unique<GreedyMis>(problem);
    oracle_ = default_oracle_.get();
  }
}

void TwoPhaseEngine::restrict_to(std::vector<InstanceId> active) {
  std::fill(active_mask_.begin(), active_mask_.end(), 0);
  for (InstanceId i : active) {
    TS_REQUIRE(i >= 0 && i < problem_->num_instances());
    active_mask_[static_cast<std::size_t>(i)] = 1;
  }
}

void TwoPhaseEngine::count_notifications(InstanceId i, SolveStats& stats) {
  // A raised processor transmits its new dual values to every processor
  // owning an instance that shares an edge with the raised path (they
  // share beta variables).  Message payload is one demand record: end
  // points, network, profit, height and the raise amount (paper: O(M)
  // bits per message); we charge 48 bytes.
  ++notify_stamp_;
  const DemandInstance& inst = problem_->instance(i);
  std::int64_t neighbors = 0;
  for (EdgeId e : inst.edges) {
    for (InstanceId other : problem_->instances_on_edge(e)) {
      const DemandId od = problem_->instance(other).demand;
      if (od == inst.demand) continue;
      if (demand_seen_stamp_[static_cast<std::size_t>(od)] == notify_stamp_)
        continue;
      demand_seen_stamp_[static_cast<std::size_t>(od)] = notify_stamp_;
      ++neighbors;
    }
  }
  stats.messages += neighbors;
  stats.message_bytes += neighbors * 48;
}

TwoPhaseEngine::StageSchedule TwoPhaseEngine::prepare(SolveStats& stats) const {
  StageSchedule sched;
  // Delta, h_min, xi and the multi-stage count come from the shared
  // derivation (over the active instances only: the wide/narrow split
  // runs see different effective parameters).  A warm restart pins the
  // parameters of the *full* problem instead — a restricted re-solve
  // must replay the same stage schedule the cold solve uses, or the
  // per-component duals stop being exchangeable between the two.
  const StageParams params =
      pinned_params_ != nullptr
          ? *pinned_params_
          : derive_stage_params(*problem_, *plan_, active_mask_,
                                config_.rule, config_.epsilon,
                                config_.xi_override);
  stats.delta = params.delta;
  sched.any_active = params.any_active;
  if (!sched.any_active) return sched;

  sched.xi = params.xi;
  stats.xi = sched.xi;

  sched.stages_per_epoch = 1;
  sched.fixed_threshold = 1.0;  // kExact: raise until tight (lambda = 1)
  if (config_.stage_mode == StageMode::kMultiStage) {
    sched.stages_per_epoch = params.stages_per_epoch;
  } else if (config_.stage_mode == StageMode::kSingleStagePS) {
    // Panconesi-Sozio: a single stage per epoch with retirement at
    // 1/(5+eps)-satisfaction.
    sched.fixed_threshold = 1.0 / (5.0 + config_.epsilon);
  }
  stats.stages_per_epoch = sched.stages_per_epoch;
  sched.lockstep_budget =
      lockstep_step_budget(*problem_, config_.lockstep_slack);
  return sched;
}

double TwoPhaseEngine::stage_target(const StageSchedule& sched,
                                    int stage) const {
  return config_.stage_mode == StageMode::kMultiStage
             ? 1.0 - std::pow(sched.xi, stage)
             : sched.fixed_threshold;
}

void TwoPhaseEngine::finish(SolveResult& result,
                            std::vector<std::vector<InstanceId>>& stack) {
  SolveStats& stats = result.stats;
  // lambda == 0 (possible only when an oracle failure left an instance
  // completely unsatisfied) admits no finite scaled-dual certificate.
  stats.dual_upper_bound =
      stats.lambda_observed > 0.0
          ? stats.dual_objective / std::min(1.0, stats.lambda_observed)
          : std::numeric_limits<double>::infinity();
  {
    TRACE_SPAN("engine", "phase2_prune");
    result.solution = prune_stack(*problem_, stack);
  }
  stats.profit = result.solution.profit(*problem_);
  if (config_.keep_stack) {
    result.raise_stack = std::move(stack);
    result.stack_tags = std::move(stack_tags_);
    TS_DCHECK(result.raise_stack.size() == result.stack_tags.size());
  }
}

SolveResult TwoPhaseEngine::run() {
  TRACE_SPAN("engine", "run");
  SolveResult result;
  stack_tags_.clear();
  const StageSchedule sched = prepare(result.stats);
  if (config_.keep_lhs)
    result.final_lhs.assign(
        static_cast<std::size_t>(problem_->num_instances()), 0.0);
  if (!sched.any_active) {
    result.stats.lambda_observed = 1.0;
    return result;
  }
  run_phase1(sched, result);
  return result;
}

SolveResult TwoPhaseEngine::run_warm(const StageParams& pinned) {
  pinned_params_ = &pinned;
  SolveResult result = run();
  pinned_params_ = nullptr;
  return result;
}

// ---------------------------------------------------------------------------
// Phase 1: per-variable duals (one alpha per demand, one beta per global
// edge) + cached LHS + the per-stage unsatisfied frontier.  A raise marks
// stale, through the CSR edge->instances index, exactly the instances whose
// constraints read a raised variable; everyone else's cached LHS stays
// valid.  All arithmetic (the ordered beta walk, the objective accumulation
// order) deliberately replays the central reference's operation order (one
// DualState, full rescans), so the two agree bit for bit —
// tests/test_engine_parity.cpp compares with ==.

void TwoPhaseEngine::reset_duals() {
  const auto n = static_cast<std::size_t>(problem_->num_instances());
  alpha_.assign(static_cast<std::size_t>(problem_->num_demands()), 0.0);
  beta_.assign(static_cast<std::size_t>(problem_->num_global_edges()), 0.0);
  lhs_cache_.assign(n, 0.0);
  lhs_fresh_.assign(n, 1);  // all-zero duals
}

double TwoPhaseEngine::lhs_local(InstanceId i, double beta_coeff) {
  const auto k = static_cast<std::size_t>(i);
  if (!lhs_fresh_[k]) {
    const DemandInstance& inst = problem_->instance(i);
    double s = 0.0;
    for (EdgeId e : inst.edges) s += beta_[static_cast<std::size_t>(e)];
    lhs_cache_[k] = alpha_[static_cast<std::size_t>(inst.demand)] +
                    beta_coeff * s;
    lhs_fresh_[k] = 1;
  }
  return lhs_cache_[k];
}

void TwoPhaseEngine::apply_raise(InstanceId i, double delta,
                                 std::span<const double> increments) {
  const DemandInstance& inst = problem_->instance(i);
  if (config_.raise_alpha) {
    alpha_[static_cast<std::size_t>(inst.demand)] += delta;
    for (InstanceId k : problem_->instances_of_demand(inst.demand))
      lhs_fresh_[static_cast<std::size_t>(k)] = 0;
  }
  const auto& critical = plan_->critical[static_cast<std::size_t>(i)];
  for (std::size_t c = 0; c < critical.size(); ++c) {
    const EdgeId e = critical[c];
    beta_[static_cast<std::size_t>(e)] += increments[c];
    for (InstanceId k : problem_->instances_on_edge(e))
      lhs_fresh_[static_cast<std::size_t>(k)] = 0;
  }
}

void TwoPhaseEngine::bookkeep_raise(InstanceId i, double delta,
                                    std::span<const double> increments,
                                    double& objective, SolveStats& stats,
                                    std::vector<InstanceId>& raised_order) {
  const DemandInstance& inst = problem_->instance(i);
  const auto& critical = plan_->critical[static_cast<std::size_t>(i)];
  // Accumulation order mirrors DualState exactly: the alpha term first,
  // then the critical edges in order, capacity-weighted.
  if (config_.raise_alpha) objective += delta;
  for (std::size_t c = 0; c < critical.size(); ++c)
    objective += problem_->capacity(critical[c]) * increments[c];
  ++stats.raises;

  if (config_.check_interference) {
    for (InstanceId prev : raised_order) {
      if (!problem_->overlap(prev, i)) continue;
      const auto& path_i = inst.edges;
      bool hit = false;
      for (EdgeId e : plan_->critical[static_cast<std::size_t>(prev)]) {
        if (std::binary_search(path_i.begin(), path_i.end(), e)) {
          hit = true;
          break;
        }
      }
      if (!hit) stats.interference_ok = false;
    }
  }
  raised_order.push_back(i);

  if (config_.count_messages) count_notifications(i, stats);
}

void TwoPhaseEngine::run_phase1(const StageSchedule& sched,
                                SolveResult& result) {
  SolveStats& stats = result.stats;
  const RaiseRule rule(config_.rule, *problem_, config_.raise_alpha,
                       config_.capacity_aware_raises);
  reset_duals();
  double objective = 0.0;

  std::vector<std::vector<InstanceId>> stack;
  std::vector<InstanceId> raised_order;
  std::vector<InstanceId> members;

  for (int g = 0; g < plan_->num_groups; ++g) {
    const auto setup_start = std::chrono::steady_clock::now();
    members.clear();
    for (InstanceId i : plan_->members[static_cast<std::size_t>(g)])
      if (is_active(i)) members.push_back(i);
    stats.epoch_setup_ns += elapsed_ns(setup_start);
    if (members.empty()) continue;
    ++stats.epochs;
    TRACE_SPAN1("engine", "epoch", "group", g);
    run_epoch(members, rule, sched, g, objective, stats, stack, raised_order);
  }

  // Certification: every instance reports its own satisfaction level (the
  // same operation sequence as observed_lambda over a central DualState).
  stats.dual_objective = objective;
  double lambda = 1.0;
  bool any = false;
  for (InstanceId i = 0; i < problem_->num_instances(); ++i) {
    if (!is_active(i)) continue;
    const DemandInstance& inst = problem_->instance(i);
    const double lhs = lhs_local(i, rule.beta_coeff(inst));
    const double level = lhs / inst.profit;
    lambda = any ? std::min(lambda, level) : level;
    any = true;
  }
  stats.lambda_observed = any ? lambda : 1.0;
  if (config_.keep_lhs) {
    for (InstanceId i = 0; i < problem_->num_instances(); ++i) {
      if (!is_active(i)) continue;
      const DemandInstance& inst = problem_->instance(i);
      result.final_lhs[static_cast<std::size_t>(i)] =
          lhs_local(i, rule.beta_coeff(inst));
    }
  }
  finish(result, stack);
}

// ---------------------------------------------------------------------------
// One epoch: the group's stages run inline on the caller's oracle.  Each
// per-variable dual receives its increments in (step, id) order, exactly
// the chronological order the reference applies them in, which keeps the
// engine bit-identical to it.

void TwoPhaseEngine::run_epoch(
    const std::vector<InstanceId>& members, const RaiseRule& rule,
    const StageSchedule& sched, int group, double& objective,
    SolveStats& stats, std::vector<std::vector<InstanceId>>& stack,
    std::vector<InstanceId>& raised_order) {
  TRACE_SPAN2("engine", "solve", "size", members.size(), "group", group);
  for (int j = 1; j <= sched.stages_per_epoch; ++j) {
    ++stats.stages;
    const double target = stage_target(sched, j);
    int steps_this_stage = 0;
    int rows_this_stage = 0;
    bool scanned = false;
    for (;;) {
      if (!scanned) {
        unsat_.clear();
        for (InstanceId i : members)
          if (unsatisfied_local(i, rule, target)) unsat_.push_back(i);
        scanned = true;
      } else {
        std::size_t w = 0;
        for (std::size_t r = 0; r < unsat_.size(); ++r)
          if (unsatisfied_local(unsat_[r], rule, target))
            unsat_[w++] = unsat_[r];
        unsat_.resize(w);
      }
      if (config_.lockstep && steps_this_stage >= sched.lockstep_budget) {
        if (!unsat_.empty()) stats.lockstep_ok = false;
        break;
      }
      if (unsat_.empty()) {
        // U is empty before the budget: the lockstep schedule idles
        // through the remaining steps (one Luby iteration + propagation
        // each) exactly as the reference does.
        if (config_.lockstep) {
          const int idle = sched.lockstep_budget - steps_this_stage;
          stats.steps += idle;
          stats.mis_rounds += 2 * static_cast<std::int64_t>(idle);
          stats.comm_rounds += 3 * static_cast<std::int64_t>(idle);
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
      if (mis.selected.empty()) {
        stats.mis_ok = false;
        ++stats.mis_failed_steps;
        TRACE_COUNTER("engine.mis_failed_steps", 1);
        if (config_.lockstep) continue;
        stats.lockstep_ok = false;
        break;
      }
      winners_.clear();
      for (InstanceId i : mis.selected) {
        const DemandInstance& inst = problem_->instance(i);
        const auto& critical = plan_->critical[static_cast<std::size_t>(i)];
        const double slack = inst.profit - lhs_local(i, rule.beta_coeff(inst));
        TS_DCHECK(slack > 0.0);
        const double delta =
            rule.tight_raise(inst, critical, slack, increments_);
        apply_raise(i, delta, increments_);
        // The raise must satisfy i's constraint tightly (paper, 3.2).
        TS_DCHECK(std::abs(lhs_local(i, rule.beta_coeff(inst)) -
                           inst.profit) <= 1e-6 * std::max(1.0, inst.profit));
        winners_.emplace_back(i, delta);
      }
      // Winners are logged in ascending id order whatever order the
      // oracle reports them in (raises within a step commute, so the
      // order is safe and deterministic); the reference raises in the
      // same order.  Ids are unique, so the pair sort is an id sort; the
      // in-repo oracles already report ascending ids, which the check
      // passes without sorting.
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

// ---------------------------------------------------------------------------

int lockstep_step_budget(const Problem& problem, int slack) {
  // Claim 5.2 budget with guards: a zero/denormal min_profit or an
  // overflowing ratio must yield a finite budget, never UB from casting
  // inf/NaN to int.  The log term is capped at 62 (a profit range beyond
  // 2^62 is outside any double's meaningful precision anyway) and the
  // whole budget clamped to >= 1 so degenerate slack cannot disable the
  // schedule.
  const double pmax = problem.max_profit();
  const double pmin = problem.min_profit();
  double log_range = 0.0;
  if (pmin > 0.0 && pmax > pmin) {
    const double ratio = pmax / pmin;
    if (std::isfinite(ratio))
      log_range = std::min(std::ceil(std::log2(ratio)), 62.0);
    else
      log_range = 62.0;
  }
  return std::max(1, 1 + slack + static_cast<int>(log_range));
}

double target_lambda(StageMode mode, double epsilon) {
  return mode == StageMode::kSingleStagePS ? 1.0 / (5.0 + epsilon)
                                           : 1.0 - epsilon;
}

StageParams derive_stage_params(const Problem& problem,
                                const LayeredPlan& plan,
                                const std::vector<char>& active_mask,
                                RaiseRuleKind rule, double epsilon,
                                double xi_override) {
  StageParams params;
  for (InstanceId i = 0; i < problem.num_instances(); ++i) {
    if (!active_mask[static_cast<std::size_t>(i)]) continue;
    params.any_active = true;
    params.h_min = std::min(params.h_min, problem.instance(i).height);
    params.delta = std::max(
        params.delta,
        static_cast<int>(plan.critical[static_cast<std::size_t>(i)].size()));
  }
  if (!params.any_active) return params;

  params.xi = xi_override > 0.0
                  ? xi_override
                  : RaiseRule::default_xi(rule, params.delta, params.h_min);
  // Smallest b with xi^b <= eps.
  params.stages_per_epoch = std::max(
      1, static_cast<int>(std::ceil(std::log(epsilon) / std::log(params.xi))));
  return params;
}

// ---------------------------------------------------------------------------
// Convenience wrappers

SolveResult solve_with_plan(const Problem& problem, const LayeredPlan& plan,
                            const SolverConfig& config, MisOracle* oracle) {
  TwoPhaseEngine engine(problem, plan, config, oracle);
  return engine.run();
}

HeightClasses classify_wide_narrow(const Problem& problem) {
  HeightClasses classes;
  const int n = problem.num_instances();
  classes.wide_mask.assign(static_cast<std::size_t>(std::max(n, 1)), 0);
  classes.narrow_mask.assign(static_cast<std::size_t>(std::max(n, 1)), 0);
  for (InstanceId i = 0; i < n; ++i) {
    if (is_wide_instance(problem.instance(i))) {
      classes.wide_ids.push_back(i);
      classes.wide_mask[static_cast<std::size_t>(i)] = 1;
    } else {
      classes.narrow_ids.push_back(i);
      classes.narrow_mask[static_cast<std::size_t>(i)] = 1;
    }
  }
  return classes;
}

SolveResult solve_height_split(const Problem& problem, const LayeredPlan& plan,
                               const SolverConfig& config, MisOracle* oracle) {
  const HeightClasses classes = classify_wide_narrow(problem);

  SolveResult combined;
  std::vector<SolveResult> parts;
  if (classes.has_wide()) {
    SolverConfig wide_config = config;
    wide_config.rule = RaiseRuleKind::kUnit;
    TwoPhaseEngine engine(problem, plan, wide_config, oracle);
    engine.restrict_to(classes.wide_ids);
    parts.push_back(engine.run());
  }
  if (classes.has_narrow()) {
    SolverConfig narrow_config = config;
    narrow_config.rule = RaiseRuleKind::kNarrow;
    TwoPhaseEngine engine(problem, plan, narrow_config, oracle);
    engine.restrict_to(classes.narrow_ids);
    parts.push_back(engine.run());
  }
  if (parts.size() == 1) return std::move(parts.front());
  TS_REQUIRE(parts.size() == 2);

  combined.solution = combine_better_of_per_network(
      problem, parts[0].solution, parts[1].solution);
  combined.stats = parts[0].stats;
  combined.stats.merge(parts[1].stats);
  combined.stats.profit = combined.solution.profit(problem);
  return combined;
}

std::int64_t better_of_convergecast_rounds(const Problem& problem) {
  // Each network aggregates its two candidate per-network profits up the
  // tree (max depth rounds), the root compares (1 round) and broadcasts
  // the winner down (max depth rounds); all networks cast concurrently.
  int max_depth = 0;
  for (NetworkId q = 0; q < problem.num_networks(); ++q) {
    const TreeNetwork& t = problem.network(q);
    for (VertexId v = 0; v < t.num_vertices(); ++v)
      max_depth = std::max(max_depth, t.depth(v));
  }
  return max_depth > 0 ? 2 * static_cast<std::int64_t>(max_depth) + 1 : 0;
}

Solution combine_better_of_per_network(const Problem& problem,
                                       const Solution& s1,
                                       const Solution& s2) {
  Solution combined;
  std::vector<double> profit1(static_cast<std::size_t>(problem.num_networks()),
                              0.0);
  std::vector<double> profit2 = profit1;
  for (InstanceId i : s1.selected)
    profit1[static_cast<std::size_t>(problem.instance(i).network)] +=
        problem.instance(i).profit;
  for (InstanceId i : s2.selected)
    profit2[static_cast<std::size_t>(problem.instance(i).network)] +=
        problem.instance(i).profit;
  for (InstanceId i : s1.selected) {
    const auto q = static_cast<std::size_t>(problem.instance(i).network);
    if (profit1[q] >= profit2[q]) combined.selected.push_back(i);
  }
  for (InstanceId i : s2.selected) {
    const auto q = static_cast<std::size_t>(problem.instance(i).network);
    if (profit1[q] < profit2[q]) combined.selected.push_back(i);
  }
  return combined;
}

}  // namespace treesched

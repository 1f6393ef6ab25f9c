#include "framework/two_phase.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "framework/phase1.hpp"
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

TwoPhaseEngine::StageSchedule TwoPhaseEngine::prepare(
    SolveStats& stats, const StageParams* pinned) const {
  StageSchedule sched;
  // Delta, h_min, xi and the multi-stage count come from the shared
  // derivation (over the active instances only: the wide/narrow split
  // runs see different effective parameters).  A warm restart pins the
  // parameters of the *full* problem instead — a restricted re-solve
  // must replay the same stage schedule the cold solve uses, or the
  // per-component duals stop being exchangeable between the two.
  const StageParams params =
      pinned != nullptr
          ? *pinned
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

// ---------------------------------------------------------------------------
// The model's dual store: one alpha per demand, one beta per global edge,
// and a cached LHS per instance.  A raise writes its O(|critical edges|)
// values and marks stale, through the Problem's CSR edge->instances index,
// exactly the instances whose constraints read a raised variable; a stale
// LHS is recomputed by the ordered beta walk (DualState::lhs's operation
// order) when next read, so tests/test_engine_parity.cpp can compare with
// ==.  The model runs no rounds: the step and idle hooks are empty.

namespace {

struct ModelDuals {
  const Problem* problem;
  bool raise_alpha;
  std::vector<double> alpha, beta, lhs_cache;
  std::vector<char> lhs_fresh;

  ModelDuals(const Problem& p, bool raises_alpha)
      : problem(&p),
        raise_alpha(raises_alpha),
        alpha(static_cast<std::size_t>(p.num_demands()), 0.0),
        beta(static_cast<std::size_t>(p.num_global_edges()), 0.0),
        lhs_cache(static_cast<std::size_t>(p.num_instances()), 0.0),
        lhs_fresh(static_cast<std::size_t>(p.num_instances()), 1) {}

  double lhs(InstanceId i, double beta_coeff) {
    const auto k = static_cast<std::size_t>(i);
    if (!lhs_fresh[k]) {
      const DemandInstance& inst = problem->instance(i);
      double s = 0.0;
      for (EdgeId e : inst.edges) s += beta[static_cast<std::size_t>(e)];
      lhs_cache[k] =
          alpha[static_cast<std::size_t>(inst.demand)] + beta_coeff * s;
      lhs_fresh[k] = 1;
    }
    return lhs_cache[k];
  }

  void raise(InstanceId i, double delta, std::span<const EdgeId> critical,
             std::span<const double> increments) {
    const DemandId a = problem->instance(i).demand;
    if (raise_alpha) {
      alpha[static_cast<std::size_t>(a)] += delta;
      for (InstanceId k : problem->instances_of_demand(a))
        lhs_fresh[static_cast<std::size_t>(k)] = 0;
    }
    for (std::size_t c = 0; c < critical.size(); ++c) {
      beta[static_cast<std::size_t>(critical[c])] += increments[c];
      for (InstanceId k : problem->instances_on_edge(critical[c]))
        lhs_fresh[static_cast<std::size_t>(k)] = 0;
    }
  }

  void end_step() {}
  void idle(std::int64_t /*steps*/) {}
};

}  // namespace

SolveResult TwoPhaseEngine::run() {
  ModelDuals duals(*problem_, config_.raise_alpha);
  return run_on(duals, nullptr);
}

SolveResult TwoPhaseEngine::run_warm(const StageParams& pinned) {
  ModelDuals duals(*problem_, config_.raise_alpha);
  return run_on(duals, &pinned);
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

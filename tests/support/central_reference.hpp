// The central reference phase-1 engine: the parity oracle the exact-==
// suites hold TwoPhaseEngine to.
//
// It is the paper's phase 1 written the direct way, on the library's
// public API only: one central DualState, and every step rescans the
// whole group and recomputes each LHS from scratch with DualState::lhs.
// Stage schedule, raise arithmetic, certification and phase 2 come from
// the same shared definitions the engine uses (derive_stage_params,
// lockstep_step_budget, RaiseRule::tight_raise, observed_lambda,
// prune_stack, classify_wide_narrow, combine_better_of_per_network), so
// the reference and the engine can only differ in how phase 1 is
// executed — which is exactly what the parity suites test.
//
// It lives in test support, not in the library: nothing in production
// runs it.  The parity suites and bench_f12's `central` arm link it.
#pragma once

#include <span>

#include "decomp/layered.hpp"
#include "framework/two_phase.hpp"
#include "model/problem.hpp"

namespace treesched::reference {

// Phase 1 + phase 2 over every instance.  Fills every SolveResult field
// the engine fills for the same config (stats, keep_stack's raise stack
// and tags, keep_lhs's final LHS); the timing fields stay zero.
// `oracle` may be null (a fresh GreedyMis).  Each step raises the
// oracle's winners in ascending id order, as the engine does.
SolveResult solve(const Problem& problem, const LayeredPlan& plan,
                  const SolverConfig& config, MisOracle* oracle = nullptr);

// The same over the instances in `active` only (TwoPhaseEngine::
// restrict_to's semantics: phase 2 still checks the full capacities).
SolveResult solve_restricted(const Problem& problem, const LayeredPlan& plan,
                             const SolverConfig& config,
                             std::span<const InstanceId> active,
                             MisOracle* oracle = nullptr);

// The Section 6 height split (solve_height_split's semantics): the unit
// rule on the wide class, the narrow rule on the rest, combined per
// network with the merged stats.
SolveResult solve_height_split(const Problem& problem,
                               const LayeredPlan& plan,
                               const SolverConfig& config,
                               MisOracle* oracle = nullptr);

}  // namespace treesched::reference

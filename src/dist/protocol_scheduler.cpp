#include "dist/protocol_scheduler.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/rng.hpp"
#include "dist/discovery.hpp"
#include "dist/luby_mis.hpp"
#include "dist/runtime.hpp"
#include "framework/certify.hpp"
#include "framework/dual_shard.hpp"
#include "framework/phase1.hpp"
#include "framework/two_phase.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched {

namespace {

// Message tags beyond the Luby rounds (kLubyTagDraw/kLubyTagWinner) and
// the rendezvous rounds (kTagRegister/kTagBucket).
constexpr int kTagRaise = 2;  // payload: encode_raise() wire format
constexpr int kTagKeep = 3;   // phase 2: {}

// State shared by the passes of one protocol run: the runtime, the
// discovered neighborhoods, and the per-processor random streams.  The
// streams persist across passes (a processor owns one stream for the
// whole computation); the dual shards do not — each pass raises a fresh
// dual system, exactly as each restricted run of the modeled height
// split does.
struct ProtocolState {
  int n = 0;
  Runtime rt;
  DiscoveredNeighborhoods hood;
  std::vector<Rng> node_rng;

  ProtocolState(const Problem& problem, const LayeredPlan& plan,
                const ProtocolOptions& options)
      : n(problem.num_instances()),
        rt(std::max(RendezvousLayout::for_problem(problem, n).total, 1),
           options.transport, &options.faults) {
    TS_REQUIRE(problem.finalized());
    TS_REQUIRE(plan.group.size() == static_cast<std::size_t>(n));
    TS_REQUIRE(options.epsilon > 0.0 && options.epsilon < 1.0);
    // One runtime node per instance plus the rendezvous owner nodes.  The
    // conflict neighborhoods are *discovered*, not built: the 2-round
    // edge-owner rendezvous replaces the global ConflictGraph and is
    // charged to the same counters as every other protocol round.
    TRACE_SPAN1("protocol", "discovery", "instances", n);
    std::vector<InstanceId> all(static_cast<std::size_t>(n));
    for (InstanceId i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
    hood = discover_conflicts(problem, {all.data(), all.size()}, rt);
    node_rng = make_node_streams(options.seed, n);
  }
};

// The wire's dual store: processor i's DualShard holds exactly the
// variables its own constraint reads, read through the ordered beta walk
// (the central DualState's float operation order).  A raise updates the
// winner's shard and posts the increments to its discovered neighbors;
// the step's closing round delivers them and every receiver applies what
// it got.  The store also counts the pass's tuples, notes the tuple of
// every stack row (phase 2 replays each row in its tuple's round) and
// logs the raise amounts row by row for the degraded-mode certificate.
struct WireDuals {
  ProtocolState* st;
  std::int64_t rounds_per_tuple;  // 2 * luby_budget + 1
  std::vector<DualShard> shard;
  std::vector<char> mail_mark;
  std::vector<int> mailed;
  std::int64_t tuples = 0;
  std::vector<std::int64_t> row_tuples;      // tuple of each stack row
  std::vector<std::vector<double>> amounts;  // parallel to the stack rows
  std::vector<double> row_amounts;

  WireDuals(const Problem& problem, ProtocolState& state, int luby_budget)
      : st(&state),
        rounds_per_tuple(2 * static_cast<std::int64_t>(luby_budget) + 1),
        mail_mark(static_cast<std::size_t>(state.n), 0) {
    shard.reserve(static_cast<std::size_t>(state.n));
    for (InstanceId i = 0; i < state.n; ++i) {
      const DemandInstance& inst = problem.instance(i);
      shard.emplace_back(inst.demand, std::span<const EdgeId>{
                                          inst.edges.data(),
                                          inst.edges.size()});
    }
  }

  double lhs(InstanceId i, double beta_coeff) const {
    return shard[static_cast<std::size_t>(i)].lhs_ordered(beta_coeff);
  }

  void raise(InstanceId i, double delta, std::span<const EdgeId> critical,
             std::span<const double> increments) {
    DualShard& mine = shard[static_cast<std::size_t>(i)];
    mine.raise_alpha(delta);
    for (std::size_t c = 0; c < critical.size(); ++c)
      mine.raise_beta(critical[c], increments[c]);
    row_amounts.push_back(delta);
    broadcast(i, kTagRaise,
              encode_raise(mine.demand(), delta, critical, increments));
  }

  void end_step() {
    if (!row_amounts.empty()) {
      row_tuples.push_back(tuples);
      amounts.push_back(std::exchange(row_amounts, {}));
    }
    ++tuples;
    deliver();
  }

  // Tuples with nothing to raise: their rounds pass in silence.
  void idle(std::int64_t count) {
    tuples += count;
    for (std::int64_t r = 0; r < count * rounds_per_tuple; ++r) st->rt.step();
  }

  // Posts `payload` from i to each of its discovered neighbors.
  void broadcast(InstanceId i, int tag, const std::vector<double>& payload) {
    for (int u : st->hood.neighbors[static_cast<std::size_t>(i)]) {
      st->rt.post(Message{i, u, tag, payload});
      if (!mail_mark[static_cast<std::size_t>(u)]) {
        mail_mark[static_cast<std::size_t>(u)] = 1;
        mailed.push_back(u);
      }
    }
  }

  // Closes the round and drains only the processors that were sent mail,
  // applying the raise propagations (keeps carry nothing to apply).
  // Inboxes are recycled so the serialized backends' decode loop stays
  // free of steady-state allocation.
  void deliver() {
    st->rt.step();
    for (int v : mailed) {
      mail_mark[static_cast<std::size_t>(v)] = 0;
      std::vector<Message> inbox = st->rt.drain(v);
      for (const Message& m : inbox)
        if (m.tag == kTagRaise)
          shard[static_cast<std::size_t>(v)].apply_raise(
              {m.data.data(), m.data.size()});
      st->rt.recycle(std::move(inbox));
    }
    mailed.clear();
  }
};

// One pass: `kind` over the instances with active[i] != 0, on fresh
// shards, under the pass's own fixed schedule.  Precondition: at least
// one active instance (the caller skips empty classes).
ProtocolPass run_pass(const Problem& problem, const LayeredPlan& plan,
                      RaiseRuleKind kind, const std::vector<char>& active,
                      const ProtocolOptions& options, int luby_budget,
                      ProtocolState& st) {
  const int n = st.n;
  const std::int64_t rounds_before = st.rt.round();
  const std::int64_t messages_before = st.rt.messages_sent();
  const std::int64_t bytes_before = st.rt.bytes_sent();

  obs::SpanGuard pass_span("protocol", "pass", "rule",
                           static_cast<std::int64_t>(kind));
  ProtocolPass pass;
  pass.rule = kind;
  std::vector<InstanceId> members;
  for (InstanceId i = 0; i < n; ++i)
    if (active[static_cast<std::size_t>(i)]) members.push_back(i);
  pass.instances = static_cast<int>(members.size());
  pass_span.arg("instances", pass.instances);

  // The fixed schedule, shared derivation with the modeled engine:
  // derive_stage_params is the same call TwoPhaseEngine::prepare makes
  // for this rule and instance class.
  const StageParams params = derive_stage_params(problem, plan, active, kind,
                                                 options.epsilon);
  TS_REQUIRE(params.any_active);
  pass.epochs = plan.num_groups;
  pass.delta = params.delta;
  pass.h_min = params.h_min;
  pass.xi = params.xi;
  pass.stages_per_epoch = params.stages_per_epoch;
  pass.steps_per_stage = lockstep_step_budget(problem, options.lockstep_slack);
  pass.tuples = static_cast<std::int64_t>(pass.epochs) *
                pass.stages_per_epoch * pass.steps_per_stage;

  // ---- Phase 1: the engine's lockstep epoch loop on the wire ---------------
  // The wire supplies the dual store (per-processor shards, raises on the
  // wire) and the MIS oracle (Luby on the runtime); the stack the engine
  // returns holds the raising steps only.
  SolverConfig config;
  config.epsilon = options.epsilon;
  config.rule = kind;
  config.capacity_aware_raises = options.capacity_aware_raises;
  config.lockstep = true;
  config.lockstep_slack = options.lockstep_slack;
  config.keep_stack = true;
  WireLubyMis luby(st.rt,
                   {st.hood.neighbors.data(), st.hood.neighbors.size()},
                   st.node_rng, luby_budget);
  WireDuals duals(problem, st, luby_budget);
  TwoPhaseEngine engine(problem, plan, config, &luby);
  engine.restrict_to(std::move(members));
  SolveResult phase1 = engine.run_on(duals, &params);
  TS_REQUIRE(duals.tuples == pass.tuples);
  pass.solution = std::move(phase1.solution);
  pass.schedule_ok = phase1.stats.lockstep_ok;
  pass.lambda_observed = phase1.stats.lambda_observed;
  pass.mis_retries = phase1.stats.mis_retries;
  pass.mis_ok = luby.mis_ok();
  pass.mis_retry_rounds = luby.retry_rounds();
  const std::vector<std::vector<InstanceId>>& stack = phase1.raise_stack;

  // ---- Phase 2: reverse replay, 1 keep/drop round per tuple ---------------
  {
    TRACE_SPAN("protocol", "phase2_replay");
    // Each kept instance announces once, at its latest row.
    std::vector<char> unannounced(static_cast<std::size_t>(std::max(n, 1)), 0);
    for (InstanceId i : pass.solution.selected)
      unannounced[static_cast<std::size_t>(i)] = 1;
    std::size_t row = stack.size();
    for (std::int64_t t = pass.tuples - 1; t >= 0; --t) {
      if (row > 0 && duals.row_tuples[row - 1] == t) {
        for (InstanceId i : stack[--row]) {
          if (!unannounced[static_cast<std::size_t>(i)]) continue;
          unannounced[static_cast<std::size_t>(i)] = 0;
          duals.broadcast(i, kTagKeep, {});
        }
      }
      duals.deliver();
    }
  }

  // final_lhs covers *all* instances — bystander shards applied the
  // incoming raises too, so the whole vector equals a central DualState
  // replay of the pass's stack.
  const RaiseRule rule(kind, problem, /*raise_alpha=*/true,
                       options.capacity_aware_raises);
  pass.final_lhs.resize(static_cast<std::size_t>(n));
  for (InstanceId i = 0; i < n; ++i)
    pass.final_lhs[static_cast<std::size_t>(i)] =
        duals.lhs(i, rule.beta_coeff(problem.instance(i)));

  pass.rounds = st.rt.round() - rounds_before;
  pass.messages = st.rt.messages_sent() - messages_before;
  pass.bytes = st.rt.bytes_sent() - bytes_before;

  // Degraded-mode contract: if the recovery layer lost a frame, the
  // shard-reported certificate may undercount — re-validate it against a
  // central replay of the raises actually applied (framework/certify.hpp).
  pass.degraded = st.rt.degraded();
  if (pass.degraded) {
    const ShardCertificate cert = validate_shard_certificate(
        problem, plan, rule, stack, duals.amounts,
        {pass.final_lhs.data(), pass.final_lhs.size()}, pass.lambda_observed,
        active);
    pass.certificate_ok = cert.valid;
  }

  if (options.keep_stack) pass.raise_stack = std::move(phase1.raise_stack);
  return pass;
}

// The shared preamble of both entry points: the fixed schedule scalars
// every pass shares, plus the discovery share of the accounting.
ProtocolRunResult init_result(const Problem& problem, const LayeredPlan& plan,
                              const ProtocolOptions& options,
                              const ProtocolState& st) {
  ProtocolRunResult result;
  result.discovery_rounds = st.hood.rounds;
  result.discovery_messages = st.hood.messages;
  result.discovery_bytes = st.hood.bytes;
  result.discovery_registration_bytes = st.hood.registration_bytes;
  result.discovery_reply_bytes = st.hood.reply_bytes;
  result.luby_budget = options.luby_budget > 0
                           ? options.luby_budget
                           : default_luby_budget(problem.num_instances());
  result.epochs = plan.num_groups;
  result.steps_per_stage =
      lockstep_step_budget(problem, options.lockstep_slack);
  return result;
}

// Mirrors a lone pass into the top-level convenience fields.
void mirror_single_pass(ProtocolRunResult& result, bool keep_stack) {
  const ProtocolPass& pass = result.passes.front();
  result.stages_per_epoch = pass.stages_per_epoch;
  result.solution = pass.solution;
  result.final_lhs = pass.final_lhs;
  if (keep_stack) result.raise_stack = pass.raise_stack;
}

void finish_run(ProtocolRunResult& result, const ProtocolState& st) {
  // combine_rounds is a modeled charge (the converge-cast is not
  // executed on the runtime), added on top of the rounds the runtime
  // actually stepped through.
  result.rounds = st.rt.round() + result.combine_rounds;
  result.messages = st.rt.messages_sent();
  result.bytes = st.rt.bytes_sent();
  result.transport = st.rt.transport_kind();
  result.codec_encoded = st.rt.codec_encoded();
  result.codec_decoded = st.rt.codec_decoded();
  result.degraded = st.rt.degraded();
  if (const FaultStats* fs = st.rt.fault_stats()) result.fault = *fs;
  // A pass's lambda_observed is always a real observed minimum (passes
  // run on non-empty classes only), so — unlike SolveStats::merge, whose
  // 0.0 means "no run contributed yet" — a 0.0 here is a genuine
  // finding (some member never got raised) and must survive the merge:
  // the theorem wrappers turn it into an infinite bound, never a false
  // certificate.
  bool any = false;
  for (const ProtocolPass& pass : result.passes) {
    result.mis_ok = result.mis_ok && pass.mis_ok;
    result.schedule_ok = result.schedule_ok && pass.schedule_ok;
    result.mis_retries += pass.mis_retries;
    result.certificate_ok = result.certificate_ok && pass.certificate_ok;
    result.lambda_observed =
        any ? std::min(result.lambda_observed, pass.lambda_observed)
            : pass.lambda_observed;
    any = true;
  }
  if (!any) result.lambda_observed = 1.0;
}

}  // namespace

ProtocolRunResult run_distributed_protocol(const Problem& problem,
                                           const LayeredPlan& plan,
                                           const ProtocolOptions& options) {
  const int n = problem.num_instances();

  ProtocolState st(problem, plan, options);
  ProtocolRunResult result = init_result(problem, plan, options, st);
  std::vector<char> all(static_cast<std::size_t>(std::max(n, 1)), 1);
  if (n > 0) {
    result.passes.push_back(run_pass(problem, plan, options.rule, all,
                                     options, result.luby_budget, st));
    mirror_single_pass(result, options.keep_stack);
  }
  finish_run(result, st);
  return result;
}

ProtocolRunResult run_height_split_protocol(const Problem& problem,
                                            const LayeredPlan& plan,
                                            const ProtocolOptions& options) {
  ProtocolState st(problem, plan, options);
  ProtocolRunResult result = init_result(problem, plan, options, st);

  // The Section 6 classes, from the same builder the modeled
  // solve_height_split uses.  A class with no members is skipped
  // entirely (it would be an all-idle schedule), matching the modeled
  // path, which runs one engine per non-empty class only.
  const HeightClasses classes = classify_wide_narrow(problem);
  if (classes.has_wide())
    result.passes.push_back(run_pass(problem, plan, RaiseRuleKind::kUnit,
                                     classes.wide_mask, options,
                                     result.luby_budget, st));
  if (classes.has_narrow())
    result.passes.push_back(run_pass(problem, plan, RaiseRuleKind::kNarrow,
                                     classes.narrow_mask, options,
                                     result.luby_budget, st));

  if (result.passes.size() == 1) {
    mirror_single_pass(result, options.keep_stack);
  } else if (result.passes.size() == 2) {
    // Per-network better-of combination (paper, Theorem 6.3): the same
    // helper the modeled solve_height_split uses — the two entry points
    // share one combination arithmetic, and the parity suite compares
    // the selected sets with ==.  The combination is not free on the
    // wire: charge the per-network converge-cast that elects the winner
    // (the same term the modeled solve_arbitrary charges).
    result.solution = combine_better_of_per_network(
        problem, result.passes[0].solution, result.passes[1].solution);
    result.combine_rounds = better_of_convergecast_rounds(problem);
  }
  finish_run(result, st);
  return result;
}

}  // namespace treesched

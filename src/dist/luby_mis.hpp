// Luby's randomized maximal-independent-set algorithm (paper, Section 5:
// the T_MIS = O(log n) factor of Theorem 5.3), in two forms.
//
// run_luby_protocol() is the *message-level* implementation: one Runtime
// node per member instance.  It first learns the conflict neighborhoods
// through the 2-round edge-owner rendezvous of dist/discovery.hpp — no
// global conflict graph is ever built — then runs WireLubyMis (the
// oracle of the wire protocol's passes too) on the discovered adjacency
// until every node has decided.  Each iteration costs exactly 2 synchronous
// rounds — round 1 exchanges the random draws, round 2 notifies
// neighbors of the winners — and a node joins the MIS when its
// (draw, id) key beats every live neighbor's.  Losers adjacent to a
// winner retire; the loop ends when every node has decided.  Isolated
// nodes win in the first iteration without sending anything, so a
// conflict-free member set finishes in 2 discovery rounds + 2 Luby
// rounds with only the registration messages on the wire.
//
// LubyMis is the oracle the two-phase engine consumes
// (framework/two_phase.hpp).  It runs the same iteration structure on the
// same per-node streams, but on the *implicit* conflict cliques
// (per-edge and per-demand minima) instead of an explicit graph —
// O(sum path length) per iteration, no graph construction — and reports
// the same round accounting: MisResult.rounds = 2 rounds per iteration.
// Both forms are deterministic by seed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "common/rng.hpp"
#include "dist/runtime.hpp"
#include "framework/two_phase.hpp"
#include "model/problem.hpp"

namespace treesched {

// Message tags of the Luby protocol rounds.
inline constexpr int kLubyTagDraw = 0;    // payload: {draw value}
inline constexpr int kLubyTagWinner = 1;  // payload: {}

// Per-processor private random streams: SplitMix64 expands one seed into
// `count` independent Rng streams, one per node, so a node's draws do not
// depend on the order anyone iterates the nodes in.  The message-level
// protocol and its modeled twin (LubyMis below) both build their
// streams through this one helper, which is what makes their Luby
// decisions — and hence the protocol-vs-engine parity suite's exact
// comparisons — reproducible from the seed alone.
std::vector<Rng> make_node_streams(std::uint64_t seed, int count);

// The protocol scheduler's default Luby iteration budget: 2*ceil(log2 n)
// + 2 iterations decide every node w.h.p. (Luby's analysis).  Exposed so
// the modeled mirror oracle and the tests derive the same number.
int default_luby_budget(int n);

// Retry attempts of a starved fixed budget (run_luby_schedule below), so
// it recovers instead of silently degrading into mis_ok=false.  The bound
// of the modeled oracle (LubyMis::budgeted) and of the wire's
// (WireLubyMis) alike, so their lockstep parity is preserved.
inline constexpr int kDefaultMisMaxRetries = 2;

// What one run of the Luby schedule executed.
struct LubySchedule {
  int iterations = 0;        // main-schedule iterations
  int retries = 0;           // budget retry attempts entered
  int retry_iterations = 0;  // iterations the retries executed
};

// The one Luby schedule, shared by LubyMis and WireLubyMis (the wire
// protocol's oracle).  `iterate()` runs one Luby iteration and returns
// whether undecided candidates remain; `undecided` says whether any do
// before the first.  The main schedule iterates while anyone is
// undecided, up to `budget` iterations (0: no bound).  A budget that
// ends with undecided candidates is then retried with the budget
// doubled per attempt (2x, 4x, ...), up to `max_retries` attempts.
// Stopping early once everyone has decided consumes no further draws;
// a fixed-budget caller charges (or steps through) the silent remainder
// itself.
template <class Iterate>
LubySchedule run_luby_schedule(int budget, int max_retries, bool undecided,
                               Iterate&& iterate) {
  LubySchedule run;
  while (undecided && (budget == 0 || run.iterations < budget)) {
    ++run.iterations;
    undecided = iterate();
  }
  for (int attempt = 1; undecided && attempt <= max_retries; ++attempt) {
    ++run.retries;
    const int extra = budget << attempt;
    for (int iter = 0; iter < extra && undecided; ++iter) {
      ++run.retry_iterations;
      undecided = iterate();
    }
  }
  return run;
}

// Outcome of a message-level Luby run: selected member indexes plus the
// Runtime's accounting, with the discovery share broken out (totals
// include it) and the transport backend's codec hits (zero in-proc; ==
// messages on the serialized wires, every message really encoded and
// decoded).
struct ProtocolResult {
  std::vector<int> selected;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t discovery_rounds = 0;
  std::int64_t discovery_messages = 0;
  std::int64_t discovery_bytes = 0;
  TransportKind transport = TransportKind::kInProc;
  std::int64_t codec_encoded = 0;
  std::int64_t codec_decoded = 0;
  // Recovery-layer observability (kFaulty backend only; zero/false
  // elsewhere).  degraded means at least one frame exhausted its
  // retransmit budget — the selection is then a partial result.
  FaultStats fault;
  bool degraded = false;
};

// The message-level MIS oracle: each run() is Luby on the runtime over
// the candidates (candidate v is node v, neighbors[v] its discovered
// neighborhood, streams[v] its private stream) under run_luby_schedule.
// An iteration costs exactly 2 synchronous rounds: every live node
// exchanges its draw with its live neighbors, the strict minima of
// (draw, id) win and notify, and every decided node — winner or notified
// loser — leaves the live set.  A fixed budget (> 0) spends exactly
// `budget` iterations, the decided processors sitting the rest out in
// silence, plus the retries; budget 0 iterates until every candidate
// decides.  Winners come back in ascending id order.  `neighbors` and
// `streams` must outlive the oracle.
class WireLubyMis final : public MisOracle {
 public:
  WireLubyMis(Runtime& rt, std::span<const std::vector<int>> neighbors,
              std::vector<Rng>& streams, int budget);
  MisResult run(std::span<const InstanceId> candidates) override;

  // Whether every run decided all of its candidates, and the rounds the
  // budget retries cost (the adaptive part of the fixed schedule).
  bool mis_ok() const { return mis_ok_; }
  std::int64_t retry_rounds() const { return retry_rounds_; }

 private:
  // One iteration over the live `nodes`: appends its winners to
  // `selected`; returns whether undecided nodes remain.
  bool iterate(std::span<const InstanceId> nodes,
               std::vector<InstanceId>& selected);

  Runtime* rt_;
  std::span<const std::vector<int>> neighbors_;
  std::vector<Rng>* streams_;
  int budget_;
  std::vector<char> live_;    // per node: still undecided
  std::vector<double> draw_;  // per node: this iteration's draw
  bool mis_ok_ = true;
  std::int64_t retry_rounds_ = 0;
};

// Luby's MIS as a real protocol on the synchronous runtime: rendezvous
// discovery first, then 2 rounds per iteration on the discovered
// neighborhoods.  `members` are distinct instances of `problem`;
// selected entries are member indexes.  Deterministic by seed, and
// bit-identical (selection and counters) on every transport backend.
ProtocolResult run_luby_protocol(
    const Problem& problem, std::span<const InstanceId> members,
    std::uint64_t seed, TransportKind transport = TransportKind::kDefault,
    const FaultPlan* faults = nullptr);

// Round-counting Luby oracle over the implicit conflict cliques — the one
// modeled Luby the engine consumes.  Three properties make its decisions
// independent of how the engine splits the work:
//
//  * draws come from *per-instance* streams (make_node_streams), exactly
//    the streams the protocol's runtime nodes hold — so a draw depends
//    only on (seed, instance, how often that instance has drawn), never
//    on iteration order or on which oracle object asks;
//  * the winner rule is the per-clique strict minimum of (draw, id),
//    which equals "my key beats every live conflicting neighbor's" on
//    the discovered neighborhoods;
//  * winners come back in ascending id order (the member-rank order of
//    a plan group), the order the protocol raises a step's winners in.
//
// Because the iteration dynamics decompose across conflict-disjoint
// components and the draws are per instance, running each component of
// a candidate set on its own oracle built from the same seed selects
// exactly what one run over the whole set does.
//
// Two schedules:
//  * LubyMis(problem, seed) iterates until every candidate decides and
//    charges MisResult.rounds = 2 per executed iteration (at least one);
//  * LubyMis::budgeted(...) is the protocol's fixed schedule
//    (run_luby_schedule above).  Feeding it to the two-phase engine in
//    lockstep mode replays the protocol's entire raise sequence, which
//    the protocol parity suite (tests/test_protocol_parity.cpp) compares
//    with ==.
class LubyMis : public MisOracle {
 public:
  LubyMis(const Problem& problem, std::uint64_t seed);

  // Not copyable: a copy would replay the draws the original has yet to
  // make.  Two oracles replay the same draws only when each is built from
  // the seed.
  LubyMis(const LubyMis&) = delete;
  LubyMis& operator=(const LubyMis&) = delete;
  LubyMis(LubyMis&&) = default;
  LubyMis& operator=(LubyMis&&) = default;

  // `luby_budget` <= 0 derives default_luby_budget(num_instances).  The
  // retry attempts are reported in MisResult::retries and their
  // iterations in MisResult::rounds; max_retries = 0 leaves undecided
  // candidates unselected.
  static LubyMis budgeted(const Problem& problem, std::uint64_t seed,
                          int luby_budget = 0,
                          int max_retries = kDefaultMisMaxRetries);

  MisResult run(std::span<const InstanceId> candidates) override;

  // 0 for the run-until-decided schedule.
  int luby_budget() const { return budget_; }
  int max_retries() const { return max_retries_; }

 private:
  struct Key {
    double value = 0.0;
    InstanceId id = kNoInstance;
    bool operator<(const Key& o) const {
      return value < o.value || (value == o.value && id < o.id);
    }
    bool operator==(const Key& o) const {
      return value == o.value && id == o.id;
    }
  };

  LubyMis(const Problem& problem, std::uint64_t seed, int luby_budget,
          int max_retries);

  // One Luby iteration over `live` (draw, clique minima, winners into
  // result.selected, survivor compaction) — the body every schedule
  // executes, so they cannot drift.
  void run_iteration(std::vector<InstanceId>& live, std::vector<double>& draw,
                     std::vector<InstanceId>& next, MisResult& result);

  const Problem* problem_;
  int budget_ = 0;  // 0: iterate until every candidate decides
  int max_retries_ = 0;
  std::vector<Rng> streams_;  // one per instance (make_node_streams)
  // Per-oracle scratch: per-edge / per-demand minimum key over the live
  // candidates, with iteration stamps so no clearing is needed between
  // iterations.
  std::vector<Key> edge_min_, demand_min_;
  std::vector<int> edge_stamp_, demand_stamp_;
  std::vector<int> edge_kill_, demand_kill_;  // stamped when a winner uses it
  int stamp_ = 0;
};

}  // namespace treesched

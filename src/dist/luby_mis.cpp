#include "dist/luby_mis.hpp"

#include <algorithm>
#include <cmath>

#include "dist/discovery.hpp"
#include "dist/runtime.hpp"
#include "obs/metrics.hpp"

namespace treesched {

std::vector<Rng> make_node_streams(std::uint64_t seed, int count) {
  SplitMix64 expand(seed);
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (int v = 0; v < count; ++v) streams.emplace_back(expand.next());
  return streams;
}

int default_luby_budget(int n) {
  return 2 * static_cast<int>(std::ceil(std::log2(
             static_cast<double>(std::max(n, 2))))) +
         2;
}

// ---------------------------------------------------------------------------
// Message-level protocol on the synchronous runtime.

WireLubyMis::WireLubyMis(Runtime& rt,
                         std::span<const std::vector<int>> neighbors,
                         std::vector<Rng>& streams, int budget)
    : rt_(&rt),
      neighbors_(neighbors),
      streams_(&streams),
      budget_(budget),
      live_(neighbors.size(), 0),
      draw_(neighbors.size(), 0.0) {}

bool WireLubyMis::iterate(std::span<const InstanceId> nodes,
                          std::vector<InstanceId>& selected) {
  std::vector<char>& live = live_;
  // Round 1: every live node draws and tells its live neighbors.  A
  // decided node is silent, so absence from the inbox encodes death.
  for (int v : nodes) {
    if (!live[static_cast<std::size_t>(v)]) continue;
    draw_[static_cast<std::size_t>(v)] =
        (*streams_)[static_cast<std::size_t>(v)].uniform();
    for (int u : neighbors_[static_cast<std::size_t>(v)])
      if (live[static_cast<std::size_t>(u)])
        rt_->post(Message{v, u, kLubyTagDraw,
                          {draw_[static_cast<std::size_t>(v)]}});
  }
  rt_->step();

  // Local decision + round 2: the strict minima of (draw, id) over their
  // live neighborhoods win and notify.  Drained inboxes are recycled
  // through the runtime's free list — the Luby loop is the protocol's
  // hottest drain site, and the recycled slots make the serialized
  // backends' decode loop allocation-free at steady state.
  const std::size_t first_winner = selected.size();
  for (int v : nodes) {
    if (!live[static_cast<std::size_t>(v)]) continue;
    bool best = true;
    std::vector<Message> inbox = rt_->drain(v);
    for (const Message& m : inbox) {
      TS_REQUIRE(m.tag == kLubyTagDraw);
      const double other = m.data[0];
      const double mine = draw_[static_cast<std::size_t>(v)];
      if (other < mine || (other == mine && m.from < v)) {
        best = false;
        break;
      }
    }
    rt_->recycle(std::move(inbox));
    if (!best) continue;
    selected.push_back(v);
    for (int u : neighbors_[static_cast<std::size_t>(v)])
      if (live[static_cast<std::size_t>(u)])
        rt_->post(Message{v, u, kLubyTagWinner, {}});
  }
  rt_->step();

  // Winners and their notified neighbors leave the live set.  (Fault-free,
  // a winner's inbox is empty here: two adjacent live nodes can never both
  // be strict minima.)  Every live node drains, so no message outlives
  // the iteration.
  for (int v : nodes) {
    if (!live[static_cast<std::size_t>(v)]) continue;
    std::vector<Message> inbox = rt_->drain(v);
    for (const Message& m : inbox)
      if (m.tag == kLubyTagWinner) live[static_cast<std::size_t>(v)] = 0;
    rt_->recycle(std::move(inbox));
  }
  for (std::size_t k = first_winner; k < selected.size(); ++k)
    live[static_cast<std::size_t>(selected[k])] = 0;
  return std::any_of(nodes.begin(), nodes.end(), [&](int v) {
    return live[static_cast<std::size_t>(v)] != 0;
  });
}

MisResult WireLubyMis::run(std::span<const InstanceId> candidates) {
  for (InstanceId v : candidates) live_[static_cast<std::size_t>(v)] = 1;
  MisResult result;
  const LubySchedule sched = run_luby_schedule(
      budget_, kDefaultMisMaxRetries, !candidates.empty(),
      [&] { return iterate(candidates, result.selected); });
  for (int iter = sched.iterations; iter < budget_; ++iter) {
    rt_->step();
    rt_->step();
  }
  if (sched.retries > 0) TRACE_COUNTER("protocol.mis_retries", sched.retries);
  result.retries = sched.retries;
  result.rounds = 2 * (std::max(budget_, sched.iterations) +
                       sched.retry_iterations);
  retry_rounds_ += 2 * static_cast<std::int64_t>(sched.retry_iterations);
  for (InstanceId v : candidates) {
    if (live_[static_cast<std::size_t>(v)]) {
      mis_ok_ = false;  // budget and retries spent with undecided nodes
      TRACE_COUNTER("protocol.luby_undecided_nodes", 1);
      live_[static_cast<std::size_t>(v)] = 0;
    }
  }
  std::sort(result.selected.begin(), result.selected.end());
  return result;
}

ProtocolResult run_luby_protocol(const Problem& problem,
                                 std::span<const InstanceId> members,
                                 std::uint64_t seed,
                                 TransportKind transport,
                                 const FaultPlan* faults) {
  ProtocolResult result;
  const int n = static_cast<int>(members.size());
  if (n == 0) return result;

  // Neighborhoods come from the edge-owner rendezvous, charged to the
  // same runtime the Luby rounds run on — no global conflict graph.
  const RendezvousLayout layout = RendezvousLayout::for_problem(problem, n);
  Runtime rt(layout.total, transport, faults);
  const DiscoveredNeighborhoods hood = discover_conflicts(problem, members, rt);
  result.discovery_rounds = hood.rounds;
  result.discovery_messages = hood.messages;
  result.discovery_bytes = hood.bytes;

  // Per-node private random streams, and one run until every node has
  // decided: every iteration at least the globally minimal key wins.
  std::vector<Rng> node_rng = make_node_streams(seed, n);
  std::vector<int> nodes(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) nodes[static_cast<std::size_t>(v)] = v;
  WireLubyMis mis(rt, {hood.neighbors.data(), hood.neighbors.size()},
                  node_rng, /*budget=*/0);
  result.selected = mis.run(nodes).selected;

  result.rounds = rt.round();
  result.messages = rt.messages_sent();
  result.bytes = rt.bytes_sent();
  result.transport = rt.transport_kind();
  result.codec_encoded = rt.codec_encoded();
  result.codec_decoded = rt.codec_decoded();
  if (const FaultStats* fs = rt.fault_stats()) result.fault = *fs;
  result.degraded = rt.degraded();
  return result;
}

// ---------------------------------------------------------------------------
// LubyMis oracle (implicit cliques, per-instance streams).

LubyMis::LubyMis(const Problem& problem, std::uint64_t seed)
    : LubyMis(problem, seed, 0, 0) {}

LubyMis LubyMis::budgeted(const Problem& problem, std::uint64_t seed,
                          int luby_budget, int max_retries) {
  return LubyMis(problem, seed,
                 luby_budget > 0 ? luby_budget
                                 : default_luby_budget(problem.num_instances()),
                 std::max(max_retries, 0));
}

LubyMis::LubyMis(const Problem& problem, std::uint64_t seed, int luby_budget,
                 int max_retries)
    : problem_(&problem),
      budget_(luby_budget),
      max_retries_(max_retries),
      streams_(make_node_streams(seed, problem.num_instances())),
      edge_min_(static_cast<std::size_t>(problem.num_global_edges())),
      demand_min_(static_cast<std::size_t>(problem.num_demands())),
      edge_stamp_(static_cast<std::size_t>(problem.num_global_edges()), 0),
      demand_stamp_(static_cast<std::size_t>(problem.num_demands()), 0),
      edge_kill_(static_cast<std::size_t>(problem.num_global_edges()), 0),
      demand_kill_(static_cast<std::size_t>(problem.num_demands()), 0) {}

void LubyMis::run_iteration(std::vector<InstanceId>& live,
                            std::vector<double>& draw,
                            std::vector<InstanceId>& next,
                            MisResult& result) {
  ++stamp_;

  // Each live node draws from its own stream (the protocol's round 1),
  // then the clique minima of (draw, id) are computed over the live
  // set — an instance wins iff it is the strict minimum of every
  // clique it belongs to, i.e. beats every live conflicting neighbor,
  // since the neighborhood is the union of the instance's cliques.
  for (std::size_t k = 0; k < live.size(); ++k)
    draw[k] = streams_[static_cast<std::size_t>(live[k])].uniform();
  for (std::size_t k = 0; k < live.size(); ++k) {
    const Key key{draw[k], live[k]};
    const DemandInstance& inst = problem_->instance(live[k]);
    const auto d = static_cast<std::size_t>(inst.demand);
    if (demand_stamp_[d] != stamp_ || key < demand_min_[d]) {
      demand_stamp_[d] = stamp_;
      demand_min_[d] = key;
    }
    for (EdgeId e : inst.edges) {
      const auto ge = static_cast<std::size_t>(e);
      if (edge_stamp_[ge] != stamp_ || key < edge_min_[ge]) {
        edge_stamp_[ge] = stamp_;
        edge_min_[ge] = key;
      }
    }
  }

  // Winners join the MIS and stamp their cliques as killing.
  for (std::size_t k = 0; k < live.size(); ++k) {
    const Key key{draw[k], live[k]};
    const DemandInstance& inst = problem_->instance(live[k]);
    if (!(demand_min_[static_cast<std::size_t>(inst.demand)] == key))
      continue;
    bool wins = true;
    for (EdgeId e : inst.edges) {
      if (!(edge_min_[static_cast<std::size_t>(e)] == key)) {
        wins = false;
        break;
      }
    }
    if (!wins) continue;
    result.selected.push_back(live[k]);
    demand_kill_[static_cast<std::size_t>(inst.demand)] = stamp_;
    for (EdgeId e : inst.edges)
      edge_kill_[static_cast<std::size_t>(e)] = stamp_;
  }

  // Survivors: live instances not conflicting with any winner.
  next.clear();
  for (InstanceId i : live) {
    const DemandInstance& inst = problem_->instance(i);
    bool dead = demand_kill_[static_cast<std::size_t>(inst.demand)] == stamp_;
    for (EdgeId e : inst.edges) {
      if (dead) break;
      dead = edge_kill_[static_cast<std::size_t>(e)] == stamp_;
    }
    if (!dead) next.push_back(i);
  }
  live.swap(next);
  draw.resize(live.size());
}

MisResult LubyMis::run(std::span<const InstanceId> candidates) {
  MisResult result;
  std::vector<InstanceId> live(candidates.begin(), candidates.end());
  std::vector<double> draw(live.size(), 0.0);
  std::vector<InstanceId> next;

  // Each iteration costs the paper's 2 synchronous rounds (draw exchange
  // + winner notification).  Run-until-decided (budget_ == 0) charges the
  // iterations executed; the fixed schedule charges all budget_ of them,
  // decided nodes sitting the remainder out in silence, plus the retry
  // iterations actually executed.  The dynamics decompose across
  // conflict-disjoint components and draws are per instance, so a
  // whole-frontier run retries exactly when its slowest component would.
  const LubySchedule sched =
      run_luby_schedule(budget_, max_retries_, !live.empty(), [&] {
        run_iteration(live, draw, next, result);
        return !live.empty();
      });
  const int iterations = sched.iterations + sched.retry_iterations;
  result.retries = sched.retries;
  result.rounds = 2 * (budget_ > 0 ? budget_ : std::max(iterations, 1)) +
                  2 * sched.retry_iterations;
  if (sched.retries > 0) TRACE_COUNTER("mis.budget_retries", sched.retries);

  // Winners in ascending id order — the order the protocol raises a
  // step's winners in; undecided leftovers (budget and retries
  // exhausted) are simply not selected.
  std::sort(result.selected.begin(), result.selected.end());
  if (budget_ == 0) {
    TRACE_HIST("mis.luby_iterations", iterations);
  } else {
    TRACE_HIST("mis.budget_iterations_used", iterations);
  }
  if (!live.empty()) {
    TRACE_COUNTER("mis.budget_exhausted_steps", 1);
    TRACE_COUNTER("mis.budget_undecided_nodes",
                  static_cast<std::int64_t>(live.size()));
  }
  return result;
}

}  // namespace treesched

// Explicit conflict graph over a set of demand instances (paper, Section
// 2): vertices are the given instances; an edge joins two instances that
// *conflict* — same demand, or overlapping paths on the same network.
//
// This is a TEST ORACLE, built into the test-support library beside the
// central reference engine, never into the library itself.  No
// production path materializes the global graph: the two-phase engine's
// Luby oracle works on the implicit edge/demand cliques
// (dist/luby_mis.hpp), and the message-level protocols learn their
// neighborhoods through the edge-owner rendezvous rounds of
// dist/discovery.hpp.  The explicit form serves the MIS validity checkers
// and the parity tests that pin the rendezvous-discovered adjacency to
// the ground truth (tests/test_discovery.cpp).  Vertices are dense 0-based indexes into
// the candidate set, so they align with discovery's member indexes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "model/problem.hpp"

namespace treesched {

class ConflictGraph {
 public:
  // Builds the conflict graph induced by `members` (distinct instances of
  // `problem`, e.g. one layered-decomposition group).  The problem is
  // only read during construction.
  ConflictGraph(const Problem& problem, std::span<const InstanceId> members);

  int size() const { return static_cast<int>(vertices_.size()); }
  InstanceId instance(int v) const {
    return vertices_[static_cast<std::size_t>(v)];
  }
  const std::vector<int>& neighbors(int v) const {
    return adjacency_[static_cast<std::size_t>(v)];
  }
  // The full adjacency (sorted per vertex) — comparable 1:1 with
  // DiscoveredNeighborhoods::neighbors.
  const std::vector<std::vector<int>>& adjacency() const {
    return adjacency_;
  }
  std::int64_t num_edges() const { return num_edges_; }
  int max_degree() const { return max_degree_; }

  // True iff `selected` (vertex indexes) is independent — no two selected
  // vertices adjacent — and maximal — every unselected vertex has a
  // selected neighbor.
  bool is_maximal_independent_set(const std::vector<int>& selected) const;

 private:
  std::vector<InstanceId> vertices_;
  std::vector<std::vector<int>> adjacency_;  // sorted
  std::int64_t num_edges_ = 0;
  int max_degree_ = 0;
};

}  // namespace treesched

// Per-processor shard of the dual state (the distributed counterpart of
// framework/dual_state.hpp).
//
// In the message-level protocol no processor holds the global alpha/beta
// vectors.  Instance d's processor stores exactly the variables its own
// dual constraint reads: alpha(a_d) and beta(e) for every e on path(d).
// A raise is applied locally and shipped to the conflicting neighbors as
// a kTagRaise message (encode_raise below); a receiving shard applies the
// alpha increment when the demand matches and each beta increment whose
// edge lies on its own path.
//
// Completeness of the propagation: a raise of instance j touches
// alpha(a_j) and beta(e) for e in pi(j) subset path(j).  Any instance i
// whose constraint reads one of those variables either shares j's demand
// or shares an edge with path(j) — i.e. i conflicts with j and is, by
// discovery (dist/discovery.hpp), one of j's neighbors.  Hence every
// shard's local LHS equals the LHS the central DualState would report,
// one propagation round after the raise.  tests/test_discovery.cpp
// asserts this parity against a central replay.
#pragma once

#include <span>
#include <vector>

#include "common/prelude.hpp"
#include "model/problem.hpp"

namespace treesched {

class DualShard {
 public:
  DualShard() = default;
  // `path`: the instance's sorted global edge ids (DemandInstance::edges).
  DualShard(DemandId demand, std::span<const EdgeId> path)
      : demand_(demand),
        edges_(path.begin(), path.end()),
        beta_(path.size(), 0.0) {}

  DemandId demand() const { return demand_; }
  double alpha() const { return alpha_; }
  double beta(EdgeId e) const;  // 0 when e is off the local path
  double beta_sum() const { return beta_sum_; }

  // LHS of the local dual constraint under the rule's beta coefficient.
  double lhs(double beta_coeff) const {
    return alpha_ + beta_coeff * beta_sum_;
  }

  // Ordered beta sum: accumulates beta_ in ascending-edge order, exactly
  // the walk DualState::beta_sum performs over the same path.  The running
  // beta_sum_ adds increments in *arrival* order instead, which is the
  // same real number but not always the same double.  The message-level
  // protocol uses this form so its satisfaction tests and raise amounts are
  // bit-identical to the modeled engine and the central-DualState
  // reference — the protocol parity suite (tests/test_protocol_parity.cpp)
  // compares them with ==, not tolerances.
  double beta_sum_ordered() const {
    double s = 0.0;
    for (double b : beta_) s += b;
    return s;
  }
  double lhs_ordered(double beta_coeff) const {
    return alpha_ + beta_coeff * beta_sum_ordered();
  }

  void raise_alpha(double amount);
  // Applies the increment when e is on the local path; returns whether it
  // was.  (Remote raises legitimately carry edges this shard ignores.)
  bool raise_beta(EdgeId e, double amount);
  int path_length() const { return static_cast<int>(edges_.size()); }

  // Applies a neighbor's raise notification (encode_raise wire format).
  void apply_raise(std::span<const double> payload);

 private:
  int index_of(EdgeId e) const;

  DemandId demand_ = -1;
  std::vector<EdgeId> edges_;  // sorted ascending
  std::vector<double> beta_;   // parallel to edges_
  double alpha_ = 0.0;
  double beta_sum_ = 0.0;
};

// Wire format of a kTagRaise payload:
//   {demand, alpha_increment, e_1, beta_inc_1, ..., e_k, beta_inc_k}
// with one (edge, increment) pair per critical edge of the raise.
std::vector<double> encode_raise(DemandId demand, double alpha_increment,
                                 std::span<const EdgeId> critical,
                                 std::span<const double> increments);

}  // namespace treesched

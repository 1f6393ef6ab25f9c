#include "model/line_problem.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace treesched {

LineProblem::LineProblem(int num_slots, int num_resources)
    : num_slots_(num_slots), num_resources_(num_resources) {
  check_input(num_slots_ >= 1, "line problem needs at least one timeslot");
  check_input(num_resources_ >= 1, "line problem needs at least one resource");
  // lower() builds num_slots + 1 vertices and num_resources * num_slots
  // global edges, all with int32 ids: a header past either is rejected
  // here, before anything is allocated for it.
  constexpr std::int64_t kMaxId = std::numeric_limits<EdgeId>::max();
  check_input(num_slots_ < kMaxId, "line problem has too many timeslots");
  check_input(static_cast<std::int64_t>(num_resources_) * num_slots_ <= kMaxId,
              "line problem's resources x timeslots overflow the edge ids");
}

DemandId LineProblem::add_demand(int release, int deadline, int proc_time,
                                 Profit profit, Height height) {
  check_input(release >= 0 && deadline < num_slots_ && release <= deadline,
              "window [release, deadline] out of range");
  check_input(proc_time >= 1 && proc_time <= deadline - release + 1,
              "processing time must fit inside the window");
  check_input(profit > 0.0, "profit must be positive");
  check_input(height > 0.0 && height <= 1.0 + kEps,
              "height must lie in (0, 1]");
  const DemandId id = static_cast<DemandId>(demands_.size());
  demands_.push_back(LineDemand{id, release, deadline, proc_time, profit,
                                height});
  std::vector<NetworkId> all(static_cast<std::size_t>(num_resources_));
  for (int q = 0; q < num_resources_; ++q)
    all[static_cast<std::size_t>(q)] = q;
  access_.push_back(std::move(all));
  return id;
}

void LineProblem::set_access(DemandId d, std::vector<NetworkId> resources) {
  TS_REQUIRE(d >= 0 && d < num_demands());
  check_input(!resources.empty(), "access set must be non-empty");
  std::sort(resources.begin(), resources.end());
  resources.erase(std::unique(resources.begin(), resources.end()),
                  resources.end());
  for (NetworkId q : resources)
    check_input(q >= 0 && q < num_resources_, "resource out of range");
  access_[static_cast<std::size_t>(d)] = std::move(resources);
}

const LineDemand& LineProblem::demand(DemandId d) const {
  TS_REQUIRE(d >= 0 && d < num_demands());
  return demands_[static_cast<std::size_t>(d)];
}

const std::vector<NetworkId>& LineProblem::access(DemandId d) const {
  TS_REQUIRE(d >= 0 && d < num_demands());
  return access_[static_cast<std::size_t>(d)];
}

int LineProblem::num_starts(DemandId d) const {
  const LineDemand& ld = demand(d);
  return ld.deadline - ld.proc_time - ld.release + 2;
}

Problem LineProblem::lower() const {
  check_input(num_demands() > 0, "line problem has no demands");
  std::vector<TreeNetwork> networks;
  networks.reserve(static_cast<std::size_t>(num_resources_));
  for (int q = 0; q < num_resources_; ++q)
    networks.push_back(TreeNetwork::line(num_slots_ + 1));
  Problem problem(num_slots_ + 1, std::move(networks));

  for (const LineDemand& ld : demands_) {
    // Endpoints recorded on the Demand are the earliest placement; the
    // instances carry the actual placements.
    const DemandId pd = problem.add_demand(ld.release,
                                           ld.release + ld.proc_time,
                                           ld.profit, ld.height);
    TS_REQUIRE(pd == ld.id);
    problem.set_access(pd, access_[static_cast<std::size_t>(ld.id)]);
    for (NetworkId q : access_[static_cast<std::size_t>(ld.id)]) {
      for (int s = ld.release; s + ld.proc_time - 1 <= ld.deadline; ++s) {
        // Placement occupying slots [s, s+rho-1] == path between vertices
        // s and s+rho of resource q.
        problem.add_instance(pd, q, s, s + ld.proc_time);
      }
    }
  }
  problem.finalize();
  return problem;
}

}  // namespace treesched

#include "io/text_io.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace treesched {

namespace {

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  is >> token;
  check_input(token == expected,
              "expected '" + expected + "', got '" + token + "'");
}

// Checked after every record, so a file that ends (or turns to garbage)
// mid-record is rejected before its zero-filled fields are used.
void check_record(const std::istream& is, const char* file_kind) {
  check_input(static_cast<bool>(is),
              std::string("truncated or malformed ") + file_kind);
}

// Reads one demand's access list.  Its count comes from the file, so it
// is bounded by the networks (or resources) that exist before anything
// is allocated: a longer list cannot be valid.
std::vector<NetworkId> read_access(std::istream& is, std::size_t count,
                                   int available, const char* file_kind) {
  check_input(count <= static_cast<std::size_t>(available),
              "access count " + std::to_string(count) + " exceeds the " +
                  std::to_string(available) + " available in " + file_kind);
  std::vector<NetworkId> acc(count);
  for (auto& q : acc) is >> q;
  check_record(is, file_kind);
  return acc;
}

}  // namespace

void write_problem(std::ostream& os, const Problem& problem) {
  // Full round-trip precision for profits, heights and capacities.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "treesched-problem 1\n";
  os << "vertices " << problem.num_vertices() << "\n";
  os << "networks " << problem.num_networks() << "\n";
  for (NetworkId q = 0; q < problem.num_networks(); ++q) {
    const TreeNetwork& network = problem.network(q);
    os << "network " << q << "\n";
    for (EdgeId e = 0; e < network.num_edges(); ++e) {
      os << network.edge_u(e) << " " << network.edge_v(e) << " "
         << problem.capacity(problem.global_edge(q, e)) << "\n";
    }
  }
  os << "demands " << problem.num_demands() << "\n";
  for (DemandId d = 0; d < problem.num_demands(); ++d) {
    const Demand& dem = problem.demand(d);
    const auto& acc = problem.access(d);
    os << dem.u << " " << dem.v << " " << dem.profit << " " << dem.height
       << " " << acc.size();
    for (NetworkId q : acc) os << " " << q;
    os << "\n";
  }
  os << "end\n";
}

Problem read_problem(std::istream& is) {
  expect_token(is, "treesched-problem");
  int version = 0;
  is >> version;
  check_input(version == 1, "unsupported problem version");

  expect_token(is, "vertices");
  VertexId n = 0;
  is >> n;
  expect_token(is, "networks");
  int r = 0;
  is >> r;
  check_input(n >= 1 && r >= 1, "bad problem header");

  std::vector<TreeNetwork> networks;
  std::vector<std::vector<Capacity>> capacities;
  for (int q = 0; q < r; ++q) {
    expect_token(is, "network");
    int qq = 0;
    is >> qq;
    check_input(qq == q, "networks out of order");
    std::vector<std::pair<VertexId, VertexId>> edges;
    std::vector<Capacity> caps;
    for (VertexId e = 0; e + 1 < n; ++e) {
      VertexId u = 0, v = 0;
      Capacity c = 1.0;
      is >> u >> v >> c;
      check_record(is, "problem file");
      edges.emplace_back(u, v);
      caps.push_back(c);
    }
    networks.emplace_back(n, std::move(edges));
    capacities.push_back(std::move(caps));
  }

  Problem problem(n, std::move(networks));
  for (int q = 0; q < r; ++q)
    for (EdgeId e = 0; e < static_cast<EdgeId>(
                               capacities[static_cast<std::size_t>(q)].size());
         ++e)
      problem.set_capacity(
          q, e, capacities[static_cast<std::size_t>(q)]
                          [static_cast<std::size_t>(e)]);

  expect_token(is, "demands");
  int m = 0;
  is >> m;
  check_input(m >= 1, "problem needs demands");
  for (int k = 0; k < m; ++k) {
    VertexId u = 0, v = 0;
    Profit profit = 0.0;
    Height height = 1.0;
    std::size_t acc_count = 0;
    is >> u >> v >> profit >> height >> acc_count;
    check_record(is, "problem file");
    std::vector<NetworkId> acc = read_access(is, acc_count, r, "problem file");
    const DemandId d = problem.add_demand(u, v, profit, height);
    problem.set_access(d, std::move(acc));
  }
  expect_token(is, "end");
  check_input(static_cast<bool>(is), "truncated problem file");
  problem.finalize();
  return problem;
}

void write_line_problem(std::ostream& os, const LineProblem& line) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "treesched-line 1\n";
  os << "slots " << line.num_slots() << " resources " << line.num_resources()
     << "\n";
  os << "demands " << line.num_demands() << "\n";
  for (DemandId d = 0; d < line.num_demands(); ++d) {
    const LineDemand& ld = line.demand(d);
    const auto& acc = line.access(d);
    os << ld.release << " " << ld.deadline << " " << ld.proc_time << " "
       << ld.profit << " " << ld.height << " " << acc.size();
    for (NetworkId q : acc) os << " " << q;
    os << "\n";
  }
  os << "end\n";
}

LineProblem read_line_problem(std::istream& is) {
  expect_token(is, "treesched-line");
  int version = 0;
  is >> version;
  check_input(version == 1, "unsupported line-problem version");
  expect_token(is, "slots");
  int slots = 0;
  is >> slots;
  expect_token(is, "resources");
  int resources = 0;
  is >> resources;
  LineProblem line(slots, resources);

  expect_token(is, "demands");
  int m = 0;
  is >> m;
  for (int k = 0; k < m; ++k) {
    int release = 0, deadline = 0, proc = 0;
    Profit profit = 0.0;
    Height height = 1.0;
    std::size_t acc_count = 0;
    is >> release >> deadline >> proc >> profit >> height >> acc_count;
    check_record(is, "line-problem file");
    std::vector<NetworkId> acc =
        read_access(is, acc_count, resources, "line-problem file");
    const DemandId d = line.add_demand(release, deadline, proc, profit,
                                       height);
    line.set_access(d, std::move(acc));
  }
  expect_token(is, "end");
  check_input(static_cast<bool>(is), "truncated line-problem file");
  return line;
}

void write_solution(std::ostream& os, const Solution& solution) {
  os << "treesched-solution 1\n" << solution.selected.size() << "\n";
  for (InstanceId i : solution.selected) os << i << "\n";
}

Solution read_solution(std::istream& is) {
  expect_token(is, "treesched-solution");
  int version = 0;
  is >> version;
  check_input(version == 1, "unsupported solution version");
  std::size_t count = 0;
  is >> count;
  check_record(is, "solution file");
  // The count is not trusted for sizing: the vector grows only with ids
  // actually read, so a huge count in a short file fails as truncated.
  Solution solution;
  for (std::size_t k = 0; k < count; ++k) {
    InstanceId i = 0;
    is >> i;
    check_record(is, "solution file");
    solution.selected.push_back(i);
  }
  return solution;
}

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("treesched: cannot write " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("treesched: cannot read " + path);
  return is;
}

}  // namespace

void save_problem(const std::string& path, const Problem& problem) {
  auto os = open_out(path);
  write_problem(os, problem);
}

Problem load_problem(const std::string& path) {
  auto is = open_in(path);
  return read_problem(is);
}

void save_solution(const std::string& path, const Solution& solution) {
  auto os = open_out(path);
  write_solution(os, solution);
}

Solution load_solution(const std::string& path) {
  auto is = open_in(path);
  return read_solution(is);
}

}  // namespace treesched

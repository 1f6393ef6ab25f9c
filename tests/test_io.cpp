#include "io/text_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::small_tree_problem;

TEST(TextIo, ProblemRoundTripPreservesEverything) {
  const Problem original = small_tree_problem(5, 20, 2, 8,
                                              HeightLaw::kUniformRange);
  std::stringstream buffer;
  write_problem(buffer, original);
  const Problem loaded = read_problem(buffer);

  ASSERT_EQ(loaded.num_vertices(), original.num_vertices());
  ASSERT_EQ(loaded.num_networks(), original.num_networks());
  ASSERT_EQ(loaded.num_demands(), original.num_demands());
  ASSERT_EQ(loaded.num_instances(), original.num_instances());
  for (NetworkId q = 0; q < original.num_networks(); ++q) {
    for (EdgeId e = 0; e < original.network(q).num_edges(); ++e) {
      EXPECT_EQ(loaded.network(q).edge_u(e), original.network(q).edge_u(e));
      EXPECT_EQ(loaded.network(q).edge_v(e), original.network(q).edge_v(e));
      EXPECT_DOUBLE_EQ(loaded.capacity(loaded.global_edge(q, e)),
                       original.capacity(original.global_edge(q, e)));
    }
  }
  for (DemandId d = 0; d < original.num_demands(); ++d) {
    EXPECT_EQ(loaded.demand(d).u, original.demand(d).u);
    EXPECT_EQ(loaded.demand(d).v, original.demand(d).v);
    EXPECT_DOUBLE_EQ(loaded.demand(d).profit, original.demand(d).profit);
    EXPECT_DOUBLE_EQ(loaded.demand(d).height, original.demand(d).height);
    EXPECT_EQ(loaded.access(d), original.access(d));
  }
  for (InstanceId i = 0; i < original.num_instances(); ++i)
    EXPECT_EQ(loaded.instance(i).edges, original.instance(i).edges);
}

TEST(TextIo, CapacitiesSurviveRoundTrip) {
  TreeScenarioSpec spec;
  spec.num_vertices = 16;
  spec.demands.num_demands = 5;
  spec.capacities = CapacityLaw::kPowerClasses;
  spec.capacity_spread = 8.0;
  spec.seed = 2;
  const Problem original = make_tree_problem(spec);
  std::stringstream buffer;
  write_problem(buffer, original);
  const Problem loaded = read_problem(buffer);
  EXPECT_DOUBLE_EQ(loaded.min_capacity(), original.min_capacity());
  EXPECT_DOUBLE_EQ(loaded.max_capacity(), original.max_capacity());
}

TEST(TextIo, LineProblemRoundTrip) {
  LineProblem line(20, 3);
  line.add_demand(0, 10, 4, 7.5, 0.5);
  const DemandId d1 = line.add_demand(5, 15, 2, 3.25);
  line.set_access(d1, {0, 2});
  std::stringstream buffer;
  write_line_problem(buffer, line);
  const LineProblem loaded = read_line_problem(buffer);
  ASSERT_EQ(loaded.num_demands(), 2);
  EXPECT_EQ(loaded.num_slots(), 20);
  EXPECT_EQ(loaded.num_resources(), 3);
  EXPECT_EQ(loaded.demand(0).proc_time, 4);
  EXPECT_DOUBLE_EQ(loaded.demand(0).height, 0.5);
  EXPECT_EQ(loaded.access(1), (std::vector<NetworkId>{0, 2}));
  // Lowered instance sets agree.
  EXPECT_EQ(loaded.lower().num_instances(), line.lower().num_instances());
}

TEST(TextIo, SolutionRoundTrip) {
  Solution s;
  s.selected = {3, 1, 4, 1 + 10};
  std::stringstream buffer;
  write_solution(buffer, s);
  const Solution loaded = read_solution(buffer);
  EXPECT_EQ(loaded.selected, s.selected);
}

TEST(TextIo, RejectsCorruptInput) {
  std::stringstream bad1("not-a-problem 1");
  EXPECT_THROW(read_problem(bad1), std::invalid_argument);
  std::stringstream bad2("treesched-problem 99");
  EXPECT_THROW(read_problem(bad2), std::invalid_argument);
  std::stringstream bad3("treesched-solution 1\n2\n5\n");  // truncated
  EXPECT_THROW(read_solution(bad3), std::invalid_argument);
}

TEST(TextIo, OversizedCountsAreRejectedBeforeAllocating) {
  // Counts are read from untrusted files: each must be rejected as bad
  // input, never trusted for an allocation (std::bad_alloc) or a read.
  std::stringstream problem(
      "treesched-problem 1\nvertices 3\nnetworks 1\nnetwork 0\n"
      "0 1 1\n1 2 1\ndemands 1\n0 2 5 1 4000000000000 0\nend\n");
  EXPECT_THROW(read_problem(problem), std::invalid_argument);
  // One past the network count is already impossible.
  std::stringstream two_of_one(
      "treesched-problem 1\nvertices 3\nnetworks 1\nnetwork 0\n"
      "0 1 1\n1 2 1\ndemands 1\n0 2 5 1 2 0 0\nend\n");
  EXPECT_THROW(read_problem(two_of_one), std::invalid_argument);
  std::stringstream line(
      "treesched-line 1\nslots 10 resources 2\ndemands 1\n"
      "0 5 2 3 1 4000000000000 0\nend\n");
  EXPECT_THROW(read_line_problem(line), std::invalid_argument);
  // Headers whose lowering would overflow the int32 vertex or edge ids:
  // rejected before the resource list or the networks are allocated.
  for (const char* header : {"slots 10 resources 2000000000",
                             "slots 2147483647 resources 1"}) {
    std::stringstream huge(std::string("treesched-line 1\n") + header +
                           "\ndemands 1\n0 5 2 3 1 1 0\nend\n");
    EXPECT_THROW(read_line_problem(huge), std::invalid_argument) << header;
  }
  std::stringstream solution("treesched-solution 1\n4000000000000\n1\n2\n");
  EXPECT_THROW(read_solution(solution), std::invalid_argument);
  std::stringstream demands(
      "treesched-problem 1\nvertices 3\nnetworks 1\nnetwork 0\n"
      "0 1 1\n1 2 1\ndemands 4000000000000\n0 2 5 1 1 0\nend\n");
  EXPECT_THROW(read_problem(demands), std::invalid_argument);
}

TEST(TextIo, TruncatedFilesAreRejectedAtEveryCut) {
  // Every proper prefix of a valid file — cut mid-token, mid-record or
  // between records — must be rejected as bad input.
  const auto expect_every_prefix_rejected = [](const std::string& text,
                                               auto read) {
    // The last prefix that still reads "end" whole is the full file
    // minus its final newline, which is valid.
    for (std::size_t len = 0; len + 1 < text.size(); ++len) {
      std::stringstream cut(text.substr(0, len));
      EXPECT_THROW(read(cut), std::invalid_argument) << "prefix " << len;
    }
  };
  std::stringstream problem;
  write_problem(problem, small_tree_problem(8, 6, 2, 3));
  expect_every_prefix_rejected(problem.str(), [](std::istream& is) {
    return read_problem(is);
  });
  LineProblem line(12, 2);
  line.add_demand(0, 8, 3, 4.5);
  line.set_access(line.add_demand(2, 9, 2, 2.0, 0.5), {1});
  std::stringstream line_text;
  write_line_problem(line_text, line);
  expect_every_prefix_rejected(line_text.str(), [](std::istream& is) {
    return read_line_problem(is);
  });
}

TEST(TextIo, FileHelpers) {
  const Problem original = small_tree_problem(6, 12, 1, 4);
  const std::string path = ::testing::TempDir() + "/treesched_io_test.txt";
  save_problem(path, original);
  const Problem loaded = load_problem(path);
  EXPECT_EQ(loaded.num_instances(), original.num_instances());
  EXPECT_THROW(load_problem("/nonexistent/dir/file.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace treesched

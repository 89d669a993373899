// Serving topology: defaults, rack arithmetic, node directory naming, and
// the topology-file parser's accept/reject behaviour.
#include "serve/topology.hpp"

#include <gtest/gtest.h>

#include <string>

namespace astra::serve {
namespace {

TEST(ServeTopologyTest, DefaultsToThePapersAstraMachine) {
  const ServeTopology topology;
  EXPECT_EQ(topology.racks, kNumRacks);
  EXPECT_EQ(topology.nodes_per_rack, kNodesPerRack);
  EXPECT_EQ(topology.NodeCount(), kNumNodes);
  EXPECT_TRUE(topology.Valid());
}

TEST(ServeTopologyTest, RackArithmeticPartitionsTheNodeRange) {
  const ServeTopology topology{3, 4};
  EXPECT_EQ(topology.NodeCount(), 12);
  EXPECT_EQ(topology.RackOf(0), 0);
  EXPECT_EQ(topology.RackOf(3), 0);
  EXPECT_EQ(topology.RackOf(4), 1);
  EXPECT_EQ(topology.RackOf(11), 2);
  EXPECT_EQ(topology.RackBegin(0), 0);
  EXPECT_EQ(topology.RackBegin(2), 8);
  // Every node lands in exactly the rack whose range contains it.
  for (int node = 0; node < topology.NodeCount(); ++node) {
    const int rack = topology.RackOf(node);
    EXPECT_GE(node, topology.RackBegin(rack));
    EXPECT_LT(node, topology.RackBegin(rack) + topology.nodes_per_rack);
  }
}

TEST(ServeTopologyTest, InvalidShapesAreRejected) {
  EXPECT_FALSE((ServeTopology{0, 72}).Valid());
  EXPECT_FALSE((ServeTopology{36, 0}).Valid());
  EXPECT_FALSE((ServeTopology{-1, 72}).Valid());
  // Overflowing racks * nodes_per_rack must not silently wrap.
  EXPECT_FALSE((ServeTopology{1'000'000, 1'000'000}).Valid());
}

TEST(ServeTopologyTest, NodeDirNamesAreZeroPaddedAndSortable) {
  EXPECT_EQ(NodeDirName(0), "node-0000");
  EXPECT_EQ(NodeDirName(7), "node-0007");
  EXPECT_EQ(NodeDirName(2591), "node-2591");
  // Wider fleets grow the field instead of truncating.
  EXPECT_EQ(NodeDirName(123456), "node-123456");
}

TEST(ServeTopologyTest, ParsesKeyValueAndKeyEqualsValueLines) {
  const auto spaced = ParseTopologyText("racks 4\nnodes_per_rack 9\n");
  ASSERT_TRUE(spaced.has_value());
  EXPECT_EQ(spaced->racks, 4);
  EXPECT_EQ(spaced->nodes_per_rack, 9);

  const auto equals = ParseTopologyText("racks=2\nnodes_per_rack = 6\n");
  ASSERT_TRUE(equals.has_value());
  EXPECT_EQ(equals->racks, 2);
  EXPECT_EQ(equals->nodes_per_rack, 6);
}

TEST(ServeTopologyTest, CommentsBlanksAndPartialOverridesWork) {
  const auto parsed = ParseTopologyText(
      "# the staging half-machine\n"
      "\n"
      "racks 18   # comment after the value\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->racks, 18);
  EXPECT_EQ(parsed->nodes_per_rack, kNodesPerRack);  // untouched default
}

TEST(ServeTopologyTest, MalformedInputIsRejectedNotGuessed) {
  EXPECT_FALSE(ParseTopologyText("racks\n").has_value());          // no value
  EXPECT_FALSE(ParseTopologyText("racks zero\n").has_value());     // not a number
  EXPECT_FALSE(ParseTopologyText("racks 0\n").has_value());        // out of range
  EXPECT_FALSE(ParseTopologyText("racks 2000000\n").has_value());  // out of range
  EXPECT_FALSE(ParseTopologyText("shelves 4\n").has_value());      // unknown key
}

}  // namespace
}  // namespace astra::serve

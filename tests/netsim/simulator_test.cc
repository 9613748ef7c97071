#include "netsim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cbt/domain.h"
#include "netsim/reference_scheduler.h"
#include "netsim/timer.h"
#include "netsim/topologies.h"

namespace cbt::netsim {
namespace {

/// Records every datagram handed to it.
class RecordingAgent : public NetworkAgent {
 public:
  struct Delivery {
    VifIndex vif;
    Ipv4Address link_dst;
    std::vector<std::uint8_t> bytes;
  };
  void OnDatagram(VifIndex vif, Ipv4Address link_src, Ipv4Address link_dst,
                  std::span<const std::uint8_t> datagram) override {
    (void)link_src;
    deliveries.push_back({vif, link_dst,
                          std::vector<std::uint8_t>(datagram.begin(),
                                                    datagram.end())});
  }
  std::vector<Delivery> deliveries;
};

class SimulatorTest : public ::testing::Test {
 protected:
  Simulator sim{1};
};

TEST_F(SimulatorTest, UnicastReachesOnlyTheAddressee) {
  const SubnetId lan = sim.AddSubnet(
      "lan", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const NodeId c = sim.AddNode("c", true);
  sim.Attach(a, lan);
  sim.Attach(b, lan);
  sim.Attach(c, lan);
  RecordingAgent ra, rb, rc;
  sim.SetAgent(a, &ra);
  sim.SetAgent(b, &rb);
  sim.SetAgent(c, &rc);

  const Ipv4Address b_addr = sim.PrimaryAddress(b);
  ASSERT_TRUE(sim.SendDatagram(a, 0, b_addr, {1, 2, 3}));
  sim.RunUntilIdle();

  EXPECT_EQ(ra.deliveries.size(), 0u);
  ASSERT_EQ(rb.deliveries.size(), 1u);
  EXPECT_EQ(rc.deliveries.size(), 0u);
  EXPECT_EQ(rb.deliveries[0].bytes, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_F(SimulatorTest, MulticastReachesEveryOtherAttachment) {
  const SubnetId lan = sim.AddSubnet(
      "lan", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const NodeId c = sim.AddNode("c", false);
  sim.Attach(a, lan);
  sim.Attach(b, lan);
  sim.Attach(c, lan);
  RecordingAgent ra, rb, rc;
  sim.SetAgent(a, &ra);
  sim.SetAgent(b, &rb);
  sim.SetAgent(c, &rc);

  sim.SendDatagram(a, 0, kAllSystemsGroup, {9});
  sim.RunUntilIdle();

  EXPECT_EQ(ra.deliveries.size(), 0u);  // no self-delivery
  EXPECT_EQ(rb.deliveries.size(), 1u);
  EXPECT_EQ(rc.deliveries.size(), 1u);
}

TEST_F(SimulatorTest, DeliveryHonoursSubnetDelay) {
  const SubnetId lan = sim.AddSubnet(
      "lan", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16),
      7 * kMillisecond);
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  sim.Attach(a, lan);
  sim.Attach(b, lan);
  RecordingAgent rb;
  sim.SetAgent(b, &rb);

  SimTime delivered_at = -1;
  sim.SendDatagram(a, 0, sim.PrimaryAddress(b), {1});
  sim.RunUntil(6 * kMillisecond);
  EXPECT_TRUE(rb.deliveries.empty());
  sim.RunUntil(7 * kMillisecond);
  ASSERT_EQ(rb.deliveries.size(), 1u);
  (void)delivered_at;
}

TEST_F(SimulatorTest, DownSubnetDropsFrames) {
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const SubnetId link = sim.Connect(a, b);
  RecordingAgent rb;
  sim.SetAgent(b, &rb);

  sim.SetSubnetUp(link, false);
  EXPECT_FALSE(sim.SendDatagram(a, 0, sim.PrimaryAddress(b), {1}));
  sim.RunUntilIdle();
  EXPECT_TRUE(rb.deliveries.empty());
  EXPECT_EQ(sim.subnet(link).counters.frames_dropped, 1u);
}

TEST_F(SimulatorTest, FrameInFlightDiesWithReceiverInterface) {
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  sim.Connect(a, b, 10 * kMillisecond);
  RecordingAgent rb;
  sim.SetAgent(b, &rb);

  sim.SendDatagram(a, 0, sim.PrimaryAddress(b), {1});
  sim.Schedule(5 * kMillisecond, [&] { sim.SetInterfaceUp(b, 0, false); });
  sim.RunUntilIdle();
  EXPECT_TRUE(rb.deliveries.empty());
}

TEST_F(SimulatorTest, DownNodeNeitherSendsNorReceives) {
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  sim.Connect(a, b);
  RecordingAgent rb;
  sim.SetAgent(b, &rb);

  sim.SetNodeUp(b, false);
  sim.SendDatagram(a, 0, sim.PrimaryAddress(b), {1});
  sim.RunUntilIdle();
  EXPECT_TRUE(rb.deliveries.empty());

  sim.SetNodeUp(a, false);
  EXPECT_FALSE(sim.SendDatagram(a, 0, sim.PrimaryAddress(b), {1}));
}

TEST_F(SimulatorTest, LossRateDropsSomeFrames) {
  const SubnetId lan = sim.AddSubnet(
      "lan", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  sim.Attach(a, lan);
  sim.Attach(b, lan);
  RecordingAgent rb;
  sim.SetAgent(b, &rb);
  sim.SetSubnetLossRate(lan, 0.5);

  for (int i = 0; i < 200; ++i) {
    sim.SendDatagram(a, 0, sim.PrimaryAddress(b), {static_cast<uint8_t>(i)});
  }
  sim.RunUntilIdle();
  EXPECT_GT(rb.deliveries.size(), 50u);
  EXPECT_LT(rb.deliveries.size(), 150u);
}

TEST_F(SimulatorTest, CountersTrackTransmissions) {
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const SubnetId link = sim.Connect(a, b);
  RecordingAgent rb;
  sim.SetAgent(b, &rb);

  sim.SendDatagram(a, 0, sim.PrimaryAddress(b), {1, 2, 3, 4});
  sim.RunUntilIdle();
  EXPECT_EQ(sim.subnet(link).counters.frames_sent, 1u);
  EXPECT_EQ(sim.subnet(link).counters.bytes_sent, 4u);
  sim.ResetCounters();
  EXPECT_EQ(sim.subnet(link).counters.frames_sent, 0u);
}

TEST_F(SimulatorTest, FrameObserverSeesEveryTransmission) {
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  sim.Connect(a, b);
  int observed = 0;
  sim.SetFrameObserver([&](const FrameEvent& ev) {
    ++observed;
    EXPECT_EQ(ev.sender, a);
    EXPECT_EQ(ev.bytes, 2u);
  });
  sim.SendDatagram(a, 0, sim.PrimaryAddress(b), {1, 2});
  sim.RunUntilIdle();
  EXPECT_EQ(observed, 1);
}

TEST_F(SimulatorTest, ConnectAssignsDistinctP2pSubnets) {
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const NodeId c = sim.AddNode("c", true);
  const SubnetId ab = sim.Connect(a, b);
  const SubnetId bc = sim.Connect(b, c);
  EXPECT_NE(sim.subnet(ab).address, sim.subnet(bc).address);
  EXPECT_FALSE(sim.subnet(ab).multi_access);
  // Addresses of the two ends differ and are contained in the subnet.
  const auto& s = sim.subnet(ab);
  EXPECT_TRUE(s.address.Contains(sim.PrimaryAddress(a)));
}

TEST_F(SimulatorTest, TopologyEpochBumpsOnEveryChange) {
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const SubnetId link = sim.Connect(a, b);
  const auto e0 = sim.topology_epoch();
  sim.SetSubnetUp(link, false);
  EXPECT_GT(sim.topology_epoch(), e0);
  const auto e1 = sim.topology_epoch();
  sim.SetSubnetUp(link, false);  // no-op: already down
  EXPECT_EQ(sim.topology_epoch(), e1);
  sim.SetSubnetUp(link, true);
  sim.SetInterfaceUp(a, 0, false);
  sim.SetNodeUp(b, false);
  EXPECT_GE(sim.topology_epoch(), e1 + 3);
}

TEST_F(SimulatorTest, InterfaceCostChangesAreJournaled) {
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const SubnetId link = sim.Connect(a, b, kMillisecond, 2.0);
  EXPECT_EQ(sim.interface(a, 0).cost, 2.0);
  EXPECT_EQ(sim.interface(b, 0).cost, 2.0);
  const auto e0 = sim.topology_epoch();
  sim.SetInterfaceCost(a, 0, 2.0);  // no-op: unchanged
  EXPECT_EQ(sim.topology_epoch(), e0);
  sim.SetInterfaceCost(a, 0, 7.0);
  EXPECT_EQ(sim.interface(a, 0).cost, 7.0);
  EXPECT_EQ(sim.topology_epoch(), e0 + 1);
  const auto changes = sim.ChangesSince(e0);
  ASSERT_TRUE(changes.has_value());
  ASSERT_EQ(changes->size(), 1u);
  EXPECT_EQ(changes->front().kind,
            netsim::TopologyChange::Kind::kInterfaceCost);
  EXPECT_EQ(changes->front().node, a);
  EXPECT_EQ(changes->front().subnet, link);
}

TEST_F(SimulatorTest, BroadcastAddressReachesAllAttachments) {
  const SubnetId lan = sim.AddSubnet(
      "lan", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  const NodeId c = sim.AddNode("c", false);
  sim.Attach(a, lan);
  sim.Attach(b, lan);
  sim.Attach(c, lan);
  RecordingAgent rb, rc;
  sim.SetAgent(b, &rb);
  sim.SetAgent(c, &rc);
  sim.SendDatagram(a, 0, Ipv4Address(0xFFFFFFFFu), {1});
  sim.RunUntilIdle();
  EXPECT_EQ(rb.deliveries.size(), 1u);
  EXPECT_EQ(rc.deliveries.size(), 1u);
}

TEST_F(SimulatorTest, LinkSourceReportedToAgent) {
  const NodeId a = sim.AddNode("a", true);
  const NodeId b = sim.AddNode("b", true);
  sim.Connect(a, b);
  struct SrcAgent : NetworkAgent {
    Ipv4Address seen_src;
    void OnDatagram(VifIndex, Ipv4Address link_src, Ipv4Address,
                    std::span<const std::uint8_t>) override {
      seen_src = link_src;
    }
  } agent;
  sim.SetAgent(b, &agent);
  sim.SendDatagram(a, 0, sim.PrimaryAddress(b), {1});
  sim.RunUntilIdle();
  EXPECT_EQ(agent.seen_src, sim.PrimaryAddress(a));
}

TEST_F(SimulatorTest, TimerCancelsOnReschedule) {
  int fired = 0;
  Timer t(sim);
  t.Schedule(10, [&] { fired = 1; });
  t.Schedule(20, [&] { fired = 2; });  // replaces the first
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 2);
}

TEST_F(SimulatorTest, FindNodeByAddressAndName) {
  const NodeId a = sim.AddNode("alpha", true);
  const SubnetId lan = sim.AddSubnet(
      "lan", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  sim.Attach(a, lan);
  EXPECT_EQ(sim.FindNodeByAddress(Ipv4Address(10, 1, 0, 1)), a);
  EXPECT_EQ(sim.FindNodeByName("alpha"), a);
  EXPECT_FALSE(sim.FindNodeByAddress(Ipv4Address(10, 9, 0, 1)).has_value());
  EXPECT_FALSE(sim.FindNodeByName("beta").has_value());
}

/// The address index's oracle: the lowest NodeId with an interface on
/// `address`, by a scan over every interface.
std::optional<NodeId> LinearFindNode(const Simulator& sim,
                                     Ipv4Address address) {
  for (std::size_t n = 0; n < sim.node_count(); ++n) {
    const NodeRecord& node = sim.node(NodeId(static_cast<std::int32_t>(n)));
    for (const Interface& iface : node.interfaces) {
      if (iface.address == address) return node.id;
    }
  }
  return std::nullopt;
}

TEST(AddressIndex, GridWithHostsAndAggregateMatchesLinearScan) {
  Simulator sim(1);
  Topology topo = MakeGrid(sim, 6, 6);
  core::CbtDomain domain(sim, topo);
  for (const std::size_t lan : {0u, 7u, 20u, 35u}) {
    domain.AddHost(topo.router_lans[lan], "h" + std::to_string(lan));
  }
  domain.AddAggregate(topo.router_lans[14], "agg");

  std::size_t checked = 0;
  for (std::size_t n = 0; n < sim.node_count(); ++n) {
    const NodeRecord& node = sim.node(NodeId(static_cast<std::int32_t>(n)));
    for (const Interface& iface : node.interfaces) {
      EXPECT_EQ(sim.FindNodeByAddress(iface.address),
                LinearFindNode(sim, iface.address))
          << iface.address.ToString();
      EXPECT_EQ(sim.FindNodeByAddress(iface.address), node.id);
      ++checked;
    }
  }
  // 36 router LAN interfaces, 60 links x 2 ends, 4 hosts, 1 station.
  EXPECT_EQ(checked, 36u + 2u * 60u + 5u);
}

TEST(AddressIndex, UnknownUnspecifiedAndMulticastResolveToNothing) {
  Simulator sim(1);
  MakeGrid(sim, 6, 6);
  for (const Ipv4Address address :
       {Ipv4Address(192, 0, 2, 77), Ipv4Address{}, kAllSystemsGroup,
        kAllCbtRoutersGroup, Ipv4Address(239, 1, 2, 3)}) {
    EXPECT_EQ(sim.FindNodeByAddress(address), std::nullopt)
        << address.ToString();
    EXPECT_EQ(LinearFindNode(sim, address), std::nullopt);
  }
}

TEST(AddressIndex, DuplicateAddressResolvesToTheLowerNodeId) {
  Simulator sim(1);
  const NodeId low = sim.AddNode("low", true);
  const NodeId high = sim.AddNode("high", true);
  const NodeId later = sim.AddNode("later", true);
  const SubnetId lan = sim.AddSubnet(
      "lan", SubnetAddress::FromPrefix(Ipv4Address(10, 7, 0, 0), 16));
  // The higher id claims the address first; the lower one still wins,
  // and a third, higher claimant changes nothing.
  sim.AttachWithHostPart(high, lan, 5);
  EXPECT_EQ(sim.FindNodeByAddress(Ipv4Address(10, 7, 0, 5)), high);
  sim.AttachWithHostPart(low, lan, 5);
  sim.AttachWithHostPart(later, lan, 5);
  EXPECT_EQ(sim.FindNodeByAddress(Ipv4Address(10, 7, 0, 5)), low);
  EXPECT_EQ(LinearFindNode(sim, Ipv4Address(10, 7, 0, 5)), low);
}

/// Logs every arrival into a log shared by all agents, and answers each
/// frame of generation < 2 with one multicast of its own: receivers of
/// one fan-out that ran out of order would reorder the log.
class ChattyAgent : public NetworkAgent {
 public:
  ChattyAgent(Simulator& sim, NodeId self, std::vector<std::string>& log)
      : sim_(sim), self_(self), log_(log) {}

  void OnDatagram(VifIndex vif, Ipv4Address, Ipv4Address,
                  std::span<const std::uint8_t> datagram) override {
    const int generation = datagram[0];
    log_.push_back(std::to_string(sim_.Now()) + " node " +
                   std::to_string(self_.value()) + " gen " +
                   std::to_string(generation) + " from " +
                   std::to_string(datagram[1]));
    if (generation < 2) {
      sim_.SendDatagram(self_, vif, kAllSystemsGroup,
                        {static_cast<std::uint8_t>(generation + 1),
                         static_cast<std::uint8_t>(self_.value())});
    }
  }

 private:
  Simulator& sim_;
  NodeId self_;
  std::vector<std::string>& log_;
};

/// Multicast chatter on one five-node LAN, bracketed by same-time timers
/// scheduled before and after the first send. `per_receiver` installs
/// the test reference scheduler, which the simulator never batches for.
std::vector<std::string> FanOutLog(bool per_receiver) {
  Simulator sim(1);
  std::optional<ReferenceScheduler> oracle;
  if (per_receiver) oracle.emplace(sim);
  const SubnetId lan = sim.AddSubnet(
      "lan", SubnetAddress::FromPrefix(Ipv4Address(10, 1, 0, 0), 16));
  std::vector<std::string> log;
  std::vector<std::unique_ptr<ChattyAgent>> agents;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) {
    nodes.push_back(sim.AddNode("n" + std::to_string(i), true));
    sim.Attach(nodes.back(), lan);
    agents.push_back(std::make_unique<ChattyAgent>(sim, nodes.back(), log));
    sim.SetAgent(nodes.back(), agents.back().get());
  }
  sim.ScheduleAt(kMillisecond, [&log] { log.push_back("timer before"); });
  sim.SendDatagram(nodes[0], 0, kAllSystemsGroup, {0, 0});
  sim.ScheduleAt(kMillisecond, [&log] { log.push_back("timer after"); });
  if (!per_receiver) {
    EXPECT_EQ(sim.events().size(), 3u) << "one event for the whole fan-out";
  }
  sim.RunUntil(10 * kMillisecond);
  return log;
}

TEST(BatchedDelivery, MatchesPerReceiverOrder) {
  const std::vector<std::string> batched = FanOutLog(false);
  EXPECT_EQ(batched.size(), 2u + 4u + 16u + 64u);
  EXPECT_EQ(batched, FanOutLog(true));
}

}  // namespace
}  // namespace cbt::netsim

// Metric names per scheme: every SchemeDomain binds its routers' counters
// as "<prefix>.router.<id>.*" and its route manager's as
// "<prefix>.routing.*", where the prefix is the router type's
// kMetricPrefix. Everything else in the snapshot is a subnet counter.
#include <gtest/gtest.h>

#include <string>

#include "baselines/dvmrp_router.h"
#include "baselines/mospf_router.h"
#include "baselines/rp_tree_router.h"
#include "cbt/domain.h"
#include "netsim/topologies.h"
#include "obs/metrics.h"

namespace cbt::obs {
namespace {

template <class Domain>
void ExpectSchemeMetricNames(const std::string& prefix) {
  SCOPED_TRACE(prefix);
  netsim::Simulator sim(1);
  netsim::Topology topo = netsim::MakeLine(sim, 3);
  Domain domain(sim, topo);
  Registry registry;
  domain.BindMetrics(registry);
  const MetricSet snapshot = domain.MetricsSnapshot();

  std::size_t routing = 0;
  for (const Sample& sample : snapshot) {
    if (sample.name.starts_with(prefix + ".routing.")) {
      ++routing;
    } else if (!sample.name.starts_with(prefix + ".router.")) {
      EXPECT_TRUE(sample.name.starts_with("netsim.subnet.")) << sample.name;
    }
  }
  EXPECT_GT(routing, 0u);
  for (const NodeId id : domain.router_ids()) {
    EXPECT_FALSE(snapshot
                     .WithPrefix(prefix + ".router." +
                                 std::to_string(id.value()) + ".")
                     .empty())
        << "router " << id.value();
  }
}

TEST(SchemeMetrics, EachDomainBindsUnderItsRouterPrefix) {
  ExpectSchemeMetricNames<core::CbtDomain>("cbt");
  ExpectSchemeMetricNames<baselines::DvmrpDomain>("dvmrp");
  ExpectSchemeMetricNames<baselines::MospfDomain>("mospf");
  ExpectSchemeMetricNames<baselines::RpTreeDomain>("rptree");
}

}  // namespace
}  // namespace cbt::obs

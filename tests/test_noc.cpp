// Tests for mesh routing: DOR hop counts, chip-boundary crossings,
// fault-detour routing, and inter-chip traffic accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/types.hpp"
#include "src/noc/route.hpp"
#include "src/noc/traffic.hpp"

namespace nsc::noc {
namespace {

using core::CoreId;
using core::Geometry;

TEST(RouteDor, LocalDeliveryIsZeroHops) {
  const Geometry g = core::truenorth_chip();
  const RouteInfo r = route_dor(g, 5, 5);
  EXPECT_EQ(r.hops, 0);
  EXPECT_EQ(r.chip_crossings, 0);
}

TEST(RouteDor, HopsEqualManhattan) {
  const Geometry g = core::truenorth_chip();
  const CoreId a = g.core_at(0, 3, 7);
  const CoreId b = g.core_at(0, 40, 60);
  const RouteInfo r = route_dor(g, a, b);
  EXPECT_EQ(r.hops, (40 - 3) + (60 - 7));
  EXPECT_EQ(r.hops, manhattan(g, a, b));
  EXPECT_EQ(r.chip_crossings, 0);
}

TEST(RouteDor, SymmetricHopCount) {
  const Geometry g{1, 1, 16, 16};
  const CoreId a = g.core_at(0, 1, 14);
  const CoreId b = g.core_at(0, 12, 2);
  EXPECT_EQ(route_dor(g, a, b).hops, route_dor(g, b, a).hops);
}

TEST(RouteDor, CountsChipCrossingsXThenY) {
  const Geometry g{2, 2, 4, 4};  // 2x2 chips of 4x4 cores
  const CoreId a = g.core_at(0, 0, 0);        // chip (0,0), global (0,0)
  const CoreId b = g.core_at(3, 3, 3);        // chip (1,1), global (7,7)
  const RouteInfo r = route_dor(g, a, b);
  EXPECT_EQ(r.hops, 14);
  EXPECT_EQ(r.chip_crossings, 2);  // one eastward, one southward
}

TEST(RouteDor, NoCrossingWithinChip) {
  const Geometry g{2, 1, 4, 4};
  const RouteInfo r = route_dor(g, g.core_at(1, 0, 0), g.core_at(1, 3, 3));
  EXPECT_EQ(r.chip_crossings, 0);
}

TEST(FaultSetTest, MarkAndQuery) {
  FaultSet f(16);
  EXPECT_TRUE(f.empty());
  f.mark(3);
  EXPECT_TRUE(f.is_faulted(3));
  EXPECT_FALSE(f.is_faulted(4));
  EXPECT_EQ(f.count(), 1);
}

TEST(DorPathBlocked, DetectsBlockOnXLeg) {
  const Geometry g{1, 1, 8, 8};
  FaultSet f(g.total_cores());
  f.mark(g.core_at(0, 3, 0));  // on the x path from (0,0) to (6,0)
  EXPECT_TRUE(dor_path_blocked(g, f, g.core_at(0, 0, 0), g.core_at(0, 6, 0)));
  EXPECT_FALSE(dor_path_blocked(g, f, g.core_at(0, 0, 1), g.core_at(0, 6, 1)));
}

TEST(DorPathBlocked, DetectsBlockOnYLegAndTurnCore) {
  const Geometry g{1, 1, 8, 8};
  FaultSet f(g.total_cores());
  f.mark(g.core_at(0, 5, 2));  // on the y leg at column 5
  EXPECT_TRUE(dor_path_blocked(g, f, g.core_at(0, 0, 0), g.core_at(0, 5, 4)));
  FaultSet f2(g.total_cores());
  f2.mark(g.core_at(0, 5, 0));  // the turn core itself
  EXPECT_TRUE(dor_path_blocked(g, f2, g.core_at(0, 0, 0), g.core_at(0, 5, 4)));
}

TEST(DorPathBlocked, DestinationNotCounted) {
  const Geometry g{1, 1, 8, 8};
  FaultSet f(g.total_cores());
  f.mark(g.core_at(0, 6, 0));
  EXPECT_FALSE(dor_path_blocked(g, f, g.core_at(0, 0, 0), g.core_at(0, 6, 0)));
}

TEST(RouteWithFaults, CleanPathMatchesDor) {
  const Geometry g{1, 1, 8, 8};
  FaultSet f(g.total_cores());
  f.mark(g.core_at(0, 7, 7));  // not on the path
  const CoreId a = g.core_at(0, 0, 0), b = g.core_at(0, 4, 4);
  const RouteInfo r = route_with_faults(g, f, LinkFaultSet{}, a, b);
  EXPECT_EQ(r.hops, route_dor(g, a, b).hops);
}

TEST(RouteWithFaults, DetourAddsHopsButStaysShortest) {
  const Geometry g{1, 1, 8, 8};
  FaultSet f(g.total_cores());
  f.mark(g.core_at(0, 2, 0));  // force a sidestep on the x leg
  const CoreId a = g.core_at(0, 0, 0), b = g.core_at(0, 4, 0);
  const RouteInfo r = route_with_faults(g, f, LinkFaultSet{}, a, b);
  EXPECT_TRUE(r.reachable);
  EXPECT_EQ(r.hops, 4 + 2);  // one step aside, one step back
}

TEST(RouteWithFaults, WallForcesLongWayOrUnreachable) {
  const Geometry g{1, 1, 4, 4};
  FaultSet f(g.total_cores());
  // Wall across x=1 (all rows): src column 0 fully cut off.
  for (int y = 0; y < 4; ++y) f.mark(g.core_at(0, 1, y));
  const RouteInfo r =
      route_with_faults(g, f, LinkFaultSet{}, g.core_at(0, 0, 0), g.core_at(0, 3, 0));
  EXPECT_FALSE(r.reachable);
}

TEST(RouteWithFaults, DetourAroundPartialWall) {
  const Geometry g{1, 1, 5, 5};
  FaultSet f(g.total_cores());
  for (int y = 0; y < 4; ++y) f.mark(g.core_at(0, 2, y));  // gap at y = 4
  const RouteInfo r =
      route_with_faults(g, f, LinkFaultSet{}, g.core_at(0, 0, 0), g.core_at(0, 4, 0));
  EXPECT_TRUE(r.reachable);
  EXPECT_EQ(r.hops, 4 + 8);  // down to row 4 and back up
}

TEST(RouteWithFaults, ReportsTheDetourLinks) {
  // 2×2 chips of 2×2 cores, chip 0's east link dead: the detour from chip
  // 0's east edge to chip 1's west edge leaves chip 0 south, chip 2 east and
  // chip 3 north. A clean DOR route reports no detour.
  const Geometry g{2, 2, 2, 2};
  const CoreId a = g.core_at(0, 1, 0), b = g.core_at(1, 0, 0);
  LinkFaultSet dead(g.chips());
  dead.mark(0, static_cast<int>(LinkDir::kEast));
  std::vector<ChipLink> detour = {{9, LinkDir::kWest}};
  const RouteInfo clean = route_with_faults(g, FaultSet(g.total_cores()), LinkFaultSet(g.chips()),
                                            a, b, &detour);
  EXPECT_EQ(clean.chip_crossings, 1);
  EXPECT_TRUE(detour.empty());
  const RouteInfo r = route_with_faults(g, FaultSet(g.total_cores()), dead, a, b, &detour);
  ASSERT_TRUE(r.reachable);
  EXPECT_EQ(r.hops, 5);
  EXPECT_EQ(r.chip_crossings, 3);
  ASSERT_EQ(detour.size(), 3u);
  EXPECT_EQ(detour[0].chip, 0);
  EXPECT_EQ(detour[0].dir, LinkDir::kSouth);
  EXPECT_EQ(detour[1].chip, 2);
  EXPECT_EQ(detour[1].dir, LinkDir::kEast);
  EXPECT_EQ(detour[2].chip, 3);
  EXPECT_EQ(detour[2].dir, LinkDir::kNorth);
}

TEST(InterChipTrafficTest, CountsPerLinkAndMax) {
  const Geometry g{2, 2, 2, 2};
  InterChipTraffic traffic(g);
  const CoreId a = g.core_at(0, 0, 0);  // chip (0,0)
  const CoreId b = g.core_at(3, 1, 1);  // chip (1,1)
  traffic.record_route(a, b);
  traffic.record_route(a, b);
  traffic.end_tick();
  EXPECT_EQ(traffic.total_crossings(), 4u);          // 2 packets × 2 crossings
  EXPECT_EQ(traffic.max_link_packets_per_tick(), 2u);
  EXPECT_EQ(traffic.link_total(0, LinkDir::kEast), 2u);   // chip0 → chip1
  EXPECT_EQ(traffic.link_total(1, LinkDir::kSouth), 2u);  // chip1 → chip3
  EXPECT_EQ(traffic.link_total(0, LinkDir::kWest), 0u);
}

TEST(InterChipTrafficTest, SingleChipNeverCounts) {
  const Geometry g{1, 1, 4, 4};
  InterChipTraffic traffic(g);
  traffic.record_route(0, 15);
  traffic.end_tick();
  EXPECT_EQ(traffic.total_crossings(), 0u);
}

TEST(InterChipTrafficTest, WestAndNorthDirections) {
  const Geometry g{2, 2, 2, 2};
  InterChipTraffic traffic(g);
  const CoreId a = g.core_at(3, 0, 0);  // chip (1,1)
  const CoreId b = g.core_at(0, 0, 0);  // chip (0,0)
  traffic.record_route(a, b);
  traffic.end_tick();
  EXPECT_EQ(traffic.link_total(3, LinkDir::kWest), 1u);
  EXPECT_EQ(traffic.link_total(2, LinkDir::kNorth), 1u);
}

TEST(InterChipTrafficTest, ResetClearsEverything) {
  const Geometry g{2, 1, 2, 2};
  InterChipTraffic traffic(g);
  traffic.record_route(g.core_at(0, 0, 0), g.core_at(1, 1, 1));
  traffic.end_tick();
  traffic.reset();
  EXPECT_EQ(traffic.total_crossings(), 0u);
  EXPECT_EQ(traffic.max_link_packets_per_tick(), 0u);
}

TEST(DorLinkWalk, AgreesWithTrafficBlockingAndCrossings) {
  // 3×3 chips of 2×2 cores: pairs run X legs, Y legs or both, in all four
  // directions, over 9 chips × 4 = 36 directed links (edge links included,
  // which no route crosses).
  const Geometry g{3, 3, 2, 2};
  const int nlinks = g.chips() * 4;
  std::vector<LinkFaultSet> only(static_cast<std::size_t>(nlinks));
  for (int l = 0; l < nlinks; ++l) {
    only[static_cast<std::size_t>(l)] = LinkFaultSet(g.chips());
    only[static_cast<std::size_t>(l)].mark(l / 4, l % 4);
  }
  const auto ncores = static_cast<CoreId>(g.total_cores());
  for (CoreId a = 0; a < ncores; ++a) {
    for (CoreId b = 0; b < ncores; ++b) {
      std::vector<std::uint64_t> visited(static_cast<std::size_t>(nlinks), 0);
      std::uint64_t walked = 0;
      EXPECT_FALSE(for_each_dor_link(g, a, b, [&](int chip, LinkDir dir) {
        ++visited[static_cast<std::size_t>(chip) * 4 + static_cast<std::size_t>(dir)];
        ++walked;
        return false;
      }));
      ASSERT_EQ(walked, static_cast<std::uint64_t>(route_dor(g, a, b).chip_crossings))
          << a << " -> " << b;
      InterChipTraffic traffic(g);
      traffic.record_route(a, b);
      ASSERT_EQ(traffic.total_crossings(), walked) << a << " -> " << b;
      for (int l = 0; l < nlinks; ++l) {
        const std::uint64_t n = visited[static_cast<std::size_t>(l)];
        ASSERT_LE(n, 1u) << a << " -> " << b << " link " << l;
        ASSERT_EQ(traffic.link_total(l / 4, static_cast<LinkDir>(l % 4)), n)
            << a << " -> " << b << " link " << l;
        ASSERT_EQ(dor_links_blocked(g, only[static_cast<std::size_t>(l)], a, b), n != 0)
            << a << " -> " << b << " link " << l;
      }
    }
  }
}

TEST(UniformTargets, MeanHopDistanceMatchesPaper) {
  // Paper §IV-B: uniformly random targets average 21.66 hops in each
  // dimension on the 64×64 grid; mean |Δ| of two uniform draws on [0,64)
  // is (64² − 1)/(3·64) ≈ 21.33.
  const Geometry g = core::truenorth_chip();
  double sum = 0.0;
  int n = 0;
  for (int a = 0; a < 64; ++a) {
    for (int b = 0; b < 64; ++b) {
      sum += std::abs(a - b);
      ++n;
    }
  }
  EXPECT_NEAR(sum / n, 21.66, 0.5);
  (void)g;
}

}  // namespace
}  // namespace nsc::noc

// Randomized equivalence gate for the controller's capacity index: at zone
// and root scope, CapacityIndex::pack must reproduce binpack::pack(kFfdlr)
// run on the materialized bins — verdict, (item, target) emission order and
// unplaced order — across banned subtrees, point updates, equal capacities
// and sizes within a few ulps of the kCapacityEps boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "binpack/pack.h"
#include "core/capacity_index.h"

namespace willow::core {
namespace {

using binpack::kCapacityEps;

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : engine_(seed) {}
  double unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  int below(int n) { return static_cast<int>(engine_() % static_cast<std::uint64_t>(n)); }
  bool chance(double p) { return unit() < p; }

 private:
  std::mt19937_64 engine_;
};

/// `x` moved by `steps` ulps (negative: toward -inf).
double ulps(double x, int steps) {
  for (; steps > 0; --steps) x = std::nextafter(x, HUGE_VAL);
  for (; steps < 0; ++steps) x = std::nextafter(x, -HUGE_VAL);
  return x;
}

/// A zone/rack/server fleet in depth-first slot order.
struct Fleet {
  int zones = 0;
  int racks = 0;    ///< per zone
  int servers = 0;  ///< per rack
  std::vector<double> cap;   ///< by slot
  std::vector<int> ban;      ///< by slot: deepest banned ancestor's depth

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(cap.size());
  }
  [[nodiscard]] std::uint32_t zone_size() const {
    return static_cast<std::uint32_t>(racks * servers);
  }
};

const double kRound[] = {1.0, 2.5, 5.0, 7.5, 10.0, 12.5, 20.0};

double draw_capacity(Draw& d) {
  switch (d.below(6)) {
    case 0:
      return kRound[d.below(7)];  // ties
    case 1:
      return ulps(kCapacityEps, d.below(7) - 3);  // at the index threshold
    case 2:
      return 0.0;  // inactive or exhausted
    default:
      return 25.0 * d.unit();
  }
}

Fleet draw_fleet(Draw& d) {
  Fleet f;
  f.zones = 1 + d.below(4);
  f.racks = 1 + d.below(4);
  f.servers = 1 + d.below(8);
  const int n = f.zones * f.racks * f.servers;
  f.cap.resize(n);
  f.ban.assign(n, CapacityIndex::kNoBan);
  for (double& c : f.cap) c = draw_capacity(d);
  // Banned subtrees: a banned rack (depth 2) is deeper than a banned zone
  // (depth 1), so it wins as the deepest banned ancestor.
  int slot = 0;
  for (int z = 0; z < f.zones; ++z) {
    const bool zone_banned = d.chance(0.25);
    for (int r = 0; r < f.racks; ++r) {
      const bool rack_banned = d.chance(0.2);
      for (int s = 0; s < f.servers; ++s, ++slot) {
        f.ban[slot] = rack_banned   ? 2
                      : zone_banned ? 1
                                    : CapacityIndex::kNoBan;
      }
    }
  }
  return f;
}

std::vector<binpack::Item> draw_items(Draw& d, const Fleet& f) {
  std::vector<binpack::Item> items(d.below(14));
  for (std::size_t i = 0; i < items.size(); ++i) {
    double size = 0.0;
    switch (d.below(5)) {
      case 0:
        size = kRound[d.below(7)];
        break;
      case 1: {
        // Within a few ulps of some bin's capacity + kCapacityEps: the
        // boundary of binpack::fits.
        const double c = f.cap[d.below(static_cast<int>(f.size()))];
        size = ulps(c + kCapacityEps, d.below(9) - 4);
        break;
      }
      case 2:
        size = kRound[d.below(7)] / 2.0;  // pairs that sum to round values
        break;
      default:
        size = 15.0 * d.unit();
    }
    items[i] = {static_cast<std::uint64_t>(i), size, 0};
  }
  return items;
}

void load(CapacityIndex& index, const Fleet& f) {
  index.reset(f.size());
  for (std::uint32_t s = 0; s < f.size(); ++s) {
    index.set_ban_depth(s, f.ban[s]);
    index.add(s, f.cap[s]);
  }
  index.load();
}

/// Compare the index's replay with pack(kFfdlr) on the materialized bins.
void expect_equivalent(CapacityIndex& index, const Fleet& f,
                       const CapacityIndex::Scope& q,
                       const std::vector<binpack::Item>& items,
                       const std::string& where) {
  std::vector<binpack::Bin> bins;
  for (std::uint32_t s = q.first; s < q.first + q.count; ++s) {
    if (s == q.exclude || f.ban[s] > q.depth || !(f.cap[s] > kCapacityEps)) {
      continue;
    }
    bins.push_back({s, f.cap[s], 0});
  }
  const binpack::PackResult full =
      binpack::pack(items, bins, binpack::Algorithm::kFfdlr);

  CapacityIndex::Plan plan;
  std::vector<std::size_t> unplaced;
  const bool placed_all = index.pack(items, q, false, plan, unplaced);
  ASSERT_EQ(placed_all, full.all_placed()) << where;
  ASSERT_EQ(unplaced, full.unplaced) << where;
  ASSERT_EQ(plan.size(), full.assignments.size()) << where;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    ASSERT_EQ(plan[k].first, full.assignments[k].item) << where << " #" << k;
    ASSERT_EQ(plan[k].second, bins[full.assignments[k].bin].key)
        << where << " #" << k;
  }

  // The verdict-only replay agrees, and its plan is complete when it holds.
  CapacityIndex::Plan verdict_plan;
  const bool verdict = index.pack(items, q, true, verdict_plan, unplaced);
  ASSERT_EQ(verdict, full.all_placed()) << where;
  if (verdict) {
    ASSERT_EQ(verdict_plan, plan) << where;
  }
}

TEST(CapacityIndex, MatchesFfdlrAtZoneAndRootScope) {
  Draw d(20111);
  CapacityIndex index;
  int scopes = 0;
  int placements = 0;
  int spills = 0;
  for (int trial = 0; trial < 400; ++trial) {
    Fleet f = draw_fleet(d);
    load(index, f);
    // Two rounds: as loaded, then after point updates (the re-keyed entries
    // live in the side set and must merge back into capacity order).
    for (int round = 0; round < 2; ++round) {
      const std::string tag =
          "trial " + std::to_string(trial) + " round " + std::to_string(round);
      for (int z = -1; z < f.zones; ++z) {
        CapacityIndex::Scope q;
        if (z < 0) {
          q = {0, f.size(), 0, CapacityIndex::kNoSlot};
        } else {
          q = {static_cast<std::uint32_t>(z) * f.zone_size(), f.zone_size(),
               1, CapacityIndex::kNoSlot};
        }
        if (d.chance(0.3)) {
          q.exclude = q.first + static_cast<std::uint32_t>(
                                    d.below(static_cast<int>(q.count)));
        }
        const auto items = draw_items(d, f);
        expect_equivalent(index, f, q, items,
                          tag + (z < 0 ? " root" : " zone " + std::to_string(z)));
        if (HasFatalFailure()) return;
        ++scopes;
        CapacityIndex::Plan plan;
        std::vector<std::size_t> unplaced;
        index.pack(items, q, false, plan, unplaced);
        placements += static_cast<int>(plan.size());
        spills += static_cast<int>(unplaced.size());
      }
      // Point updates: re-key, drop and restore random slots.
      const int updates = 1 + d.below(static_cast<int>(f.size()));
      for (int u = 0; u < updates; ++u) {
        const auto s = static_cast<std::uint32_t>(
            d.below(static_cast<int>(f.size())));
        f.cap[s] = draw_capacity(d);
        const int mutations = index.update(s, f.cap[s]);
        ASSERT_LE(mutations, 2);
        ASSERT_EQ(index.capacity(s) >= 0.0, f.cap[s] > kCapacityEps);
      }
    }
  }
  // The draw exercised both placements and spills, not a degenerate corner.
  EXPECT_GT(scopes, 1000);
  EXPECT_GT(placements, 1000);
  EXPECT_GT(spills, 200);
}

TEST(CapacityIndex, EligibilityFollowsDeepestBannedAncestor) {
  CapacityIndex index;
  index.reset(3);
  index.set_ban_depth(0, CapacityIndex::kNoBan);
  index.set_ban_depth(1, 1);  // banned zone
  index.set_ban_depth(2, 2);  // banned rack
  for (std::uint32_t s = 0; s < 3; ++s) index.add(s, 5.0);
  index.load();
  EXPECT_TRUE(index.eligible(0, 0));
  EXPECT_FALSE(index.eligible(1, 0));  // root scope crosses the zone
  EXPECT_TRUE(index.eligible(1, 1));   // zone scope stops at the zone
  EXPECT_FALSE(index.eligible(2, 1));  // zone scope crosses the rack
  EXPECT_TRUE(index.eligible(2, 2));   // rack scope stops at the rack
}

TEST(CapacityIndex, UpdatesCountSetMutations) {
  CapacityIndex index;
  index.reset(2);
  index.add(0, 5.0);
  index.load();
  EXPECT_EQ(index.update(0, 3.0), 2);  // erase + insert
  EXPECT_EQ(index.update(0, 0.0), 1);  // erase only
  EXPECT_EQ(index.update(1, kCapacityEps), 0);  // at the threshold: absent
  EXPECT_EQ(index.update(1, 4.0), 1);  // insert only
  EXPECT_LT(index.capacity(0), 0.0);
  EXPECT_EQ(index.capacity(1), 4.0);
}

}  // namespace
}  // namespace willow::core

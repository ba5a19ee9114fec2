#include "core/allocation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/rng.h"

namespace willow::core {
namespace {

using namespace willow::util::literals;

std::vector<Watts> watts_of(std::initializer_list<double> xs) {
  std::vector<Watts> v;
  for (double x : xs) v.emplace_back(x);
  return v;
}

double sum(const std::vector<Watts>& v) {
  double s = 0.0;
  for (const auto& w : v) s += w.value();
  return s;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Allocation, ValidatesInputs) {
  EXPECT_THROW(
      allocate_proportional(100_W, watts_of({1.0}), watts_of({1.0, 2.0})),
      std::invalid_argument);
  EXPECT_THROW(
      allocate_proportional(Watts{-1.0}, watts_of({1.0}), watts_of({1.0})),
      std::invalid_argument);
}

TEST(Allocation, EmptyChildrenReturnsAllUnallocated) {
  const auto r = allocate_proportional(100_W, {}, {});
  EXPECT_TRUE(r.budgets.empty());
  EXPECT_DOUBLE_EQ(r.unallocated.value(), 100.0);
}

TEST(Allocation, DeficitRegimeIsProportionalToDemand) {
  // Total 60 against demands (30, 60, 90): shares 10/20/30.
  const auto r = allocate_proportional(
      60_W, watts_of({30, 60, 90}), watts_of({kInf, kInf, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 10.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 20.0, 1e-9);
  EXPECT_NEAR(r.budgets[2].value(), 30.0, 1e-9);
  EXPECT_NEAR(r.unallocated.value(), 0.0, 1e-9);
}

TEST(Allocation, ExactDemandMet) {
  const auto r = allocate_proportional(
      100_W, watts_of({40, 60}), watts_of({kInf, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 40.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 60.0, 1e-9);
}

TEST(Allocation, SurplusSpreadsProportionalToDemand) {
  // 50 spare over demands (40, 60): +20 and +30.
  const auto r = allocate_proportional(
      150_W, watts_of({40, 60}), watts_of({kInf, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 60.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 90.0, 1e-9);
  EXPECT_NEAR(r.unallocated.value(), 0.0, 1e-9);
}

TEST(Allocation, HardCapsRedirectToUncappedSiblings) {
  // Child 0 capped at 15 although its share would be 30: the excess flows
  // to child 1 (uncapped), not back up.
  const auto r = allocate_proportional(
      60_W, watts_of({30, 30}), watts_of({15, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 15.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 45.0, 1e-9);
}

TEST(Allocation, UnallocatableWhenAllCapped) {
  const auto r = allocate_proportional(
      100_W, watts_of({50, 50}), watts_of({20, 30}));
  EXPECT_NEAR(r.budgets[0].value(), 20.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 30.0, 1e-9);
  EXPECT_NEAR(r.unallocated.value(), 50.0, 1e-9);
}

TEST(Allocation, ZeroDemandChildrenShareByCapHeadroom) {
  // Nothing demands anything; the surplus still banks downstream in
  // proportion to caps (phase 2b).
  const auto r = allocate_proportional(
      90_W, watts_of({0, 0}), watts_of({100, 200}));
  EXPECT_NEAR(r.budgets[0].value(), 30.0, 1e-9);
  EXPECT_NEAR(r.budgets[1].value(), 60.0, 1e-9);
}

TEST(Allocation, MixedZeroAndNonZeroDemands) {
  // Demanders get satisfied first; true leftover then goes by headroom.
  const auto r = allocate_proportional(
      100_W, watts_of({40, 0}), watts_of({50, 60}));
  EXPECT_NEAR(r.budgets[0].value(), 50.0, 1e-9);  // 40 demand + spare to cap
  EXPECT_NEAR(r.budgets[1].value(), 50.0, 1e-9);
  EXPECT_NEAR(r.unallocated.value(), 0.0, 1e-9);
}

TEST(Allocation, ZeroTotal) {
  const auto r = allocate_proportional(
      Watts{0.0}, watts_of({10, 20}), watts_of({kInf, kInf}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(r.budgets[1].value(), 0.0);
}

TEST(Allocation, NegativeDemandsTreatedAsZero) {
  const auto r = allocate_proportional(
      10_W, watts_of({-5, 10}), watts_of({kInf, kInf}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 0.0);
  EXPECT_NEAR(r.budgets[1].value(), 10.0, 1e-9);
}

TEST(Allocation, SingleChildTakesEverythingUpToCap) {
  auto r = allocate_proportional(100_W, watts_of({30}), watts_of({kInf}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 100.0);
  r = allocate_proportional(100_W, watts_of({30}), watts_of({60}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 60.0);
  EXPECT_DOUBLE_EQ(r.unallocated.value(), 40.0);
}

TEST(Allocation, AllZeroCapsReturnEverything) {
  const auto r =
      allocate_proportional(100_W, watts_of({10, 20}), watts_of({0, 0}));
  EXPECT_DOUBLE_EQ(r.budgets[0].value(), 0.0);
  EXPECT_DOUBLE_EQ(r.budgets[1].value(), 0.0);
  EXPECT_DOUBLE_EQ(r.unallocated.value(), 100.0);
}

TEST(Allocation, HugeTotalWithInfiniteCapsFullyAllocated) {
  const auto r = allocate_proportional(Watts{1e9}, watts_of({1, 3}),
                                       watts_of({kInf, kInf}));
  EXPECT_NEAR(r.unallocated.value(), 0.0, 1.0);
  // Surplus spread proportional to demand: 1:3.
  EXPECT_NEAR(r.budgets[1].value() / r.budgets[0].value(), 3.0, 1e-6);
}

// Surplus left for the zero-demand phase goes to infinite-cap children in
// equal shares: headroom weights of DBL_MAX each used to overflow into NaN
// budgets, or into a budget far above the parent's.
TEST(Allocation, InfiniteCapsStayFiniteAndConserve) {
  struct Case {
    std::vector<Watts> demands, caps, expected;
  };
  const Case cases[] = {
      {watts_of({0, 0, 10}), watts_of({kInf, kInf, 5}),
       watts_of({47.5, 47.5, 5})},
      {watts_of({0, 10}), watts_of({kInf, 5}), watts_of({95, 5})},
      // A negative infinite cap is a zero cap, not an unbounded one.
      {watts_of({0, 0, 10}), watts_of({-kInf, kInf, 5}), watts_of({0, 95, 5})},
  };
  for (const auto& c : cases) {
    const auto r = allocate_proportional(100_W, c.demands, c.caps);
    ASSERT_EQ(r.budgets.size(), c.expected.size());
    for (std::size_t i = 0; i < r.budgets.size(); ++i) {
      EXPECT_TRUE(std::isfinite(r.budgets[i].value())) << "child " << i;
      EXPECT_GE(r.budgets[i].value(), 0.0) << "child " << i;
      EXPECT_LE(r.budgets[i].value(), std::max(0.0, c.caps[i].value()))
          << "child " << i;
      EXPECT_NEAR(r.budgets[i].value(), c.expected[i].value(), 1e-9)
          << "child " << i;
    }
    EXPECT_NEAR(sum(r.budgets) + r.unallocated.value(), 100.0, 1e-9);
  }
}

TEST(Allocation, TinyTotalSplitsProportionally) {
  const auto r = allocate_proportional(Watts{1e-6}, watts_of({10, 30}),
                                       watts_of({kInf, kInf}));
  EXPECT_NEAR(r.budgets[0].value(), 0.25e-6, 1e-12);
  EXPECT_NEAR(r.budgets[1].value(), 0.75e-6, 1e-12);
}

class AllocationRandom : public ::testing::TestWithParam<unsigned long long> {};

TEST_P(AllocationRandom, ConservationAndCapsAlwaysHold) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    const int n = rng.uniform_int(1, 12);
    std::vector<Watts> demands, caps;
    for (int i = 0; i < n; ++i) {
      demands.emplace_back(rng.uniform(0.0, 100.0));
      caps.emplace_back(rng.chance(0.2) ? kInf : rng.uniform(0.0, 150.0));
    }
    const Watts total{rng.uniform(0.0, 600.0)};
    const auto r = allocate_proportional(total, demands, caps);
    ASSERT_EQ(r.budgets.size(), static_cast<std::size_t>(n));
    double s = sum(r.budgets);
    // Conservation: nothing created or lost.
    EXPECT_NEAR(s + r.unallocated.value(), total.value(), 1e-6);
    for (int i = 0; i < n; ++i) {
      EXPECT_GE(r.budgets[i].value(), -1e-9);
      EXPECT_LE(r.budgets[i].value(), caps[i].value() + 1e-6);
    }
    // No watt idles while an unsatisfied demand remains below its cap.
    if (r.unallocated.value() > 1e-6) {
      for (int i = 0; i < n; ++i) {
        EXPECT_GE(r.budgets[i].value() + 1e-6, caps[i].value())
            << "unallocated " << r.unallocated.value() << " but child " << i
            << " below cap";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The water-fill as first written — every round scans all entries and skips
// the frozen ones.  The production kernel walks only the still-open entries
// with reused buffers; it must produce the same bits, because budgets feed
// bitwise change detection and the golden traces.
double reference_water_fill(double amount, const std::vector<double>& weights,
                            const std::vector<double>& limit,
                            std::vector<double>& value) {
  constexpr double eps = 1e-12;
  const std::size_t n = weights.size();
  std::vector<bool> frozen(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] <= eps || limit[i] - value[i] <= eps) frozen[i] = true;
  }
  while (amount > eps) {
    double wsum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i]) wsum += weights[i];
    }
    if (wsum <= eps) break;
    bool clamped = false;
    double placed = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      const double share = amount * weights[i] / wsum;
      const double headroom = limit[i] - value[i];
      if (share >= headroom - eps) {
        value[i] += headroom;
        placed += headroom;
        frozen[i] = true;
        clamped = true;
      } else {
        value[i] += share;
        placed += share;
      }
    }
    amount -= placed;
    if (!clamped) {
      amount = std::max(0.0, amount);
      break;
    }
  }
  return std::max(0.0, amount);
}

AllocationResult reference_allocate(double total,
                                    const std::vector<Watts>& demands,
                                    const std::vector<Watts>& caps) {
  constexpr double eps = 1e-12;
  const std::size_t n = demands.size();
  std::vector<double> demand(n), cap(n), value(n, 0.0), limit(n);
  std::vector<std::size_t> unbounded;
  for (std::size_t i = 0; i < n; ++i) {
    demand[i] = std::max(0.0, demands[i].value());
    cap[i] = std::max(0.0, caps[i].value());
    if (std::isinf(cap[i])) {
      cap[i] = std::numeric_limits<double>::max();
      unbounded.push_back(i);
    }
    limit[i] = std::min(demand[i], cap[i]);
  }
  double leftover = reference_water_fill(total, demand, limit, value);
  if (leftover > eps) leftover = reference_water_fill(leftover, demand, cap, value);
  if (leftover > eps && !unbounded.empty()) {
    // Infinite caps take the zero-demand surplus in equal shares.
    const double share = leftover / static_cast<double>(unbounded.size());
    for (std::size_t i : unbounded) value[i] += share;
    leftover = 0.0;
  } else if (leftover > eps) {
    std::vector<double> headroom(n);
    for (std::size_t i = 0; i < n; ++i) headroom[i] = cap[i] - value[i];
    leftover = reference_water_fill(leftover, headroom, cap, value);
  }
  AllocationResult r;
  for (double v : value) r.budgets.emplace_back(v);
  r.unallocated = Watts{leftover};
  return r;
}

TEST(Allocation, ReusedScratchReproducesReferenceBits) {
  util::Rng rng(4242);
  AllocationScratch scratch;
  AllocationResult out;
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = rng.uniform_int(1, 48);
    std::vector<Watts> demands, caps;
    for (int i = 0; i < n; ++i) {
      demands.emplace_back(rng.chance(0.2) ? 0.0 : rng.uniform(0.0, 60.0));
      caps.emplace_back(rng.chance(0.05) ? kInf : rng.uniform(0.0, 80.0));
    }
    const double total = rng.uniform(0.0, 80.0 * n);
    // One scratch across problems of every width, as the controller uses it.
    allocate_proportional(Watts{total}, demands, caps, scratch, out);
    const AllocationResult ref = reference_allocate(total, demands, caps);
    // Bit patterns: budgets feed bitwise change detection.
    const auto bits = [](Watts w) {
      return std::bit_cast<std::uint64_t>(w.value());
    };
    ASSERT_EQ(out.budgets.size(), ref.budgets.size());
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(bits(out.budgets[i]), bits(ref.budgets[i]))
          << "trial " << trial << " child " << i;
    }
    ASSERT_EQ(bits(out.unallocated), bits(ref.unallocated))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace willow::core

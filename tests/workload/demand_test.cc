#include "workload/demand.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "util/stats.h"

namespace willow::workload {
namespace {

using namespace willow::util::literals;

TEST(PoissonDemand, RejectsNonPositiveQuantum) {
  EXPECT_THROW(PoissonDemand(Watts{0.0}), std::invalid_argument);
  EXPECT_THROW(PoissonDemand(Watts{-1.0}), std::invalid_argument);
}

TEST(PoissonDemand, ZeroMeanSamplesZero) {
  PoissonDemand d(2_W);
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(d.sample(Watts{0.0}, rng).value(), 0.0);
}

TEST(PoissonDemand, SamplesAreQuantumMultiples) {
  PoissonDemand d(Watts{2.5});
  util::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double v = d.sample(50_W, rng).value();
    const double q = v / 2.5;
    EXPECT_NEAR(q, std::round(q), 1e-9);
  }
}

TEST(PoissonDemand, MeanMatchesTarget) {
  PoissonDemand d(2_W);
  util::Rng rng(3);
  util::RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(d.sample(50_W, rng).value());
  EXPECT_NEAR(s.mean(), 50.0, 0.5);
}

TEST(PoissonDemand, VarianceScalesWithQuantum) {
  // Var = q * mean: bigger quanta => burstier demand.
  util::Rng rng(4);
  util::RunningStats fine, coarse;
  PoissonDemand fine_d(1_W), coarse_d(10_W);
  for (int i = 0; i < 20000; ++i) {
    fine.add(fine_d.sample(50_W, rng).value());
    coarse.add(coarse_d.sample(50_W, rng).value());
  }
  EXPECT_NEAR(fine.variance(), 50.0, 5.0);
  EXPECT_NEAR(coarse.variance(), 500.0, 50.0);
}

TEST(PoissonDemand, RefreshSkipsDroppedApps) {
  PoissonDemand d(2_W);
  util::Rng rng(5);
  Application a(1, 0, 50_W, 512_MB);
  a.set_dropped(true);
  d.refresh(a, rng);
  EXPECT_DOUBLE_EQ(a.demand().value(), 0.0);
}

TEST(PoissonDemand, RefreshAllTouchesEveryApp) {
  PoissonDemand d(1_W);
  util::Rng rng(6);
  std::vector<Application> apps;
  for (AppId id = 1; id <= 20; ++id) apps.emplace_back(id, 0, 100_W, 512_MB);
  d.refresh_all(apps, rng);
  int changed = 0;
  for (const auto& a : apps) {
    if (a.demand().value() != 100.0) ++changed;
  }
  // With quantum 1 and mean 100, staying exactly at 100 for many apps is
  // vanishingly unlikely.
  EXPECT_GT(changed, 10);
}

TEST(ConstantDemand, RestoresMean) {
  Application a(1, 0, 50_W, 512_MB);
  a.set_demand(10_W);
  ConstantDemand::refresh(a);
  EXPECT_DOUBLE_EQ(a.demand().value(), 50.0);
}

TEST(ConstantDemand, DroppedAppDemandsNothing) {
  Application a(1, 0, 50_W, 512_MB);
  a.set_dropped(true);
  ConstantDemand::refresh(a);
  EXPECT_DOUBLE_EQ(a.demand().value(), 0.0);
}

void expect_invalid_argument(const std::function<void()>& call,
                             const std::string& message) {
  try {
    call();
    ADD_FAILURE() << "no exception; expected: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), message);
  }
}

TEST(DemandRefresh, NegativeIntensityThrowsAtEveryEntryPoint) {
  // Checked once per call, before the loop: an empty collection throws too,
  // and nothing is refreshed.
  const PoissonDemand d(1_W);
  const std::string poisson = "PoissonDemand::refresh: negative intensity";
  const std::string constant = "ConstantDemand::refresh: negative intensity";
  std::vector<Application> apps;
  apps.emplace_back(1, 0, 50_W, 512_MB);
  apps[0].set_demand(7_W);
  std::vector<Application> none;
  util::Rng rng(8);
  util::StreamRng stream(9);
  util::PoissonThresholds thresholds;
  expect_invalid_argument([&] { d.refresh(apps[0], rng, -1.0); }, poisson);
  expect_invalid_argument([&] { d.refresh(apps[0], stream, -1.0); }, poisson);
  expect_invalid_argument([&] { d.refresh_all(apps, rng, -1.0); }, poisson);
  expect_invalid_argument([&] { d.refresh_all(none, rng, -1.0); }, poisson);
  expect_invalid_argument(
      [&] { d.refresh_all(apps, stream, -1.0, thresholds); }, poisson);
  expect_invalid_argument([&] { ConstantDemand::refresh(apps[0], -0.5); },
                          constant);
  expect_invalid_argument([&] { ConstantDemand::refresh_all(apps, -0.5); },
                          constant);
  expect_invalid_argument([&] { ConstantDemand::refresh_all(none, -0.5); },
                          constant);
  EXPECT_DOUBLE_EQ(apps[0].demand().value(), 7.0);
}

TEST(PoissonDemand, MemoizedThresholdsDrawTheSameStream) {
  // The refresh loop's exp(-lambda) table changes nothing about the draws.
  const PoissonDemand d(Watts{0.5});
  std::vector<Application> a, b;
  for (AppId id = 1; id <= 200; ++id) {
    const Watts mean{1.0 + static_cast<double>(id % 7)};
    a.emplace_back(id, 0, mean, 512_MB);
    b.emplace_back(id, 0, mean, 512_MB);
    if (id % 3 == 0) {
      a.back().set_service_level(0.5);
      b.back().set_service_level(0.5);
    }
  }
  util::StreamRng plain(11), memo(11);
  util::PoissonThresholds thresholds;
  d.refresh_all(a, plain, 0.9);
  d.refresh_all(b, memo, 0.9, thresholds);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].demand().value(), b[i].demand().value()) << i;
  }
  EXPECT_EQ(plain.engine()(), memo.engine()());
}

class PoissonMeanSweep : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanSweep, MeanTracksAcrossMagnitudes) {
  const double mean = GetParam();
  PoissonDemand d(1_W);
  util::Rng rng(42);
  util::RunningStats s;
  for (int i = 0; i < 10000; ++i) s.add(d.sample(Watts{mean}, rng).value());
  EXPECT_NEAR(s.mean(), mean, std::max(0.5, mean * 0.05));
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonMeanSweep,
                         ::testing::Values(1.0, 5.0, 20.0, 90.0, 400.0));

}  // namespace
}  // namespace willow::workload

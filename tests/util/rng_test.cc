#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/stats.h"

namespace willow::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(3.0, 9.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 9.0);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int x = rng.uniform_int(2, 5);
    EXPECT_GE(x, 2);
    EXPECT_LE(x, 5);
    saw_lo |= x == 2;
    saw_hi |= x == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PoissonMeanApproximatesLambda) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.poisson(6.5));
  EXPECT_NEAR(s.mean(), 6.5, 0.15);
}

TEST(Rng, PoissonVarianceApproximatesLambda) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.poisson(4.0));
  EXPECT_NEAR(s.variance(), 4.0, 0.3);
}

TEST(Rng, PoissonZeroAndNegativeMeanIsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_EQ(rng.poisson(-3.0), 0);
}

TEST(Rng, GaussianZeroStddevIsZero) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(rng.gaussian(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rng.gaussian(-1.0), 0.0);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.gaussian(2.0));
  EXPECT_NEAR(s.mean(), 0.0, 0.06);
  EXPECT_NEAR(s.stddev(), 2.0, 0.08);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.12);
}

TEST(Rng, ChanceProbabilityApproximatesP) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.03);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(29);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.index(5)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork();
  // The fork consumed state: parent continues, child is distinct.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == child.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(StreamRng, PoissonMeanApproximatesLambda) {
  // Exercises the in-repo kernel (mean < kPoissonProductLimit) on any
  // standard library; the libstdc++ reference below pins its bits.
  StreamRng rng(41);
  PoissonThresholds thresholds;
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.poisson(6.5, thresholds));
  EXPECT_NEAR(s.mean(), 6.5, 0.15);
  EXPECT_NEAR(s.variance(), 6.5, 0.4);
  EXPECT_EQ(rng.poisson(0.0, thresholds), 0);
  EXPECT_EQ(rng.poisson(-3.0), 0);
}

#if defined(__GLIBCXX__)
// The tick streams' Poisson kernel is defined to be libstdc++'s
// multiply-uniforms branch of poisson_distribution<int>: every draw, and the
// engine position after it, must match a reference engine driven through
// the standard distribution.  Means at or above the limit take the standard
// rejection branch on the same engine.
TEST(StreamRng, PoissonKernelReproducesLibstdcxx) {
  std::vector<double> means;
  for (int m = 1; m <= 11; ++m) means.push_back(m);
  // Fractional means as the demand refresh forms them: base power x
  // service level x intensity (x 1 / quantum).
  for (double base : {1.3, 2.0, 4.7, 5.0, 9.0}) {
    for (double level : {0.25, 0.5, 0.8}) {
      for (double intensity : {0.7, 1.15}) {
        means.push_back(base * level * intensity);
      }
    }
  }
  means.push_back(7.3 / 0.9);
  means.push_back(1e-9);
  means.push_back(std::nextafter(12.0, 0.0));
  means.push_back(12.0);
  means.push_back(40.0);

  const std::size_t draws_per_mean = 1'000'000 / means.size() + 1;
  std::size_t draws = 0, mismatches = 0;
  for (std::size_t k = 0; k < means.size(); ++k) {
    const double mean = means[k];
    StreamRng stream(stream_seed(17, k));
    SplitMix64Engine reference(stream_seed(17, k));
    PoissonThresholds thresholds;
    for (std::size_t d = 0; d < draws_per_mean; ++d, ++draws) {
      // Both entry points: the memoized one the refresh loop uses and the
      // plain one.
      const int got = d % 2 == 0 ? stream.poisson(mean, thresholds)
                                 : stream.poisson(mean);
      // A fresh distribution per draw, as every draw made before the kernel
      // (the rejection branch caches a normal variate between calls).
      const int want = std::poisson_distribution<int>(mean)(reference);
      SplitMix64Engine next = stream.engine(), next_ref = reference;
      if (got != want || next() != next_ref()) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "mean " << mean << " draw " << d << ": kernel "
                        << got << ", std " << want;
        }
      }
    }
  }
  EXPECT_GE(draws, 1'000'000u);
  EXPECT_EQ(mismatches, 0u);
}

// A fixed-output generator, to feed chosen 64-bit values to
// std::generate_canonical.
struct FixedBits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() const { return bits; }
  std::uint64_t bits;
};

TEST(StreamRng, CanonicalDoubleMatchesGenerateCanonical) {
  const double below_one = std::nextafter(1.0, 0.0);
  // Within 2^11 of 2^64 the quotient rounds to 1 (clamped) or to the
  // largest double below 1.
  for (std::uint64_t d = 1; d <= (std::uint64_t{1} << 11); ++d) {
    const std::uint64_t u = ~std::uint64_t{0} - (d - 1);
    FixedBits g{u};
    EXPECT_EQ(canonical_double(u), below_one) << u;
    EXPECT_EQ(canonical_double(u), (std::generate_canonical<double, 53>(g)))
        << u;
  }
  SplitMix64Engine e(5);
  for (int i = 0; i < 200000; ++i) {
    // Random values, and the same with the top bit cleared and set, so both
    // sides of the conversion's sign branch are covered.
    const std::uint64_t r = e();
    for (std::uint64_t u : {r, r >> 1, r | (std::uint64_t{1} << 63)}) {
      FixedBits g{u};
      ASSERT_EQ(canonical_double(u), (std::generate_canonical<double, 53>(g)))
          << u;
    }
  }
}
#endif  // __GLIBCXX__

}  // namespace
}  // namespace willow::util

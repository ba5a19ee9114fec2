// Deterministic random-number utilities.
//
// Every stochastic element of the simulator (Poisson demand, application
// mixes, sensor noise) draws from a Rng seeded explicitly by the scenario, so
// every experiment in EXPERIMENTS.md is exactly reproducible.
//
// Two kinds of generators:
//
//  * Rng — the sequential scenario generator (mt19937_64).  One stream per
//    scenario; draws depend on everything drawn before them.  Used for
//    one-shot construction work (building application mixes, calibration
//    noise) where ordering is naturally serial.
//
//  * StreamRng — counter-based splittable streams for the parallel tick
//    engine.  A stream is keyed by (seed, tick, server, phase) through
//    stream_seed(); the draws of one stream are completely independent of
//    any other stream and of the order streams are consumed in.  This is
//    what makes the sharded per-server simulation phases bit-deterministic
//    for any thread count: thread scheduling can reorder *which* stream is
//    sampled first, but never what any stream yields.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <type_traits>
#include <vector>

namespace willow::util {

/// SplitMix64 finalizer: a high-quality 64-bit mix (Steele et al., "Fast
/// splittable pseudorandom number generators").  Stateless; used both to key
/// streams and as the per-draw output function of SplitMix64Engine.
[[nodiscard]] inline std::uint64_t splitmix64_mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// std::generate_canonical<double, 53> of one 64-bit engine output, without
/// the branch the u64 -> double conversion takes on the top bit: the two
/// 32-bit halves convert exactly and their sum rounds once, so the value is
/// the correctly rounded u / 2^64 the standard conversion produces.  A sum
/// that rounds up to 1 is clamped to nextafter(1, 0), as libstdc++ does.
[[nodiscard]] inline double canonical_double(std::uint64_t u) {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(u >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(u));
  return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// Means below this take the multiply-uniforms Poisson method (the branch
/// libstdc++'s poisson_distribution uses below 12); larger means take
/// std::poisson_distribution's rejection method.
inline constexpr double kPoissonProductLimit = 12.0;

/// exp(-mean) per exact mean, in a small direct-mapped table.  A tick's
/// demand means take a handful of distinct values (application class x
/// service level x intensity), so one table per refresh loop turns the
/// per-draw exp() into a lookup.  Owned by the loop that draws: no sharing.
class PoissonThresholds {
 public:
  /// exp(-mean); `mean` must be a number (NaN keys the empty slots).
  double operator()(double mean) {
    const auto key = std::bit_cast<std::uint64_t>(mean);
    Slot& slot = slots_[(key * 0x9E3779B97F4A7C15ULL) >> (64 - kBits)];
    if (slot.key != key) {
      slot.key = key;
      slot.threshold = std::exp(-mean);
    }
    return slot.threshold;
  }

 private:
  static constexpr int kBits = 6;
  struct Slot {
    std::uint64_t key = ~std::uint64_t{0};
    double threshold = 0.0;
  };
  std::array<Slot, std::size_t{1} << kBits> slots_{};
};

/// Derive the seed of an independent counter-based stream from a scenario
/// seed and up to three coordinates (e.g. tick, server index, phase tag).
/// Collision-resistant in practice: each coordinate passes through the full
/// 64-bit mix before being combined.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                                        std::uint64_t b = 0,
                                        std::uint64_t c = 0);

/// Phase tags for the per-server tick streams (keep values stable: they are
/// part of the reproducibility contract of recorded experiments).
namespace stream_phase {
inline constexpr std::uint64_t kChurn = 1;   ///< churn arrival/departure draws
inline constexpr std::uint64_t kDemand = 2;  ///< Poisson demand refresh
inline constexpr std::uint64_t kFault = 3;   ///< report-loss sampling
inline constexpr std::uint64_t kLinkUp = 4;    ///< up-link fault verdicts
inline constexpr std::uint64_t kLinkDown = 5;  ///< down-link fault verdicts
inline constexpr std::uint64_t kSensor = 6;    ///< sensor fault onset/params
inline constexpr std::uint64_t kCrash = 7;     ///< server crash sampling
}  // namespace stream_phase

/// Counter-based engine: state is a bare counter, output is splitmix64_mix of
/// it.  Satisfies UniformRandomBitGenerator; construction is two stores (no
/// mt19937-style state-table initialization), so creating one engine per
/// (tick, server, phase) is cheap enough for the hot loop.
class SplitMix64Engine {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64Engine(std::uint64_t seed) : state_(seed) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    state_ += kGamma;
    return splitmix64_mix(state_);
  }

  /// Poisson draw by multiplying uniforms until the product falls to
  /// `threshold` = exp(-mean), mean < kPoissonProductLimit: the same
  /// uniforms (canonical_double of successive outputs), the same products
  /// and the same count as std::poisson_distribution<int>'s branch for such
  /// means, and the engine advances by exactly the uniforms that loop
  /// consumes.  Products are tested four at a time: within a block they
  /// only fall, so the count of those still above the threshold is the
  /// position of the first that is not.
  int poisson_product(double threshold) {
    std::uint64_t s = state_;
    double prod = 1.0;
    int count = 0;
    for (;;) {
      const double p1 = prod * canonical_double(splitmix64_mix(s + kGamma));
      const double p2 = p1 * canonical_double(splitmix64_mix(s + 2 * kGamma));
      const double p3 = p2 * canonical_double(splitmix64_mix(s + 3 * kGamma));
      const double p4 = p3 * canonical_double(splitmix64_mix(s + 4 * kGamma));
      const int above = static_cast<int>(p1 > threshold) +
                        static_cast<int>(p2 > threshold) +
                        static_cast<int>(p3 > threshold) +
                        static_cast<int>(p4 > threshold);
      if (above < 4) {
        state_ = s + static_cast<std::uint64_t>(above + 1) * kGamma;
        return count + above;
      }
      count += 4;
      s += 4 * kGamma;
      prod = p4;
    }
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  std::uint64_t state_;
};

/// Distribution helpers over any UniformRandomBitGenerator engine.
template <typename Engine>
class BasicRng {
 public:
  explicit BasicRng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Poisson sample with the given mean (the paper models per-node power
  /// demand as Poisson-distributed, Sec. V-B1).  On the tick streams a mean
  /// below kPoissonProductLimit is drawn by SplitMix64Engine::poisson_product.
  int poisson(double mean) {
    if constexpr (std::is_same_v<Engine, SplitMix64Engine>) {
      if (mean > 0.0 && mean < kPoissonProductLimit) {
        return engine_.poisson_product(std::exp(-mean));
      }
    }
    return poisson_std(mean);
  }

  /// The same draw with exp(-mean) looked up in `thresholds` (tick streams
  /// only; the demand refresh keeps one table per loop).
  int poisson(double mean, PoissonThresholds& thresholds)
    requires std::is_same_v<Engine, SplitMix64Engine>
  {
    if (mean > 0.0 && mean < kPoissonProductLimit) {
      return engine_.poisson_product(thresholds(mean));
    }
    return poisson_std(mean);
  }

  /// Zero-mean Gaussian with the given standard deviation (sensor noise).
  double gaussian(double stddev) {
    if (stddev <= 0.0) return 0.0;
    return std::normal_distribution<double>(0.0, stddev)(engine_);
  }

  /// Exponential sample with the given mean.
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Pick a uniformly random index into a container of size n (n > 0).
  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derive an independent child stream (stable: depends only on parent seed
  /// sequence position).
  BasicRng fork() { return BasicRng(engine_()); }

  Engine& engine() { return engine_; }

 private:
  int poisson_std(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<int>(mean)(engine_);
  }

  Engine engine_;
};

/// The sequential scenario generator (construction-time randomness).
using Rng = BasicRng<std::mt19937_64>;

/// One counter-based splittable stream (tick-engine randomness).
using StreamRng = BasicRng<SplitMix64Engine>;

/// The per-server stream of one tick phase.
[[nodiscard]] inline StreamRng tick_stream(std::uint64_t seed,
                                           std::uint64_t tick,
                                           std::uint64_t server,
                                           std::uint64_t phase) {
  return StreamRng(stream_seed(seed, tick, server, phase));
}

}  // namespace willow::util

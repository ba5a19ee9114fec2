// Demand processes — Section V-B1: "The power demand in each node was
// assumed to have a Poisson distribution."
//
// PoissonDemand turns an application's mean power m into a random draw
// q * Poisson(m / q), where q is the power quantum per "query" (the paper's
// workloads are transactional; each in-flight query adds roughly fixed
// power).  The draw has mean m and variance q*m, so smaller quanta give
// steadier demand — the knob the stability tests sweep against P_min.
#pragma once

#include <stdexcept>

#include "util/rng.h"
#include "util/units.h"
#include "workload/application.h"

namespace willow::workload {

class PoissonDemand {
 public:
  /// @param quantum power per query; must be > 0.
  explicit PoissonDemand(Watts quantum);

  [[nodiscard]] Watts quantum() const { return quantum_; }

  /// Throws std::invalid_argument unless `intensity` >= 0.  Every refresh
  /// entry point checks once per call, before its loop.
  static void check_intensity(double intensity) {
    if (intensity < 0.0) {
      throw std::invalid_argument("PoissonDemand::refresh: negative intensity");
    }
  }

  /// One draw for an application with the given mean power.  Generic over
  /// the generator so the tick engine's per-server counter-based streams
  /// (util::StreamRng) drive the same sampling code as the sequential
  /// scenario generator (util::Rng).  On a tick stream, an optional
  /// util::PoissonThresholds memoizes exp(-lambda) across draws.
  template <typename RngT, typename... Thresholds>
  [[nodiscard]] Watts sample(Watts mean, RngT& rng,
                             Thresholds&... thresholds) const {
    if (mean.value() <= 0.0) return Watts{0.0};
    const double lambda = mean.value() / quantum_.value();
    return Watts{quantum_.value() *
                 static_cast<double>(rng.poisson(lambda, thresholds...))};
  }

  /// Refresh `app`'s instantaneous demand (no-op for dropped apps: a shut
  /// down application draws nothing).  `intensity` scales the mean (see
  /// workload::IntensityProfile).
  template <typename RngT>
  void refresh(Application& app, RngT& rng, double intensity = 1.0) const {
    check_intensity(intensity);
    draw(app, rng, intensity);
  }

  /// Refresh a whole collection (`thresholds` as for sample()).
  template <typename RngT, typename... Thresholds>
  void refresh_all(std::vector<Application>& apps, RngT& rng,
                   double intensity = 1.0, Thresholds&... thresholds) const {
    check_intensity(intensity);
    for (auto& a : apps) draw(a, rng, intensity, thresholds...);
  }

 private:
  template <typename RngT, typename... Thresholds>
  void draw(Application& app, RngT& rng, double intensity,
            Thresholds&... thresholds) const {
    app.set_demand(app.dropped() ? Watts{0.0}
                                 : sample(app.effective_mean_power() * intensity,
                                          rng, thresholds...));
  }

  Watts quantum_;
};

/// Deterministic demand (always the mean); useful in unit tests and in the
/// convergence/stability analyses where randomness is controlled separately.
class ConstantDemand {
 public:
  /// Throws std::invalid_argument unless `intensity` >= 0 (checked once per
  /// call, before any demand changes).
  static void check_intensity(double intensity) {
    if (intensity < 0.0) {
      throw std::invalid_argument(
          "ConstantDemand::refresh: negative intensity");
    }
  }

  /// `intensity` scales the mean exactly as PoissonDemand::refresh does, so
  /// the deterministic path follows the same demand-side intensity profile.
  static void refresh(Application& app, double intensity = 1.0) {
    check_intensity(intensity);
    set(app, intensity);
  }
  static void refresh_all(std::vector<Application>& apps,
                          double intensity = 1.0) {
    check_intensity(intensity);
    for (auto& a : apps) set(a, intensity);
  }

 private:
  static void set(Application& app, double intensity) {
    app.set_demand(app.dropped() ? Watts{0.0}
                                 : app.effective_mean_power() * intensity);
  }
};

}  // namespace willow::workload

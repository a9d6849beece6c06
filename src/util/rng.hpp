#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace airfedga::util {

/// Seeded pseudo-random number generator used everywhere in the library.
///
/// All stochastic components (channel fading, noise, data synthesis, weight
/// initialization, heterogeneity factors) draw from an explicit `Rng` so
/// that every experiment is reproducible from a single master seed.
/// Independent sub-streams are derived with `fork`, which uses SplitMix64
/// on the parent seed so forked streams are decorrelated from the parent
/// and from each other.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derives an independent child generator. Calling `fork(tag)` twice with
  /// the same tag on the same parent yields identical child streams.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal (optionally scaled/shifted). Each call builds a fresh
  /// std::normal_distribution, so the second variate of the polar method
  /// is deliberately discarded: two engine draws per call at best. Every
  /// pinned golden digest is computed from this stream, so keeping the
  /// spare variate (or any other sampler) would change every digest.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Rayleigh-distributed magnitude with the given scale parameter.
  /// If X,Y ~ N(0, scale^2) then sqrt(X^2 + Y^2) ~ Rayleigh(scale).
  double rayleigh(double scale = 1.0);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t randint(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial.
  bool coin(double p_true = 0.5);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(randint(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// A random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Samples `k` distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  /// `sample_without_replacement` into a reused vector (no allocation at
  /// steady capacity; identical draws to the allocating overload).
  void sample_without_replacement(std::size_t n, std::size_t k, std::vector<std::size_t>& out);

  /// Seed this generator was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Access to the underlying engine for std distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

/// SplitMix64 mixing step; used for seed derivation.
std::uint64_t splitmix64(std::uint64_t x);

}  // namespace airfedga::util

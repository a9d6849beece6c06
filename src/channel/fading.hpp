#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace airfedga::channel {

/// Block-fading wireless channel between each worker and the parameter
/// server: the gain h_i_t is constant within a communication round and
/// redrawn independently across rounds (paper §III-B4).
///
/// Gains are Rayleigh-distributed magnitudes (the standard rich-scattering
/// model) truncated below at `min_gain`: a worker in a deep fade would
/// otherwise force the common power scaling factor sigma_t towards zero
/// (Eq. 47) and blow up the denoising error. The paper does not model
/// deep-fade exclusion, so we truncate — the same practical fix used in the
/// AirComp literature it builds on.
class FadingChannel {
 public:
  struct Config {
    double rayleigh_scale = 0.7979;  ///< E[h] = scale * sqrt(pi/2) ~= 1.0
    double min_gain = 0.15;
    std::uint64_t seed = 7;

    /// Optional large-scale path loss: when `pathloss_exponent > 0`,
    /// worker i sits at a distance drawn from U[distance_min, distance_max]
    /// (relative units, 1 = reference distance) and its fading scale is
    /// multiplied by distance^(-pathloss_exponent/2), i.e. its *average*
    /// gain decays with distance as in the standard log-distance model.
    /// Distances are fixed for the lifetime of the channel (devices do not
    /// move between rounds). Default 0 = the paper's homogeneous setting.
    double pathloss_exponent = 0.0;
    double distance_min = 0.5;
    double distance_max = 2.0;
  };

  FadingChannel(std::size_t num_workers, Config cfg);

  /// Per-worker average-gain multipliers from the path-loss model (all 1.0
  /// when path loss is disabled).
  [[nodiscard]] const std::vector<double>& large_scale() const { return large_scale_; }

  /// Gains for all workers at the given round. Deterministic per
  /// (seed, round): repeated calls return identical vectors.
  [[nodiscard]] std::vector<double> gains(std::size_t round) const;

  /// Gains of `members` (any order, duplicates allowed) at a round:
  /// out[i] == gains(round)[members[i]] bit for bit. One pass over the
  /// round's stream in ascending worker order skips each gap with
  /// engine().discard (one Rayleigh draw consumes exactly one engine
  /// output), so the cost follows the largest id, not an N-entry draw.
  /// Throws std::out_of_range on an id >= num_workers().
  void gains_of(std::span<const std::size_t> members, std::size_t round,
                std::vector<double>& out) const;

  /// Gain of a single worker at a round (a one-member gains_of).
  [[nodiscard]] double gain(std::size_t worker, std::size_t round) const;

  [[nodiscard]] std::size_t num_workers() const { return n_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  /// The round's fading stream: output i is worker i's Rayleigh draw.
  [[nodiscard]] util::Rng round_stream(std::size_t round) const;
  /// Worker i's truncated gain from its draw on the round's stream.
  [[nodiscard]] double draw_gain(util::Rng& stream, std::size_t i) const;

  std::size_t n_;
  Config cfg_;
  std::vector<double> large_scale_;
};

}  // namespace airfedga::channel

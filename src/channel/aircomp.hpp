#pragma once

#include <atomic>
#include <future>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace airfedga::channel {

/// Over-the-air model aggregation over a noisy fading MAC (paper §III-B4).
///
/// Participating workers pre-equalize their transmissions with
/// p_i_t = d_i * sigma_t / h_i_t (Eq. 6), so the superimposed received
/// signal is y_t = sum_i d_i sigma_t w_i_t + z_t (Eq. 9). The PS estimate
/// of the global model is
///   w_t = (1 - beta_jt) w_{t-1} + y_t / (D sqrt(eta_t))     (Eq. 10).
///
/// Noise convention: the paper's error term C_t (Eq. 30) charges the noise
/// sigma0^2 / (D_jt^2 eta_t) once per aggregation, i.e. sigma0^2 is the
/// *total* AWGN energy of the vector z_t. We therefore draw z_t with
/// per-component variance sigma0^2 / q, making E||z_t||^2 = sigma0^2 for
/// any model dimension q.
///
/// z_t does not depend on the models, so the channel draws it one step
/// ahead: once z_t is in the superposition, the draw of z_{t+1} goes to
/// `util::global_pool()` and overlaps the next group's training. The draws
/// come from the channel's own stream in the same order as an inline draw,
/// so every aggregation's bits are unchanged. The first aggregation, a
/// noiseless channel (sigma0_sq = 0, nothing drawn) and a 0-thread pool
/// draw inline. The lookahead fixes the dimension q at the first draw; a
/// later aggregation at another q throws std::logic_error.
class AirCompChannel {
 public:
  struct Config {
    double sigma0_sq = 1.0;  ///< total AWGN energy per aggregation (W)
    std::uint64_t seed = 11;
  };

  explicit AirCompChannel(Config cfg);

  /// Stops an in-flight lookahead draw (checked every few thousand
  /// components) and waits for it, so teardown never waits out a full draw.
  ~AirCompChannel();

  // A pool task holds `this` while it draws.
  AirCompChannel(const AirCompChannel&) = delete;
  AirCompChannel& operator=(const AirCompChannel&) = delete;

  struct Input {
    std::span<const float> w_prev;                   ///< w_{t-1}
    std::vector<std::span<const float>> local_models;  ///< w^i_t, group order
    std::vector<double> data_sizes;                  ///< d_i
    std::vector<double> gains;                       ///< h^i_t as estimated by the PS
    /// Per-worker CSI mismatch factors h / h_hat applied to the received
    /// superposition: the worker pre-equalizes against the PS estimate
    /// h_hat, but the physical channel applies the true h, leaving the
    /// residual factor on its contribution. Empty = perfect CSI (bit-exact
    /// classic path). Transmit energies are unaffected — the worker spends
    /// power according to its (mis)estimate.
    std::vector<double> csi_scale;
    /// Per-worker ||w^i_t||^2 when the caller already has it (the Driver
    /// caches it at the end of local training). Empty = computed here.
    std::vector<double> model_norm_sq;
    double sigma = 1.0;                              ///< power scaling sigma_t
    double eta = 1.0;                                ///< denoising factor eta_t
    double total_data = 1.0;                         ///< D
  };

  struct Output {
    std::vector<float> w_next;       ///< PS estimate w_t (Eq. 10)
    std::vector<double> energies;    ///< per-worker E^i_t (Eq. 7)
    double noise_energy = 0.0;       ///< ||z_t||^2 actually drawn
    double beta = 0.0;               ///< beta_jt = D_jt / D
  };

  /// Performs one over-the-air aggregation round. Called from one thread
  /// at a time.
  Output aggregate(const Input& in);

  /// Error-free ideal aggregation (Eq. 8); used by the OMA mechanisms and
  /// by tests as ground truth.
  static std::vector<float> ideal_aggregate(std::span<const float> w_prev,
                                            const std::vector<std::span<const float>>& local_models,
                                            const std::vector<double>& data_sizes,
                                            double total_data);

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  /// Draws q components of z into noise_ from rng_, in stream order.
  void fill_noise(std::size_t q, double noise_std);

  Config cfg_;
  util::Rng rng_;
  std::vector<double> y_;      ///< superposition scratch, reused across calls
  std::vector<double> noise_;  ///< z for the next aggregation
  std::size_t noise_q_ = 0;    ///< dimension of the noise stream (0 = nothing drawn yet)
  std::atomic<bool> stop_{false};
  std::future<void> lookahead_;  ///< in-flight fill of noise_; declared after what it uses
};

/// Transmission energy of one worker for one aggregation (Eq. 7):
/// E = || p w ||^2 = (d * sigma / h)^2 * ||w||^2.
double transmit_energy(double data_size, double sigma, double gain,
                       std::span<const float> model);

/// Eq. 7 from a precomputed ||w||^2.
double transmit_energy(double data_size, double sigma, double gain, double model_norm_sq);

}  // namespace airfedga::channel

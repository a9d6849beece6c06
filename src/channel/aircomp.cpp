#include "channel/aircomp.hpp"

#include <cmath>
#include <stdexcept>

#include "ml/tensor.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace airfedga::channel {

namespace {
// Components drawn between two checks of the stop flag: a cancelled
// lookahead ends within ~0.2 ms of draws.
constexpr std::size_t kStopStride = 4096;
}  // namespace

AirCompChannel::AirCompChannel(Config cfg) : cfg_(cfg), rng_(cfg.seed) {
  if (cfg.sigma0_sq < 0.0) throw std::invalid_argument("AirCompChannel: negative noise power");
}

AirCompChannel::~AirCompChannel() {
  stop_.store(true, std::memory_order_relaxed);
  if (lookahead_.valid()) lookahead_.wait();
}

double transmit_energy(double data_size, double sigma, double gain, double model_norm_sq) {
  if (gain <= 0.0) throw std::invalid_argument("transmit_energy: gain must be > 0");
  const double p = data_size * sigma / gain;
  return p * p * model_norm_sq;
}

double transmit_energy(double data_size, double sigma, double gain,
                       std::span<const float> model) {
  return transmit_energy(data_size, sigma, gain, ml::squared_norm(model));
}

void AirCompChannel::fill_noise(std::size_t q, double noise_std) {
  obs::Span span("channel", "channel.noise_fill");
  noise_.resize(q);
  for (std::size_t d = 0; d < q; ++d) {
    if (d % kStopStride == 0 && stop_.load(std::memory_order_relaxed)) return;
    noise_[d] = rng_.normal(0.0, noise_std);
  }
}

AirCompChannel::Output AirCompChannel::aggregate(const Input& in) {
  const std::size_t q = in.w_prev.size();
  const std::size_t m = in.local_models.size();
  if (m == 0) throw std::invalid_argument("AirCompChannel::aggregate: empty group");
  if (in.data_sizes.size() != m || in.gains.size() != m)
    throw std::invalid_argument("AirCompChannel::aggregate: size/gain count mismatch");
  if (!in.csi_scale.empty() && in.csi_scale.size() != m)
    throw std::invalid_argument("AirCompChannel::aggregate: csi_scale count mismatch");
  if (!in.model_norm_sq.empty() && in.model_norm_sq.size() != m)
    throw std::invalid_argument("AirCompChannel::aggregate: model_norm_sq count mismatch");
  if (in.sigma <= 0.0 || in.eta <= 0.0)
    throw std::invalid_argument("AirCompChannel::aggregate: sigma and eta must be > 0");
  if (in.total_data <= 0.0)
    throw std::invalid_argument("AirCompChannel::aggregate: total_data must be > 0");
  for (const auto& w : in.local_models)
    if (w.size() != q)
      throw std::invalid_argument("AirCompChannel::aggregate: model dimension mismatch");
  const double noise_std = q > 0 ? std::sqrt(cfg_.sigma0_sq / static_cast<double>(q)) : 0.0;
  if (noise_std > 0.0 && noise_q_ != 0 && noise_q_ != q)
    throw std::logic_error(
        "AirCompChannel::aggregate: model dimension changed after the first noise draw");

  Output out;
  out.energies.resize(m);

  double group_data = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    group_data += in.data_sizes[i];
    out.energies[i] =
        in.model_norm_sq.empty()
            ? transmit_energy(in.data_sizes[i], in.sigma, in.gains[i], in.local_models[i])
            : transmit_energy(in.data_sizes[i], in.sigma, in.gains[i], in.model_norm_sq[i]);
  }
  out.beta = group_data / in.total_data;

  // Received superposition y_t = sum_i d_i sigma w_i + z (Eq. 9), followed
  // by the PS estimate (Eq. 10). Accumulate in double for q up to millions.
  y_.assign(q, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    // Imperfect CSI leaves the residual h/h_hat on worker i's contribution
    // (pre-equalization divides by h_hat, the channel multiplies by h).
    // The empty-vector fast path keeps perfect-CSI arithmetic untouched.
    const double scale = in.csi_scale.empty()
                             ? in.data_sizes[i] * in.sigma
                             : in.data_sizes[i] * in.sigma * in.csi_scale[i];
    const float* w = in.local_models[i].data();
    for (std::size_t d = 0; d < q; ++d) y_[d] += scale * w[d];
  }
  double noise_energy = 0.0;
  if (noise_std > 0.0) {
    if (lookahead_.valid()) {
      obs::Span span("channel", "channel.noise_wait");
      lookahead_.get();
    } else {
      fill_noise(q, noise_std);
    }
    noise_q_ = q;
    for (std::size_t d = 0; d < q; ++d) {
      const double z = noise_[d];
      noise_energy += z * z;
      y_[d] += z;
    }
    // noise_ is consumed: draw z_{t+1} while the next group trains.
    if (auto& pool = util::global_pool(); pool.size() > 0)
      lookahead_ = pool.submit([this, q, noise_std] { fill_noise(q, noise_std); });
  }
  out.noise_energy = noise_energy;

  const double denom = in.total_data * std::sqrt(in.eta);
  const double keep = 1.0 - out.beta;
  out.w_next.resize(q);
  for (std::size_t d = 0; d < q; ++d)
    out.w_next[d] = static_cast<float>(keep * in.w_prev[d] + y_[d] / denom);
  return out;
}

std::vector<float> AirCompChannel::ideal_aggregate(
    std::span<const float> w_prev, const std::vector<std::span<const float>>& local_models,
    const std::vector<double>& data_sizes, double total_data) {
  const std::size_t q = w_prev.size();
  const std::size_t m = local_models.size();
  if (data_sizes.size() != m)
    throw std::invalid_argument("ideal_aggregate: size count mismatch");
  double beta = 0.0;
  for (double d : data_sizes) beta += d / total_data;
  std::vector<double> acc(q, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double alpha = data_sizes[i] / total_data;
    const float* w = local_models[i].data();
    for (std::size_t d = 0; d < q; ++d) acc[d] += alpha * w[d];
  }
  std::vector<float> out(q);
  for (std::size_t d = 0; d < q; ++d)
    out[d] = static_cast<float>((1.0 - beta) * w_prev[d] + acc[d]);
  return out;
}

}  // namespace airfedga::channel

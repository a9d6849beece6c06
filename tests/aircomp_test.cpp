#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "channel/aircomp.hpp"
#include "ml/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace airfedga::channel {
namespace {

std::vector<float> randvec(std::size_t n, std::uint64_t seed, float scale = 1.0f) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

TEST(TransmitEnergy, MatchesEq7) {
  std::vector<float> w = {3.0f, 4.0f};  // ||w||^2 = 25
  // p = d*sigma/h = 10*0.2/0.5 = 4; E = 16 * 25 = 400.
  EXPECT_DOUBLE_EQ(transmit_energy(10.0, 0.2, 0.5, w), 400.0);
  EXPECT_DOUBLE_EQ(transmit_energy(10.0, 0.2, 0.5, 25.0), 400.0);
  EXPECT_THROW(transmit_energy(1.0, 1.0, 0.0, w), std::invalid_argument);
  EXPECT_THROW(transmit_energy(1.0, 1.0, 0.0, 25.0), std::invalid_argument);
}

TEST(IdealAggregate, MatchesEq8HandComputed) {
  std::vector<float> w_prev = {1.0f, 1.0f};
  std::vector<float> w1 = {2.0f, 0.0f};
  std::vector<float> w2 = {0.0f, 4.0f};
  // d1 = 1, d2 = 3, D = 8 -> alpha1 = 1/8, alpha2 = 3/8, keep = 1/2.
  auto out = AirCompChannel::ideal_aggregate(w_prev, {w1, w2}, {1.0, 3.0}, 8.0);
  EXPECT_FLOAT_EQ(out[0], 0.5f * 1.0f + 0.125f * 2.0f);
  EXPECT_FLOAT_EQ(out[1], 0.5f * 1.0f + 0.375f * 4.0f);
}

TEST(IdealAggregate, FullParticipationIsWeightedAverage) {
  std::vector<float> w_prev = {100.0f};
  std::vector<float> w1 = {2.0f};
  std::vector<float> w2 = {6.0f};
  auto out = AirCompChannel::ideal_aggregate(w_prev, {w1, w2}, {1.0, 1.0}, 2.0);
  // beta = 1: the stale w_prev contributes nothing.
  EXPECT_FLOAT_EQ(out[0], 4.0f);
}

TEST(AirComp, NoiselessUnbiasedSigmaEtaRecoversIdeal) {
  // With sigma/sqrt(eta) = 1 and sigma0 = 0, Eq. 10 equals Eq. 8 exactly.
  AirCompChannel ch({.sigma0_sq = 0.0, .seed = 1});
  const std::size_t q = 64;
  auto w_prev = randvec(q, 1);
  auto w1 = randvec(q, 2);
  auto w2 = randvec(q, 3);

  AirCompChannel::Input in;
  in.w_prev = w_prev;
  in.local_models = {w1, w2};
  in.data_sizes = {10.0, 30.0};
  in.gains = {1.0, 0.7};
  in.sigma = 0.25;
  in.eta = 0.0625;  // sqrt(eta) = 0.25 = sigma
  in.total_data = 100.0;
  const auto out = ch.aggregate(in);

  const auto ideal = AirCompChannel::ideal_aggregate(w_prev, {w1, w2}, in.data_sizes, 100.0);
  ASSERT_EQ(out.w_next.size(), ideal.size());
  for (std::size_t i = 0; i < q; ++i) EXPECT_NEAR(out.w_next[i], ideal[i], 1e-5);
  EXPECT_DOUBLE_EQ(out.noise_energy, 0.0);
  EXPECT_NEAR(out.beta, 0.4, 1e-12);
}

TEST(AirComp, EnergiesFollowEq7) {
  AirCompChannel ch({.sigma0_sq = 0.0, .seed = 2});
  std::vector<float> w_prev = {0.0f, 0.0f};
  std::vector<float> w1 = {3.0f, 4.0f};
  AirCompChannel::Input in;
  in.w_prev = w_prev;
  in.local_models = {w1};
  in.data_sizes = {10.0};
  in.gains = {0.5};
  in.sigma = 0.2;
  in.eta = 0.04;
  in.total_data = 10.0;
  const auto out = ch.aggregate(in);
  ASSERT_EQ(out.energies.size(), 1u);
  EXPECT_DOUBLE_EQ(out.energies[0], 400.0);

  // A caller-supplied ||w||^2 (the Driver's cached one) gives the same bits.
  in.model_norm_sq = {ml::squared_norm(w1)};
  const auto cached = ch.aggregate(in);
  EXPECT_EQ(cached.energies, out.energies);
  EXPECT_EQ(cached.w_next, out.w_next);
}

TEST(AirComp, NoiseEnergyConcentratesAroundSigma0Sq) {
  // E||z||^2 = sigma0^2 regardless of dimension (per-component variance is
  // sigma0^2/q). Check the mean over repetitions.
  AirCompChannel ch({.sigma0_sq = 4.0, .seed = 3});
  const std::size_t q = 512;
  auto w_prev = randvec(q, 4);
  auto w1 = randvec(q, 5);
  AirCompChannel::Input in;
  in.w_prev = w_prev;
  in.local_models = {w1};
  in.data_sizes = {1.0};
  in.gains = {1.0};
  in.sigma = 1.0;
  in.eta = 1.0;
  in.total_data = 1.0;

  double acc = 0.0;
  const int reps = 64;
  for (int r = 0; r < reps; ++r) acc += ch.aggregate(in).noise_energy;
  EXPECT_NEAR(acc / reps, 4.0, 0.4);
}

TEST(AirComp, BiasedSigmaShrinksAggregate) {
  // sigma/sqrt(eta) = 0.5 halves the group contribution relative to ideal.
  AirCompChannel ch({.sigma0_sq = 0.0, .seed = 6});
  std::vector<float> w_prev = {0.0f};
  std::vector<float> w1 = {8.0f};
  AirCompChannel::Input in;
  in.w_prev = w_prev;
  in.local_models = {w1};
  in.data_sizes = {1.0};
  in.gains = {1.0};
  in.sigma = 0.5;
  in.eta = 1.0;
  in.total_data = 1.0;
  const auto out = ch.aggregate(in);
  EXPECT_FLOAT_EQ(out.w_next[0], 4.0f);
}

TEST(AirComp, HigherEtaSuppressesNoise) {
  const std::size_t q = 256;
  auto w_prev = randvec(q, 7);
  std::vector<float> w1(q, 0.0f);

  auto mse_for_eta = [&](double eta, std::uint64_t seed) {
    AirCompChannel ch({.sigma0_sq = 1.0, .seed = seed});
    AirCompChannel::Input in;
    in.w_prev = w_prev;
    in.local_models = {w1};
    in.data_sizes = {1.0};
    in.gains = {1.0};
    in.sigma = std::sqrt(eta);  // keep the aggregation unbiased
    in.eta = eta;
    in.total_data = 1.0;
    double acc = 0.0;
    for (int r = 0; r < 32; ++r) {
      const auto out = ch.aggregate(in);
      // Ideal result is all-zero (w1 = 0, beta = 1).
      for (std::size_t i = 0; i < q; ++i)
        acc += static_cast<double>(out.w_next[i]) * out.w_next[i];
    }
    return acc;
  };
  EXPECT_LT(mse_for_eta(10.0, 8), mse_for_eta(0.1, 9) / 10.0);
}

TEST(AirComp, InputValidation) {
  AirCompChannel ch({});
  std::vector<float> w = {1.0f};
  AirCompChannel::Input in;
  in.w_prev = w;
  in.local_models = {};
  in.data_sizes = {};
  in.gains = {};
  in.sigma = 1.0;
  in.eta = 1.0;
  in.total_data = 1.0;
  EXPECT_THROW(ch.aggregate(in), std::invalid_argument);  // empty group

  in.local_models = {w};
  in.data_sizes = {1.0};
  in.gains = {1.0, 2.0};  // mismatched
  EXPECT_THROW(ch.aggregate(in), std::invalid_argument);

  in.gains = {1.0};
  in.sigma = 0.0;
  EXPECT_THROW(ch.aggregate(in), std::invalid_argument);

  in.sigma = 1.0;
  std::vector<float> w2 = {1.0f, 2.0f};
  in.local_models = {w2};  // dimension mismatch vs w_prev
  EXPECT_THROW(ch.aggregate(in), std::invalid_argument);

  in.local_models = {w};
  in.model_norm_sq = {1.0, 1.0};  // one norm per member
  EXPECT_THROW(ch.aggregate(in), std::invalid_argument);
}

TEST(AirComp, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    AirCompChannel ch({.sigma0_sq = 1.0, .seed = seed});
    auto w_prev = randvec(32, 10);
    auto w1 = randvec(32, 11);
    AirCompChannel::Input in;
    in.w_prev = w_prev;
    in.local_models = {w1};
    in.data_sizes = {2.0};
    in.gains = {1.0};
    in.sigma = 0.5;
    in.eta = 0.25;
    in.total_data = 2.0;
    return ch.aggregate(in).w_next;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// The aggregation as it was before the noise lookahead: z drawn inline, in
// order, from the channel's seed. Every lookahead aggregation must equal it
// bit for bit.
AirCompChannel::Output inline_reference(const AirCompChannel::Input& in, double sigma0_sq,
                                        util::Rng& rng) {
  const std::size_t q = in.w_prev.size();
  AirCompChannel::Output out;
  double group_data = 0.0;
  for (double d : in.data_sizes) group_data += d;
  out.beta = group_data / in.total_data;
  std::vector<double> y(q, 0.0);
  for (std::size_t i = 0; i < in.local_models.size(); ++i) {
    const double scale = in.data_sizes[i] * in.sigma;
    for (std::size_t d = 0; d < q; ++d) y[d] += scale * in.local_models[i][d];
  }
  const double noise_std = std::sqrt(sigma0_sq / static_cast<double>(q));
  for (std::size_t d = 0; d < q && noise_std > 0.0; ++d) {
    const double z = rng.normal(0.0, noise_std);
    out.noise_energy += z * z;
    y[d] += z;
  }
  const double denom = in.total_data * std::sqrt(in.eta);
  out.w_next.resize(q);
  for (std::size_t d = 0; d < q; ++d)
    out.w_next[d] = static_cast<float>((1.0 - out.beta) * in.w_prev[d] + y[d] / denom);
  return out;
}

TEST(AirCompLookahead, ConsecutiveAggregationsMatchInlineDraws) {
  // q on both sides of the fill's stop-check stride (4096 components).
  for (std::size_t q : {std::size_t{100}, std::size_t{10000}}) {
    const double sigma0_sq = 2.5;
    const std::uint64_t seed = 17;
    AirCompChannel ch({.sigma0_sq = sigma0_sq, .seed = seed});
    util::Rng reference_rng(seed);
    std::vector<float> w_prev = randvec(q, 20);
    std::vector<float> w_ref = w_prev;
    for (int t = 0; t < 24; ++t) {
      const auto w1 = randvec(q, 100 + static_cast<std::uint64_t>(t));
      const auto w2 = randvec(q, 200 + static_cast<std::uint64_t>(t));
      AirCompChannel::Input in;
      in.local_models = {w1, w2};
      in.data_sizes = {3.0, 5.0};
      in.gains = {0.8, 1.3};
      in.sigma = 0.3;
      in.eta = 0.1;
      in.total_data = 20.0;

      in.w_prev = w_ref;
      const auto ref = inline_reference(in, sigma0_sq, reference_rng);
      in.w_prev = w_prev;
      const auto out = ch.aggregate(in);
      ASSERT_EQ(out.w_next, ref.w_next) << "q=" << q << " aggregation " << t;
      ASSERT_EQ(out.noise_energy, ref.noise_energy) << "q=" << q << " aggregation " << t;
      w_prev = out.w_next;
      w_ref = ref.w_next;
    }
  }
}

TEST(AirCompLookahead, DestroyingWithAFillInFlightReturnsPromptly) {
  // Large enough that a full draw takes far longer than one stop-check
  // stride: the destructor must cancel the lookahead, not wait it out.
  const std::size_t q = std::size_t{1} << 21;
  const std::vector<float> w(q, 0.5f);
  AirCompChannel::Input in;
  in.w_prev = w;
  in.local_models = {w};
  in.data_sizes = {1.0};
  in.gains = {1.0};
  in.total_data = 2.0;

  using Clock = std::chrono::steady_clock;
  auto ch = std::make_unique<AirCompChannel>(AirCompChannel::Config{.sigma0_sq = 1.0, .seed = 5});
  const auto t0 = Clock::now();
  ch->aggregate(in);  // draws z_1 inline, then submits the z_2 lookahead
  const auto first = Clock::now() - t0;
  const auto t1 = Clock::now();
  ch.reset();
  const auto teardown = Clock::now() - t1;
  EXPECT_LT(teardown, first / 4) << "teardown waited out the lookahead draw";
}

TEST(AirCompLookahead, DimensionChangeAfterTheFirstDrawThrows) {
  AirCompChannel ch({.sigma0_sq = 1.0, .seed = 4});
  auto aggregate_at = [&](std::size_t q) {
    const auto w = randvec(q, 30);
    AirCompChannel::Input in;
    in.w_prev = w;
    in.local_models = {w};
    in.data_sizes = {1.0};
    in.gains = {1.0};
    return ch.aggregate(in);
  };
  aggregate_at(16);
  aggregate_at(16);
  EXPECT_THROW(aggregate_at(17), std::logic_error);
  EXPECT_NO_THROW(aggregate_at(16));  // the stream is intact after the refusal
}

TEST(AirCompLookahead, NoiselessChannelDrawsNothing) {
  // sigma0_sq = 0 draws no noise and schedules no lookahead: the dimension
  // is never pinned, and each result is the exact noiseless Eq. 10.
  AirCompChannel ch({.sigma0_sq = 0.0, .seed = 8});
  util::Rng unused(8);
  for (std::size_t q : {std::size_t{8}, std::size_t{5000}, std::size_t{3}}) {
    const auto w_prev = randvec(q, 40);
    const auto w1 = randvec(q, 41);
    AirCompChannel::Input in;
    in.w_prev = w_prev;
    in.local_models = {w1};
    in.data_sizes = {2.0};
    in.gains = {1.0};
    in.sigma = 0.5;
    in.eta = 0.25;
    in.total_data = 4.0;
    const auto out = ch.aggregate(in);
    EXPECT_EQ(out.noise_energy, 0.0);
    EXPECT_EQ(out.w_next, inline_reference(in, 0.0, unused).w_next) << "q=" << q;
  }
}

}  // namespace
}  // namespace airfedga::channel

#include <gtest/gtest.h>

#include <numeric>

#include "fl/driver.hpp"
#include "ml/zoo.hpp"

namespace airfedga::fl {
namespace {

struct Env {
  data::Dataset train;
  data::Dataset test;
  FLConfig cfg;

  explicit Env(std::uint64_t seed = 60) {
    train = data::make_synthetic_flat(16, {400, 4, 1.0, 0.3, seed});
    test = data::make_synthetic_flat(16, {200, 4, 1.0, 0.3, seed});
    util::Rng rng(seed);
    cfg.train = &train;
    cfg.test = &test;
    cfg.partition = data::partition_iid(train, 8, rng);
    cfg.model_factory = [] { return ml::make_softmax_regression(16, 4); };
    cfg.seed = seed;
    cfg.eval_samples = 200;
  }
};

TEST(Driver, ConstructionBuildsWorkersAndStats) {
  Env env;
  Driver d(env.cfg);
  EXPECT_EQ(d.num_workers(), 8u);
  EXPECT_EQ(d.model_dim(), 16u * 4 + 4);
  EXPECT_EQ(d.stats().total_size(), 400u);
}

TEST(Driver, InitialModelDeterministicPerSeed) {
  Env a(61), b(61), c(62);
  Driver da(a.cfg), db(b.cfg), dc(c.cfg);
  EXPECT_EQ(da.initial_model(), db.initial_model());
  EXPECT_NE(da.initial_model(), dc.initial_model());
}

TEST(Driver, EvaluateMatchesDirectModelEvaluation) {
  Env env;
  Driver d(env.cfg);
  const auto w = d.initial_model();
  const auto r1 = d.evaluate(w);

  ml::Model m = env.cfg.model_factory();
  m.set_parameters(w);
  std::vector<std::size_t> idx(env.cfg.eval_samples);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  ml::Tensor xs = ml::gather_rows(env.test.xs, idx);
  std::span<const int> ys(env.test.ys.data(), env.cfg.eval_samples);
  const auto r2 = m.evaluate(xs, ys, env.cfg.eval_batch);
  EXPECT_NEAR(r1.loss, r2.loss, 1e-9);
  EXPECT_NEAR(r1.accuracy, r2.accuracy, 1e-12);
}

TEST(Driver, PowerForGroupRequiresTrainedMembers) {
  Env env;
  Driver d(env.cfg);
  EXPECT_THROW(d.power_for_group({0, 1}, 1), std::logic_error);

  const auto w = d.initial_model();
  d.worker(0).local_update(d.scratch(), w, 0.1f, 1, 0);
  d.worker(1).local_update(d.scratch(), w, 0.1f, 1, 0);
  const auto pc = d.power_for_group({0, 1}, 1);
  EXPECT_GT(pc.sigma, 0.0);
  EXPECT_GT(pc.eta, 0.0);
}

TEST(Driver, AircompAggregateAccumulatesEnergyWithinCaps) {
  Env env;
  Driver d(env.cfg);
  const auto w = d.initial_model();
  std::vector<std::size_t> members = {0, 1, 2};
  for (auto m : members) d.worker(m).local_update(d.scratch(), w, 0.1f, 1, 0);

  double energy = 0.0;
  const auto w_next =
      d.aircomp_aggregate(members, w, 1, energy, static_cast<double>(d.stats().total_size()));
  EXPECT_EQ(w_next.size(), w.size());
  EXPECT_GT(energy, 0.0);
  EXPECT_LE(energy, static_cast<double>(members.size()) * env.cfg.energy_cap * (1 + 1e-9));
}

TEST(Driver, OmaAggregateIsExactWeightedAverage) {
  Env env;
  Driver d(env.cfg);
  const auto w = d.initial_model();
  std::vector<std::size_t> everyone(d.num_workers());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  for (auto m : everyone) d.worker(m).local_update(d.scratch(), w, 0.1f, 1, 0);

  const auto agg = d.oma_aggregate(everyone, w, static_cast<double>(d.stats().total_size()));
  // Full participation: result = sum_i alpha_i w_i exactly.
  std::vector<double> expect(w.size(), 0.0);
  for (auto m : everyone) {
    const double alpha = d.stats().alpha(m);
    const auto wm = d.worker(m).local_model();
    for (std::size_t i = 0; i < wm.size(); ++i) expect[i] += alpha * wm[i];
  }
  for (std::size_t i = 0; i < agg.size(); ++i) EXPECT_NEAR(agg[i], expect[i], 1e-5);
}

TEST(Driver, MaybeRecordFollowsCadence) {
  Env env;
  env.cfg.eval_every = 3;
  Driver d(env.cfg);
  const auto w = d.initial_model();
  Metrics m;
  for (std::size_t round = 1; round <= 7; ++round)
    d.maybe_record(m, round, static_cast<double>(round), 0.0, 0.0, w);
  // Rounds 1, 3, 6 recorded.
  ASSERT_EQ(m.points().size(), 3u);
  EXPECT_EQ(m.points()[0].round, 1u);
  EXPECT_EQ(m.points()[1].round, 3u);
  EXPECT_EQ(m.points()[2].round, 6u);
}

TEST(Driver, ShouldStopNeedsThreeEvals) {
  Env env;
  env.cfg.stop_at_accuracy = 0.5;
  Driver d(env.cfg);
  Metrics m;
  m.record({1.0, 1, 0.1, 0.9, 0, 0});
  EXPECT_FALSE(d.should_stop(m));
  m.record({2.0, 2, 0.1, 0.9, 0, 0});
  EXPECT_FALSE(d.should_stop(m));
  m.record({3.0, 3, 0.1, 0.9, 0, 0});
  EXPECT_TRUE(d.should_stop(m));
}

TEST(Driver, ShouldStopDisabledByDefault) {
  Env env;
  Driver d(env.cfg);
  Metrics m;
  for (int i = 1; i <= 5; ++i)
    m.record({static_cast<double>(i), static_cast<std::size_t>(i), 0.0, 1.0, 0, 0});
  EXPECT_FALSE(d.should_stop(m));
}

TEST(Driver, MnistImagePresetWorksEndToEnd) {
  auto tt = data::make_mnist_image_like(300, 100, 3);
  EXPECT_EQ(tt.train.xs.rank(), 4u);
  EXPECT_EQ(tt.train.xs.dim(1), 1u);
  EXPECT_EQ(tt.train.xs.dim(2), 28u);

  util::Rng rng(3);
  FLConfig cfg;
  cfg.train = &tt.train;
  cfg.test = &tt.test;
  cfg.partition = data::partition_iid(tt.train, 4, rng);
  cfg.model_factory = [] { return ml::make_cnn_mnist(0.1, 28); };
  cfg.batch_size = 8;
  cfg.eval_samples = 50;
  Driver d(cfg);
  const auto w = d.initial_model();
  const auto r = d.evaluate(w);
  EXPECT_GT(r.loss, 0.0);
}

}  // namespace
}  // namespace airfedga::fl

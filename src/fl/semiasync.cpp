#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fl/mechanisms.hpp"

namespace airfedga::fl {

void SemiAsync::check(const FLConfig&) const {
  if (mixing_ <= 0.0 || mixing_ > 1.0)
    throw std::invalid_argument("SemiAsync: mixing must be in (0, 1]");
  if (damping_ < 0.0) throw std::invalid_argument("SemiAsync: damping must be >= 0");
  if (aggregate_count_ == 0)
    throw std::invalid_argument("SemiAsync: aggregate_count must be >= 1");
  if (schedule_ != "poly" && schedule_ != "exp")
    throw std::invalid_argument("SemiAsync: damping schedule must be 'poly' or 'exp'");
}

data::WorkerGroups SemiAsync::make_cohorts(SchedulingLoop& loop) {
  // Like FedAsync, every worker is its own cohort — staleness is tracked
  // per worker — but uploads meet in the server's flush buffer.
  data::WorkerGroups singletons(loop.driver().num_workers());
  for (std::size_t i = 0; i < singletons.size(); ++i) singletons[i] = {i};
  return singletons;
}

double SemiAsync::upload_seconds(const SchedulingLoop& loop,
                                 const std::vector<std::size_t>& /*members*/,
                                 double now) const {
  // The buffered cohort transmits concurrently over the air (one L_u per
  // flush, regardless of how many uploads it carries).
  return loop.driver().substrate().aircomp_upload_seconds(loop.driver().model_dim(), now);
}

bool SemiAsync::should_flush(SchedulingLoop& loop, const std::vector<std::size_t>& buffered) {
  // Flush at K buffered uploads — clamped so a K above the worker count
  // cannot starve the buffer — or as soon as any buffered upload reaches
  // the staleness bound (bounded waiting; 0 degenerates to fully async).
  const std::size_t target = std::min(aggregate_count_, loop.driver().num_workers());
  if (buffered.size() >= target) return true;
  for (auto m : buffered)
    if (loop.server().staleness(loop.cohort_of(m)) >= staleness_bound_) return true;
  return false;
}

std::vector<float> SemiAsync::aggregate(SchedulingLoop& loop,
                                        const std::vector<std::size_t>& members,
                                        std::span<const float> w_prev, std::size_t round) {
  return loop.driver().aircomp_aggregate(members, w_prev, round, loop.energy_joules(),
                                         loop.aggregation_total(members));
}

void SemiAsync::reweight(const SchedulingLoop& /*loop*/, std::span<const float> w_prev,
                         std::vector<float>& w_next, double tau) const {
  // Staleness schedule sigma(tau) shrinks the whole flushed update toward
  // the installed model; tau is the worst staleness in the buffer.
  const double sigma =
      exponential_ ? mixing_ * std::exp(-damping_ * tau) : mixing_ / std::pow(1.0 + tau, damping_);
  for (std::size_t d = 0; d < w_next.size(); ++d)
    w_next[d] = static_cast<float>(w_prev[d] + sigma * (w_next[d] - w_prev[d]));
}

}  // namespace airfedga::fl

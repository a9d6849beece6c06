#include <numeric>
#include <stdexcept>

#include "fl/mechanisms.hpp"
#include "util/stats.hpp"

namespace airfedga::fl {

void DynamicAirComp::check(const FLConfig&) const {
  if (selection_quantile_ < 0.0 || selection_quantile_ >= 1.0)
    throw std::invalid_argument("DynamicAirComp: selection quantile must be in [0,1)");
}

data::WorkerGroups DynamicAirComp::make_cohorts(SchedulingLoop& loop) {
  std::vector<std::size_t> everyone(loop.driver().num_workers());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  return {std::move(everyone)};
}

std::span<const std::size_t> DynamicAirComp::select(SchedulingLoop& loop,
                                                    std::size_t /*cohort*/, std::size_t round) {
  // Channel-aware scheduling: admit workers whose gain this round clears
  // the configured quantile. Strong channels need the least transmit
  // power for the common sigma_t (Eq. 6), so this is the energy-friendly
  // subset; it is re-drawn every round with the fading, which is what
  // makes the participating data distribution wander under label skew.
  const auto& gains = loop.driver().substrate().gains(round);
  const double cutoff = util::quantile(gains, selection_quantile_);
  selected_.clear();
  for (std::size_t i = 0; i < gains.size(); ++i)
    if (gains[i] >= cutoff) selected_.push_back(i);
  return selected_;  // empty cannot happen with quantile < 1; the loop skips it
}

double DynamicAirComp::upload_seconds(const SchedulingLoop& loop,
                                      const std::vector<std::size_t>& /*members*/,
                                      double now) const {
  return loop.driver().substrate().aircomp_upload_seconds(loop.driver().model_dim(), now);
}

std::vector<float> DynamicAirComp::aggregate(SchedulingLoop& loop,
                                             const std::vector<std::size_t>& members,
                                             std::span<const float> w_prev, std::size_t round) {
  return loop.driver().aircomp_aggregate(members, w_prev, round, loop.energy_joules(),
                                         loop.aggregation_total(members));
}

}  // namespace airfedga::fl

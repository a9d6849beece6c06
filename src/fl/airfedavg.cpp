#include <numeric>

#include "fl/mechanisms.hpp"

namespace airfedga::fl {

data::WorkerGroups AirFedAvg::make_cohorts(SchedulingLoop& loop) {
  // Full participation behind one round barrier.
  std::vector<std::size_t> everyone(loop.driver().num_workers());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  return {std::move(everyone)};
}

double AirFedAvg::upload_seconds(const SchedulingLoop& loop,
                                 const std::vector<std::size_t>& /*members*/,
                                 double now) const {
  // One concurrent over-the-air transmission, independent of N.
  return loop.driver().substrate().aircomp_upload_seconds(loop.driver().model_dim(), now);
}

std::vector<float> AirFedAvg::aggregate(SchedulingLoop& loop,
                                        const std::vector<std::size_t>& members,
                                        std::span<const float> w_prev, std::size_t round) {
  // All workers transmit concurrently; power control per Alg. 2.
  return loop.driver().aircomp_aggregate(members, w_prev, round, loop.energy_joules(),
                                         loop.aggregation_total(members));
}

}  // namespace airfedga::fl

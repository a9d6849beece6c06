#include <numeric>

#include "fl/mechanisms.hpp"

namespace airfedga::fl {

data::WorkerGroups FedAvg::make_cohorts(SchedulingLoop& loop) {
  // Full participation behind one round barrier.
  std::vector<std::size_t> everyone(loop.driver().num_workers());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  return {std::move(everyone)};
}

double FedAvg::upload_seconds(const SchedulingLoop& loop,
                              const std::vector<std::size_t>& members, double now) const {
  // N serialized OMA uploads — the linear-in-N term of Fig. 10.
  return loop.driver().substrate().oma_upload_seconds(loop.driver().model_dim(), members.size(),
                                                      now);
}

std::vector<float> FedAvg::aggregate(SchedulingLoop& loop, const std::vector<std::size_t>& members,
                                     std::span<const float> w_prev, std::size_t /*round*/) {
  // The PS forms the exact weighted average (OMA is reliable).
  return loop.driver().oma_aggregate(members, w_prev, loop.aggregation_total(members));
}

}  // namespace airfedga::fl

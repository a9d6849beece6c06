#include <algorithm>

#include "fl/mechanisms.hpp"

namespace airfedga::fl {

data::WorkerGroups TiFL::make_cohorts(SchedulingLoop& loop) {
  // Tiers are built from response times only (no data-distribution
  // awareness); each tier runs its own aggregation timer.
  const std::size_t tiers =
      std::max<std::size_t>(1, std::min(num_tiers_, loop.driver().num_workers()));
  tiers_ = core::tifl_grouping(loop.local_times(), tiers);
  return tiers_;
}

double TiFL::upload_seconds(const SchedulingLoop& loop,
                            const std::vector<std::size_t>& members, double now) const {
  // The tier's serialized OMA uploads (Eq. 34 with the OMA upload term
  // instead of L_u).
  return loop.driver().substrate().oma_upload_seconds(loop.driver().model_dim(), members.size(),
                                                      now);
}

std::vector<float> TiFL::aggregate(SchedulingLoop& loop, const std::vector<std::size_t>& members,
                                   std::span<const float> w_prev, std::size_t /*round*/) {
  return loop.driver().oma_aggregate(members, w_prev, loop.aggregation_total(members));
}

}  // namespace airfedga::fl

#include <algorithm>
#include <cmath>

#include "fl/mechanisms.hpp"

namespace airfedga::fl {

data::WorkerGroups AirFedGA::make_cohorts(SchedulingLoop& loop) {
  Driver& driver = loop.driver();
  const FLConfig& cfg = loop.config();

  core::GroupingConfig gcfg = cfg_.grouping;
  // Planning uses the substrate's t = 0 latency (static for the classic
  // models; time-varying substrates plan on the initial conditions).
  gcfg.aircomp_upload_seconds = driver.substrate().aircomp_upload_seconds(driver.model_dim(), 0.0);
  gcfg.energy_cap = cfg.energy_cap;
  gcfg.convergence.sigma0_sq = cfg.aircomp.sigma0_sq;
  if (cfg_.auto_calibrate_model_bound) {
    // Assumption 4's W^2 for planning: the initial model norm with 2x
    // headroom (norms drift slowly under small-step SGD).
    const double w_sq = ml::squared_norm(driver.initial_model());
    gcfg.convergence.model_bound_sq = std::max(1e-9, 2.0 * w_sq);
  }

  if (cfg_.groups_override) {
    groups_ = *cfg_.groups_override;
  } else {
    groups_ = core::airfedga_grouping(driver.stats(), loop.local_times(), gcfg).groups;
  }
  data::validate_groups(groups_, driver.num_workers());
  return groups_;
}

double AirFedGA::upload_seconds(const SchedulingLoop& loop,
                                const std::vector<std::size_t>& /*members*/,
                                double now) const {
  // One concurrent group transmission, L_u (Eq. 34).
  return loop.driver().substrate().aircomp_upload_seconds(loop.driver().model_dim(), now);
}

std::vector<float> AirFedGA::aggregate(SchedulingLoop& loop,
                                       const std::vector<std::size_t>& members,
                                       std::span<const float> w_prev, std::size_t round) {
  // Over-the-air aggregation of one group (Alg. 1 lines 24-26) with
  // per-round power control (Alg. 2); `round` is the fading index of the
  // round this commit will get.
  return loop.driver().aircomp_aggregate(members, w_prev, round, loop.energy_joules(),
                                         loop.aggregation_total(members));
}

void AirFedGA::reweight(const SchedulingLoop& /*loop*/, std::span<const float> w_prev,
                        std::vector<float>& w_next, double tau) const {
  if (cfg_.staleness_damping <= 0.0) return;
  // Extension: shrink a stale group's contribution FedAsync-style,
  // w_t = w_{t-1} + (w_t^{air} - w_{t-1}) / (1 + tau)^a.
  const double damp = 1.0 / std::pow(1.0 + tau, cfg_.staleness_damping);
  for (std::size_t d = 0; d < w_next.size(); ++d)
    w_next[d] = static_cast<float>(w_prev[d] + damp * (w_next[d] - w_prev[d]));
}

}  // namespace airfedga::fl

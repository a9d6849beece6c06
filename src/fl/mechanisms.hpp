#pragma once

#include <optional>
#include <string>

#include "core/grouping.hpp"
#include "fl/loop.hpp"

namespace airfedga::fl {

/// Uniform knob set for every mechanism. One struct (instead of
/// per-mechanism constructor signatures) keeps mechanism construction
/// table-driven: the scenario registry fills the fields it knows and every
/// mechanism reads only the knobs it owns. Defaults reproduce the paper's
/// §VI-A settings.
struct MechanismConfig {
  // Dynamic [31]
  /// Per-round channel-gain cutoff: workers whose gain clears this
  /// quantile participate in the round.
  double selection_quantile = 0.5;

  // TiFL [26]
  std::size_t tiers = 5;  ///< response-time tiers (clamped to the worker count)

  // FedAsync [21] and Semi-Async (Kou et al.) staleness weighting
  double mixing = 0.6;   ///< base mixing weight alpha
  double damping = 0.5;  ///< staleness exponent/rate of the damping schedule

  // Semi-Async aggregation trigger
  std::size_t aggregate_count = 4;   ///< flush the buffer at K uploads
  std::size_t staleness_bound = 4;   ///< ... or once a buffered upload is this stale
  /// Damping schedule sigma(tau): "poly" = mixing / (1 + tau)^damping,
  /// "exp" = mixing * exp(-damping * tau).
  std::string damping_schedule = "poly";

  // Air-FedGA (Alg. 1)
  core::GroupingConfig grouping;  ///< Alg. 3 grouping parameters
  /// Bypass Alg. 3 with a fixed grouping (ablations, Fig. 8 sweeps).
  std::optional<data::WorkerGroups> groups_override;
  /// Extension (off by default): damp a group's update by
  /// 1/(1+tau)^staleness_damping, FedAsync-style.
  double staleness_damping = 0.0;
  /// Calibrate the planning bound W^2 (Assumption 4) from the actual
  /// initial model norm instead of the generic default, so the grouping
  /// objective's aggregation-error term matches the deployed model.
  bool auto_calibrate_model_bound = true;
};

/// FedAvg [11]: synchronous, full participation, OMA uplink. Round time is
/// max_i l_i plus N serialized uploads — the baseline whose round duration
/// grows linearly with N (Fig. 10).
class FedAvg : public Mechanism {
 public:
  explicit FedAvg(const MechanismConfig& = {}) {}
  [[nodiscard]] std::string name() const override { return "FedAvg"; }

  data::WorkerGroups make_cohorts(SchedulingLoop& loop) override;
  [[nodiscard]] TriggerKind trigger() const override { return TriggerKind::kRoundBarrier; }
  [[nodiscard]] double upload_seconds(const SchedulingLoop& loop,
                                      const std::vector<std::size_t>& members,
                                      double now) const override;
  std::vector<float> aggregate(SchedulingLoop& loop, const std::vector<std::size_t>& members,
                               std::span<const float> w_prev, std::size_t round) override;
};

/// Air-FedAvg [18]: synchronous, full participation, AirComp uplink with
/// optimal power control (Alg. 2 applied to the full worker set).
class AirFedAvg : public Mechanism {
 public:
  explicit AirFedAvg(const MechanismConfig& = {}) {}
  [[nodiscard]] std::string name() const override { return "Air-FedAvg"; }

  data::WorkerGroups make_cohorts(SchedulingLoop& loop) override;
  [[nodiscard]] TriggerKind trigger() const override { return TriggerKind::kRoundBarrier; }
  [[nodiscard]] double upload_seconds(const SchedulingLoop& loop,
                                      const std::vector<std::size_t>& members,
                                      double now) const override;
  std::vector<float> aggregate(SchedulingLoop& loop, const std::vector<std::size_t>& members,
                               std::span<const float> w_prev, std::size_t round) override;
};

/// Dynamic [31]: synchronous AirComp with per-round subset scheduling.
/// Each round, the scheduler admits the workers whose current channel gain
/// is above the round's `selection_quantile` (energy-aware selection:
/// strong channels need less transmit power, Eq. 6); the rest stay idle.
/// Selection ignores data distribution, which is what makes its curves
/// jitter under label skew (§VI-B1).
class DynamicAirComp : public Mechanism {
 public:
  explicit DynamicAirComp(const MechanismConfig& mc = {})
      : selection_quantile_(mc.selection_quantile) {}
  [[nodiscard]] std::string name() const override { return "Dynamic"; }

  void check(const FLConfig& cfg) const override;
  data::WorkerGroups make_cohorts(SchedulingLoop& loop) override;
  std::span<const std::size_t> select(SchedulingLoop& loop, std::size_t cohort,
                                      std::size_t round) override;
  [[nodiscard]] TriggerKind trigger() const override { return TriggerKind::kRoundBarrier; }
  [[nodiscard]] double upload_seconds(const SchedulingLoop& loop,
                                      const std::vector<std::size_t>& members,
                                      double now) const override;
  std::vector<float> aggregate(SchedulingLoop& loop, const std::vector<std::size_t>& members,
                               std::span<const float> w_prev, std::size_t round) override;

 private:
  double selection_quantile_;
  std::vector<std::size_t> selected_;  ///< the last select()'s admitted workers
};

/// TiFL [26]: tier-based group-asynchronous FL over OMA. Tiers are built
/// from response times only (no data-distribution awareness); uploads
/// within a tier are serialized OMA transfers.
class TiFL : public Mechanism {
 public:
  explicit TiFL(const MechanismConfig& mc = {}) : num_tiers_(mc.tiers) {}
  [[nodiscard]] std::string name() const override { return "TiFL"; }

  data::WorkerGroups make_cohorts(SchedulingLoop& loop) override;
  [[nodiscard]] TriggerKind trigger() const override { return TriggerKind::kCohortTimer; }
  [[nodiscard]] double upload_seconds(const SchedulingLoop& loop,
                                      const std::vector<std::size_t>& members,
                                      double now) const override;
  std::vector<float> aggregate(SchedulingLoop& loop, const std::vector<std::size_t>& members,
                               std::span<const float> w_prev, std::size_t round) override;

  /// Tiers chosen by the last `run` call.
  [[nodiscard]] const data::WorkerGroups& tiers() const { return tiers_; }

 private:
  std::size_t num_tiers_;
  data::WorkerGroups tiers_;
};

/// FedAsync [21] (related work, §II-A): fully asynchronous FL over OMA.
/// Every worker updates the global model the moment it finishes local
/// training, with the staleness-damped mixing weight
///   w_t = (1 - alpha_tau) w_{t-1} + alpha_tau w_i,
///   alpha_tau = mixing / (1 + tau)^damping.
/// This is the xi = 0 corner of Fig. 8: no over-the-air gain (one worker
/// per upload) and maximal staleness exposure.
class FedAsync : public Mechanism {
 public:
  explicit FedAsync(const MechanismConfig& mc = {}) : mixing_(mc.mixing), damping_(mc.damping) {}
  [[nodiscard]] std::string name() const override { return "FedAsync"; }

  void check(const FLConfig& cfg) const override;
  data::WorkerGroups make_cohorts(SchedulingLoop& loop) override;
  [[nodiscard]] TriggerKind trigger() const override { return TriggerKind::kCohortTimer; }
  [[nodiscard]] double upload_seconds(const SchedulingLoop& loop,
                                      const std::vector<std::size_t>& members,
                                      double now) const override;
  [[nodiscard]] double aggregate_time(const SchedulingLoop& loop, std::size_t cohort,
                                      const std::vector<std::size_t>& members,
                                      double start) const override;
  std::vector<float> aggregate(SchedulingLoop& loop, const std::vector<std::size_t>& members,
                               std::span<const float> w_prev, std::size_t round) override;
  void reweight(const SchedulingLoop& loop, std::span<const float> w_prev,
                std::vector<float>& w_next, double tau) const override;

 private:
  double mixing_;
  double damping_;
};

/// Air-FedGA (Alg. 1): the paper's contribution. Workers are grouped by
/// Alg. 3; each group aggregates over the air (Eqs. 9-10) with per-round
/// power control (Alg. 2); groups update the global model asynchronously
/// with staleness tracked by the parameter server.
class AirFedGA : public Mechanism {
 public:
  explicit AirFedGA(const MechanismConfig& mc = {}) : cfg_(mc) {}
  [[nodiscard]] std::string name() const override { return "Air-FedGA"; }

  data::WorkerGroups make_cohorts(SchedulingLoop& loop) override;
  [[nodiscard]] TriggerKind trigger() const override { return TriggerKind::kGroupReady; }
  [[nodiscard]] double upload_seconds(const SchedulingLoop& loop,
                                      const std::vector<std::size_t>& members,
                                      double now) const override;
  std::vector<float> aggregate(SchedulingLoop& loop, const std::vector<std::size_t>& members,
                               std::span<const float> w_prev, std::size_t round) override;
  void reweight(const SchedulingLoop& loop, std::span<const float> w_prev,
                std::vector<float>& w_next, double tau) const override;

  /// Grouping used by the last `run` call (Fig. 7 inspects this).
  [[nodiscard]] const data::WorkerGroups& groups() const { return groups_; }

 private:
  MechanismConfig cfg_;
  data::WorkerGroups groups_;
};

/// Semi-Async (Kou et al., PAPERS.md): staleness-bounded semi-asynchronous
/// AirComp FL. Finished workers report READY into a server-side buffer;
/// the buffer ships as one over-the-air aggregation once it holds
/// `aggregate_count` uploads or once any buffered upload reaches the
/// staleness bound (bounded waiting), and the committed update is damped
/// by the staleness schedule sigma(tau):
///   w_t = w_{t-1} + sigma(tau) (w_air - w_{t-1}).
/// Entirely policy hooks on the unified loop — no bespoke event handling.
class SemiAsync : public Mechanism {
 public:
  explicit SemiAsync(const MechanismConfig& mc = {})
      : mixing_(mc.mixing),
        damping_(mc.damping),
        aggregate_count_(mc.aggregate_count),
        staleness_bound_(mc.staleness_bound),
        exponential_(mc.damping_schedule == "exp"),
        schedule_(mc.damping_schedule) {}
  [[nodiscard]] std::string name() const override { return "Semi-Async"; }

  void check(const FLConfig& cfg) const override;
  data::WorkerGroups make_cohorts(SchedulingLoop& loop) override;
  [[nodiscard]] TriggerKind trigger() const override { return TriggerKind::kReadyBuffer; }
  [[nodiscard]] double upload_seconds(const SchedulingLoop& loop,
                                      const std::vector<std::size_t>& members,
                                      double now) const override;
  bool should_flush(SchedulingLoop& loop, const std::vector<std::size_t>& buffered) override;
  std::vector<float> aggregate(SchedulingLoop& loop, const std::vector<std::size_t>& members,
                               std::span<const float> w_prev, std::size_t round) override;
  void reweight(const SchedulingLoop& loop, std::span<const float> w_prev,
                std::vector<float>& w_next, double tau) const override;

 private:
  double mixing_;
  double damping_;
  std::size_t aggregate_count_;
  std::size_t staleness_bound_;
  bool exponential_;
  std::string schedule_;
};

}  // namespace airfedga::fl

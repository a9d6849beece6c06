// perfbench_probe — per-layer probe of the benchmark.
//
// Times calls into each layer's public functions at the configuration a
// benchmark workload runs (its spec file), and checks each layer's output
// against a computation made here, apart from the program:
//
//   ml       train_step time and heap allocations, sgemm GFLOP/s at the
//            workload's GEMM shapes (checked against a naive loop), eval
//   fl       Driver construction on the built config
//   util     Rng::sample_without_replacement at the workload's (N, k)
//   core     Alg. 3 grouping at each xi (checked against constraint 36d),
//            Alg. 2 power control for one group (energies within the cap)
//   channel  AirCompChannel::aggregate at the model dimension and group
//            size (zero-noise, perfect-CSI result checked against a
//            weighted average)
//   sim      EventQueue schedule+pop at the workload's pending depth and
//            backend (pop order checked against a (time, seq) heap)
//   data     scenario::build
//   scenario merge_results over a finished farm directory: journal, stash
//            and assemble the workload's outputs
//
// Usage:
//   perfbench_probe --spec=FILE [--xi=a,b,...] [--pending=D]
//                   [--gemm=m,n,k;m,n,k...] [--sample=N,k]
//                   [--farm-dir=DIR --merge-out=DIR]
// Prints one JSON object {"metrics": {...}, "checks": {...}} on stdout.
// Exit 0 when every check passed, 1 when one failed, 2 on bad usage or error.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "channel/aircomp.hpp"
#include "core/grouping.hpp"
#include "core/power_control.hpp"
#include "fl/driver.hpp"
#include "ml/gemm.hpp"
#include "ml/model.hpp"
#include "scenario/json.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Counts every heap allocation of this binary, for the allocations-per-
// train-step figure (the hook the zero-allocation tests use).
#include "../tests/support/alloc_hook.hpp"

namespace {

using namespace airfedga;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median seconds per call of `fn`: calls are grouped into batches of at
/// least `batch_s` seconds, and the median over `batches` batches is
/// returned. One untimed call first warms caches and lazy set-up.
double time_per_call(const std::function<void()>& fn, double batch_s = 0.05, int batches = 5) {
  fn();
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double dt = seconds_since(t0);
    if (dt >= batch_s || iters >= (std::size_t{1} << 24)) break;
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    per_call.push_back(seconds_since(t0) / static_cast<double>(iters));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

/// Median of `reps` single timed calls (for calls too slow to batch).
double time_single(const std::function<void()>& fn, int reps = 3) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep))
    if (!item.empty()) out.push_back(item);
  return out;
}

std::vector<float> random_floats(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

struct Args {
  std::string spec;
  std::vector<double> xis;
  std::size_t pending = 1;
  std::vector<std::array<std::size_t, 3>> gemm;
  std::size_t sample_n = 0, sample_k = 0;
  std::string farm_dir, merge_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      throw std::invalid_argument("bad argument " + arg);
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "spec") {
      a.spec = val;
    } else if (key == "xi") {
      for (const auto& x : split(val, ',')) a.xis.push_back(std::stod(x));
    } else if (key == "pending") {
      a.pending = std::max<std::size_t>(1, std::stoul(val));
    } else if (key == "gemm") {
      for (const auto& shape : split(val, ';')) {
        const auto d = split(shape, ',');
        if (d.size() != 3) throw std::invalid_argument("--gemm wants m,n,k triples");
        a.gemm.push_back({std::stoul(d[0]), std::stoul(d[1]), std::stoul(d[2])});
      }
    } else if (key == "sample") {
      const auto d = split(val, ',');
      if (d.size() != 2) throw std::invalid_argument("--sample wants N,k");
      a.sample_n = std::stoul(d[0]);
      a.sample_k = std::stoul(d[1]);
    } else if (key == "farm-dir") {
      a.farm_dir = val;
    } else if (key == "merge-out") {
      a.merge_out = val;
    } else {
      throw std::invalid_argument("unknown option --" + key);
    }
  }
  if (a.spec.empty()) throw std::invalid_argument("--spec is required");
  if (a.farm_dir.empty() != a.merge_out.empty())
    throw std::invalid_argument("--farm-dir and --merge-out go together");
  return a;
}

class Probe {
 public:
  std::map<std::string, double> metrics;
  std::map<std::string, bool> checks;

  void gemm(const std::vector<std::array<std::size_t, 3>>& shapes) {
    util::ThreadPool::SerialRegion serial;  // a training lane's configuration
    util::Rng rng(1);
    double flops = 0.0, seconds = 0.0;
    bool ok = true;
    for (const auto& [m, n, k] : shapes) {
      const auto a = random_floats(m * k, rng);
      const auto b = random_floats(k * n, rng);
      std::vector<float> c(m * n, 0.0f);
      seconds += time_per_call([&] {
        ml::sgemm(ml::Trans::N, ml::Trans::N, m, n, k, a.data(), k, b.data(), n, 0.0f, c.data(),
                  n);
      });
      flops += 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          double ref = 0.0, mag = 0.0;
          for (std::size_t p = 0; p < k; ++p) {
            ref += static_cast<double>(a[i * k + p]) * b[p * n + j];
            mag += std::fabs(static_cast<double>(a[i * k + p]) * b[p * n + j]);
          }
          if (std::fabs(c[i * n + j] - ref) > 1e-5 * (mag + 1.0)) ok = false;
        }
    }
    metrics["ml.sgemm_gflops"] = seconds > 0 ? flops / seconds / 1e9 : 0.0;
    checks["ml.sgemm_matches_naive_loop"] = ok;
  }

  void model(const scenario::BuiltScenario& built) {
    const fl::FLConfig& cfg = built.cfg;
    const data::Dataset& train = built.data->train;
    const data::Dataset& test = built.data->test;
    ml::Model model = cfg.model_factory();
    util::Rng rng(cfg.seed);
    model.init(rng);

    // One local step on a batch of the workload's size (batch_size 0 trains
    // on the whole local shard, so the mean shard size stands in). A zero
    // learning rate keeps the parameters, so every timed step does the
    // same arithmetic.
    std::size_t batch = cfg.batch_size;
    if (batch == 0) batch = std::max<std::size_t>(1, train.size() / cfg.partition.size());
    batch = std::min(batch, train.size());
    std::vector<std::size_t> idx(batch);
    for (std::size_t i = 0; i < batch; ++i) idx[i] = i;
    const ml::Tensor x = ml::gather_rows(train.xs, idx);
    const std::vector<int> y(train.ys.begin(), train.ys.begin() + static_cast<long>(batch));
    {
      util::ThreadPool::SerialRegion serial;
      for (int warm = 0; warm < 3; ++warm) model.train_step(x, y, 0.0f);
      const std::size_t a0 = alloc_hook::count.load();
      constexpr int kCounted = 8;
      for (int s = 0; s < kCounted; ++s) model.train_step(x, y, 0.0f);
      metrics["ml.train_step_allocs"] =
          static_cast<double>(alloc_hook::count.load() - a0) / kCounted;
      metrics["ml.train_step_ms"] = 1e3 * time_per_call([&] { model.train_step(x, y, 0.0f); });
    }

    const std::size_t n_eval = std::min(cfg.eval_samples, test.size());
    std::vector<std::size_t> eidx(n_eval);
    for (std::size_t i = 0; i < n_eval; ++i) eidx[i] = i;
    const ml::Tensor ex = ml::gather_rows(test.xs, eidx);
    const std::vector<int> ey(test.ys.begin(), test.ys.begin() + static_cast<long>(n_eval));
    metrics["ml.eval_us_per_sample"] =
        1e6 * time_per_call([&] { (void)model.evaluate(ex, ey, cfg.eval_batch); }) /
        static_cast<double>(std::max<std::size_t>(1, n_eval));
  }

  void cohort_sample(std::size_t n, std::size_t k) {
    util::Rng rng(7);
    std::vector<std::size_t> out;
    metrics["util.cohort_sample_ms"] =
        1e3 * time_per_call([&] { rng.sample_without_replacement(n, k, out); });
  }

  /// Alg. 3 at every xi; returns one group to probe power control and
  /// AirComp with (the first group at the first xi), or empty.
  std::vector<std::size_t> grouping(fl::Driver& driver, const fl::FLConfig& cfg,
                                    const std::vector<double>& xis, std::size_t refine_passes) {
    if (xis.empty()) {
      metrics["core.grouping_ms"] = 0.0;
      return {};
    }
    core::GroupingConfig g;
    g.refine_passes = refine_passes;
    g.aircomp_upload_seconds = driver.substrate().aircomp_upload_seconds(driver.model_dim(), 0.0);
    g.energy_cap = cfg.energy_cap;
    g.convergence.sigma0_sq = cfg.aircomp.sigma0_sq;
    g.convergence.model_bound_sq =
        std::max(1e-9, 2.0 * ml::squared_norm(driver.initial_model()));
    const std::vector<double> lt = driver.cluster().local_times();
    const auto [lo, hi] = std::minmax_element(lt.begin(), lt.end());
    const double spread = *hi - *lo;

    double ms = 0.0;
    bool ok = true;
    std::vector<std::size_t> first;
    for (double xi : xis) {
      g.xi = xi;
      core::GroupingResult res;
      ms += 1e3 * time_single([&] { res = core::airfedga_grouping(driver.stats(), lt, g); });
      std::vector<char> seen(lt.size(), 0);
      for (const auto& group : res.groups) {
        double gmin = INFINITY, gmax = -INFINITY;
        for (auto w : group) {
          gmin = std::min(gmin, lt.at(w));
          gmax = std::max(gmax, lt.at(w));
          ok = ok && seen.at(w) == 0;
          seen[w] = 1;
        }
        ok = ok && !group.empty() && gmax - gmin <= xi * spread * (1.0 + 1e-12) + 1e-12;
      }
      ok = ok && std::all_of(seen.begin(), seen.end(), [](char s) { return s != 0; });
      if (first.empty() && !res.groups.empty()) first = res.groups.front();
    }
    metrics["core.grouping_ms"] = ms / static_cast<double>(xis.size());
    checks["core.grouping_meets_36d"] = ok;
    return first;
  }

  void power_and_aircomp(fl::Driver& driver, const fl::FLConfig& cfg,
                         const std::vector<std::size_t>& members) {
    const std::vector<float> w0 = driver.initial_model();
    const double w_sq = std::max(1e-12, ml::squared_norm(w0));
    const auto& gains = driver.substrate().gains(0);
    core::PowerControlInput in;
    in.sigma0_sq = cfg.aircomp.sigma0_sq;
    in.model_bound_sq = w_sq;
    double group_data = 0.0;
    for (auto m : members) {
      const double d = static_cast<double>(driver.stats().worker_size(m));
      in.gains.push_back(gains.at(m));
      in.data_sizes.push_back(d);
      in.energy_caps.push_back(cfg.energy_cap);
      group_data += d;
    }
    in.group_data = group_data;
    core::PowerControlResult pc;
    metrics["core.power_control_us"] = 1e6 * time_per_call([&] { pc = core::optimize_power(in); });
    bool within_cap = pc.sigma > 0.0 && pc.eta > 0.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const double p = in.data_sizes[i] * pc.sigma / in.gains[i];
      within_cap = within_cap && p * p * w_sq <= cfg.energy_cap * (1.0 + 1e-9);
    }
    checks["core.power_control_within_energy_cap"] = within_cap;

    // AirComp over the group at the model dimension, with the power-control
    // operating point.
    util::Rng rng(11);
    const std::size_t q = driver.model_dim();
    std::vector<std::vector<float>> models;
    for (std::size_t i = 0; i < members.size(); ++i) models.push_back(random_floats(q, rng));
    const std::vector<float> w_prev = random_floats(q, rng);
    channel::AirCompChannel::Input ain;
    ain.w_prev = w_prev;
    for (const auto& w : models) ain.local_models.push_back(w);
    ain.data_sizes = in.data_sizes;
    ain.gains = in.gains;
    ain.sigma = pc.sigma;
    ain.eta = pc.eta;
    ain.total_data = static_cast<double>(driver.stats().total_size());
    channel::AirCompChannel noisy(cfg.aircomp);
    metrics["channel.aircomp_aggregate_us"] =
        1e6 * time_per_call([&] { (void)noisy.aggregate(ain); });

    // Zero noise, perfect CSI, eta = sigma^2: Eq. (10) reduces to the
    // data-weighted average w = (1 - beta) w_prev + sum_i d_i w_i / D.
    channel::AirCompChannel clean({.sigma0_sq = 0.0, .seed = 3});
    ain.eta = ain.sigma * ain.sigma;
    const auto out = clean.aggregate(ain);
    const double total = ain.total_data;
    bool ok = out.w_next.size() == q;
    for (std::size_t d = 0; ok && d < q; ++d) {
      double expect = (1.0 - in.group_data / total) * w_prev[d];
      double mag = std::fabs(expect);
      for (std::size_t i = 0; i < models.size(); ++i) {
        expect += in.data_sizes[i] * models[i][d] / total;
        mag += std::fabs(in.data_sizes[i] * models[i][d] / total);
      }
      ok = std::fabs(out.w_next[d] - expect) <= 1e-5 * (mag + 1e-6);
    }
    checks["channel.aircomp_matches_weighted_average"] = ok;
  }

  void event_queue(sim::QueueBackend backend, std::size_t depth) {
    // Steady state at `depth` pending events: each op pops the minimum and
    // schedules a successor a random delay later (the hold model).
    util::Rng rng(5);
    sim::EventQueue q(backend);
    for (std::size_t i = 0; i < depth; ++i) q.schedule(rng.uniform(0.0, 100.0), 0, i);
    std::vector<double> delays(4096);
    for (auto& d : delays) d = rng.uniform(0.0, 100.0);
    std::size_t next = 0;
    metrics["sim.eventq_ns_per_op"] = 1e9 * time_per_call([&] {
      const sim::Event e = q.pop();
      q.schedule(e.time + delays[next++ & 4095], e.kind, e.actor);
    });

    // Pop order against a (time, seq) priority queue on a random
    // interleaving with many time ties.
    using Key = std::tuple<double, std::uint64_t, std::size_t>;
    std::priority_queue<Key, std::vector<Key>, std::greater<>> ref;
    sim::EventQueue check(backend);
    std::uint64_t seq = 0;
    double now = 0.0;
    bool ok = true;
    for (std::size_t step = 0; step < 20000 && ok; ++step) {
      if (ref.empty() || rng.uniform() < 0.55) {
        const double t = now + std::floor(rng.uniform(0.0, 20.0)) * 0.5;
        check.schedule(t, 0, step);
        ref.emplace(t, seq++, step);
      } else {
        const sim::Event e = check.pop();
        const auto [t, s, actor] = ref.top();
        ref.pop();
        ok = e.time == t && e.seq == s && e.actor == actor;
        now = t;
      }
    }
    checks["sim.eventq_pop_order_matches_heap"] = ok;
  }

  void farm_write(const std::string& farm_dir, const std::string& merge_out) {
    std::filesystem::remove_all(merge_out);
    const auto t0 = Clock::now();
    const scenario::FarmResult res = scenario::merge_results(merge_out, {farm_dir});
    metrics["scenario.farm_write_s"] = seconds_since(t0);
    bool done = !res.statuses.empty();
    for (const auto& st : res.statuses)
      done = done && st.state == scenario::VariantStatus::State::kDone;
    checks["scenario.merge_reassembles_every_variant"] = done;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 2;
  }
  try {
    const scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::from_json(scenario::Json::parse(read_file(args.spec)));
    Probe probe;

    scenario::BuiltScenario built;
    probe.metrics["data.build_s"] = time_single([&] { built = scenario::build(spec); });
    const fl::FLConfig& cfg = built.cfg;

    std::unique_ptr<fl::Driver> driver;
    probe.metrics["fl.driver_ctor_s"] = time_single([&] {
      driver.reset();
      driver = std::make_unique<fl::Driver>(cfg);
    });

    probe.gemm(args.gemm);
    probe.model(built);
    probe.cohort_sample(args.sample_n, args.sample_k);

    std::size_t refine = 3;
    for (const auto& m : spec.mechanisms)
      if (m.kind == "airfedga") refine = m.refine_passes;
    std::vector<std::size_t> group = probe.grouping(*driver, cfg, args.xis, refine);
    if (group.empty()) {
      // No Alg. 3 in this workload: a cohort of cfg.cohort_size workers is
      // the group that aggregates over the air.
      const std::size_t k = std::min(cfg.cohort_size != 0 ? cfg.cohort_size : driver->num_workers(),
                                     driver->num_workers());
      for (std::size_t i = 0; i < k; ++i) group.push_back(i);
    }
    probe.power_and_aircomp(*driver, cfg, group);
    driver.reset();

    probe.event_queue(cfg.event_queue, args.pending);
    if (!args.farm_dir.empty()) probe.farm_write(args.farm_dir, args.merge_out);

    scenario::Json m = scenario::Json::object();
    for (const auto& [k, v] : probe.metrics) m.set(k, v);
    scenario::Json c = scenario::Json::object();
    bool all = true;
    for (const auto& [k, v] : probe.checks) {
      c.set(k, scenario::Json(v));
      all = all && v;
    }
    scenario::Json out = scenario::Json::object();
    out.set("metrics", std::move(m));
    out.set("checks", std::move(c));
    std::printf("%s\n", out.dump().c_str());
    return all ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 2;
  }
}

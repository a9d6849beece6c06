// Tests for the crash-safe scenario farm: byte-parity with the legacy
// writer, resume semantics, kill-and-resume byte identity (via injected
// crashes in gtest death-test children), retry/quarantine fault isolation,
// watchdog timeouts, interrupt/stop handling, stash corruption recovery,
// and --shard / merge round-trips.

#include "scenario/runner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/manifest.hpp"
#include "util/fault.hpp"

namespace airfedga::scenario {
namespace {

namespace fs = std::filesystem;

ScenarioSpec tiny_spec() {
  ScenarioSpec s;
  s.name = "tiny";
  s.dataset = {"mnist_like", 120, 40, 1};
  s.model = {.kind = "softmax", .input_dim = 784, .num_classes = 10};
  s.partition.workers = 6;
  s.learning_rate = 0.5;
  s.batch_size = 0;
  s.time_budget = 200.0;
  s.max_rounds = 6;
  s.eval_every = 2;
  s.eval_samples = 40;
  s.threads = 1;
  s.mechanisms = {MechanismSpec{}};  // airfedga
  return s;
}

/// Three deterministic variants (a seed sweep) — the standard farm batch
/// for these tests.
std::vector<ScenarioSpec> tiny_variants() {
  return expand_sweeps(tiny_spec(), {{"run.seed", {Json(1), Json(2), Json(3)}}});
}

/// A scratch directory named by the test binary's run, the current test
/// and the directory's ordinal within that test. A threadsafe-style death
/// test re-executes the binary and reruns the test body up to EXPECT_EXIT,
/// so the child must resolve the same paths as its parent: the run token
/// is the parent's pid, handed down through the environment.
struct TempDir {
  static std::string run_token() {
    ::setenv("AIRFEDGA_FARM_TEST_RUN", std::to_string(::getpid()).c_str(), /*overwrite=*/0);
    return std::getenv("AIRFEDGA_FARM_TEST_RUN");
  }
  static std::string next_name() {
    static std::string test;
    static std::size_t ordinal = 0;
    const std::string current = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    if (current != test) {
      test = current;
      ordinal = 0;
    }
    return "airfedga_farm_test_" + run_token() + "_" + test + "_" + std::to_string(ordinal++);
  }
  fs::path path;
  TempDir() : path(fs::temp_directory_path() / next_name()) { fs::remove_all(path); }
  ~TempDir() { fs::remove_all(path); }
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Asserts every output file of two result directories is byte-identical
/// (results.jsonl, summary.csv, and the full points/ set).
void expect_outputs_identical(const fs::path& a, const fs::path& b) {
  EXPECT_EQ(read_file(a / "results.jsonl"), read_file(b / "results.jsonl"));
  EXPECT_EQ(read_file(a / "summary.csv"), read_file(b / "summary.csv"));
  std::vector<std::string> names_a;
  for (const auto& e : fs::directory_iterator(a / "points"))
    names_a.push_back(e.path().filename().string());
  std::vector<std::string> names_b;
  for (const auto& e : fs::directory_iterator(b / "points"))
    names_b.push_back(e.path().filename().string());
  std::sort(names_a.begin(), names_a.end());
  std::sort(names_b.begin(), names_b.end());
  ASSERT_EQ(names_a, names_b);
  for (const auto& name : names_a)
    EXPECT_EQ(read_file(a / "points" / name), read_file(b / "points" / name)) << name;
}

/// Byte-stable output needs --no-timing (wall clocks vary run to run).
WriteOptions no_timing() {
  WriteOptions wo;
  wo.timing = false;
  return wo;
}

/// Every test must leave the process-global fault registry and stop flag
/// clean for later tests.
class FarmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The EXPECT_EXIT kill tests fork a process that owns lane-pool
    // threads; the threadsafe style re-executes the binary for the child
    // instead of forking a multithreaded parent.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    util::fault::disarm_all();
    farm_clear_stop();
  }
  void TearDown() override {
    util::fault::disarm_all();
    farm_clear_stop();
  }
};

TEST_F(FarmTest, MatchesTheLegacyWriterByteForByte) {
  const auto variants = tiny_variants();
  TempDir legacy, farmed;
  const BatchRunResult batch = run_scenarios(variants);
  write_results(legacy.path.string(), batch.results, git_version(), no_timing());

  const FarmResult fr = run_farm(variants, farmed.path.string(), {}, {}, no_timing());
  EXPECT_EQ(fr.completed, 3u);
  EXPECT_EQ(fr.failed, 0u);
  EXPECT_FALSE(fr.interrupted);
  ASSERT_EQ(fr.records.size(), 3u);
  expect_outputs_identical(legacy.path, farmed.path);
}

TEST_F(FarmTest, ResumeOfACompleteRunSkipsEverythingAndRewritesIdentically) {
  const auto variants = tiny_variants();
  TempDir dir;
  run_farm(variants, dir.path.string(), {}, {}, no_timing());
  const std::string results = read_file(dir.path / "results.jsonl");
  const std::string summary = read_file(dir.path / "summary.csv");

  FarmOptions fo;
  fo.resume = true;
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());
  EXPECT_EQ(fr.resumed_skips, 3u);
  EXPECT_EQ(fr.completed, 0u);
  EXPECT_EQ(read_file(dir.path / "results.jsonl"), results);
  EXPECT_EQ(read_file(dir.path / "summary.csv"), summary);
}

/// The acceptance loop: crash (injected kill) partway through the batch,
/// resume, and require byte-identical outputs vs an uninterrupted run.
void kill_resume_roundtrip(std::size_t jobs) {
  const auto variants = tiny_variants();
  TempDir crashed;
  FarmOptions fo;
  fo.jobs = jobs;

  // The crash runs first: a re-executed death-test child repeats only
  // what precedes EXPECT_EXIT, not the reference run.
  const std::string crash_dir = crashed.path.string();
  EXPECT_EXIT(
      {
        util::fault::arm("after_variant:2");  // kill after the 2nd durable done
        FarmOptions child = fo;
        run_farm(variants, crash_dir, {}, child, no_timing());
      },
      ::testing::ExitedWithCode(util::fault::kKillExitCode), "");
  TempDir ref;
  run_farm(variants, ref.path.string(), {}, fo, no_timing());

  // The crash happened after (at least) two durable completions; the
  // manifest must show them and the resume must only re-run what was lost.
  // Serial runs lose exactly one variant; concurrent runs may have
  // journalled a third done between the second's journal and its fault hit.
  Manifest recovered = Manifest::open(crash_dir);
  std::size_t done = 0;
  for (const auto& r : recovered.records())
    if (r.state == "done") ++done;
  EXPECT_GE(done, 2u);
  if (jobs == 1) {
    EXPECT_EQ(done, 2u);
  }

  FarmOptions resume = fo;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, crash_dir, {}, resume, no_timing());
  EXPECT_GE(fr.resumed_skips, 2u);
  EXPECT_EQ(fr.resumed_skips + fr.completed, 3u);
  if (jobs == 1) {
    EXPECT_EQ(fr.completed, 1u);
  }
  expect_outputs_identical(ref.path, crashed.path);
}

TEST_F(FarmTest, KillAndResumeIsByteIdenticalSerial) { kill_resume_roundtrip(1); }
TEST_F(FarmTest, KillAndResumeIsByteIdenticalJobs4) { kill_resume_roundtrip(4); }

TEST_F(FarmTest, KillDuringStashWriteLosesOnlyThatVariant) {
  const auto variants = tiny_variants();
  TempDir crashed;
  const std::string crash_dir = crashed.path.string();
  EXPECT_EXIT(
      {
        util::fault::arm("mid_write:stash");  // die inside the first stash write
        run_farm(variants, crash_dir, {}, {}, no_timing());
      },
      ::testing::ExitedWithCode(util::fault::kKillExitCode), "");
  TempDir ref;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  FarmOptions resume;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, crash_dir, {}, resume, no_timing());
  EXPECT_EQ(fr.resumed_skips, 0u);  // the torn tmp stash never became durable
  EXPECT_EQ(fr.completed, 3u);
  expect_outputs_identical(ref.path, crashed.path);
}

TEST_F(FarmTest, KillDuringResultAssemblyIsRepairedByResume) {
  const auto variants = tiny_variants();
  TempDir crashed;
  const std::string crash_dir = crashed.path.string();
  EXPECT_EXIT(
      {
        util::fault::arm("mid_write:results");  // die while writing results.jsonl
        run_farm(variants, crash_dir, {}, {}, no_timing());
      },
      ::testing::ExitedWithCode(util::fault::kKillExitCode), "");
  TempDir ref;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  // Every variant completed durably before assembly; the resume re-runs
  // nothing and just re-assembles the (torn) output files.
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, crash_dir, {}, resume, no_timing());
  EXPECT_EQ(fr.resumed_skips, 3u);
  EXPECT_EQ(fr.completed, 0u);
  expect_outputs_identical(ref.path, crashed.path);
}

TEST_F(FarmTest, ThrowingVariantIsRetriedThenQuarantinedWithoutFailingOthers) {
  const auto variants = tiny_variants();
  TempDir dir;
  util::fault::arm("variant_run:1:throw");  // variant index 1 always throws
  FarmOptions fo;
  fo.retries = 1;
  fo.backoff_base = 0.01;  // keep the test fast
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());

  EXPECT_EQ(fr.completed, 2u);
  EXPECT_EQ(fr.failed, 1u);
  EXPECT_EQ(fr.retries, 1u);
  EXPECT_FALSE(fr.interrupted);
  ASSERT_EQ(fr.statuses.size(), 3u);
  EXPECT_EQ(fr.statuses[1].state, VariantStatus::State::kFailed);
  EXPECT_EQ(fr.statuses[1].attempts, 2u);
  EXPECT_NE(fr.statuses[1].error.find("injected fault"), std::string::npos);
  EXPECT_EQ(fr.statuses[0].state, VariantStatus::State::kDone);
  EXPECT_EQ(fr.statuses[2].state, VariantStatus::State::kDone);
  // The quarantined variant is journalled failed (with the error) and
  // simply absent from the assembled outputs.
  Manifest m = Manifest::open(dir.path.string());
  EXPECT_EQ(m.state_of(1, fr.statuses[1].hash), "failed");
  EXPECT_EQ(fr.records.size(), 2u);

  // A later resume (fault cleared — it was transient environment trouble)
  // re-runs only the quarantined variant and completes the set.
  util::fault::disarm_all();
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fixed = run_farm(variants, dir.path.string(), {}, resume, no_timing());
  EXPECT_EQ(fixed.resumed_skips, 2u);
  EXPECT_EQ(fixed.completed, 1u);
  EXPECT_EQ(fixed.records.size(), 3u);
}

TEST_F(FarmTest, TransientFailureSucceedsOnRetry) {
  const auto variants = tiny_variants();
  TempDir ref, dir;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  util::fault::arm("variant_run:1:throw_once");
  FarmOptions fo;
  fo.retries = 2;
  fo.backoff_base = 0.01;
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());
  EXPECT_EQ(fr.completed, 3u);
  EXPECT_EQ(fr.failed, 0u);
  EXPECT_EQ(fr.retries, 1u);
  EXPECT_EQ(fr.statuses[1].attempts, 2u);
  expect_outputs_identical(ref.path, dir.path);
}

TEST_F(FarmTest, HungVariantIsCancelledByTheWatchdogAndQuarantined) {
  // A time budget far past anything the tiny model needs, with a watchdog
  // far below its wall time: every attempt must be cancelled, quarantined,
  // and must not block the other variants.
  auto variants = tiny_variants();
  Json slow = variants[1].to_json();
  json_set_path(slow, "run.time_budget", Json(1e9));
  json_set_path(slow, "run.max_rounds", Json(100000000));
  variants[1] = ScenarioSpec::from_json(slow);

  // The watchdog must leave the healthy variants room to finish in this
  // build (a sanitizer build runs them ~10x slower than Release), so it is
  // set from their measured wall time: four times what both take together.
  TempDir healthy_dir;
  const auto t0 = std::chrono::steady_clock::now();
  run_farm({variants[0], variants[2]}, healthy_dir.path.string(), {}, {}, no_timing());
  const double healthy_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  TempDir dir;
  FarmOptions fo;
  fo.variant_timeout = std::max(0.05, 4.0 * healthy_s);
  fo.backoff_base = 0.01;
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());
  EXPECT_EQ(fr.failed, 1u);
  EXPECT_EQ(fr.completed, 2u);
  EXPECT_EQ(fr.statuses[1].state, VariantStatus::State::kFailed);
  EXPECT_NE(fr.statuses[1].error.find("timeout"), std::string::npos);
  EXPECT_EQ(fr.statuses[0].state, VariantStatus::State::kDone);
  EXPECT_EQ(fr.statuses[2].state, VariantStatus::State::kDone);
}

TEST_F(FarmTest, StopRequestInterruptsAndResumeFinishesIdentically) {
  const auto variants = tiny_variants();
  TempDir ref, dir;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  FarmOptions fo;
  fo.on_status = [](const VariantStatus&) { farm_request_stop(); };  // "Ctrl-C" after 1st
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, fo, no_timing());
  EXPECT_TRUE(fr.interrupted);
  EXPECT_GE(fr.completed, 1u);
  EXPECT_LT(fr.completed, 3u);
  EXPECT_FALSE(fs::exists(dir.path / "results.jsonl"));  // no misleading partial outputs

  farm_clear_stop();
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fin = run_farm(variants, dir.path.string(), {}, resume, no_timing());
  EXPECT_FALSE(fin.interrupted);
  EXPECT_EQ(fin.resumed_skips + fin.completed, 3u);
  expect_outputs_identical(ref.path, dir.path);
}

TEST_F(FarmTest, CorruptStashForcesExactlyThatVariantToReRun) {
  const auto variants = tiny_variants();
  TempDir ref, dir;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());
  run_farm(variants, dir.path.string(), {}, {}, no_timing());

  // Truncate variant 1's stash mid-file: the manifest still says done, but
  // the resume must detect the damage and re-run exactly that variant.
  const fs::path stash = dir.path / "farm" / "variant_000001.json";
  const std::string bytes = read_file(stash);
  {
    std::ofstream out(stash, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, dir.path.string(), {}, resume, no_timing());
  EXPECT_EQ(fr.resumed_skips, 2u);
  EXPECT_EQ(fr.completed, 1u);
  EXPECT_EQ(fr.statuses[1].state, VariantStatus::State::kDone);
  expect_outputs_identical(ref.path, dir.path);
}

TEST_F(FarmTest, ChangedOverridesInvalidateDoneRecords) {
  const auto variants = tiny_variants();
  TempDir dir;
  run_farm(variants, dir.path.string(), {}, {}, no_timing());

  // Same study, new time-budget override: the config hashes change, so a
  // resume must trust nothing and re-run every variant.
  RunOverrides ov;
  ov.time_budget = 150.0;
  FarmOptions resume;
  resume.resume = true;
  const FarmResult fr = run_farm(variants, dir.path.string(), ov, resume, no_timing());
  EXPECT_EQ(fr.resumed_skips, 0u);
  EXPECT_EQ(fr.completed, 3u);
}

TEST_F(FarmTest, ShardedRunsMergeIntoTheUnshardedBytes) {
  const auto variants = tiny_variants();
  TempDir ref, s1, s2, merged;
  run_farm(variants, ref.path.string(), {}, {}, no_timing());

  FarmOptions shard1;
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  const FarmResult r1 = run_farm(variants, s1.path.string(), {}, shard1, no_timing());
  EXPECT_EQ(r1.completed, 2u);  // variants 0 and 2
  FarmOptions shard2;
  shard2.shard_index = 2;
  shard2.shard_count = 2;
  const FarmResult r2 = run_farm(variants, s2.path.string(), {}, shard2, no_timing());
  EXPECT_EQ(r2.completed, 1u);  // variant 1

  const FarmResult m = merge_results(merged.path.string(),
                                     {s1.path.string(), s2.path.string()}, no_timing());
  EXPECT_EQ(m.completed, 3u);
  ASSERT_EQ(m.statuses.size(), 3u);
  for (const auto& st : m.statuses) EXPECT_EQ(st.state, VariantStatus::State::kDone);
  expect_outputs_identical(ref.path, merged.path);
}

TEST_F(FarmTest, MergeReportsMissingVariantsAndRejectsConflicts) {
  const auto variants = tiny_variants();
  TempDir s1, merged;
  FarmOptions shard1;
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  run_farm(variants, s1.path.string(), {}, shard1, no_timing());

  // Only shard 1 present: variant 1 is missing and must be visible as such.
  const FarmResult m =
      merge_results(merged.path.string(), {s1.path.string()}, no_timing());
  EXPECT_EQ(m.completed, 2u);
  ASSERT_EQ(m.statuses.size(), 3u);
  EXPECT_EQ(m.statuses[1].state, VariantStatus::State::kNotRun);

  // A shard of a *different* study claiming the same variant indexes must
  // be refused, not silently mixed in. (Same shard 1/2 as s1, other seeds:
  // variants 0 and 2 collide with different config hashes.)
  TempDir other;
  auto other_variants = expand_sweeps(tiny_spec(), {{"run.seed", {Json(7), Json(8), Json(9)}}});
  run_farm(other_variants, other.path.string(), {}, shard1, no_timing());
  TempDir conflict;
  EXPECT_THROW(
      merge_results(conflict.path.string(), {s1.path.string(), other.path.string()}, no_timing()),
      std::runtime_error);
}

TEST_F(FarmTest, AppendModeIsRejected) {
  WriteOptions wo;
  wo.append = true;
  TempDir dir;
  EXPECT_THROW(run_farm(tiny_variants(), dir.path.string(), {}, {}, wo), std::invalid_argument);
  EXPECT_THROW(merge_results(dir.path.string(), {}, wo), std::invalid_argument);
}

TEST_F(FarmTest, FarmCountersAccumulateInTheGlobalRegistry) {
  const auto variants = tiny_variants();
  TempDir dir;
  util::fault::arm("variant_run:0:throw_once");
  FarmOptions fo;
  fo.retries = 1;
  fo.backoff_base = 0.01;
  run_farm(variants, dir.path.string(), {}, fo, no_timing());
  const obs::MetricsSnapshot snap = obs::global_registry().snapshot();
  std::uint64_t retries = 0;
  for (const auto& [name, value] : snap.counters)
    if (name == "farm.retries") retries = value;
  EXPECT_GE(retries, 1u);
}

}  // namespace
}  // namespace airfedga::scenario

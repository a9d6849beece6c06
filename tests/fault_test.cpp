// Tests for the deterministic fault-injection registry: spec parsing,
// counted vs detail points, throw/throw_once actions, environment arming,
// and the kill action's crash-simulating exit (a gtest death test).

#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace airfedga::util::fault {
namespace {

/// Every test leaves the process-global registry clean; a leaked armed
/// spec would fire in an unrelated later test.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The kill test's child must not inherit a forked copy of whatever
    // threads the process owns: re-execute the binary instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    disarm_all();
  }
  void TearDown() override { disarm_all(); }
};

TEST_F(FaultTest, NothingFiresWhenUnarmed) {
  EXPECT_FALSE(any_armed());
  hit("anything");
  hit("anything", "detail");
}

TEST_F(FaultTest, CountedPointFiresOnTheArmedOrdinal) {
  arm("after_variant:3:throw");
  EXPECT_TRUE(any_armed());
  hit("after_variant");
  hit("after_variant");
  EXPECT_THROW(hit("after_variant"), InjectedFault);
  hit("after_variant");  // past the ordinal: silent again
}

TEST_F(FaultTest, OmittedArgMeansFirstHit) {
  arm("before_variant:throw");  // "throw" parses as the action, arg absent
  EXPECT_THROW(hit("before_variant"), InjectedFault);
}

TEST_F(FaultTest, DetailPointMatchesItsStringOnly) {
  arm("mid_write:results:throw");
  hit("mid_write", "manifest");
  hit("mid_write", "stash");
  EXPECT_THROW(hit("mid_write", "results"), InjectedFault);
  // A plain `throw` (not throw_once) fires on every match.
  EXPECT_THROW(hit("mid_write", "results"), InjectedFault);
}

TEST_F(FaultTest, NumericArgAlsoMatchesNumericDetails) {
  // variant_run's details are variant indices; "variant_run:2" must select
  // variant 2, not "the second hit of some counted point".
  arm("variant_run:2:throw");
  hit("variant_run", "0");
  hit("variant_run", "1");
  EXPECT_THROW(hit("variant_run", "2"), InjectedFault);
}

TEST_F(FaultTest, ThrowOnceDisarmsAfterFiring) {
  arm("variant_run:1:throw_once");
  EXPECT_THROW(hit("variant_run", "1"), InjectedFault);
  hit("variant_run", "1");  // spent: the retry succeeds
}

TEST_F(FaultTest, DisarmAllClearsEverything) {
  arm("p:1:throw");
  disarm_all();
  EXPECT_FALSE(any_armed());
  hit("p");
}

TEST_F(FaultTest, RejectsMalformedSpecs) {
  EXPECT_THROW(arm(""), std::invalid_argument);
  EXPECT_THROW(arm(":1"), std::invalid_argument);
  EXPECT_THROW(arm("p:1:explode"), std::invalid_argument);
}

TEST_F(FaultTest, ArmsCommaSeparatedSpecsFromTheEnvironment) {
  ASSERT_EQ(::setenv("AIRFEDGA_FAULT_TEST_VAR", "a:1:throw,b:foo:throw", 1), 0);
  arm_from_env("AIRFEDGA_FAULT_TEST_VAR");
  EXPECT_THROW(hit("a"), InjectedFault);
  EXPECT_THROW(hit("b", "foo"), InjectedFault);
  ::unsetenv("AIRFEDGA_FAULT_TEST_VAR");
}

TEST_F(FaultTest, ArmFromEnvIsANoOpWhenUnset) {
  ::unsetenv("AIRFEDGA_FAULT_TEST_VAR");
  arm_from_env("AIRFEDGA_FAULT_TEST_VAR");
  EXPECT_FALSE(any_armed());
}

TEST_F(FaultTest, KillActionExitsWithTheDistinctiveCode) {
  // The kill action must terminate immediately (no unwinding, no flushes),
  // simulating a crash; gtest runs the statement in a forked child.
  EXPECT_EXIT(
      {
        arm("boom");  // default action: kill
        hit("boom");
      },
      ::testing::ExitedWithCode(kKillExitCode), "");
}

}  // namespace
}  // namespace airfedga::util::fault

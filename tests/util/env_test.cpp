#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace psc::util {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("PSC_TEST_VAR");
  }

  void set(const char* value) {
    ::setenv("PSC_TEST_VAR", value, 1);
  }
};

TEST_F(EnvTest, FlagUnsetUsesFallback) {
  EXPECT_FALSE(env_flag("PSC_TEST_VAR", false));
  EXPECT_TRUE(env_flag("PSC_TEST_VAR", true));
}

TEST_F(EnvTest, FlagTruthyValues) {
  for (const char* v : {"1", "true", "TRUE", "yes", "on", "On"}) {
    set(v);
    EXPECT_TRUE(env_flag("PSC_TEST_VAR", false)) << v;
  }
}

TEST_F(EnvTest, FlagFalsyValues) {
  for (const char* v : {"0", "false", "no", "off", "garbage"}) {
    set(v);
    EXPECT_FALSE(env_flag("PSC_TEST_VAR", true)) << v;
  }
}

TEST_F(EnvTest, FlagEmptyUsesFallback) {
  set("");
  EXPECT_TRUE(env_flag("PSC_TEST_VAR", true));
}

TEST_F(EnvTest, SizeParsesDigits) {
  set("1000000");
  EXPECT_EQ(env_size("PSC_TEST_VAR", 5), 1000000u);
}

TEST_F(EnvTest, SizeRejectsGarbage) {
  set("12x");
  EXPECT_EQ(env_size("PSC_TEST_VAR", 5), 5u);
  set("abc");
  EXPECT_EQ(env_size("PSC_TEST_VAR", 5), 5u);
}

TEST_F(EnvTest, SizeUnsetUsesFallback) {
  EXPECT_EQ(env_size("PSC_TEST_VAR", 42), 42u);
}

}  // namespace
}  // namespace psc::util

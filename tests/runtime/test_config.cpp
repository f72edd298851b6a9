// apl::config: the one typed reader for OPAL_* knobs — registry coverage,
// flag/string/int semantics, and the strictness guarantees (unknown keys
// are programming errors, malformed integers throw naming the key).
#include "apl/config.hpp"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "apl/error.hpp"
#include "apl/exec.hpp"

namespace {

/// Sets an environment variable for one test and restores the previous
/// value on exit, keeping tests order-independent.
struct EnvVar {
  EnvVar(const char* key, const char* value) : key_(key) {
    const char* old = std::getenv(key);
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      ::setenv(key, value, 1);
    } else {
      ::unsetenv(key);
    }
  }
  ~EnvVar() {
    if (saved_) {
      ::setenv(key_, saved_->c_str(), 1);
    } else {
      ::unsetenv(key_);
    }
  }
  const char* key_;
  std::optional<std::string> saved_;
};

TEST(Config, RegistryCoversEveryKnob) {
  const auto keys = apl::config::known_keys();
  auto has = [&](const char* name) {
    for (const auto& k : keys) {
      if (std::string_view(k.name) == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("APL_BACKEND"));
  EXPECT_TRUE(has("APL_TESTKIT_SEED"));
  EXPECT_TRUE(has("OPAL_CHECK_FINITE"));
  EXPECT_TRUE(has("OPAL_FAULTS"));
  EXPECT_TRUE(has("OPAL_NUM_THREADS"));
  EXPECT_TRUE(has("OPAL_PLAN_CACHE"));
  EXPECT_TRUE(has("OPAL_TRACE"));
  EXPECT_TRUE(has("OPAL_VERIFY"));
  // The simulation-service knobs ride the same typed registry.
  EXPECT_TRUE(has("OPAL_SERVE_DEADLINE"));
  EXPECT_TRUE(has("OPAL_SERVE_QUEUE"));
  EXPECT_TRUE(has("OPAL_SERVE_RETRIES"));
  EXPECT_TRUE(has("OPAL_SERVE_WATCHDOG"));
  EXPECT_TRUE(has("OPAL_SERVE_WORKERS"));
  for (const auto& k : keys) {
    EXPECT_FALSE(std::string_view(k.summary).empty())
        << k.name << " has no summary";
  }
}

TEST(Config, StringValueDistinguishesUnsetFromEmpty) {
  {
    EnvVar unset("OPAL_TRACE", nullptr);
    EXPECT_FALSE(apl::config::string_value("OPAL_TRACE").has_value());
  }
  {
    EnvVar empty("OPAL_TRACE", "");
    const auto v = apl::config::string_value("OPAL_TRACE");
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(v->empty());
  }
  {
    EnvVar set("OPAL_TRACE", "chrome:/tmp/t.json");
    EXPECT_EQ(apl::config::string_value("OPAL_TRACE"), "chrome:/tmp/t.json");
  }
}

TEST(Config, FlagSemantics) {
  // A flag is "set, non-empty, and not '0'".
  {
    EnvVar unset("OPAL_CHECK_FINITE", nullptr);
    EXPECT_FALSE(apl::config::flag("OPAL_CHECK_FINITE"));
  }
  {
    EnvVar empty("OPAL_CHECK_FINITE", "");
    EXPECT_FALSE(apl::config::flag("OPAL_CHECK_FINITE"));
  }
  {
    EnvVar zero("OPAL_CHECK_FINITE", "0");
    EXPECT_FALSE(apl::config::flag("OPAL_CHECK_FINITE"));
  }
  {
    EnvVar one("OPAL_CHECK_FINITE", "1");
    EXPECT_TRUE(apl::config::flag("OPAL_CHECK_FINITE"));
  }
}

TEST(Config, IntValueParsesDecimalAndHex) {
  {
    EnvVar dec("APL_TESTKIT_SEED", "42");
    EXPECT_EQ(apl::config::int_value("APL_TESTKIT_SEED"), 42);
  }
  {
    EnvVar hex("APL_TESTKIT_SEED", "0x2a");
    EXPECT_EQ(apl::config::int_value("APL_TESTKIT_SEED"), 42);
  }
  {
    EnvVar unset("APL_TESTKIT_SEED", nullptr);
    EXPECT_FALSE(apl::config::int_value("APL_TESTKIT_SEED").has_value());
  }
}

TEST(Config, MalformedIntThrowsNamingTheKey) {
  EnvVar bad("APL_TESTKIT_SEED", "12x3");
  try {
    (void)apl::config::int_value("APL_TESTKIT_SEED");
    FAIL() << "malformed integer accepted";
  } catch (const apl::Error& e) {
    EXPECT_NE(std::string(e.what()).find("APL_TESTKIT_SEED"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("12x3"), std::string::npos);
  }
}

TEST(Config, UnregisteredKeyIsAProgrammingError) {
  // Readers must go through the registry; a typo'd key throws instead of
  // silently reading nothing.
  EXPECT_THROW((void)apl::config::string_value("OPAL_NO_SUCH_KNOB"),
               apl::Error);
}

TEST(Config, BackendFromEnvRejectsUnknownNames) {
  using apl::exec::Backend;
  for (const char* bad : {"simd", "bogus"}) {
    EnvVar set("APL_BACKEND", bad);
    try {
      (void)apl::exec::backend_from_env();
      FAIL() << "APL_BACKEND=" << bad << " accepted";
    } catch (const apl::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(bad), std::string::npos) << what;
      EXPECT_NE(what.find("seq|threads|cudasim"), std::string::npos) << what;
    }
  }
  {
    EnvVar set("APL_BACKEND", "threads");
    EXPECT_EQ(apl::exec::backend_from_env(), Backend::kThreads);
  }
  {
    EnvVar unset("APL_BACKEND", nullptr);
    EXPECT_EQ(apl::exec::backend_from_env(Backend::kCudaSim),
              Backend::kCudaSim);
  }
  {
    EnvVar empty("APL_BACKEND", "");
    EXPECT_EQ(apl::exec::backend_from_env(Backend::kCudaSim),
              Backend::kCudaSim);
  }
}

}  // namespace

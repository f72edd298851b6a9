#include "apl/profile.hpp"

#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

TEST(Profile, AccumulatesCallsAndTime) {
  apl::Profile prof;
  {
    apl::ScopedLoopTimer t(prof, "res_calc");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    apl::ScopedLoopTimer t(prof, "res_calc");
  }
  const auto& s = prof.stats("res_calc");
  EXPECT_EQ(s.calls, 2u);
  EXPECT_GT(s.seconds, 0.004);
}

TEST(Profile, BandwidthComputation) {
  apl::LoopStats s;
  s.bytes_direct = 1'500'000'000ull;
  s.bytes_gather = 300'000'000ull;
  s.bytes_scatter = 200'000'000ull;
  s.seconds = 1.0;
  EXPECT_DOUBLE_EQ(s.gb_per_s(), 2.0);
  apl::LoopStats zero;
  EXPECT_DOUBLE_EQ(zero.gb_per_s(), 0.0);
}

TEST(Profile, ReportListsLoops) {
  apl::Profile prof;
  prof.stats("update").bytes_direct = 1024;
  prof.stats("adt_calc").calls = 3;
  const std::string rep = prof.report();
  EXPECT_NE(rep.find("update"), std::string::npos);
  EXPECT_NE(rep.find("adt_calc"), std::string::npos);
}

TEST(Profile, ClearEmpties) {
  apl::Profile prof;
  prof.stats("x").calls = 1;
  prof.clear();
  EXPECT_TRUE(prof.all().empty());
}

// ---- report() hardening -----------------------------------------------------

TEST(Profile, EmptyReportIsSafe) {
  const apl::Profile prof;
  EXPECT_EQ(prof.report(), "(no loops recorded)\n");
}

TEST(Profile, ZeroCallAndZeroTimeRowsRender) {
  apl::Profile prof;
  prof.stats("declared_never_ran");        // all-zero row
  prof.stats("ran_but_instant").calls = 4; // seconds == 0
  prof.stats("bytes_no_time").bytes_direct = 1 << 20;
  const std::string rep = prof.report();
  EXPECT_NE(rep.find("declared_never_ran"), std::string::npos);
  EXPECT_NE(rep.find("ran_but_instant"), std::string::npos);
  // No div-by-zero artifacts may leak into the table.
  EXPECT_EQ(rep.find("nan"), std::string::npos);
  EXPECT_EQ(rep.find("inf"), std::string::npos);
}

TEST(Profile, LongNamesKeepColumnsAligned) {
  apl::Profile prof;
  prof.stats("a").calls = 1;
  prof.stats("a_very_long_loop_name_that_overflows_fixed_columns").calls = 1;
  const std::string rep = prof.report();
  // The name column widens to the longest name, so the calls column (right-
  // aligned) ends at the same offset in the header and in every data row.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  for (std::size_t nl; (nl = rep.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    lines.push_back(rep.substr(pos, nl - pos));
  }
  ASSERT_GE(lines.size(), 3u);
  const std::size_t calls_at = lines[0].find("calls");
  ASSERT_NE(calls_at, std::string::npos);
  const std::size_t calls_end = calls_at + 5;
  for (std::size_t i = 1; i < 3; ++i) {
    ASSERT_GT(lines[i].size(), calls_end);
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(
        lines[i][calls_end - 1])))
        << "row " << i << " lost its calls column:\n" << rep;
  }
}

TEST(Profile, ClearDuringOpenTimerIsSafe) {
  apl::Profile prof;
  {
    // The timer re-resolves the entry when it closes, so a
    // clear() below the open timer must not write into a freed LoopStats.
    apl::ScopedLoopTimer t(prof, "loop_that_clears");
    prof.clear();
  }
  ASSERT_EQ(prof.all().size(), 1u);
  EXPECT_EQ(prof.stats("loop_that_clears").calls, 1u);
  EXPECT_GE(prof.stats("loop_that_clears").seconds, 0.0);
}

// ---- timebase rule ----------------------------------------------------------

TEST(Profile, ModelSecondsWinTheTimebase) {
  // cudasim accumulates model_seconds; the host wall time of simulating the
  // device is meaningless for bandwidth, so gb_per_s() must use the model
  // time whenever one contributed — and wall time otherwise.
  apl::LoopStats s;
  s.bytes_direct = 4'000'000'000ull;
  s.seconds = 100.0;      // slow host simulation
  s.model_seconds = 2.0;  // what the modelled device would take
  EXPECT_DOUBLE_EQ(s.effective_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(s.gb_per_s(), 2.0);
  s.model_seconds = 0.0;
  EXPECT_DOUBLE_EQ(s.effective_seconds(), 100.0);
  EXPECT_DOUBLE_EQ(s.gb_per_s(), 0.04);
}

TEST(Profile, ReportFlagsModelTimedRows) {
  apl::Profile prof;
  auto& dev = prof.stats("on_device");
  dev.calls = 1;
  dev.seconds = 50.0;
  dev.model_seconds = 0.25;
  auto& host = prof.stats("on_host");
  host.calls = 1;
  host.seconds = 0.5;
  const std::string rep = prof.report();
  EXPECT_NE(rep.find("0.2500*"), std::string::npos)
      << "device-model rows must be flagged:\n" << rep;
  EXPECT_NE(rep.find("device-model"), std::string::npos) << rep;
}

}  // namespace

// Unit tests for the common utilities: units, RNG, the UNIMEM_LOG level
// parser, and the command-line layer (strict value parsers, option table,
// mutation fuzz over real argv).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/units.h"

namespace unimem {
namespace {

TEST(Units, AlignUp) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
  EXPECT_EQ(align_up(1000, 8), 1000u);
}

TEST(Units, LinesOf) {
  EXPECT_EQ(lines_of(0), 0u);
  EXPECT_EQ(lines_of(1), 1u);
  EXPECT_EQ(lines_of(64), 1u);
  EXPECT_EQ(lines_of(65), 2u);
  EXPECT_EQ(lines_of(kMiB), kMiB / 64);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(mbps(1000), 1e9);
  EXPECT_DOUBLE_EQ(gbps(12.8), 12.8e9);
  EXPECT_DOUBLE_EQ(ns(80), 80e-9);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, BelowBound) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

// ---- common/log.h: UNIMEM_LOG levels ---------------------------------------

TEST(LogLevel, ParsesNamesAndStrictLegacyNumbers) {
  LogLevel l = LogLevel::kError;
  ASSERT_TRUE(Log::parse_level("debug", &l));
  EXPECT_EQ(l, LogLevel::kDebug);
  ASSERT_TRUE(Log::parse_level("off", &l));
  EXPECT_EQ(l, LogLevel::kOff);
  ASSERT_TRUE(Log::parse_level("0", &l));
  EXPECT_EQ(l, LogLevel::kOff);
  ASSERT_TRUE(Log::parse_level("1", &l));
  EXPECT_EQ(l, LogLevel::kInfo);
  ASSERT_TRUE(Log::parse_level("2", &l));
  EXPECT_EQ(l, LogLevel::kDebug);
  ASSERT_TRUE(Log::parse_level("99999999999", &l));  // >= 2: debug
  EXPECT_EQ(l, LogLevel::kDebug);

  // Anything else is refused (from_env then keeps `warn`); atoi used to
  // read "warning" and "" as 0 = off and "1x" as info.
  l = LogLevel::kError;
  for (const char* bad : {"warning", "", "1x", "-1", "DEBUG", " 2",
                          "99999999999999999999"})
    EXPECT_FALSE(Log::parse_level(bad, &l)) << '"' << bad << '"';
  EXPECT_EQ(l, LogLevel::kError) << "a refused value must not be stored";
}

// ---- common/cli.h: strict value parsers -----------------------------------

TEST(CliParse, SignedBoundaries) {
  long long v = 7;
  EXPECT_FALSE(cli::parse_i64(nullptr, 0, 10, &v));
  EXPECT_FALSE(cli::parse_i64("", 0, 10, &v));
  EXPECT_FALSE(cli::parse_i64("4x", 0, 10, &v));   // trailing garbage
  EXPECT_FALSE(cli::parse_i64(" 4", 0, 10, &v));   // leading space
  EXPECT_FALSE(cli::parse_i64("+4", 0, 10, &v));   // explicit plus
  EXPECT_FALSE(cli::parse_i64("4 ", 0, 10, &v));
  EXPECT_FALSE(cli::parse_i64("-", 0, 10, &v));
  EXPECT_FALSE(cli::parse_i64("9223372036854775808", 0, INT64_MAX, &v));
  EXPECT_FALSE(cli::parse_i64("-9223372036854775809", INT64_MIN, 0, &v));
  EXPECT_FALSE(cli::parse_i64("-1", 0, 10, &v));   // below lo
  EXPECT_FALSE(cli::parse_i64("11", 0, 10, &v));   // above hi
  EXPECT_EQ(v, 7) << "a rejected value must not be stored";
  ASSERT_TRUE(cli::parse_i64("0", 0, 10, &v));     // exactly lo
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(cli::parse_i64("10", 0, 10, &v));    // exactly hi
  EXPECT_EQ(v, 10);
  ASSERT_TRUE(cli::parse_i64("-3", -5, 5, &v));
  EXPECT_EQ(v, -3);
  ASSERT_TRUE(cli::parse_i64("9223372036854775807", 0, INT64_MAX, &v));
  EXPECT_EQ(v, INT64_MAX);
}

TEST(CliParse, UnsignedBoundaries) {
  unsigned long long v = 7;
  EXPECT_FALSE(cli::parse_u64("", 0, 10, &v));
  EXPECT_FALSE(cli::parse_u64("-1", 0, UINT64_MAX, &v));  // would wrap
  EXPECT_FALSE(cli::parse_u64("-0", 0, UINT64_MAX, &v));
  EXPECT_FALSE(cli::parse_u64(" 1", 0, 10, &v));
  EXPECT_FALSE(cli::parse_u64("+1", 0, 10, &v));
  EXPECT_FALSE(cli::parse_u64("1,", 0, 10, &v));
  EXPECT_FALSE(cli::parse_u64("18446744073709551616", 0, UINT64_MAX, &v));
  EXPECT_FALSE(cli::parse_u64("0", 1, 10, &v));
  EXPECT_FALSE(cli::parse_u64("11", 1, 10, &v));
  EXPECT_EQ(v, 7u);
  ASSERT_TRUE(cli::parse_u64("1", 1, 10, &v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(cli::parse_u64("10", 1, 10, &v));
  EXPECT_EQ(v, 10u);
  ASSERT_TRUE(cli::parse_u64("18446744073709551615", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(CliParse, DoubleBoundaries) {
  double v = 7;
  EXPECT_FALSE(cli::parse_f64("", 0, 1, &v));
  EXPECT_FALSE(cli::parse_f64("0.5x", 0, 1, &v));
  EXPECT_FALSE(cli::parse_f64(" 0.5", 0, 1, &v));
  EXPECT_FALSE(cli::parse_f64("+0.5", 0, 1, &v));
  EXPECT_FALSE(cli::parse_f64("nan", 0, 1, &v));
  EXPECT_FALSE(cli::parse_f64("-nan", -1, 1, &v));
  EXPECT_FALSE(cli::parse_f64("inf", 0, 1e308, &v));
  EXPECT_FALSE(cli::parse_f64("-inf", -1e308, 0, &v));
  EXPECT_FALSE(cli::parse_f64("-inf", -HUGE_VAL, HUGE_VAL, &v));
  EXPECT_FALSE(cli::parse_f64("1e999", 0, HUGE_VAL, &v));   // ERANGE
  EXPECT_FALSE(cli::parse_f64("1.0000001", 0, 1, &v));
  EXPECT_FALSE(cli::parse_f64("-0.1", 0, 1, &v));
  EXPECT_EQ(v, 7.0);
  ASSERT_TRUE(cli::parse_f64("0", 0, 1, &v));
  EXPECT_EQ(v, 0.0);
  ASSERT_TRUE(cli::parse_f64("1", 0, 1, &v));
  EXPECT_EQ(v, 1.0);
  ASSERT_TRUE(cli::parse_f64("1e-7", 0, 1, &v));
  EXPECT_EQ(v, 1e-7);
  ASSERT_TRUE(cli::parse_f64(".25", 0, 1, &v));
  EXPECT_EQ(v, 0.25);
}

// ---- common/cli.h: the option table -----------------------------------------

/// A table with every value kind: switch, text, int, u64, double, a
/// custom setter and positionals.
struct TestArgs {
  bool quiet = false, smoke = false;
  std::string spec, jsonl;
  int jobs = 0;
  unsigned long long trace_buf = 0;
  double backoff = -1;
  std::uint64_t period = 0;
  std::vector<std::string> files;
};

cli::Table test_table(TestArgs& a) {
  return cli::Table{
      "cli_test",
      "usage: cli_test [options] FILE...",
      {
          {"--spec", "NAME", "spec to run", cli::text(&a.spec), true},
          {"--jsonl", "PATH", "artifact", cli::text(&a.jsonl)},
          {"--quiet", "", "no table", cli::on(&a.quiet)},
          {"--smoke", "", "smoke scale", cli::on(&a.smoke), true},
          {"--jobs", "N", "concurrent jobs",
           cli::integer(&a.jobs, 0, 1 << 20, "an integer >= 0")},
          {"", "", "internal:", nullptr},
          {"--trace-buf", "N",
           "per-thread trace ring capacity in events, a long help line that "
           "must wrap before the 80th column of the terminal",
           cli::count(&a.trace_buf, 1, 1ull << 30, "events in [1, 2^30]")},
          {"--backoff-base", "S", "backoff seconds",
           cli::real(&a.backoff, 0.0, 3600.0, "seconds in [0, 3600]"), true},
          {"--profiler", "exact|N", "profiling tier",
           [&a](const char* v) -> std::string {
             unsigned long long p = 0;
             if (std::string(v) != "exact" &&
                 !cli::parse_u64(v, 1, UINT64_MAX, &p))
               return "wants 'exact' or a period N >= 1";
             a.period = p;
             return "";
           },
           true},
      },
      [&a](const char* f) {
        a.files.push_back(f);
        return std::string(f) != "reject-me";
      }};
}

cli::Result run(const cli::Table& t, std::vector<std::string> args) {
  args.insert(args.begin(), "cli_test");
  std::vector<const char*> argv;
  for (const std::string& s : args) argv.push_back(s.c_str());
  return cli::parse(t, static_cast<int>(argv.size()), argv.data());
}

TEST(CliTable, ParsesEveryKindAndForwardsRawTokens) {
  TestArgs a;
  cli::Table t = test_table(a);
  const cli::Result r =
      run(t, {"in.jsonl", "--spec", "fig13", "--jobs", "4", "--quiet",
              "--backoff-base", "1e-7", "--profiler", "16", "--trace-buf",
              "1024", "--smoke", "more.jsonl"});
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(a.spec, "fig13");
  EXPECT_EQ(a.jobs, 4);
  EXPECT_TRUE(a.quiet);
  EXPECT_TRUE(a.smoke);
  EXPECT_EQ(a.backoff, 1e-7);
  EXPECT_EQ(a.period, 16u);
  EXPECT_EQ(a.trace_buf, 1024u);
  EXPECT_EQ(a.files, (std::vector<std::string>{"in.jsonl", "more.jsonl"}));
  // Forwarded flags keep the user's spelling ("1e-7", not "0.000000").
  EXPECT_EQ(r.forwarded,
            (std::vector<std::string>{"--spec", "fig13", "--backoff-base",
                                      "1e-7", "--profiler", "16", "--smoke"}));
}

TEST(CliTable, ReportsErrorsWithoutExiting) {
  TestArgs a;
  cli::Table t = test_table(a);
  cli::Result r = run(t, {"--jobs", "4x"});
  EXPECT_EQ(r.error, "--jobs wants an integer >= 0 (got '4x')");
  r = run(t, {"--jobs"});
  EXPECT_EQ(r.error, "--jobs needs a value");
  r = run(t, {"--bogus"});
  EXPECT_EQ(r.error, "unknown option '--bogus'");
  r = run(t, {"-"});
  EXPECT_EQ(r.error, "unknown option '-'");
  r = run(t, {"reject-me"});
  EXPECT_EQ(r.error, "unknown option 'reject-me'");
  r = run(t, {"--profiler", "0"});
  EXPECT_EQ(r.error, "--profiler wants 'exact' or a period N >= 1 (got '0')");
  // A value that looks like a flag is still the value.
  r = run(t, {"--spec", "--quiet"});
  ASSERT_TRUE(r.error.empty());
  EXPECT_EQ(a.spec, "--quiet");
}

TEST(CliTable, HelpIsReportedAndUsageComesFromTheTable) {
  TestArgs a;
  cli::Table t = test_table(a);
  EXPECT_TRUE(run(t, {"--jobs", "2", "--help", "--bogus"}).help);
  EXPECT_TRUE(run(t, {"-h"}).help);
  EXPECT_FALSE(run(t, {"--jobs", "2"}).help);

  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  ASSERT_NE(out, nullptr);
  cli::usage(t, out);
  std::fclose(out);
  const std::string text(buf, len);
  std::free(buf);
  EXPECT_EQ(text.rfind("usage: cli_test [options] FILE...\n", 0), 0u);
  for (const cli::Option& o : t.options)
    EXPECT_NE(text.find(o.name.empty() ? o.help : "  " + o.name),
              std::string::npos)
        << o.name;
  EXPECT_NE(text.find("--profiler exact|N"), std::string::npos);
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    EXPECT_LE(nl - start, 79u) << text.substr(start, nl - start);
    start = nl + 1;
  }
}

// Seeded mutation fuzz over argv vectors taken from the ctest commands:
// bit flips, truncations, splices, dropped values and 1 MiB tokens.  Every
// mutant is accepted with in-range values or rejected with a non-empty
// message of bounded size — no crash or UB (the ASan/UBSan stage runs
// this), no unbounded allocation.
TEST(CliTable, MutatedArgvIsAcceptedOrRejectedCleanly) {
  const std::vector<std::vector<std::string>> corpus = {
      {"--spec", "fig13", "--jobs", "4", "--quiet"},
      {"--spec", "fig12", "--profiler", "16x", "--points"},
      {"--spec", "fig12", "--jobs", "1", "--quiet", "--jsonl", "j1.jsonl"},
      {"--spec", "fig12", "--retries", "3", "--inject-fail", "0.9:7",
       "--backoff-base", "0.001", "--quiet"},
      {"--spec", "fig13", "--profiler", "exact", "--trace-buf", "65536"},
      {"--merge", "s0.jsonl", "s1.jsonl", "--spec", "fig12", "--smoke"},
      {"--backoff-base", "1e-7", "--profiler", "18446744073709551616"},
  };
  const std::string huge[] = {std::string(1 << 20, '9'),
                              std::string(1 << 20, '-'),
                              "1" + std::string((1 << 20) - 1, '0'),
                              std::string(1 << 20, 'x')};
  Rng rng(20171118);
  std::size_t accepted = 0, rejected = 0;
  constexpr int kMutants = 4000;
  for (int m = 0; m < kMutants; ++m) {
    std::vector<std::string> args = corpus[rng.below(corpus.size())];
    const int rounds = 1 + static_cast<int>(rng.below(3));
    for (int k = 0; k < rounds && !args.empty(); ++k) {
      std::string& tok = args[rng.below(args.size())];
      switch (rng.below(6)) {
        case 0:  // bit flips inside one token
          for (int f = 1 + static_cast<int>(rng.below(4)); f > 0; --f)
            if (!tok.empty())
              tok[rng.below(tok.size())] ^=
                  static_cast<char>(1u << rng.below(8));
          break;
        case 1:  // truncate a token
          tok.resize(rng.below(tok.size() + 1));
          break;
        case 2:  // truncate argv (may leave a flag without its value)
          args.resize(rng.below(args.size() + 1));
          break;
        case 3: {  // splice a token from another corpus vector
          const auto& donor = corpus[rng.below(corpus.size())];
          const auto at = static_cast<long>(rng.below(args.size() + 1));
          args.insert(args.begin() + at, donor[rng.below(donor.size())]);
          break;
        }
        case 4:  // drop one element (a flag's value, or the flag)
          args.erase(args.begin() + static_cast<long>(rng.below(args.size())));
          break;
        default:  // a 1 MiB token (one mutation in 48 on average)
          if (rng.below(8) == 0) tok = huge[rng.below(std::size(huge))];
          break;
      }
    }
    std::size_t bytes = 0;
    for (const std::string& s : args) bytes += s.size();

    TestArgs a;
    const cli::Result r = run(test_table(a), args);
    if (!r.error.empty()) {
      ++rejected;
      EXPECT_FALSE(r.help) << "mutant " << m;
      EXPECT_LE(r.error.size(), 2 * bytes + 128) << "mutant " << m;
    } else if (!r.help) {
      ++accepted;
      EXPECT_GE(a.jobs, 0);
      EXPECT_LE(a.jobs, 1 << 20);
      EXPECT_TRUE(a.trace_buf == 0 ||
                  (a.trace_buf >= 1 && a.trace_buf <= (1ull << 30)));
      EXPECT_TRUE(a.backoff == -1 || (a.backoff >= 0 && a.backoff <= 3600));
      EXPECT_LE(r.forwarded.size(), args.size());
    }
  }
  // Both outcomes must be exercised, or the fuzz tests nothing.
  EXPECT_GT(accepted, kMutants / 20u);
  EXPECT_GT(rejected, kMutants / 20u);
}

}  // namespace
}  // namespace unimem

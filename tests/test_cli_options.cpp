// The CLI option table (core/cli_support.hpp): one parse loop for every
// tool, strict number values, generated usage text.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli_support.hpp"

namespace {

using namespace awe;

/// Parse `tokens` (argv without the program name) and return the error.
std::string parse(const cli::Parser& p, std::vector<const char*> tokens,
                  std::vector<std::string>* args = nullptr) {
  tokens.insert(tokens.begin(), "tool");
  std::vector<std::string> out;
  const std::string why =
      p.try_parse(static_cast<int>(tokens.size()), tokens.data(), out);
  if (args) *args = out;
  return why;
}

TEST(CliOptions, UnsignedRejectsMalformedTokens) {
  std::size_t n = 7;
  const cli::Parser p{.tool = "tool",
                      .synopsis = "[options]",
                      .options = {cli::number("--mc", "N", n, "points")}};
  for (const char* bad : {"8zz", "abc", "", "-1", " 5", "5 ", "+5", "1.5", "0x10",
                          "18446744073709551616"}) {
    EXPECT_EQ(parse(p, {"--mc", bad}),
              std::string("invalid value '") + bad + "' for --mc")
        << bad;
    EXPECT_EQ(n, 7u) << "a rejected value must not be stored: " << bad;
  }
  EXPECT_EQ(parse(p, {"--mc", "18446744073709551615"}), "");
  EXPECT_EQ(n, 18446744073709551615u);
}

TEST(CliOptions, PortAndWorkerBoundsAreEnforcedBeforeAnyCast) {
  // The old loops did static_cast<uint16_t>(strtoul("70000")) == 4464 and
  // strtoull("-1") == 2^64-1 worker threads.
  std::uint16_t port = 0;
  std::size_t workers = 2;
  const cli::Parser p{.tool = "tool",
                      .synopsis = "[options]",
                      .options = {cli::number("--port", "P", port, "port"),
                                  cli::number("--workers", "N", workers, "workers", 1)}};
  EXPECT_EQ(parse(p, {"--port", "70000"}), "invalid value '70000' for --port");
  EXPECT_EQ(port, 0u);
  EXPECT_EQ(parse(p, {"--port", "65536"}), "invalid value '65536' for --port");
  EXPECT_EQ(parse(p, {"--port", "65535"}), "");
  EXPECT_EQ(port, 65535u);
  EXPECT_EQ(parse(p, {"--workers", "-1"}), "invalid value '-1' for --workers");
  EXPECT_EQ(parse(p, {"--workers", "0"}), "invalid value '0' for --workers");
  EXPECT_EQ(workers, 2u);
  EXPECT_EQ(parse(p, {"--workers", "3"}), "");
  EXPECT_EQ(workers, 3u);
}

TEST(CliOptions, FloatingValuesAndTargets) {
  double sigma = 0.2;
  std::optional<double> target;
  std::optional<double> frac;
  std::chrono::milliseconds stall{2000};
  const cli::Parser p{
      .tool = "tool",
      .synopsis = "[options]",
      .options = {cli::number("--sigma", "S", sigma, "sigma"),
                  cli::number("--target", "V", target, "target"),
                  cli::number("--corners", "F", frac, "fraction",
                              std::nextafter(0.0, 1.0), std::nextafter(1.0, 0.0)),
                  cli::number("--stall-ms", "N", stall, "stall")}};
  for (const char* bad : {"nope", "1e400", "inf", "nan", "0.5x", ""})
    EXPECT_NE(parse(p, {"--sigma", bad}), "") << bad;
  EXPECT_EQ(sigma, 0.2);
  EXPECT_FALSE(target.has_value());
  EXPECT_EQ(parse(p, {"--sigma", "0.35", "--target", "-1.0e6"}), "");
  EXPECT_EQ(sigma, 0.35);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*target, -1.0e6);
  EXPECT_NE(parse(p, {"--corners", "0"}), "");
  EXPECT_NE(parse(p, {"--corners", "1"}), "");
  EXPECT_EQ(parse(p, {"--corners", "0.2"}), "");
  EXPECT_EQ(frac, 0.2);
  EXPECT_NE(parse(p, {"--stall-ms", "-5"}), "");
  EXPECT_EQ(parse(p, {"--stall-ms", "250"}), "");
  EXPECT_EQ(stall, std::chrono::milliseconds(250));
}

TEST(CliOptions, MissingValueUnknownOptionAndArgumentCount) {
  std::size_t n = 0;
  const cli::Parser p{.tool = "tool",
                      .synopsis = "[options]",
                      .options = {cli::number("--mc", "N", n, "points")},
                      .min_args = 1,
                      .max_args = 1};
  EXPECT_EQ(parse(p, {"deck.sp", "--mc"}), "--mc needs a value");
  EXPECT_EQ(parse(p, {"deck.sp", "--nope"}), "unknown option '--nope'");
  EXPECT_EQ(parse(p, {"deck.sp", "-x"}), "unknown option '-x'");
  EXPECT_EQ(parse(p, {"--mc", "4"}), "missing argument");
  EXPECT_EQ(parse(p, {"a.sp", "b.sp"}), "unexpected argument 'b.sp'");
  EXPECT_EQ(parse(p, {"deck.sp", "--mc", "4"}), "");
  EXPECT_EQ(n, 4u);
}

TEST(CliOptions, SwitchesAndPositionalsInOrder) {
  bool quiet = false;
  bool shrink = true;
  std::string dir;
  const cli::Parser p{.tool = "tool",
                      .synopsis = "[options]",
                      .options = {cli::flag("--quiet", quiet, "quiet"),
                                  cli::flag("--no-shrink", shrink, "no shrink", false),
                                  cli::text("--cache-dir", "DIR", dir, "cache")},
                      .max_args = 8};
  std::vector<std::string> args;
  EXPECT_EQ(parse(p, {"a", "--quiet", "b", "--cache-dir", "-", "-", "c", "--no-shrink"},
                  &args),
            "");
  EXPECT_TRUE(quiet);
  EXPECT_FALSE(shrink);
  EXPECT_EQ(dir, "-");
  EXPECT_EQ(args, (std::vector<std::string>{"a", "b", "-", "c"}));
}

TEST(CliOptions, CallbackRejectionsCarryTheirReason) {
  std::vector<std::string> specs;
  const cli::Parser p{
      .tool = "tool",
      .synopsis = "[options]",
      .options = {{"--edit", "NAME=VAL", "edit", [&](const std::string& v) {
                     if (v.find('=') == std::string::npos)
                       throw std::invalid_argument("expected NAME=VAL");
                     specs.push_back(v);
                     return v.size() > 2;
                   }}}};
  EXPECT_EQ(parse(p, {"--edit", "r1"}),
            "invalid value 'r1' for --edit: expected NAME=VAL");
  EXPECT_EQ(parse(p, {"--edit", "r="}), "invalid value 'r=' for --edit");
  EXPECT_EQ(parse(p, {"--edit", "r1=5", "--edit", "c1=2"}), "");
  EXPECT_EQ(specs, (std::vector<std::string>{"r=", "r1=5", "c1=2"}));
}

TEST(CliOptions, UsageListsEveryEntry) {
  bool quiet = false;
  std::size_t order = 2;
  std::string dir;
  const cli::Parser p{
      .tool = "tool",
      .synopsis = "[options] deck.sp",
      .options = {cli::number("--order", "Q", order, "Padé order (default 2)", 1),
                  cli::text("--cache-dir", "DIR", dir, "persistent model cache"),
                  cli::HealthJsonSink::option(),
                  cli::flag("--quiet", quiet, "suppress the narrative lines")}};
  const std::string usage = p.usage();
  EXPECT_EQ(usage.rfind("usage: tool [options] deck.sp\n", 0), 0u) << usage;
  for (const cli::Option& o : p.options) {
    const std::string head = o.meta.empty() ? o.name : o.name + " " + o.meta;
    const auto at = usage.find("\n  " + head + " ");
    ASSERT_NE(at, std::string::npos) << o.name;
    const auto eol = usage.find('\n', at + 1);
    EXPECT_NE(usage.substr(at, eol - at).find(o.help), std::string::npos) << o.name;
  }
}

TEST(CliOptionsDeathTest, UsageErrorExitsTwoWithReasonAndUsage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::size_t n = 0;
  const cli::Parser p{.tool = "tool",
                      .synopsis = "[options]",
                      .options = {cli::number("--mc", "N", n, "points")}};
  char arg0[] = "tool", arg1[] = "--mc", arg2[] = "abc";
  char* argv[] = {arg0, arg1, arg2};
  EXPECT_EXIT(p.parse(3, argv), ::testing::ExitedWithCode(2),
              "tool: invalid value 'abc' for --mc\nusage: tool \\[options\\]");
}

}  // namespace

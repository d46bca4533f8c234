#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/types.hpp"

namespace dyna {
namespace {

using namespace std::chrono_literals;

TEST(Types, MillisecondConversionRoundTrips) {
  EXPECT_DOUBLE_EQ(to_ms(Duration(1500ms)), 1500.0);
  EXPECT_EQ(from_ms(1500.0), Duration(1500ms));
  EXPECT_DOUBLE_EQ(to_ms(from_ms(0.125)), 0.125);
}

TEST(Types, SecondsConversion) {
  EXPECT_DOUBLE_EQ(to_sec(Duration(2500ms)), 2.5);
  const TimePoint t = kSimEpoch + 3s;
  EXPECT_DOUBLE_EQ(to_sec(t), 3.0);
  EXPECT_DOUBLE_EQ(to_ms(t), 3000.0);
}

TEST(Types, NeverIsAfterEverything) {
  EXPECT_GT(kNever, kSimEpoch + std::chrono::hours(24 * 365));
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--kills=100", "--name=test", "--verbose", "--rate=2.5"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_or("kills", std::int64_t{0}), 100);
  EXPECT_EQ(cli.get_or("name", std::string("x")), "test");
  EXPECT_TRUE(cli.flag("verbose"));
  EXPECT_FALSE(cli.flag("quiet"));
  EXPECT_DOUBLE_EQ(cli.get_or("rate", 0.0), 2.5);
}

TEST(Cli, MissingKeysUseDefaults) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_or("kills", std::int64_t{7}), 7);
  EXPECT_EQ(cli.get_or("name", std::string("dflt")), "dflt");
  EXPECT_FALSE(cli.get("anything").has_value());
}

TEST(Cli, IgnoresNonDashArguments) {
  const char* argv[] = {"prog", "positional", "--a=1"};
  Cli cli(3, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_or("a", std::int64_t{0}), 1);
  EXPECT_FALSE(cli.get("positional").has_value());
}

TEST(Cli, NamesEachFlagThatWasNeverRead) {
  const char* argv[] = {"prog", "--sed=7", "--seconds=3", "--quiet", "--sizes=5,17",
                        "--rate=2.5", "--name=x", "--raw=y", "--verbose=0"};
  ::testing::internal::CaptureStderr();
  {
    Cli cli(9, const_cast<char**>(argv));
    EXPECT_EQ(cli.get_or("seed", std::int64_t{42}), 42);  // the misspelt --sed is not it
    EXPECT_EQ(cli.get_or("seconds", std::int64_t{0}), 3);
    EXPECT_EQ(cli.get_sizes("sizes", {}), (std::vector<std::size_t>{5, 17}));
    EXPECT_DOUBLE_EQ(cli.get_or("rate", 0.0), 2.5);
    EXPECT_EQ(cli.get_or("name", std::string()), "x");
    EXPECT_EQ(cli.get("raw"), "y");
    EXPECT_FALSE(cli.flag("verbose"));
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");  // nothing until it goes
    ::testing::internal::CaptureStderr();
  }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "warning: --quiet was given but never read\n"
            "warning: --sed was given but never read\n");
}

TEST(Cli, ScaledKeepsMinimumOfOne) {
  const char* argv[] = {"prog"};
  Cli cli(1, const_cast<char**>(argv));
  EXPECT_GE(cli.scaled(1), 1);
  EXPECT_EQ(cli.scaled(100), static_cast<std::int64_t>(100 * cli.bench_scale()));
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/dyna_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({CsvWriter::cell(1.5), CsvWriter::cell("x")});
    csv.row({CsvWriter::cell(2.0), CsvWriter::cell("y")});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,x");
  std::getline(in, line);
  EXPECT_EQ(line, "2,y");
  std::remove(path.c_str());
}

TEST(Csv, QuotesSpecialCharacters) {
  const std::string path = ::testing::TempDir() + "/dyna_csv_quote.csv";
  {
    CsvWriter csv(path, {"v"});
    csv.row({CsvWriter::cell("has,comma")});
    csv.row({CsvWriter::cell("has\"quote")});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has\"\"quote\"");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dyna

// Tests for the CLI option parser, the table printer, the clock helpers,
// and the dynamic rank bitset.
#include <gtest/gtest.h>

#include <thread>

#include "util/bitset.h"
#include "util/clock.h"
#include "util/options.h"
#include "util/table.h"

namespace windar::util {
namespace {

Options make(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, DefaultsWhenAbsent) {
  auto o = make({});
  EXPECT_EQ(o.str("name", "dflt"), "dflt");
  EXPECT_EQ(o.integer("k", 7), 7);
  EXPECT_DOUBLE_EQ(o.real("x", 1.5), 1.5);
  EXPECT_FALSE(o.flag("f", false));
  o.finish();
}

TEST(Options, EqualsSyntax) {
  auto o = make({"--name=abc", "--k=42", "--x=2.5", "--f=true"});
  EXPECT_EQ(o.str("name", ""), "abc");
  EXPECT_EQ(o.integer("k", 0), 42);
  EXPECT_DOUBLE_EQ(o.real("x", 0), 2.5);
  EXPECT_TRUE(o.flag("f", false));
  o.finish();
}

TEST(Options, SpaceSyntaxAndBareFlag) {
  auto o = make({"--k", "13", "--verbose"});
  EXPECT_EQ(o.integer("k", 0), 13);
  EXPECT_TRUE(o.flag("verbose", false));
  o.finish();
}

TEST(Options, IntList) {
  auto o = make({"--ranks=4,8,16"});
  EXPECT_EQ(o.int_list("ranks", {1}), (std::vector<int>{4, 8, 16}));
  o.finish();
}

TEST(Options, IntListDefault) {
  auto o = make({});
  EXPECT_EQ(o.int_list("ranks", {2, 3}), (std::vector<int>{2, 3}));
  o.finish();
}

TEST(OptionsDeath, UnknownOptionExits) {
  EXPECT_EXIT(
      {
        auto o = make({"--bogus=1"});
        (void)o.integer("k", 0);
        o.finish();
      },
      ::testing::ExitedWithCode(2), "unknown option");
}

TEST(Options, NumbersParseWhole) {
  auto o = make({"--k=-3", "--x=1e-3", "--seconds=29.5", "--f=no"});
  EXPECT_EQ(o.integer("k", 0), -3);
  EXPECT_DOUBLE_EQ(o.real("x", 0), 1e-3);
  EXPECT_DOUBLE_EQ(o.real("seconds", 0), 29.5);
  EXPECT_FALSE(o.flag("f", true));
  o.finish();
}

TEST(OptionsDeath, MalformedValueAbortsNamingTheFlag) {
  // A malformed number must fail, never become 0 or a truncated prefix.
  const struct {
    const char* arg;
    const char* message;
  } cases[] = {
      {"--rounds=abc", "malformed --rounds='abc'"},
      {"--rounds=4x", "malformed --rounds='4x'"},
      {"--rounds=", "malformed --rounds=''"},
      {"--seconds=fast", "malformed --seconds='fast'"},
      {"--ranks=4,x,8", "malformed --ranks='x'"},
      {"--ranks=4,,8", "malformed --ranks=''"},
      {"--csv=maybe", "malformed --csv='maybe'"},
  };
  for (const auto& c : cases) {
    EXPECT_DEATH(
        {
          auto o = make({c.arg});
          (void)o.integer("rounds", 1);
          (void)o.real("seconds", 1);
          (void)o.int_list("ranks", {1});
          (void)o.flag("csv", false);
        },
        c.message)
        << c.arg;
  }
}

TEST(Table, PrintsAlignedAndCsv) {
  Table t({"a", "long header", "c"});
  t.row({"1", "2", "3"}).row({"wide cell", "x", "y"});
  const std::string csv = t.csv();
  EXPECT_EQ(csv, "a,long header,c\n1,2,3\nwide cell,x,y\n");
  t.print("title");  // must not crash
}

TEST(TableDeath, RowWidthMismatchAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.row({"only one"}), "width");
}

TEST(Clock, StopwatchAccumulates) {
  Stopwatch sw;
  sw.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sw.stop();
  sw.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sw.stop();
  EXPECT_GE(sw.total_ns(), 3'500'000);
  EXPECT_EQ(sw.laps(), 2u);
  sw.reset();
  EXPECT_EQ(sw.total_ns(), 0);
}

TEST(Clock, ScopedLapStops) {
  Stopwatch sw;
  {
    ScopedLap lap(sw);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(sw.total_ns(), 500'000);
  EXPECT_EQ(sw.laps(), 1u);
}

TEST(Clock, MonotonicNow) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_LE(a, b);
}

TEST(RankBitset, SetTestAcrossWordBoundary) {
  RankBitset b;
  EXPECT_TRUE(b.empty());
  for (int r : {0, 63, 64, 127, 128, 1000}) {
    EXPECT_FALSE(b.test(r));
    b.set(r);
    EXPECT_TRUE(b.test(r));
  }
  EXPECT_FALSE(b.empty());
  EXPECT_FALSE(b.test(65));
  EXPECT_FALSE(b.test(999));
  EXPECT_FALSE(b.test(1001));
}

TEST(RankBitset, MergeIsSetUnionWithMixedWidths) {
  RankBitset small = RankBitset::of(3, 40);     // inline word only
  const RankBitset wide = RankBitset::of(64, 200);
  small.merge(wide);
  for (int r : {3, 40, 64, 200}) EXPECT_TRUE(small.test(r));
  // Merging a narrow set into a wide one must not shrink the spill.
  RankBitset wide2 = RankBitset::of(200);
  wide2.merge(RankBitset::of(1));
  EXPECT_TRUE(wide2.test(200));
  EXPECT_TRUE(wide2.test(1));
}

TEST(RankBitset, SaveLoadRoundTrips) {
  RankBitset b = RankBitset::of(5, 70);
  b.set(500);
  ByteWriter w;
  b.save(w);
  ByteReader r(w.view());
  const RankBitset back = RankBitset::load(r);
  for (int k : {5, 70, 500}) EXPECT_TRUE(back.test(k));
  EXPECT_FALSE(back.test(6));
  EXPECT_FALSE(back.test(64));
}

}  // namespace
}  // namespace windar::util

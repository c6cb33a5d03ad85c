// Tests for StringPool, TextTable, CSV, and CLI parsing.
#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/string_pool.hpp"
#include "common/table.hpp"

namespace bglpred {
namespace {

// ---- StringPool -------------------------------------------------------

TEST(StableHashTest, ValuesArePinned) {
  // Engine checkpoints store these values: a change to the function is a
  // checkpoint format change and needs a new engine tag.
  EXPECT_EQ(stable_hash64(""), 0x0000000000000000ULL);
  EXPECT_EQ(stable_hash64("a"), 0x95da58f99f363d7dULL);
  EXPECT_EQ(stable_hash64("kernel panic"), 0xdfb6c81c8a9045eaULL);
  EXPECT_EQ(stable_hash64("ciod: Error reading message prefix after "
                          "LOGIN_MESSAGE on CioStream socket to "
                          "172.16.96.116:33569"),
            0x471757d5ed83b995ULL);
}

TEST(StableHashTest, LengthAndEveryByteMatter) {
  EXPECT_NE(stable_hash64(std::string_view("\0", 1)), stable_hash64(""));
  EXPECT_NE(stable_hash64("kernel panic"), stable_hash64("kernel panic "));
  const std::string base = "machine check interrupt on node 17 (bank 3)";
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::string flipped = base;
    flipped[i] = static_cast<char>(flipped[i] ^ 1);
    EXPECT_NE(stable_hash64(flipped), stable_hash64(base)) << "byte " << i;
  }
}

TEST(StringPoolTest, InternIsIdempotent) {
  StringPool pool;
  const StringId a = pool.intern("torus error");
  const StringId b = pool.intern("torus error");
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(StringPoolTest, DistinctStringsDistinctIds) {
  StringPool pool;
  const StringId a = pool.intern("a");
  const StringId b = pool.intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.str(a), "a");
  EXPECT_EQ(pool.str(b), "b");
}

TEST(StringPoolTest, FindDoesNotInsert) {
  StringPool pool;
  EXPECT_EQ(pool.find("missing"), kInvalidStringId);
  EXPECT_EQ(pool.size(), 0u);
  const StringId id = pool.intern("present");
  EXPECT_EQ(pool.find("present"), id);
}

TEST(StringPoolTest, StableUnderGrowth) {
  StringPool pool;
  std::vector<StringId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(pool.intern("string-" + std::to_string(i)));
  }
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(pool.str(ids[static_cast<std::size_t>(i)]),
              "string-" + std::to_string(i));
    EXPECT_EQ(pool.find("string-" + std::to_string(i)),
              ids[static_cast<std::size_t>(i)]);
  }
}

TEST(StringPoolTest, BadIdThrows) {
  StringPool pool;
  EXPECT_THROW(pool.str(0), InvalidArgument);
}

// ---- TextTable ---------------------------------------------------------

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(TextTableTest, RowWidthMismatchThrows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(TextTableTest, NumberFormatting) {
  EXPECT_EQ(TextTable::num(0.51568, 4), "0.5157");
  EXPECT_EQ(TextTable::num(1.0, 2), "1.00");
  EXPECT_EQ(TextTable::count(4172359), "4,172,359");
  EXPECT_EQ(TextTable::count(-1234), "-1,234");
  EXPECT_EQ(TextTable::count(7), "7");
}

// ---- CSV ----------------------------------------------------------------

TEST(CsvTest, PlainRoundTrip) {
  CsvWriter w({"a", "b"});
  w.add_row({"1", "2"});
  EXPECT_EQ(w.str(), "a,b\n1,2\n");
}

TEST(CsvTest, QuotesSpecialCharacters) {
  CsvWriter w({"x"});
  w.add_row({"has,comma"});
  w.add_row({"has\"quote"});
  const std::string out = w.str();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(CsvTest, ParseLineHandlesQuotes) {
  const auto fields = parse_csv_line("a,\"b,c\",\"d\"\"e\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

TEST(CsvTest, WidthMismatchThrows) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({"1"}), InvalidArgument);
}

// ---- CLI ----------------------------------------------------------------

TEST(CliTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--scale=0.5", "--folds", "10", "pos"};
  const CliArgs args(5, argv);
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0), 0.5);
  EXPECT_EQ(args.get_int("folds", 0), 10);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(CliTest, BooleanSwitch) {
  const char* argv[] = {"prog", "--verbose", "--json=false"};
  const CliArgs args(3, argv);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("json", true));
  EXPECT_TRUE(args.get_bool("absent", true));
}

TEST(CliTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  EXPECT_EQ(args.get("name", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("n", 7), 7);
}

TEST(CliTest, BadNumbersThrow) {
  const char* argv[] = {"prog", "--n=abc"};
  const CliArgs args(2, argv);
  EXPECT_THROW(args.get_int("n", 0), ParseError);
  EXPECT_THROW(args.get_double("n", 0), ParseError);
}

}  // namespace
}  // namespace bglpred

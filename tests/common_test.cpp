// Unit tests for the common runtime layer: Status/Result, Rng, strings,
// hashing, union-find, CSV.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "common/csv.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/union_find.h"

namespace pghive {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad theta");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad theta");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad theta");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(),  Status::NotFound("").code(),
      Status::AlreadyExists("").code(),    Status::OutOfRange("").code(),
      Status::FailedPrecondition("").code(), Status::IoError("").code(),
      Status::ParseError("").code(),       Status::Internal("").code(),
      Status::NotImplemented("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::IoError("disk"); };
  auto wrapper = [&]() -> Status {
    PGHIVE_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(std::move(r).value_or(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool ok) -> Result<std::string> {
    if (!ok) return Status::Internal("boom");
    return std::string("value");
  };
  auto chain = [&](bool ok) -> Result<size_t> {
    PGHIVE_ASSIGN_OR_RETURN(std::string v, produce(ok));
    return v.size();
  };
  ASSERT_TRUE(chain(true).ok());
  EXPECT_EQ(chain(true).value(), 5u);
  EXPECT_EQ(chain(false).status().code(), StatusCode::kInternal);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanNearHalf) {
  Rng rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, UniformU32Bounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformU32(17), 17u);
  EXPECT_EQ(rng.UniformU32(0), 0u);
  EXPECT_EQ(rng.UniformU32(1), 0u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
  EXPECT_EQ(rng.UniformInt(5, 4), 5);  // degenerate range clamps
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(21);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(sample.size(), 30u);
  EXPECT_EQ(unique.size(), 30u);
  for (size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(RngTest, SampleWithoutReplacementWholePopulation) {
  Rng rng(23);
  auto sample = rng.SampleWithoutReplacement(10, 99);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(25);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng base(31);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---------- strings ----------

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, SplitEmptyString) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Join(std::vector<std::string>{}, ","), "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CanonicalLabelTokenSortsAndJoins) {
  EXPECT_EQ(CanonicalLabelToken({"Person", "Athlete"}), "Athlete&Person");
  EXPECT_EQ(CanonicalLabelToken({}), "");
  EXPECT_EQ(CanonicalLabelToken({"Solo"}), "Solo");
}

TEST(StringUtilTest, XmlEscapeAllSpecials) {
  EXPECT_EQ(XmlEscape("<a & \"b\" 'c'>"),
            "&lt;a &amp; &quot;b&quot; &apos;c&apos;&gt;");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StringUtilTest, FormatDoubleAndThousands) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(WithThousands(1234567), "1,234,567");
  EXPECT_EQ(WithThousands(42), "42");
}

// ---------- hash ----------

TEST(HashTest, Fnv1aStable) {
  // Known value stability: identical inputs hash identically across calls.
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(HashTest, Mix64Bijective) {
  // Distinct inputs give distinct mixed outputs on a sample.
  std::set<uint64_t> out;
  for (uint64_t i = 0; i < 1000; ++i) out.insert(Mix64(i));
  EXPECT_EQ(out.size(), 1000u);
}

TEST(HashTest, HashSequenceOrderSensitive) {
  EXPECT_NE(HashSequence({1, 2, 3}), HashSequence({3, 2, 1}));
  EXPECT_EQ(HashSequence({1, 2, 3}), HashSequence({1, 2, 3}));
}

// ---------- union-find ----------

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumComponents(), 5u);
  EXPECT_FALSE(uf.Connected(0, 1));
}

TEST(UnionFindTest, UnionReducesComponents) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));  // already merged
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_EQ(uf.NumComponents(), 4u);
}

TEST(UnionFindTest, TransitiveConnectivity) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(1, 2);
  uf.Union(3, 4);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(2, 3));
  auto comps = uf.Components();
  EXPECT_EQ(comps.size(), 3u);
  size_t total = 0;
  for (const auto& c : comps) total += c.size();
  EXPECT_EQ(total, 6u);
}

TEST(UnionFindTest, ComponentsCoverAllElements) {
  UnionFind uf(100);
  Rng rng(3);
  for (int i = 0; i < 80; ++i) {
    uf.Union(rng.UniformU32(100), rng.UniformU32(100));
  }
  auto comps = uf.Components();
  std::set<size_t> seen;
  for (const auto& c : comps) {
    for (size_t x : c) EXPECT_TRUE(seen.insert(x).second);
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(comps.size(), uf.NumComponents());
}

// ---------- CSV ----------

TEST(CsvTest, ParseSimpleLine) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, ParseQuotedFieldWithComma) {
  auto fields = ParseCsvLine("a,\"b,c\",d");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[1], "b,c");
}

TEST(CsvTest, ParseEscapedQuote) {
  auto fields = ParseCsvLine("\"he said \"\"hi\"\"\"");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], "he said \"hi\"");
}

TEST(CsvTest, UnterminatedQuoteFails) {
  auto fields = ParseCsvLine("\"oops");
  EXPECT_FALSE(fields.ok());
  EXPECT_EQ(fields.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, ParseMultiRowDocument) {
  auto rows = ParseCsv("a,b\nc,\"d\ne\"\nf,g\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[1][1], "d\ne");  // embedded newline preserved
}

TEST(CsvTest, CrLfHandled) {
  auto rows = ParseCsv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][1], "b");
}

TEST(CsvTest, QuoteOnlyWhenNeeded) {
  EXPECT_EQ(CsvQuote("plain"), "plain");
  EXPECT_EQ(CsvQuote("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvQuote("with\"quote"), "\"with\"\"quote\"");
}

TEST(CsvTest, RowRoundTrip) {
  std::vector<std::string> row = {"a", "b,c", "d\"e", "f\ng"};
  std::string text = FormatCsvRow(row);
  auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0], row);
}

TEST(CsvTest, CursorViewsUnquotedFieldsInPlace) {
  const std::string text = "ab,\"c,d\",e\nf";
  CsvCursor cursor(text);
  auto more = cursor.Next();
  ASSERT_TRUE(more.ok() && *more);
  const auto& fields = cursor.fields();
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "ab");
  EXPECT_EQ(fields[0].data(), text.data());  // a view, not a copy
  EXPECT_EQ(fields[1], "c,d");               // unescaped copy
  EXPECT_EQ(fields[2], "e");
  EXPECT_EQ(fields[2].data(), text.data() + 9);
  EXPECT_EQ(cursor.offset(), 11u);
  more = cursor.Next();
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(cursor.fields(), (std::vector<std::string_view>{"f"}));
  more = cursor.Next();
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(CsvTest, CursorKeepsEveryQuotedFieldOfARecord) {
  // More quoted fields than fit in one small-string buffer each: every view
  // must still point at its own unescaped text.
  std::string text;
  for (int i = 0; i < 40; ++i) {
    text += (i > 0 ? ",\"" : "\"") + std::to_string(i) + "\"";
  }
  CsvCursor cursor(text);
  auto more = cursor.Next();
  ASSERT_TRUE(more.ok() && *more);
  ASSERT_EQ(cursor.fields().size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(cursor.fields()[i], std::to_string(i));
  }
}

TEST(CsvTest, RecordTerminators) {
  // Bare CR, CRLF and LF all end a record; a final line break adds none; an
  // empty line in the middle is one empty field.
  auto rows = ParseCsv("a\rb\r\nc\n\nd\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<std::vector<std::string>>{
                       {"a"}, {"b"}, {"c"}, {""}, {"d"}}));
  auto empty = ParseCsv("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(CsvTest, QuotesMayOpenMidField) {
  auto fields = ParseCsvLine("ab\"c,d\"e,\"\"\"\",x\"\"y");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"abc,de", "\"", "xy"}));
}

TEST(CsvTest, LineParsing) {
  auto empty = ParseCsvLine("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, (std::vector<std::string>{""}));
  auto trailing = ParseCsvLine("a,b\r\n");
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(*trailing, (std::vector<std::string>{"a", "b"}));
  auto two = ParseCsvLine("a\nb");
  EXPECT_FALSE(two.ok());
  EXPECT_EQ(two.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, ReadFileReturnsExactBytes) {
  std::string path = testing::TempDir() + "/pghive_csv_binary.bin";
  std::string bytes("a\0b\r\n\xff", 6);
  for (int i = 0; i < 5000; ++i) bytes += static_cast<char>(i * 7);
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  auto content = ReadFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, bytes);
  ASSERT_TRUE(WriteFile(path, "").ok());
  content = ReadFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(content->empty());
}

TEST(CsvTest, ReadMissingFileFails) {
  auto content = ReadFile("/nonexistent/path/file.csv");
  EXPECT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, WriteAndReadBack) {
  std::string path = testing::TempDir() + "/pghive_csv_test.txt";
  ASSERT_TRUE(WriteFile(path, "hello\nworld").ok());
  auto content = ReadFile(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello\nworld");
}

}  // namespace
}  // namespace pghive

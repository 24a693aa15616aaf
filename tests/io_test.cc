// Tests for trace persistence, CSV ingestion, and summary delta encoding.
#include <gtest/gtest.h>

#include <sstream>

#include "anemone/anemone.h"
#include "db/csv.h"
#include "db/database.h"
#include "trace/farsite_model.h"
#include "trace/trace_io.h"

namespace seaweed {
namespace {

// --- Trace I/O ---

TEST(TraceIoTest, RoundTripPreservesIntervals) {
  FarsiteModelConfig cfg;
  auto trace = GenerateFarsiteTrace(cfg, 30, kWeek);
  std::stringstream buf;
  ASSERT_TRUE(SaveTrace(trace, buf).ok());
  auto loaded = LoadTrace(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->num_endsystems(), 30);
  EXPECT_EQ(loaded->duration(), kWeek);
  for (int e = 0; e < 30; ++e) {
    const auto& a = trace.endsystem(e).intervals();
    const auto& b = loaded->endsystem(e).intervals();
    ASSERT_EQ(a.size(), b.size()) << "endsystem " << e;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].start, b[i].start);
      EXPECT_EQ(a[i].end, b[i].end);
    }
  }
}

TEST(TraceIoTest, RejectsMissingMagic) {
  std::stringstream buf("not a trace\n");
  EXPECT_TRUE(LoadTrace(buf).status().IsParseError());
}

TEST(TraceIoTest, RejectsBadHeader) {
  std::stringstream buf("# seaweed-availability-trace v1\nbogus header\n");
  EXPECT_TRUE(LoadTrace(buf).status().IsParseError());
}

TEST(TraceIoTest, RejectsInvertedInterval) {
  std::stringstream buf(
      "# seaweed-availability-trace v1\n"
      "endsystems 2 duration_us 1000\n"
      "0: 500-100\n");
  EXPECT_TRUE(LoadTrace(buf).status().IsParseError());
}

TEST(TraceIoTest, RejectsOutOfRangeIndex) {
  std::stringstream buf(
      "# seaweed-availability-trace v1\n"
      "endsystems 2 duration_us 1000\n"
      "7: 100-500\n");
  EXPECT_TRUE(LoadTrace(buf).status().IsParseError());
}

TEST(TraceIoTest, SkipsCommentsAndEmptyEndsystems) {
  std::stringstream buf(
      "# seaweed-availability-trace v1\n"
      "endsystems 3 duration_us 1000\n"
      "# a comment\n"
      "1: 100-500 600-900\n");
  auto loaded = LoadTrace(buf);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->endsystem(0).intervals().empty());
  EXPECT_EQ(loaded->endsystem(1).intervals().size(), 2u);
}

TEST(TraceIoTest, FileRoundTrip) {
  FarsiteModelConfig cfg;
  auto trace = GenerateFarsiteTrace(cfg, 5, kDay);
  std::string path = ::testing::TempDir() + "/seaweed_trace_test.txt";
  ASSERT_TRUE(SaveTraceToFile(trace, path).ok());
  auto loaded = LoadTraceFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_endsystems(), 5);
  EXPECT_FALSE(LoadTraceFromFile("/nonexistent/nope.txt").ok());
}

// --- CSV ---

db::Schema CsvSchema() {
  return db::Schema({
      {"ts", db::ColumnType::kInt64, true},
      {"ratio", db::ColumnType::kDouble, false},
      {"app", db::ColumnType::kString, true},
  });
}

TEST(CsvTest, HeaderedIngestWithReordering) {
  db::Table table(CsvSchema());
  std::stringstream in(
      "app,ts,ratio\n"
      "HTTP,100,0.5\n"
      "SMB,200,1.25\n");
  auto n = db::AppendCsv(in, &table);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 2);
  EXPECT_EQ(table.column(0).Int64At(0), 100);
  EXPECT_DOUBLE_EQ(table.column(1).DoubleAt(1), 1.25);
  EXPECT_EQ(table.column(2).StringAt(1), "SMB");
}

TEST(CsvTest, HeaderlessUsesSchemaOrder) {
  db::Table table(CsvSchema());
  std::stringstream in("100,0.5,HTTP\n");
  db::CsvOptions opts;
  opts.has_header = false;
  auto n = db::AppendCsv(in, &table, opts);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 1);
}

TEST(CsvTest, QuotedFields) {
  db::Table table(CsvSchema());
  std::stringstream in(
      "ts,ratio,app\n"
      "1,0.1,\"name, with comma\"\n"
      "2,0.2,\"quote \"\" inside\"\n");
  auto n = db::AppendCsv(in, &table);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(table.column(2).StringAt(0), "name, with comma");
  EXPECT_EQ(table.column(2).StringAt(1), "quote \" inside");
}

TEST(CsvTest, Errors) {
  db::Table table(CsvSchema());
  {
    std::stringstream in("ts,nosuch,app\n1,2,3\n");
    EXPECT_TRUE(db::AppendCsv(in, &table).status().IsParseError());
  }
  {
    std::stringstream in("ts,ratio,app\n1,2\n");  // arity mismatch
    EXPECT_TRUE(db::AppendCsv(in, &table).status().IsParseError());
  }
  {
    std::stringstream in("ts,ratio,app\nxyz,2,a\n");  // bad int
    EXPECT_TRUE(db::AppendCsv(in, &table).status().IsParseError());
  }
  {
    std::stringstream in("ts,ratio,app\n1,notanumber,a\n");
    EXPECT_TRUE(db::AppendCsv(in, &table).status().IsParseError());
  }
  {
    std::stringstream in("ts,ratio,app\n1,2,\"unterminated\n");
    EXPECT_TRUE(db::AppendCsv(in, &table).status().IsParseError());
  }
  {
    std::stringstream in("ts,ratio\n1,2\n");  // missing schema column
    EXPECT_TRUE(db::AppendCsv(in, &table).status().IsParseError());
  }
  // Values that parse but mean nothing: non-finite doubles and integers
  // out of int64 range (strtoll would saturate them silently).
  for (const char* csv : {"ts,ratio,app\n1,nan,a\n", "ts,ratio,app\n1,inf,a\n",
                          "ts,ratio,app\n1,-Infinity,a\n",
                          "ts,ratio,app\n1,1e999,a\n",
                          "ts,ratio,app\n99999999999999999999,2,a\n",
                          "ts,ratio,app\n-99999999999999999999,2,a\n"}) {
    std::stringstream in(csv);
    EXPECT_TRUE(db::AppendCsv(in, &table).status().IsParseError()) << csv;
  }
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(CsvTest, CrlfTolerated) {
  db::Table table(CsvSchema());
  std::stringstream in("ts,ratio,app\r\n5,0.5,X\r\n");
  auto n = db::AppendCsv(in, &table);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(table.column(2).StringAt(0), "X");
}

// --- Summary delta encoding ---

TEST(SummaryDeltaTest, IdenticalSummariesCostHeaderOnly) {
  anemone::AnemoneConfig cfg;
  cfg.days = 7;
  cfg.workstation_flows_per_day = 100;
  db::Database database;
  anemone::GenerateEndsystemData(cfg, 1, &database);
  auto a = database.BuildSummary();
  auto b = database.BuildSummary();
  size_t delta = db::SummaryDeltaBytes(a, b);
  EXPECT_LT(delta, 80u);
  EXPECT_LT(delta, a.EncodedBytes() / 10);
}

TEST(SummaryDeltaTest, SmallChangeSmallDelta) {
  anemone::AnemoneConfig cfg;
  cfg.days = 7;
  cfg.workstation_flows_per_day = 100;
  db::Database database;
  anemone::GenerateEndsystemData(cfg, 1, &database);
  auto before = database.BuildSummary();
  db::Table* flow = database.FindTable("Flow");
  // Append a single row.
  flow->column(0).AppendInt64(999999);
  flow->column(1).AppendInt64(300);
  flow->column(2).AppendInt64(1);
  flow->column(3).AppendInt64(2);
  flow->column(4).AppendInt64(80);
  flow->column(5).AppendInt64(80);
  flow->column(6).AppendInt64(80);
  flow->column(7).AppendString("TCP");
  flow->column(8).AppendString("HTTP");
  flow->column(9).AppendInt64(100);
  flow->column(10).AppendInt64(1);
  flow->CommitRow();
  auto after = database.BuildSummary();
  size_t delta = db::SummaryDeltaBytes(before, after);
  EXPECT_LT(delta, after.EncodedBytes() / 2);
  EXPECT_GT(delta, 8u);  // something did change
}

TEST(SummaryDeltaTest, DisjointSummariesCostRoughlyFull) {
  anemone::AnemoneConfig cfg;
  cfg.days = 7;
  cfg.workstation_flows_per_day = 100;
  db::Database a_db, b_db;
  anemone::GenerateEndsystemData(cfg, 1, &a_db);
  anemone::GenerateEndsystemData(cfg, 2, &b_db);
  auto a = a_db.BuildSummary();
  auto b = b_db.BuildSummary();
  size_t delta = db::SummaryDeltaBytes(a, b);
  EXPECT_GT(delta, b.EncodedBytes() / 2);
}

}  // namespace
}  // namespace seaweed

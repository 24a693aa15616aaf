#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/aggregate.h"
#include "db/database.h"
#include "db/estimator.h"
#include "db/histogram.h"
#include "db/query_exec.h"
#include "db/sql_parser.h"

namespace seaweed::db {
namespace {

Schema TestSchema() {
  return Schema({
      {"ts", ColumnType::kInt64, true},
      {"port", ColumnType::kInt64, true},
      {"bytes", ColumnType::kInt64, true},
      {"ratio", ColumnType::kDouble, false},
      {"app", ColumnType::kString, true},
  });
}

std::unique_ptr<Table> MakeTable(int rows, uint64_t seed = 1) {
  auto t = std::make_unique<Table>(TestSchema());
  seaweed::Rng rng(seed);
  const char* apps[] = {"HTTP", "SMB", "DNS", "SMTP"};
  for (int i = 0; i < rows; ++i) {
    t->column(0).AppendInt64(i);
    t->column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(1000)));
    t->column(2).AppendInt64(static_cast<int64_t>(rng.NextBelow(100000)));
    t->column(3).AppendDouble(rng.NextDouble());
    t->column(4).AppendString(apps[rng.NextBelow(4)]);
    t->CommitRow();
  }
  return t;
}

// --- Parser ---

TEST(SqlParserTest, ParsesPaperQuery) {
  ParseOptions opts;
  opts.now_unix_seconds = 1000000;
  auto q = ParseSelect(
      "SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80 AND ts <= NOW() AND ts "
      ">= NOW() - 86400",
      opts);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->table, "Flow");
  ASSERT_EQ(q->items.size(), 1u);
  EXPECT_TRUE(q->items[0].is_aggregate);
  EXPECT_EQ(q->items[0].func, FindAggregate("SUM"));
  EXPECT_EQ(q->items[0].column, "Bytes");
  // NOW() folded: WHERE contains ts >= 1000000 - 86400.
  std::string s = q->where->ToString();
  EXPECT_NE(s.find("913600"), std::string::npos) << s;
}

TEST(SqlParserTest, CountStar) {
  auto q = ParseSelect("SELECT COUNT(*) FROM Flow");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->items[0].func, FindAggregate("COUNT"));
  EXPECT_TRUE(q->items[0].column.empty());
  EXPECT_TRUE(q->IsAggregateOnly());
}

TEST(SqlParserTest, MultipleAggregates) {
  auto q = ParseSelect(
      "SELECT COUNT(*), SUM(bytes), AVG(bytes), MIN(bytes), MAX(bytes) "
      "FROM t WHERE port < 1024");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->items.size(), 5u);
}

TEST(SqlParserTest, StringLiteralAndCaseInsensitiveKeywords) {
  auto q = ParseSelect("select avg(Bytes) from Flow where App='SMB'");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where->kind, Predicate::Kind::kCompare);
  EXPECT_EQ(q->where->literal.AsString(), "SMB");
}

TEST(SqlParserTest, QuoteEscaping) {
  auto q = ParseSelect("SELECT COUNT(*) FROM t WHERE app = 'O''Brien'");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where->literal.AsString(), "O'Brien");
}

TEST(SqlParserTest, AndOrPrecedence) {
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(q.ok());
  // AND binds tighter: OR(a=1, AND(b=2, c=3)).
  EXPECT_EQ(q->where->kind, Predicate::Kind::kOr);
  EXPECT_EQ(q->where->right->kind, Predicate::Kind::kAnd);
}

TEST(SqlParserTest, Parentheses) {
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE (a = 1 OR b = 2) AND c = 3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where->kind, Predicate::Kind::kAnd);
  EXPECT_EQ(q->where->left->kind, Predicate::Kind::kOr);
}

TEST(SqlParserTest, NotEqualVariants) {
  for (const char* op : {"!=", "<>"}) {
    auto q = ParseSelect(std::string("SELECT COUNT(*) FROM t WHERE a ") + op +
                         " 5");
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(q->where->op, CompareOp::kNe);
  }
}

TEST(SqlParserTest, NegativeAndFloatLiterals) {
  auto q = ParseSelect("SELECT COUNT(*) FROM t WHERE a > -5 AND b < 2.5e3");
  ASSERT_TRUE(q.ok()) << q.status();
}

TEST(SqlParserTest, TrailingSemicolon) {
  EXPECT_TRUE(ParseSelect("SELECT COUNT(*) FROM t;").ok());
}

TEST(SqlParserTest, RejectsMalformed) {
  EXPECT_TRUE(ParseSelect("SELEC COUNT(*) FROM t").status().IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT FROM t").status().IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT COUNT(*) FROM").status().IsParseError());
  EXPECT_TRUE(
      ParseSelect("SELECT COUNT(*) FROM t WHERE").status().IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT COUNT(*) FROM t WHERE a ==")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT SUM(*) FROM t").status().IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT COUNT(*) FROM t extra_stuff")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseSelect("SELECT COUNT(*) FROM t WHERE a = 'unterminated")
                  .status()
                  .IsParseError());
  // Literals must mean what they say: no saturation, overflow or truncation.
  for (const char* sql : {
           "SELECT COUNT(*) FROM t WHERE Bytes > 99999999999999999999",
           "SELECT COUNT(*) FROM t WHERE Bytes > 1e999",
           "SELECT COUNT(*) FROM t WHERE Bytes > 1.2.3",
           "SELECT COUNT(*) FROM t WHERE Bytes > 9223372036854775807 + 1",
           "SELECT COUNT(*) FROM t WHERE Bytes > 1e308 + 1e308",
       }) {
    EXPECT_TRUE(ParseSelect(sql).status().IsParseError()) << sql;
  }
  EXPECT_TRUE(
      ParseSelect("SELECT COUNT(*) FROM t WHERE Bytes > 9223372036854775807")
          .ok());
}

// --- Execution ---

TEST(QueryExecTest, CountStarMatchesRows) {
  auto t = MakeTable(500);
  auto q = ParseSelect("SELECT COUNT(*) FROM t");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_matched, 500);
  EXPECT_EQ(*FindAggregate("COUNT")->Finalize(r->states[0]), Value(int64_t{500}));
}

TEST(QueryExecTest, FilteredAggregatesMatchManualScan) {
  auto t = MakeTable(1000);
  auto q = ParseSelect(
      "SELECT COUNT(*), SUM(bytes), MIN(bytes), MAX(bytes), AVG(bytes) "
      "FROM t WHERE port < 100");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok()) << r.status();

  int64_t count = 0, sum = 0, mn = INT64_MAX, mx = INT64_MIN;
  for (size_t i = 0; i < t->num_rows(); ++i) {
    if (t->column(1).Int64At(i) < 100) {
      ++count;
      int64_t b = t->column(2).Int64At(i);
      sum += b;
      mn = std::min(mn, b);
      mx = std::max(mx, b);
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_EQ(r->rows_matched, count);
  EXPECT_EQ(r->states[0].count, count);
  EXPECT_DOUBLE_EQ(r->states[1].sum, static_cast<double>(sum));
  EXPECT_DOUBLE_EQ(r->states[2].min, static_cast<double>(mn));
  EXPECT_DOUBLE_EQ(r->states[3].max, static_cast<double>(mx));
  EXPECT_DOUBLE_EQ(FindAggregate("AVG")->Finalize(r->states[4])->AsDouble(),
                   static_cast<double>(sum) / count);
}

TEST(QueryExecTest, StringEqualityFilter) {
  auto t = MakeTable(400);
  auto q = ParseSelect("SELECT COUNT(*) FROM t WHERE app = 'SMB'");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok());
  int64_t expected = 0;
  for (size_t i = 0; i < t->num_rows(); ++i) {
    if (t->column(4).StringAt(i) == "SMB") ++expected;
  }
  EXPECT_EQ(r->rows_matched, expected);
}

TEST(QueryExecTest, StringInequality) {
  auto t = MakeTable(400);
  auto q = ParseSelect("SELECT COUNT(*) FROM t WHERE app != 'SMB'");
  auto eq = ParseSelect("SELECT COUNT(*) FROM t WHERE app = 'SMB'");
  auto r = ExecuteAggregate(*t, *q);
  auto re = ExecuteAggregate(*t, *eq);
  ASSERT_TRUE(r.ok() && re.ok());
  EXPECT_EQ(r->rows_matched + re->rows_matched, 400);
}

TEST(QueryExecTest, UnknownStringMatchesNothing) {
  auto t = MakeTable(100);
  auto q = ParseSelect("SELECT COUNT(*) FROM t WHERE app = 'NOPE'");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_matched, 0);
}

TEST(QueryExecTest, EmptyMatchAggregates) {
  auto t = MakeTable(100);
  auto q = ParseSelect("SELECT SUM(bytes), AVG(bytes) FROM t WHERE port > 99999");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows_matched, 0);
  EXPECT_DOUBLE_EQ(FindAggregate("SUM")->Finalize(r->states[0])->AsDouble(), 0.0);
  EXPECT_FALSE(FindAggregate("AVG")->Finalize(r->states[1]).ok());  // NULL
}

TEST(QueryExecTest, BindErrors) {
  auto t = MakeTable(10);
  auto q1 = ParseSelect("SELECT COUNT(*) FROM t WHERE nosuch = 1");
  EXPECT_TRUE(ExecuteAggregate(*t, *q1).status().IsNotFound());
  auto q2 = ParseSelect("SELECT COUNT(*) FROM t WHERE app = 5");
  EXPECT_TRUE(ExecuteAggregate(*t, *q2).status().IsInvalidArgument());
  auto q3 = ParseSelect("SELECT COUNT(*) FROM t WHERE port = 'x'");
  EXPECT_TRUE(ExecuteAggregate(*t, *q3).status().IsInvalidArgument());
  auto q4 = ParseSelect("SELECT SUM(app) FROM t");
  EXPECT_TRUE(ExecuteAggregate(*t, *q4).status().IsInvalidArgument());
}

TEST(QueryExecTest, MergeEqualsSingleScan) {
  // Partition the table across "endsystems" and verify the merged result
  // equals a single-table scan — the in-network aggregation invariant.
  auto whole = MakeTable(900, 5);
  auto q = ParseSelect(
      "SELECT COUNT(*), SUM(bytes), AVG(bytes), MIN(bytes), MAX(bytes) "
      "FROM t WHERE port < 500");
  auto expected = ExecuteAggregate(*whole, *q);
  ASSERT_TRUE(expected.ok());

  // Rebuild as three tables of 300 rows with the same contents.
  AggregateResult merged;
  seaweed::Rng rng(5);
  const char* apps[] = {"HTTP", "SMB", "DNS", "SMTP"};
  for (int part = 0; part < 3; ++part) {
    Table t(TestSchema());
    for (int i = 0; i < 300; ++i) {
      t.column(0).AppendInt64(part * 300 + i);
      t.column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(1000)));
      t.column(2).AppendInt64(static_cast<int64_t>(rng.NextBelow(100000)));
      t.column(3).AppendDouble(rng.NextDouble());
      t.column(4).AppendString(apps[rng.NextBelow(4)]);
      t.CommitRow();
    }
    auto r = ExecuteAggregate(t, *q);
    ASSERT_TRUE(r.ok());
    merged.Merge(*r);
  }
  EXPECT_EQ(merged.rows_matched, expected->rows_matched);
  EXPECT_DOUBLE_EQ(merged.states[1].sum, expected->states[1].sum);
  EXPECT_DOUBLE_EQ(FindAggregate("AVG")->Finalize(merged.states[2])->AsDouble(),
                   FindAggregate("AVG")->Finalize(expected->states[2])->AsDouble());
  EXPECT_DOUBLE_EQ(merged.states[3].min, expected->states[3].min);
  EXPECT_DOUBLE_EQ(merged.states[4].max, expected->states[4].max);
  EXPECT_EQ(merged.endsystems, 3);
}

TEST(QueryExecTest, AggregateResultSerializationRoundTrip) {
  auto t = MakeTable(200);
  auto q = ParseSelect("SELECT SUM(bytes), COUNT(*) FROM t WHERE port < 500");
  auto r = ExecuteAggregate(*t, *q);
  ASSERT_TRUE(r.ok());
  Writer w;
  r->Encode(w);
  Reader rd(w.bytes());
  auto back = AggregateResult::Decode(rd);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, *r);
}

TEST(QueryExecTest, ProjectionSelect) {
  auto t = MakeTable(50);
  auto q = ParseSelect("SELECT ts, app FROM t WHERE port < 500");
  auto r = ExecuteSelect(*t, *q, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->column_names, (std::vector<std::string>{"ts", "app"}));
  EXPECT_LE(r->rows.size(), 10u);
  for (const auto& row : r->rows) {
    EXPECT_EQ(row.size(), 2u);
  }
}

// --- Histograms ---

TEST(HistogramTest, ExactOnUniformRange) {
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) values.push_back(i);
  auto h = NumericHistogram::BuildFromValues(values, 100);
  EXPECT_EQ(h.total_rows(), 10000);
  EXPECT_NEAR(h.EstimateLessOrEqual(4999), 5000, 110);
  EXPECT_NEAR(h.EstimateRange(1000.0, true, 2000.0, true), 1001, 5);
}

TEST(HistogramTest, RangeEstimateAccuracy) {
  seaweed::Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(rng.LogNormal(5.0, 2.0));
  }
  auto h = NumericHistogram::BuildFromValues(values, 200);
  for (double cut : {50.0, 148.0, 1000.0, 5000.0}) {
    int64_t truth = 0;
    for (double v : values) {
      if (v > cut) ++truth;
    }
    double est = h.EstimateRange(cut, false, std::nullopt, false);
    EXPECT_NEAR(est, static_cast<double>(truth),
                std::max(50.0, 0.02 * static_cast<double>(h.total_rows())))
        << "cut=" << cut;
  }
}

TEST(HistogramTest, EqualityOnHeavyHitter) {
  // 5000 copies of value 7 plus uniform noise: estimate should see the spike.
  std::vector<double> values(5000, 7.0);
  seaweed::Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(1000 + static_cast<double>(rng.NextBelow(100000)));
  }
  auto h = NumericHistogram::BuildFromValues(values, 100);
  EXPECT_GT(h.EstimateEqual(7.0), 2500.0);
}

TEST(HistogramTest, EmptyAndSingleValue) {
  auto empty = NumericHistogram::BuildFromValues({}, 10);
  EXPECT_EQ(empty.total_rows(), 0);
  EXPECT_EQ(empty.EstimateLessOrEqual(5), 0);
  auto single = NumericHistogram::BuildFromValues({42.0}, 10);
  EXPECT_EQ(single.total_rows(), 1);
  EXPECT_DOUBLE_EQ(single.EstimateEqual(42.0), 1.0);
  EXPECT_DOUBLE_EQ(single.EstimateLessOrEqual(41.0), 0.0);
}

TEST(HistogramTest, SerializationRoundTrip) {
  seaweed::Rng rng(6);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.Normal(100, 20));
  auto h = NumericHistogram::BuildFromValues(values, 64);
  Writer w;
  h.Encode(w);
  Reader r(w.bytes());
  auto back = NumericHistogram::Decode(r);
  ASSERT_TRUE(back.ok());
  for (double v : {50.0, 90.0, 100.0, 130.0}) {
    EXPECT_DOUBLE_EQ(back->EstimateLessOrEqual(v), h.EstimateLessOrEqual(v));
  }
}

TEST(StringHistogramTest, McvExactForCommonValues) {
  Column col(ColumnType::kString);
  for (int i = 0; i < 700; ++i) col.AppendString("HTTP");
  for (int i = 0; i < 200; ++i) col.AppendString("SMB");
  for (int i = 0; i < 100; ++i) col.AppendString("DNS");
  auto h = StringHistogram::Build(col, 2);
  EXPECT_DOUBLE_EQ(h.EstimateEqual("HTTP"), 700.0);
  EXPECT_DOUBLE_EQ(h.EstimateEqual("SMB"), 200.0);
  // DNS fell into the residual bucket: estimated as other_count/distinct.
  EXPECT_DOUBLE_EQ(h.EstimateEqual("DNS"), 100.0);
  EXPECT_DOUBLE_EQ(h.EstimateEqual("XXX"), 100.0);  // unknown -> residual avg
}

TEST(StringHistogramTest, SerializationRoundTrip) {
  Column col(ColumnType::kString);
  for (int i = 0; i < 10; ++i) col.AppendString(i % 2 ? "a" : "b");
  auto h = StringHistogram::Build(col, 8);
  Writer w;
  h.Encode(w);
  Reader r(w.bytes());
  auto back = StringHistogram::Decode(r);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->EstimateEqual("a"), h.EstimateEqual("a"));
}

// --- Estimator / summaries ---

TEST(EstimatorTest, EstimatesCloseToTruthOnIndexedColumns) {
  auto t = MakeTable(20000, 9);
  Database database;
  // Recreate as a database table to use BuildSummary.
  auto created = database.CreateTable("t", TestSchema());
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  for (size_t i = 0; i < t->num_rows(); ++i) {
    table->column(0).AppendInt64(t->column(0).Int64At(i));
    table->column(1).AppendInt64(t->column(1).Int64At(i));
    table->column(2).AppendInt64(t->column(2).Int64At(i));
    table->column(3).AppendDouble(t->column(3).DoubleAt(i));
    table->column(4).AppendString(t->column(4).StringAt(i));
    table->CommitRow();
  }
  auto summary = database.BuildSummary();

  struct Case {
    const char* sql;
  } cases[] = {
      {"SELECT COUNT(*) FROM t WHERE port < 100"},
      {"SELECT COUNT(*) FROM t WHERE bytes > 20000"},
      {"SELECT COUNT(*) FROM t WHERE app = 'SMB'"},
      {"SELECT COUNT(*) FROM t WHERE port >= 100 AND port <= 200"},
  };
  for (const auto& c : cases) {
    auto q = ParseSelect(c.sql);
    ASSERT_TRUE(q.ok());
    auto truth = database.CountMatching(*q);
    ASSERT_TRUE(truth.ok());
    double est = summary.EstimateRows(*q);
    EXPECT_NEAR(est, static_cast<double>(*truth),
                std::max(100.0, 0.1 * static_cast<double>(*truth)))
        << c.sql;
  }
}

TEST(EstimatorTest, ConjunctionUsesIndependence) {
  std::vector<ColumnSummary> summaries;
  std::vector<double> uniform;
  for (int i = 0; i < 1000; ++i) uniform.push_back(i);
  summaries.push_back(ColumnSummary::Numeric(
      "a", NumericHistogram::BuildFromValues(uniform, 50)));
  summaries.push_back(ColumnSummary::Numeric(
      "b", NumericHistogram::BuildFromValues(uniform, 50)));
  RowCountEstimator est(&summaries, 1000);

  // a < 500 (sel 0.5) AND b < 100 (sel 0.1) -> ~50 rows.
  auto pred = Predicate::And(
      Predicate::Compare("a", CompareOp::kLt, Value(int64_t{500})),
      Predicate::Compare("b", CompareOp::kLt, Value(int64_t{100})));
  EXPECT_NEAR(est.EstimateRows(pred), 50.0, 8.0);

  // OR: 0.5 + 0.1 - 0.05 = 0.55.
  auto pred_or = Predicate::Or(
      Predicate::Compare("a", CompareOp::kLt, Value(int64_t{500})),
      Predicate::Compare("b", CompareOp::kLt, Value(int64_t{100})));
  EXPECT_NEAR(est.EstimateRows(pred_or), 550.0, 30.0);
}

TEST(EstimatorTest, MissingColumnUsesDefaults) {
  RowCountEstimator est(nullptr, 1000);
  auto eq = Predicate::Compare("x", CompareOp::kEq, Value(int64_t{1}));
  EXPECT_DOUBLE_EQ(est.EstimateRows(eq), 1000 * kDefaultEqSelectivity);
  auto lt = Predicate::Compare("x", CompareOp::kLt, Value(int64_t{1}));
  EXPECT_DOUBLE_EQ(est.EstimateRows(lt), 1000 * kDefaultRangeSelectivity);
}

TEST(DatabaseTest, SummaryCoversIndexedColumnsOnly) {
  Database database;
  auto created = database.CreateTable("t", TestSchema());
  ASSERT_TRUE(created.ok());
  auto summary = database.BuildSummary();
  ASSERT_EQ(summary.tables.size(), 1u);
  // 4 indexed columns in TestSchema (ts, port, bytes, app) — ratio is not.
  EXPECT_EQ(summary.tables[0].columns.size(), 4u);
}

TEST(DatabaseTest, SummarySerializationRoundTrip) {
  Database database;
  auto created = database.CreateTable("t", TestSchema());
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  seaweed::Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    table->column(0).AppendInt64(i);
    table->column(1).AppendInt64(static_cast<int64_t>(rng.NextBelow(100)));
    table->column(2).AppendInt64(static_cast<int64_t>(rng.NextBelow(5000)));
    table->column(3).AppendDouble(0.5);
    table->column(4).AppendString(i % 3 ? "x" : "y");
    table->CommitRow();
  }
  auto summary = database.BuildSummary();
  Writer w;
  summary.Encode(w);
  Reader r(w.bytes());
  auto back = DatabaseSummary::Decode(r);
  ASSERT_TRUE(back.ok());
  auto q = ParseSelect("SELECT COUNT(*) FROM t WHERE port < 50");
  EXPECT_DOUBLE_EQ(back->EstimateRows(*q), summary.EstimateRows(*q));
}

TEST(DatabaseTest, DuplicateTableRejected) {
  Database database;
  EXPECT_TRUE(database.CreateTable("t", TestSchema()).ok());
  EXPECT_FALSE(database.CreateTable("t", TestSchema()).ok());
}

TEST(DatabaseTest, ExecuteSqlEndToEnd) {
  Database database;
  auto created = database.CreateTable("Flow", TestSchema());
  ASSERT_TRUE(created.ok());
  Table* table = *created;
  for (int i = 0; i < 10; ++i) {
    table->column(0).AppendInt64(i);
    table->column(1).AppendInt64(80);
    table->column(2).AppendInt64(100 * i);
    table->column(3).AppendDouble(0);
    table->column(4).AppendString("HTTP");
    table->CommitRow();
  }
  auto r = database.ExecuteAggregateSql(
      "SELECT SUM(bytes) FROM Flow WHERE port = 80");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_DOUBLE_EQ(r->states[0].sum, 4500.0);
  EXPECT_TRUE(
      database.ExecuteAggregateSql("SELECT COUNT(*) FROM Nope").status()
          .IsNotFound());
}

}  // namespace
}  // namespace seaweed::db

// SQLite as the independent oracle for the local SQL engine.
//
// SqliteOracle loads a db::Table into an in-memory SQLite database, renders
// a parsed SelectQuery (predicate tree, GROUP BY, select items) as SQLite
// SQL, and checks the finalized answers of an AggregateResult per group key
// against what SQLite computes. Literals and keys go in through
// sqlite3_bind_*, so doubles round-trip exactly. SQLite shares none of the
// engine's code: not the predicate kernels, not the aggregate registry's
// accumulators, not AggState::Add.
//
// The contract Check() enforces (DESIGN.md §5a):
//  * rows_matched equals SQLite's COUNT(*) ... WHERE.
//  * COUNT, and SUM/MIN/MAX over integer columns, match exactly; MIN/MAX
//    over a double column too (they select a value, they compute none).
//    AVG, and SUM over a double column, match to a relative 1e-9: SQLite
//    sums in its own order.
//  * Empty input: our NotFound for AVG/MIN/MAX is SQLite's NULL. Our SUM
//    over empty input is 0, where SQLite's is NULL.
//  * Sketches meet their documented bounds against exact SQLite truth:
//    DISTINCT_APPROX within 3 standard errors (1.04/sqrt(4096)) of
//    COUNT(DISTINCT); QUANTILE's rank interval [#<v, #<=v] meets
//    q*n +- max(1, 0.01*n); each TOPK count within the Misra-Gries bound
//    true - n/(capacity+1) <= est <= true.
//  * Grouped queries are checked per group and, for the whole selection,
//    through the result's top-level states.
#pragma once

#include <gtest/gtest.h>
#include <sqlite3.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "db/aggregate.h"
#include "db/ast.h"
#include "db/query_exec.h"
#include "db/sketch.h"
#include "db/table.h"

namespace seaweed::db {

// One SQLite cell; nullopt is NULL.
using SqlCell = std::optional<Value>;
using SqlRow = std::vector<SqlCell>;

class SqliteOracle {
 public:
  SqliteOracle() {
    if (sqlite3_open(":memory:", &db_) != SQLITE_OK) {
      ADD_FAILURE() << "sqlite3_open: " << sqlite3_errmsg(db_);
    }
  }
  ~SqliteOracle() { sqlite3_close(db_); }
  SqliteOracle(const SqliteOracle&) = delete;
  SqliteOracle& operator=(const SqliteOracle&) = delete;

  // Copies `table` into a SQLite table called `name`, column for column
  // (INTEGER / REAL / TEXT).
  void Load(const Table& table, const std::string& name) {
    const Schema& schema = table.schema();
    std::string create = "CREATE TABLE " + Quote(name) + " (";
    std::string insert = "INSERT INTO " + Quote(name) + " VALUES (";
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const ColumnDef& def = schema.column(c);
      if (def.type == ColumnType::kString) string_columns_.insert(def.name);
      create += (c ? ", " : "") + Quote(def.name) + " " + SqlType(def.type);
      insert += c ? ", ?" : "?";
    }
    Rows(create + ")", {});
    Rows("BEGIN", {});
    sqlite3_stmt* stmt = Prepare(insert + ")");
    for (size_t row = 0; stmt != nullptr && row < table.num_rows(); ++row) {
      sqlite3_reset(stmt);
      for (size_t c = 0; c < schema.num_columns(); ++c) {
        Bind(stmt, static_cast<int>(c) + 1, table.column(c).ValueAt(row));
      }
      if (sqlite3_step(stmt) != SQLITE_DONE) {
        ADD_FAILURE() << "sqlite insert: " << sqlite3_errmsg(db_);
        break;
      }
    }
    sqlite3_finalize(stmt);
    Rows("COMMIT", {});
  }

  // Runs `sql`, binding `binds` to its '?' placeholders in order; returns
  // every result row.
  std::vector<SqlRow> Rows(const std::string& sql,
                           const std::vector<Value>& binds) {
    std::vector<SqlRow> out;
    sqlite3_stmt* stmt = Prepare(sql);
    if (stmt == nullptr) return out;
    for (size_t i = 0; i < binds.size(); ++i) {
      Bind(stmt, static_cast<int>(i) + 1, binds[i]);
    }
    int rc;
    while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
      SqlRow row;
      for (int c = 0; c < sqlite3_column_count(stmt); ++c) {
        row.push_back(Cell(stmt, c));
      }
      out.push_back(std::move(row));
    }
    if (rc != SQLITE_DONE) {
      ADD_FAILURE() << "sqlite step: " << sqlite3_errmsg(db_) << "\n" << sql;
    }
    sqlite3_finalize(stmt);
    return out;
  }

  // Number of rows of the query's table matching its WHERE clause.
  int64_t CountWhere(const SelectQuery& q) {
    std::vector<Value> binds;
    const std::string where = RenderPredicate(*q.where, &binds);
    return IntOf(Rows("SELECT COUNT(*) FROM " + Quote(q.table) + " WHERE " +
                          where,
                      binds)
                     .at(0)
                     .at(0));
  }

  // Checks `got` (our engine's result for `q` over the loaded table)
  // against SQLite; the failure message names the first mismatch.
  ::testing::AssertionResult Check(const SelectQuery& q,
                                   const AggregateResult& got) {
    std::vector<Value> binds;
    const std::string where = RenderPredicate(*q.where, &binds);
    const int64_t matched = CountWhere(q);
    if (got.rows_matched != matched) {
      return ::testing::AssertionFailure()
             << "rows_matched " << got.rows_matched << ", SQLite " << matched;
    }
    // Whole selection: the top-level states.
    Scope all{where, binds};
    auto total = Rows("SELECT " + RenderItems(q) + " FROM " + Quote(q.table) +
                          " WHERE " + where,
                      binds);
    if (auto r = CheckStates(q, got.states, total.at(0), all, 0); !r) {
      return r << " (whole selection)";
    }
    if (q.group_by.empty()) {
      if (!got.groups.empty()) {
        return ::testing::AssertionFailure() << "groups in ungrouped result";
      }
      return ::testing::AssertionSuccess();
    }
    const std::string g = Quote(q.group_by);
    // Sketch truth is fetched per group: index the group column so that
    // costs a lookup, not a scan.
    Rows("CREATE INDEX IF NOT EXISTS " + Quote("by_" + q.group_by) + " ON " +
             Quote(q.table) + " (" + g + ")",
         {});
    auto rows = Rows("SELECT " + g + ", " + RenderItems(q) + " FROM " +
                         Quote(q.table) + " WHERE " + where + " GROUP BY " + g,
                     binds);
    if (rows.size() != got.groups.size()) {
      return ::testing::AssertionFailure()
             << got.groups.size() << " groups, SQLite " << rows.size();
    }
    for (const SqlRow& row : rows) {
      const Value key = *row.at(0);
      const std::vector<AggState>* states = got.FindGroup(key);
      if (states == nullptr) {
        return ::testing::AssertionFailure()
               << "missing group " << key.ToString();
      }
      Scope group{"(" + where + ") AND " + g + " = ?", binds};
      group.binds.push_back(key);
      if (auto r = CheckStates(q, *states, row, group, 1); !r) {
        return r << " (group " << key.ToString() << ")";
      }
    }
    return ::testing::AssertionSuccess();
  }

 private:
  // The rows one answer covers: a WHERE clause and its binds.
  struct Scope {
    std::string where;
    std::vector<Value> binds;
  };

  static std::string Quote(const std::string& ident) {
    std::string out = "\"";
    for (char c : ident) {
      out += c;
      if (c == '"') out += '"';
    }
    return out + "\"";
  }

  static const char* SqlType(ColumnType t) {
    switch (t) {
      case ColumnType::kInt64:
        return "INTEGER";
      case ColumnType::kDouble:
        return "REAL";
      case ColumnType::kString:
        return "TEXT";
    }
    return "";
  }

  static const char* SqlOp(CompareOp op) {
    switch (op) {
      case CompareOp::kEq:
        return "=";
      case CompareOp::kNe:
        return "<>";
      case CompareOp::kLt:
        return "<";
      case CompareOp::kLe:
        return "<=";
      case CompareOp::kGt:
        return ">";
      case CompareOp::kGe:
        return ">=";
    }
    return "?";
  }

  static std::string RenderPredicate(const Predicate& p,
                                     std::vector<Value>* binds) {
    switch (p.kind) {
      case Predicate::Kind::kTrue:
        return "1";
      case Predicate::Kind::kCompare:
        binds->push_back(p.literal);
        return Quote(p.column) + " " + SqlOp(p.op) + " ?";
      case Predicate::Kind::kAnd:
      case Predicate::Kind::kOr: {
        std::string l = RenderPredicate(*p.left, binds);
        std::string r = RenderPredicate(*p.right, binds);
        return "(" + l + (p.kind == Predicate::Kind::kAnd ? " AND " : " OR ") +
               r + ")";
      }
    }
    return "0";
  }

  // One SQLite expression per select item. Exact functions map to their
  // SQL namesakes; DISTINCT_APPROX to the exact distinct count; QUANTILE
  // and TOPK to the input row count n, with the rest of their truth
  // fetched per answer (ranks of the answer, counts of each key).
  static std::string RenderItems(const SelectQuery& q) {
    std::string out;
    for (const SelectItem& item : q.items) {
      if (!out.empty()) out += ", ";
      if (!item.is_aggregate) {
        out += Quote(item.column);
        continue;
      }
      const std::string arg = item.column.empty() ? "*" : Quote(item.column);
      const std::string& name = item.func->name();
      if (name == "DISTINCT_APPROX") {
        out += "COUNT(DISTINCT " + arg + ")";
      } else if (name == "QUANTILE" || name == "TOPK") {
        out += "COUNT(" + arg + ")";
      } else {
        out += name + "(" + arg + ")";
      }
    }
    return out;
  }

  // `row[offset + i]` is SQLite's cell for select item i.
  ::testing::AssertionResult CheckStates(const SelectQuery& q,
                                         const std::vector<AggState>& states,
                                         const SqlRow& row, const Scope& scope,
                                         size_t offset) {
    if (states.size() != q.items.size()) {
      return ::testing::AssertionFailure()
             << states.size() << " states for " << q.items.size() << " items";
    }
    for (size_t i = 0; i < q.items.size(); ++i) {
      const SelectItem& item = q.items[i];
      if (!item.is_aggregate) continue;  // rendered from the group key
      auto r = CheckItem(q, item, states[i], row.at(offset + i), scope);
      if (!r) return r << " [item " << i << " " << item.func->name() << "]";
    }
    return ::testing::AssertionSuccess();
  }

  ::testing::AssertionResult CheckItem(const SelectQuery& q,
                                       const SelectItem& item,
                                       const AggState& state,
                                       const SqlCell& truth,
                                       const Scope& scope) {
    const std::string& name = item.func->name();
    const double param = item.EffectiveParam();
    Result<Value> ours = item.func->Finalize(state, param);
    // Over empty input AVG/MIN/MAX give SQLite's NULL, and QUANTILE/TOPK
    // (checked through their input count n) n = 0: ours must be NotFound.
    // COUNT and DISTINCT_APPROX give 0 on both sides; SUM is handled below.
    const bool counted = name == "QUANTILE" || name == "TOPK";
    const bool nullable = counted || name == "AVG" || name == "MIN" ||
                          name == "MAX";
    if (nullable && (!truth.has_value() || (counted && IntOf(truth) == 0))) {
      if (ours.ok() || !ours.status().IsNotFound()) {
        return ::testing::AssertionFailure()
               << "expected NotFound over empty input, got "
               << (ours.ok() ? ours->ToString() : ours.status().ToString());
      }
      return ::testing::AssertionSuccess();
    }
    if (!ours.ok()) {
      return ::testing::AssertionFailure() << ours.status().ToString();
    }
    const Value& v = *ours;
    if (name == "COUNT" || name == "DISTINCT_APPROX") {
      const int64_t t = IntOf(truth);
      const int64_t est = v.AsInt64();
      // HLL p=12: standard error 1.04/sqrt(4096); the estimate is rounded
      // to an integer, hence the extra half.
      const double tol = name == "COUNT"
                             ? 0
                             : 3 * 1.04 / 64 * static_cast<double>(t) + 0.5;
      if (std::abs(static_cast<double>(est - t)) > tol) {
        return ::testing::AssertionFailure()
               << est << ", SQLite " << t << " (tolerance " << tol << ")";
      }
      return ::testing::AssertionSuccess();
    }
    if (name == "SUM" || name == "AVG" || name == "MIN" || name == "MAX") {
      // SQLite's SUM over no rows is NULL; ours is 0.
      const double t = truth.has_value() ? NumOf(truth) : 0.0;
      const bool exact_kind = name != "AVG" &&
                              !(name == "SUM" && truth.has_value() &&
                                truth->is_double());
      const double tol = exact_kind ? 0 : 1e-9 * std::abs(t);
      if (!(std::abs(v.AsDouble() - t) <= tol)) {
        return ::testing::AssertionFailure()
               << FormatDouble(v.AsDouble()) << ", SQLite " << FormatDouble(t);
      }
      return ::testing::AssertionSuccess();
    }
    const int64_t n = IntOf(truth);
    if (name == "QUANTILE") {
      const std::string col = Quote(item.column);
      // The two rank placeholders precede the scope's in the statement.
      std::vector<Value> binds = {v, v};
      binds.insert(binds.end(), scope.binds.begin(), scope.binds.end());
      auto ranks = Rows("SELECT SUM(" + col + " < ?), SUM(" + col +
                            " <= ?) FROM " + Quote(q.table) + " WHERE " +
                            scope.where,
                        binds);
      const double lt = NumOf(ranks.at(0).at(0));
      const double le = NumOf(ranks.at(0).at(1));
      const double target = param * static_cast<double>(n);
      const double tol = std::max(1.0, 0.01 * static_cast<double>(n));
      if (lt > target + tol || le < target - tol) {
        return ::testing::AssertionFailure()
               << "QUANTILE(" << param << ") = " << FormatDouble(v.AsDouble())
               << " has rank [" << lt << ", " << le << "], want " << target
               << " +- " << tol << " of n=" << n;
      }
      return ::testing::AssertionSuccess();
    }
    if (name == "TOPK") {
      const auto k = static_cast<size_t>(param);
      const double slack =
          static_cast<double>(n) /
          static_cast<double>(TopKSketch::CapacityFor(static_cast<int64_t>(k)) +
                              1);
      // Keys come back as text: a string column's are bound as text, a
      // numeric column's as the double the sketch counted.
      const bool string_col = string_columns_.count(item.column) > 0;
      std::stringstream entries(v.AsString());
      std::string entry;
      size_t seen = 0;
      while (std::getline(entries, entry, ';')) {
        ++seen;
        const size_t colon = entry.rfind(':');
        if (colon == std::string::npos) {
          return ::testing::AssertionFailure() << "bad TOPK entry " << entry;
        }
        const std::string key_text = entry.substr(0, colon);
        const double est = std::strtod(entry.c_str() + colon + 1, nullptr);
        std::vector<Value> binds = scope.binds;
        binds.push_back(string_col ? Value(key_text)
                                   : Value(std::strtod(key_text.c_str(),
                                                       nullptr)));
        const double t = NumOf(
            Rows("SELECT COUNT(*) FROM " + Quote(q.table) + " WHERE (" +
                     scope.where + ") AND " + Quote(item.column) + " = ?",
                 binds)
                .at(0)
                .at(0));
        if (est > t || est < t - slack) {
          return ::testing::AssertionFailure()
                 << "TOPK key " << key_text << " count " << est << ", SQLite "
                 << t << " (Misra-Gries slack " << slack << ")";
        }
      }
      if (seen == 0 || seen > k) {
        return ::testing::AssertionFailure()
               << "TOPK(" << k << ") returned " << seen << " entries";
      }
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "no oracle mapping for " << name;
  }

  sqlite3_stmt* Prepare(const std::string& sql) {
    sqlite3_stmt* stmt = nullptr;
    if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) !=
        SQLITE_OK) {
      ADD_FAILURE() << "sqlite prepare: " << sqlite3_errmsg(db_) << "\n"
                    << sql;
      sqlite3_finalize(stmt);
      return nullptr;
    }
    return stmt;
  }

  static void Bind(sqlite3_stmt* stmt, int index, const Value& v) {
    if (v.is_int64()) {
      sqlite3_bind_int64(stmt, index, v.AsInt64());
    } else if (v.is_double()) {
      sqlite3_bind_double(stmt, index, v.AsDouble());
    } else {
      sqlite3_bind_text(stmt, index, v.AsString().data(),
                        static_cast<int>(v.AsString().size()),
                        SQLITE_TRANSIENT);
    }
  }

  static SqlCell Cell(sqlite3_stmt* stmt, int c) {
    switch (sqlite3_column_type(stmt, c)) {
      case SQLITE_INTEGER:
        return Value(static_cast<int64_t>(sqlite3_column_int64(stmt, c)));
      case SQLITE_FLOAT:
        return Value(sqlite3_column_double(stmt, c));
      case SQLITE_TEXT:
        return Value(std::string(
            reinterpret_cast<const char*>(sqlite3_column_text(stmt, c)),
            static_cast<size_t>(sqlite3_column_bytes(stmt, c))));
      default:
        return std::nullopt;
    }
  }

  static int64_t IntOf(const SqlCell& c) {
    return c.has_value() && c->is_int64() ? c->AsInt64() : 0;
  }
  static double NumOf(const SqlCell& c) {
    if (!c.has_value()) return 0;
    return c->is_int64() ? static_cast<double>(c->AsInt64()) : c->AsDouble();
  }
  static std::string FormatDouble(double d) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", d);
    return buf;
  }

  sqlite3* db_ = nullptr;
  std::set<std::string> string_columns_;
};

}  // namespace seaweed::db

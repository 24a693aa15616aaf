#include "db/csv.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "db/schema.h"

namespace seaweed::db {

namespace {

// Splits one CSV record honoring quotes. Returns false on unterminated
// quote.
bool SplitCsvLine(const std::string& line, char delimiter,
                  std::vector<std::string>* out) {
  out->clear();
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      out->push_back(std::move(field));
      field.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      field.push_back(c);
    }
  }
  if (in_quotes) return false;
  out->push_back(std::move(field));
  return true;
}

}  // namespace

Result<int64_t> AppendCsv(std::istream& in, Table* table,
                          const CsvOptions& options) {
  const Schema& schema = table->schema();
  // column_order[i] = schema column index for CSV field i.
  std::vector<int> column_order;
  std::string line;
  int line_no = 0;

  if (options.has_header) {
    if (!std::getline(in, line)) {
      return Status::ParseError("empty CSV input (header expected)");
    }
    ++line_no;
    std::vector<std::string> names;
    if (!SplitCsvLine(line, options.delimiter, &names)) {
      return Status::ParseError("unterminated quote in header");
    }
    for (const auto& name : names) {
      int idx = schema.FindColumn(name);
      if (idx < 0) {
        return Status::ParseError("CSV header column '" + name +
                                  "' not in schema");
      }
      column_order.push_back(idx);
    }
    // Every schema column must be present exactly once.
    if (column_order.size() != schema.num_columns()) {
      return Status::ParseError("CSV header has " +
                                std::to_string(column_order.size()) +
                                " columns, schema has " +
                                std::to_string(schema.num_columns()));
    }
  } else {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      column_order.push_back(static_cast<int>(i));
    }
  }

  int64_t appended = 0;
  std::vector<std::string> fields;
  std::vector<Value> row(schema.num_columns());
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!SplitCsvLine(line, options.delimiter, &fields)) {
      return Status::ParseError("unterminated quote at line " +
                                std::to_string(line_no));
    }
    if (fields.size() != column_order.size()) {
      return Status::ParseError(
          "line " + std::to_string(line_no) + ": expected " +
          std::to_string(column_order.size()) + " fields, got " +
          std::to_string(fields.size()));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      int col = column_order[i];
      const ColumnDef& def = schema.column(static_cast<size_t>(col));
      const std::string& text = fields[i];
      char* endp = nullptr;
      switch (def.type) {
        case ColumnType::kInt64: {
          errno = 0;
          long long v = std::strtoll(text.c_str(), &endp, 10);
          if (endp == text.c_str() || *endp != '\0' || errno == ERANGE) {
            return Status::ParseError("line " + std::to_string(line_no) +
                                      ": bad integer '" + text + "' for " +
                                      def.name);
          }
          row[static_cast<size_t>(col)] = Value(static_cast<int64_t>(v));
          break;
        }
        case ColumnType::kDouble: {
          // Non-finite or out-of-range values are rejected: a NaN row would
          // poison every aggregate (and sketch state) built over it.
          errno = 0;
          double v = std::strtod(text.c_str(), &endp);
          if (endp == text.c_str() || *endp != '\0' || errno == ERANGE ||
              !std::isfinite(v)) {
            return Status::ParseError("line " + std::to_string(line_no) +
                                      ": bad number '" + text + "' for " +
                                      def.name);
          }
          row[static_cast<size_t>(col)] = Value(v);
          break;
        }
        case ColumnType::kString:
          row[static_cast<size_t>(col)] = Value(text);
          break;
      }
    }
    SEAWEED_RETURN_NOT_OK(table->AppendRow(row));
    ++appended;
  }
  return appended;
}

Result<int64_t> AppendCsvFile(const std::string& path, Table* table,
                              const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  return AppendCsv(in, table, options);
}

}  // namespace seaweed::db

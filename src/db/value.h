// Typed scalar values for the relational engine.
//
// Seaweed's data model (§2 of the paper) is relational with a fixed schema
// per application. Three physical types cover the Anemone schema and the
// query subset: 64-bit integers (also used for timestamps as Unix seconds),
// doubles, and strings.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"
#include "common/serialize.h"

namespace seaweed::db {

enum class ColumnType : uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

const char* ColumnTypeName(ColumnType t);

class Value {
 public:
  Value() : v_(int64_t{0}) {}
  explicit Value(int64_t v) : v_(v) {}
  explicit Value(double v) : v_(v) {}
  explicit Value(std::string v) : v_(std::move(v)) {}

  ColumnType type() const {
    return static_cast<ColumnType>(v_.index());
  }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt64() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  // Numeric view: int64 and double both convert; strings fail.
  Result<double> ToNumeric() const;

  // Three-way comparison for same-kind values; numeric kinds compare
  // cross-type (int vs double). Comparing a string against a numeric is an
  // error surfaced as InvalidArgument at bind time, not here.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  // Same type and same bits, so the encodings match: unlike operator==,
  // 3 differs from 3.0 and -0.0 from 0.0.
  bool Identical(const Value& other) const {
    if (v_.index() != other.v_.index()) return false;
    if (is_double()) {
      return std::bit_cast<uint64_t>(AsDouble()) ==
             std::bit_cast<uint64_t>(other.AsDouble());
    }
    return v_ == other.v_;
  }

  std::string ToString() const;

  // Binary encoding: 1-byte type tag + payload.
  void Encode(Writer& w) const;
  static Result<Value> Decode(Reader& r);

  // Strict ordering usable as a map key (orders by type, then value).
  bool operator<(const Value& other) const {
    if (v_.index() != other.v_.index()) return v_.index() < other.v_.index();
    return Compare(other) < 0;
  }

 private:
  std::variant<int64_t, double, std::string> v_;
};

}  // namespace seaweed::db

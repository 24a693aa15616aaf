// Abstract syntax for the Seaweed SQL subset.
//
// The paper restricts distributed read-only queries to single-table
// select-project-aggregate (no joins, §1.3). The grammar:
//
//   query      := SELECT select_list FROM ident [WHERE expr]
//                 [GROUP BY ident]
//   select_list:= select_item (',' select_item)*
//   select_item:= agg '(' (ident | '*') [',' number] ')' | ident | '*'
//   agg        := any name in the AggregateRegistry (SUM, COUNT, AVG, MIN,
//                 MAX, DISTINCT_APPROX, QUANTILE, TOPK, ...)
//   expr       := conj (OR conj)*
//   conj       := atom (AND atom)*
//   atom       := ident cmp scalar | '(' expr ')'
//   cmp        := '=' | '!=' | '<>' | '<' | '<=' | '>' | '>='
//   scalar     := literal (('+'|'-') literal)*     -- constant-folded
//   literal    := number | string | NOW()
//
// NOW() binds to the injecting endsystem's clock at parse time (§4.1 note).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "db/value.h"

namespace seaweed::db {

class AggregateFunction;

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

struct Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

// Immutable predicate tree. Shared (not unique) ownership because parsed
// queries are broadcast to many simulated endsystems.
struct Predicate {
  enum class Kind : uint8_t { kTrue, kCompare, kAnd, kOr };

  Kind kind = Kind::kTrue;

  // kCompare:
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;

  // kAnd / kOr:
  PredicatePtr left;
  PredicatePtr right;

  static PredicatePtr True();
  static PredicatePtr Compare(std::string column, CompareOp op, Value literal);
  static PredicatePtr And(PredicatePtr l, PredicatePtr r);
  static PredicatePtr Or(PredicatePtr l, PredicatePtr r);

  std::string ToString() const;
};

struct SelectItem {
  bool is_aggregate = false;
  // Registry-owned aggregate function (see db/aggregate.h); null for bare
  // column / '*' projection items. The parser resolves names through
  // AggregateRegistry::Global(), so the set of functions is open.
  const AggregateFunction* func = nullptr;
  // Empty column means '*' (valid only for COUNT or plain projection '*').
  std::string column;
  // Optional function parameter (QUANTILE's q, TOPK's k). Valid only when
  // has_param; otherwise the function's default applies.
  double param = 0;
  bool has_param = false;

  // The parameter Finalize/InitState should use: the explicit one when
  // present, else the function's declared default.
  double EffectiveParam() const;
};

struct SelectQuery {
  std::string table;
  std::vector<SelectItem> items;
  PredicatePtr where;  // never null; Predicate::True() when absent
  // Optional GROUP BY column (single column; grouped aggregates stay
  // mergeable, so they aggregate in-network like plain aggregates).
  std::string group_by;

  // True when every item is an aggregate (or the GROUP BY column itself) —
  // required for distributed execution with in-network aggregation.
  bool IsAggregateOnly() const;

  std::string ToString() const;
};

}  // namespace seaweed::db

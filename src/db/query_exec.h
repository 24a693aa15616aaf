// Query execution: predicate compilation, aggregate accumulators, and the
// single-table executor every Seaweed endsystem runs locally.
//
// One engine, batch (vectorized): predicates compile to flat,
// type-specialized column kernels producing a selection vector per
// ~1024-row batch (see batch_kernels.h); aggregation runs fused
// SUM/COUNT/MIN/MAX kernels over the selection with no Value boxing;
// GROUP BY on a dictionary column uses dense array-indexed accumulators
// sized by dict_size(). Rows are accumulated in table order. The test
// oracle is SQLite (tests/sqlite_oracle.h), which shares none of this code.
//
// Aggregate states are *mergeable* — the property in-network aggregation
// (§3.4) depends on: merging the per-endsystem states in any order and any
// grouping yields the same final answer. AVG is carried as (sum, count).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "db/aggregate.h"
#include "db/ast.h"
#include "db/batch_kernels.h"
#include "db/sketch.h"
#include "db/table.h"
#include "obs/metrics.h"

namespace seaweed::db {

// A predicate compiled to batch kernels. AND/OR become selection-vector
// composition/union; dictionary-coded string equality becomes a uint32_t
// compare against a pre-resolved code.
class BatchPredicate {
 public:
  static Result<BatchPredicate> Bind(const PredicatePtr& pred,
                                     const Table& table);

  // Fills `out` with the sorted ids of matching rows among
  // [start, start + len). `len` must be <= kBatchSize.
  void FilterBatch(const Table& table, uint32_t start, uint32_t len,
                   SelVector* out) const;

  // True when the predicate matches every row (no WHERE clause): the
  // executor then skips selection vectors entirely.
  bool always_true() const {
    return root_ >= 0 &&
           nodes_[static_cast<size_t>(root_)].kind == Predicate::Kind::kTrue;
  }

  // Cheap re-validation for plan caching: the bound column indices, types,
  // and dictionary codes still describe `table`. A deterministic regenerated
  // table passes; a reshaped one forces a re-bind.
  bool CompatibleWith(const Table& table) const;

 private:
  struct Node {
    Predicate::Kind kind;
    // kCompare:
    int column_index = -1;
    ColumnType column_type = ColumnType::kInt64;
    CompareOp op = CompareOp::kEq;
    int64_t int_literal = 0;
    double double_literal = 0;
    int64_t string_code = -1;  // -1 = literal absent from dictionary
    bool literal_is_int = true;
    std::string string_literal;  // retained for cache re-validation
    // kAnd/kOr: child indices into nodes_.
    int left = -1;
    int right = -1;
  };

  static Result<int> BindNode(const PredicatePtr& pred, const Table& table,
                              std::vector<Node>* nodes);
  // Evaluates node `idx` over the batch: with in == nullptr the node scans
  // [start, start + len) densely, otherwise it refines *in. Appends to *out.
  void EvalNode(int idx, const Table& table, uint32_t start, uint32_t len,
                const SelVector* in, SelVector* out) const;

  std::vector<Node> nodes_;
  int root_ = -1;
};

// Accumulator for one aggregate select item. Every state carries the exact
// (sum, count, min, max) quad; sketch functions additionally attach a
// SketchState (see db/sketch.h) whose wire tag comes from the function's
// AggDescriptor. Copyable (deep sketch clone) so results replicate.
struct AggState {
  double sum = 0;
  int64_t count = 0;  // rows contributing to this aggregate
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::unique_ptr<SketchState> sketch;  // null for exact functions

  AggState() = default;
  AggState(const AggState& other) { *this = other; }
  AggState& operator=(const AggState& other) {
    sum = other.sum;
    count = other.count;
    min = other.min;
    max = other.max;
    sketch = other.sketch ? other.sketch->Clone() : nullptr;
    return *this;
  }
  AggState(AggState&&) = default;
  AggState& operator=(AggState&&) = default;

  void Add(double v) {
    sum += v;
    ++count;
    if (v < min) min = v;
    if (v > max) max = v;
    if (sketch) sketch->Update(v);
  }
  void AddString(const std::string& s) {
    ++count;
    if (sketch) sketch->UpdateString(s);
  }
  void AddCountOnly() { ++count; }

  void Merge(const AggState& other);

  void Encode(Writer& w) const;
  static Result<AggState> Decode(Reader& r);

  bool operator==(const AggState& other) const;
  // Same bits, so the encodings match (operator== equates -0.0 with 0.0).
  bool Identical(const AggState& other) const;
};

// The distributed result unit: one AggState per select item plus the count
// of matching rows and contributing endsystems. This is what flows up the
// Seaweed aggregation tree.
//
// For GROUP BY queries, `groups` holds one AggState vector per group key
// (sorted by key); merging is per-key, so grouped results aggregate
// in-network exactly like plain ones. The aggregate-item AggStates for
// the bare group-column select item are unused placeholders.
struct AggregateResult {
  std::vector<AggState> states;
  // Sorted by key; empty for ungrouped queries.
  std::vector<std::pair<Value, std::vector<AggState>>> groups;
  int64_t rows_matched = 0;
  int64_t endsystems = 0;

  void Merge(const AggregateResult& other);

  // States for `key`, creating the group if absent (keeps `groups` sorted).
  std::vector<AggState>& GroupStates(const Value& key, size_t arity);
  const std::vector<AggState>* FindGroup(const Value& key) const;

  void Encode(Writer& w) const;
  static Result<AggregateResult> Decode(Reader& r);
  size_t EncodedBytes() const;

  // True when any state (top-level or grouped) carries a sketch; the
  // node-level seaweed.sketch.* metrics key off these.
  bool HasSketchStates() const;
  // Total encoded bytes of all attached sketches.
  size_t SketchStateBytes() const;

  bool operator==(const AggregateResult&) const = default;
  // Equal in representation, not just in meaning: identical results encode
  // to the same bytes (operator== equates 3 with 3.0 and -0.0 with 0.0).
  bool Identical(const AggregateResult& other) const;
};

// An immutable AggregateResult with shared ownership: the form results take
// in the aggregation tree. A result is built once — by local execution, a
// merge or a decode — and never changed, so a fan-in-1 vertex, the backups
// that replicate it and the messages that carry it all hold the same
// object. Its encoded size and sketch bytes are computed when it is built.
class SharedResult {
 public:
  // The empty result (one object shared by every default handle).
  SharedResult();
  SharedResult(AggregateResult result);  // NOLINT(runtime/explicit)
  // Decodes one result; its encoded size is the bytes consumed.
  static Result<SharedResult> Decode(Reader& r);

  const AggregateResult& operator*() const { return body_->result; }
  const AggregateResult* operator->() const { return &body_->result; }
  // Identifies the shared object: equal for handles to the same one.
  const AggregateResult* get() const { return &body_->result; }

  void Encode(Writer& w) const { body_->result.Encode(w); }
  size_t encoded_bytes() const { return body_->encoded_bytes; }
  bool has_sketch() const { return body_->has_sketch; }
  size_t sketch_bytes() const { return body_->sketch_bytes; }

  // Same object, or AggregateResult::Identical (the same encoding).
  bool Identical(const SharedResult& other) const {
    return body_ == other.body_ || body_->result.Identical(*other);
  }
  bool operator==(const SharedResult& other) const {
    return body_ == other.body_ || body_->result == *other;
  }

 private:
  struct Body {
    AggregateResult result;
    size_t encoded_bytes = 0;
    size_t sketch_bytes = 0;
    bool has_sketch = false;
  };
  SharedResult(AggregateResult result, size_t encoded_bytes);

  std::shared_ptr<const Body> body_;
};

// An aggregate query fully bound against one table: batch predicate plus
// resolved aggregate inputs and group column. Bind once, execute many —
// SeaweedNode caches these per query so repeated incremental executions
// skip re-binding.
class CompiledQuery {
 public:
  static Result<CompiledQuery> Bind(const Table& table,
                                    const SelectQuery& query);

  // Executes against `table` with the batch engine. The table must be
  // compatible with the one the plan was bound against (same schema and
  // dictionary codes for bound string literals); use CompatibleWith to
  // re-validate a cached plan against a regenerated table.
  Result<AggregateResult> Execute(const Table& table) const;

  bool CompatibleWith(const Table& table) const;

 private:
  struct AggInput {
    const AggregateFunction* func = nullptr;  // registry-owned
    double param = 0;  // effective parameter (explicit or default)
    int column = -1;   // -1 for COUNT(*) or the bare group-by column
    bool is_group_column = false;
    ColumnType type = ColumnType::kInt64;
  };

  void AccumulateUngrouped(const Table& table, const SelVector& sel,
                           AggregateResult* result) const;
  void AccumulateUngroupedDense(const Table& table, uint32_t start,
                                uint32_t len, AggregateResult* result) const;

  BatchPredicate pred_;
  std::vector<AggInput> inputs_;
  int group_column_ = -1;
  ColumnType group_type_ = ColumnType::kInt64;
  size_t num_columns_ = 0;  // schema arity at bind time (re-validation)
  bool any_sketch_ = false;  // disables the dense GROUP BY fast path

  friend class AggregateCursor;
};

// Resumable execution of a CompiledQuery (SaGe-style time slicing): Step()
// processes up to `max_batches` ~1024-row batches and returns whether the
// scan has finished; Take() finalizes (dense GROUP BY emit) and yields the
// result. Execute() is Step-to-completion, so sliced and one-shot runs
// accumulate in the same batch order and produce bit-identical results.
// `plan` and `table` must outlive the cursor.
class AggregateCursor {
 public:
  AggregateCursor(const CompiledQuery* plan, const Table* table);

  // Advances the scan; returns true once all rows have been consumed.
  bool Step(size_t max_batches);
  bool done() const { return next_row_ >= total_rows_; }
  // Valid once done(); consumes the accumulated result.
  AggregateResult Take();

  uint64_t rows_scanned() const { return next_row_; }
  size_t total_rows() const { return total_rows_; }

 private:
  const CompiledQuery* plan_;
  const Table* table_;
  size_t total_rows_ = 0;
  size_t next_row_ = 0;
  AggregateResult result_;
  const Column* group_col_ = nullptr;
  bool dense_group_ = false;
  bool no_filter_ = false;
  std::vector<AggState> dense_states_;
  std::vector<int64_t> dense_rows_;
  const uint32_t* group_codes_ = nullptr;
  SelVector sel_;
};

// Cache of compiled plans keyed by an opaque caller-chosen key (SeaweedNode
// uses the query id). A hit is re-validated against the current table (and
// the query fingerprint, since keys could theoretically be reused) and
// silently re-bound when stale.
class PlanCache {
 public:
  // Publishes cache behavior to `registry`: "db.plan_cache.hits"/".binds"
  // counters and "db.rows_scanned"/"db.rows_selected" histograms (recorded
  // by Database::ExecuteAggregateCached per execution).
  void AttachMetrics(obs::MetricsRegistry* registry);
  void RecordExecution(uint64_t rows_scanned, uint64_t rows_selected);

  // Returns a plan valid for (table, query), binding on miss/staleness.
  // The pointer is owned by the cache and invalidated by the next
  // GetOrBind/Erase/Clear for the same key.
  Result<const CompiledQuery*> GetOrBind(const std::string& key,
                                         const Table& table,
                                         const SelectQuery& query);

  void Erase(const std::string& key) { plans_.erase(key); }
  void Clear() { plans_.clear(); }
  size_t size() const { return plans_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t binds() const { return binds_; }

 private:
  struct Entry {
    std::string fingerprint;  // SelectQuery::ToString() at bind time
    CompiledQuery plan;
  };
  std::unordered_map<std::string, Entry> plans_;
  uint64_t hits_ = 0;
  uint64_t binds_ = 0;
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* binds_metric_ = nullptr;
  obs::Histogram* rows_scanned_ = nullptr;
  obs::Histogram* rows_selected_ = nullptr;
};

// Executes an aggregate-only query against a local table (batch engine).
Result<AggregateResult> ExecuteAggregate(const Table& table,
                                         const SelectQuery& query);

// Counts rows matching the query's WHERE clause (used for exact row counts
// on available endsystems and as ground truth in the evaluation).
Result<int64_t> CountMatching(const Table& table, const SelectQuery& query);

// Projection result for non-aggregate local queries.
struct RowSet {
  std::vector<std::string> column_names;
  std::vector<std::vector<Value>> rows;
};

// Executes a projection (non-aggregate) query locally. Distributed execution
// is restricted to aggregates; this supports the paper's local queries.
Result<RowSet> ExecuteSelect(const Table& table, const SelectQuery& query,
                             size_t limit = SIZE_MAX);

}  // namespace seaweed::db

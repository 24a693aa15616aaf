#include "db/query_exec.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace seaweed::db {

namespace {

// GROUP BY on a dictionary column uses dense array-indexed accumulators
// sized by dict_size(); above this cardinality the executor falls back to
// the Value-keyed path to bound memory (dict_size * arity * sizeof(AggState)
// at 64k is a few MiB worst case).
constexpr size_t kDenseGroupMaxDict = size_t{1} << 16;

}  // namespace

// ---------------------------------------------------------------------------
// Batch predicate
// ---------------------------------------------------------------------------

Result<int> BatchPredicate::BindNode(const PredicatePtr& pred,
                                     const Table& table,
                                     std::vector<Node>* nodes) {
  Node node;
  node.kind = pred->kind;
  switch (pred->kind) {
    case Predicate::Kind::kTrue:
      break;
    case Predicate::Kind::kCompare: {
      SEAWEED_ASSIGN_OR_RETURN(int col,
                               table.schema().RequireColumn(pred->column));
      node.column_index = col;
      node.column_type = table.schema().column(static_cast<size_t>(col)).type;
      node.op = pred->op;
      const Value& lit = pred->literal;
      if (node.column_type == ColumnType::kString) {
        if (!lit.is_string()) {
          return Status::InvalidArgument(
              "numeric literal compared against string column " +
              pred->column);
        }
        if (pred->op != CompareOp::kEq && pred->op != CompareOp::kNe) {
          return Status::NotImplemented(
              "range comparison on string column is not supported");
        }
        node.string_literal = lit.AsString();
        node.string_code =
            table.column(static_cast<size_t>(col)).DictCode(node.string_literal);
        node.literal_is_int = false;
      } else {
        if (lit.is_string()) {
          return Status::InvalidArgument(
              "string literal compared against numeric column " +
              pred->column);
        }
        if (lit.is_int64()) {
          node.int_literal = lit.AsInt64();
          node.double_literal = static_cast<double>(lit.AsInt64());
          node.literal_is_int = true;
        } else {
          node.double_literal = lit.AsDouble();
          node.literal_is_int = false;
        }
      }
      break;
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      SEAWEED_ASSIGN_OR_RETURN(int l, BindNode(pred->left, table, nodes));
      SEAWEED_ASSIGN_OR_RETURN(int r, BindNode(pred->right, table, nodes));
      node.left = l;
      node.right = r;
      break;
    }
  }
  nodes->push_back(node);
  return static_cast<int>(nodes->size()) - 1;
}

Result<BatchPredicate> BatchPredicate::Bind(const PredicatePtr& pred,
                                            const Table& table) {
  BatchPredicate bp;
  std::vector<Node> nodes;
  SEAWEED_ASSIGN_OR_RETURN(int root, BindNode(pred, table, &nodes));
  bp.nodes_ = std::move(nodes);
  bp.root_ = root;
  return bp;
}

void BatchPredicate::EvalNode(int idx, const Table& table, uint32_t start,
                              uint32_t len, const SelVector* in,
                              SelVector* out) const {
  out->Clear();
  const Node& n = nodes_[static_cast<size_t>(idx)];
  switch (n.kind) {
    case Predicate::Kind::kTrue: {
      if (in == nullptr) {
        SelAll(start, len, out);
      } else {
        *out = *in;
      }
      return;
    }
    case Predicate::Kind::kAnd: {
      // Conjunction = kernel composition: the right side only ever touches
      // rows the left side selected.
      SelVector tmp;
      EvalNode(n.left, table, start, len, in, &tmp);
      EvalNode(n.right, table, start, len, &tmp, out);
      return;
    }
    case Predicate::Kind::kOr: {
      SelVector a, b;
      EvalNode(n.left, table, start, len, in, &a);
      EvalNode(n.right, table, start, len, in, &b);
      SelUnion(a, b, out);
      return;
    }
    case Predicate::Kind::kCompare: {
      const Column& col = table.column(static_cast<size_t>(n.column_index));
      switch (n.column_type) {
        case ColumnType::kInt64: {
          const int64_t* p = col.ints().data();
          if (n.literal_is_int) {
            if (in == nullptr) {
              FilterDenseOp(p, start, len, n.int_literal, n.op, out);
            } else {
              FilterSelOp(p, *in, n.int_literal, n.op, out);
            }
          } else {
            if (in == nullptr) {
              FilterDenseOp(p, start, len, n.double_literal, n.op, out);
            } else {
              FilterSelOp(p, *in, n.double_literal, n.op, out);
            }
          }
          return;
        }
        case ColumnType::kDouble: {
          const double* p = col.doubles().data();
          if (in == nullptr) {
            FilterDenseOp(p, start, len, n.double_literal, n.op, out);
          } else {
            FilterSelOp(p, *in, n.double_literal, n.op, out);
          }
          return;
        }
        case ColumnType::kString: {
          // Dictionary-coded equality: a uint32_t compare. A literal absent
          // from the dictionary matches nothing (=) or everything (!=).
          if (n.string_code < 0) {
            if (n.op == CompareOp::kNe) {
              if (in == nullptr) {
                SelAll(start, len, out);
              } else {
                *out = *in;
              }
            }
            return;  // kEq: empty selection
          }
          const uint32_t* p = col.codes().data();
          const uint32_t code = static_cast<uint32_t>(n.string_code);
          if (in == nullptr) {
            FilterDenseOp(p, start, len, code, n.op, out);
          } else {
            FilterSelOp(p, *in, code, n.op, out);
          }
          return;
        }
      }
      return;
    }
  }
}

void BatchPredicate::FilterBatch(const Table& table, uint32_t start,
                                 uint32_t len, SelVector* out) const {
  SEAWEED_DCHECK(len <= kBatchSize);
  EvalNode(root_, table, start, len, nullptr, out);
}

bool BatchPredicate::CompatibleWith(const Table& table) const {
  for (const Node& n : nodes_) {
    if (n.kind != Predicate::Kind::kCompare) continue;
    const size_t ci = static_cast<size_t>(n.column_index);
    if (ci >= table.num_columns()) return false;
    if (table.schema().column(ci).type != n.column_type) return false;
    if (n.column_type == ColumnType::kString &&
        table.column(ci).DictCode(n.string_literal) != n.string_code) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Aggregate states and results
// ---------------------------------------------------------------------------

void AggState::Merge(const AggState& other) {
  sum += other.sum;
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  if (other.sketch) {
    if (sketch == nullptr) {
      // Group states created by AggregateResult::Merge start sketchless;
      // adopt the incoming sketch so merge stays closed over states.
      sketch = other.sketch->Clone();
    } else {
      sketch->Merge(*other.sketch);
    }
  }
}

bool AggState::operator==(const AggState& other) const {
  if (sum != other.sum || count != other.count || min != other.min ||
      max != other.max) {
    return false;
  }
  if ((sketch == nullptr) != (other.sketch == nullptr)) return false;
  return sketch == nullptr || sketch->Equals(*other.sketch);
}

bool AggState::Identical(const AggState& other) const {
  auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  if (bits(sum) != bits(other.sum) || count != other.count ||
      bits(min) != bits(other.min) || bits(max) != bits(other.max)) {
    return false;
  }
  if (sketch == nullptr || other.sketch == nullptr) {
    return sketch == other.sketch;
  }
  return sketch->tag() == other.sketch->tag() && sketch->Equals(*other.sketch);
}

void AggState::Encode(Writer& w) const {
  // Tag byte first: 0 = exact quad only, nonzero = a sketch payload of
  // that type follows the quad (see db/sketch.h for the tag registry).
  w.PutU8(sketch ? sketch->tag() : kStateTagExact);
  w.PutDouble(sum);
  w.PutI64(count);
  w.PutDouble(min);
  w.PutDouble(max);
  if (sketch) sketch->Encode(w);
}

Result<AggState> AggState::Decode(Reader& r) {
  AggState s;
  SEAWEED_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  SEAWEED_ASSIGN_OR_RETURN(s.sum, r.GetDouble());
  SEAWEED_ASSIGN_OR_RETURN(s.count, r.GetI64());
  SEAWEED_ASSIGN_OR_RETURN(s.min, r.GetDouble());
  SEAWEED_ASSIGN_OR_RETURN(s.max, r.GetDouble());
  // Empty states carry min=+inf/max=-inf, so infinities are meaningful;
  // a NaN or a negative row count never is.
  if (s.count < 0) return Status::ParseError("negative aggregate count");
  if (std::isnan(s.sum) || std::isnan(s.min) || std::isnan(s.max)) {
    return Status::ParseError("NaN in aggregate state");
  }
  if (tag != kStateTagExact) {
    SEAWEED_ASSIGN_OR_RETURN(s.sketch, DecodeSketchState(tag, r));
  }
  return s;
}

void AggregateResult::Merge(const AggregateResult& other) {
  if (states.empty()) {
    states = other.states;
  } else if (!other.states.empty()) {
    SEAWEED_CHECK_MSG(states.size() == other.states.size(),
                      "merging results of different arity");
    for (size_t i = 0; i < states.size(); ++i) {
      states[i].Merge(other.states[i]);
    }
  }
  for (const auto& [key, other_states] : other.groups) {
    auto& mine = GroupStates(key, other_states.size());
    SEAWEED_CHECK_MSG(mine.size() == other_states.size(),
                      "merging groups of different arity");
    for (size_t i = 0; i < mine.size(); ++i) {
      mine[i].Merge(other_states[i]);
    }
  }
  rows_matched += other.rows_matched;
  endsystems += other.endsystems;
}

std::vector<AggState>& AggregateResult::GroupStates(const Value& key,
                                                    size_t arity) {
  auto it = std::lower_bound(
      groups.begin(), groups.end(), key,
      [](const auto& entry, const Value& k) { return entry.first < k; });
  if (it == groups.end() || !(it->first == key)) {
    it = groups.insert(it, {key, std::vector<AggState>(arity)});
  }
  return it->second;
}

const std::vector<AggState>* AggregateResult::FindGroup(
    const Value& key) const {
  auto it = std::lower_bound(
      groups.begin(), groups.end(), key,
      [](const auto& entry, const Value& k) { return entry.first < k; });
  if (it == groups.end() || !(it->first == key)) return nullptr;
  return &it->second;
}

bool AggregateResult::Identical(const AggregateResult& other) const {
  auto same_states = [](const std::vector<AggState>& a,
                        const std::vector<AggState>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const AggState& x, const AggState& y) {
                        return x.Identical(y);
                      });
  };
  if (rows_matched != other.rows_matched || endsystems != other.endsystems ||
      groups.size() != other.groups.size() ||
      !same_states(states, other.states)) {
    return false;
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    if (!groups[i].first.Identical(other.groups[i].first) ||
        !same_states(groups[i].second, other.groups[i].second)) {
      return false;
    }
  }
  return true;
}

void AggregateResult::Encode(Writer& w) const {
  w.PutVarint(states.size());
  for (const auto& s : states) s.Encode(w);
  w.PutVarint(groups.size());
  for (const auto& [key, group_states] : groups) {
    key.Encode(w);
    w.PutVarint(group_states.size());
    for (const auto& s : group_states) s.Encode(w);
  }
  w.PutI64(rows_matched);
  w.PutI64(endsystems);
}

Result<AggregateResult> AggregateResult::Decode(Reader& r) {
  AggregateResult out;
  SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 1024) return Status::ParseError("implausible aggregate arity");
  out.states.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SEAWEED_ASSIGN_OR_RETURN(AggState s, AggState::Decode(r));
    out.states.push_back(std::move(s));
  }
  SEAWEED_ASSIGN_OR_RETURN(uint64_t ng, r.GetVarint());
  if (ng > 1000000) return Status::ParseError("implausible group count");
  for (uint64_t g = 0; g < ng; ++g) {
    SEAWEED_ASSIGN_OR_RETURN(Value key, Value::Decode(r));
    // GroupStates/FindGroup binary-search the keys: an unsorted or repeated
    // key would be counted twice by the next Merge.
    if (!out.groups.empty() && !(out.groups.back().first < key)) {
      return Status::ParseError("group keys not strictly increasing");
    }
    SEAWEED_ASSIGN_OR_RETURN(uint64_t arity, r.GetVarint());
    if (arity > 1024) return Status::ParseError("implausible group arity");
    // Merge requires one arity across groups.
    if (!out.groups.empty() && arity != out.groups.front().second.size()) {
      return Status::ParseError("group arity differs between groups");
    }
    std::vector<AggState> group_states;
    group_states.reserve(arity);
    for (uint64_t i = 0; i < arity; ++i) {
      SEAWEED_ASSIGN_OR_RETURN(AggState s, AggState::Decode(r));
      group_states.push_back(std::move(s));
    }
    out.groups.emplace_back(std::move(key), std::move(group_states));
  }
  SEAWEED_ASSIGN_OR_RETURN(out.rows_matched, r.GetI64());
  SEAWEED_ASSIGN_OR_RETURN(out.endsystems, r.GetI64());
  return out;
}

size_t AggregateResult::EncodedBytes() const {
  Writer w;
  Encode(w);
  return w.size();
}

bool AggregateResult::HasSketchStates() const {
  for (const auto& s : states) {
    if (s.sketch) return true;
  }
  for (const auto& [key, group_states] : groups) {
    for (const auto& s : group_states) {
      if (s.sketch) return true;
    }
  }
  return false;
}

size_t AggregateResult::SketchStateBytes() const {
  size_t total = 0;
  for (const auto& s : states) {
    if (s.sketch) total += s.sketch->EncodedBytes();
  }
  for (const auto& [key, group_states] : groups) {
    for (const auto& s : group_states) {
      if (s.sketch) total += s.sketch->EncodedBytes();
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Compiled query (batch engine)
// ---------------------------------------------------------------------------

Result<CompiledQuery> CompiledQuery::Bind(const Table& table,
                                          const SelectQuery& query) {
  if (!query.IsAggregateOnly()) {
    return Status::InvalidArgument(
        "distributed execution requires aggregate-only select list");
  }
  CompiledQuery cq;
  SEAWEED_ASSIGN_OR_RETURN(cq.pred_, BatchPredicate::Bind(query.where, table));

  cq.inputs_.reserve(query.items.size());
  for (const auto& item : query.items) {
    AggInput in;
    in.func = item.func;
    in.param = item.EffectiveParam();
    if (!item.is_aggregate) {
      // IsAggregateOnly() guarantees this is the GROUP BY column.
      in.is_group_column = true;
      cq.inputs_.push_back(in);
      continue;
    }
    const AggDescriptor& desc = item.func->descriptor();
    if (!item.column.empty()) {
      SEAWEED_ASSIGN_OR_RETURN(in.column,
                               table.schema().RequireColumn(item.column));
      in.type = table.schema().column(static_cast<size_t>(in.column)).type;
      if (in.type == ColumnType::kString && !desc.allows_string) {
        return Status::InvalidArgument("cannot " + item.func->name() +
                                       " a string column");
      }
    } else if (!desc.allows_star) {
      return Status::InvalidArgument("only COUNT may take '*'");
    }
    SEAWEED_RETURN_NOT_OK(item.func->ValidateParam(in.param));
    cq.any_sketch_ = cq.any_sketch_ || item.func->IsSketch();
    cq.inputs_.push_back(in);
  }

  if (!query.group_by.empty()) {
    SEAWEED_ASSIGN_OR_RETURN(cq.group_column_,
                             table.schema().RequireColumn(query.group_by));
    cq.group_type_ =
        table.schema().column(static_cast<size_t>(cq.group_column_)).type;
  }
  cq.num_columns_ = table.num_columns();
  return cq;
}

bool CompiledQuery::CompatibleWith(const Table& table) const {
  if (table.num_columns() != num_columns_) return false;
  if (!pred_.CompatibleWith(table)) return false;
  for (const AggInput& in : inputs_) {
    if (in.column < 0) continue;
    const size_t ci = static_cast<size_t>(in.column);
    if (ci >= table.num_columns()) return false;
    if (table.schema().column(ci).type != in.type) return false;
  }
  if (group_column_ >= 0) {
    const size_t gi = static_cast<size_t>(group_column_);
    if (gi >= table.num_columns()) return false;
    if (table.schema().column(gi).type != group_type_) return false;
  }
  return true;
}

void CompiledQuery::AccumulateUngrouped(const Table& table,
                                        const SelVector& sel,
                                        AggregateResult* result) const {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const AggInput& in = inputs_[i];
    in.func->AccumulateBatch(table, in.column, sel, result->states[i]);
  }
}

void CompiledQuery::AccumulateUngroupedDense(const Table& table,
                                             uint32_t start, uint32_t len,
                                             AggregateResult* result) const {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const AggInput& in = inputs_[i];
    in.func->AccumulateDense(table, in.column, start, len, result->states[i]);
  }
}

Result<AggregateResult> CompiledQuery::Execute(const Table& table) const {
  AggregateCursor cursor(this, &table);
  cursor.Step(std::numeric_limits<size_t>::max());
  return cursor.Take();
}

// ---------------------------------------------------------------------------
// Resumable cursor (time-sliced execution)
// ---------------------------------------------------------------------------

AggregateCursor::AggregateCursor(const CompiledQuery* plan, const Table* table)
    : plan_(plan), table_(table) {
  result_.states.resize(plan_->inputs_.size());
  result_.endsystems = 1;
  total_rows_ = table_->num_rows();
  const size_t arity = plan_->inputs_.size();
  for (size_t i = 0; i < arity; ++i) {
    const CompiledQuery::AggInput& in = plan_->inputs_[i];
    if (in.func != nullptr) in.func->InitState(result_.states[i], in.param);
  }

  group_col_ = plan_->group_column_ >= 0
                   ? &table_->column(static_cast<size_t>(plan_->group_column_))
                   : nullptr;
  // Sketch states don't fit the flat dense-accumulator array (per-code
  // sketches would be allocated for absent groups); sketch queries take
  // the Value-keyed path, exact queries keep the fast path unchanged.
  dense_group_ = group_col_ != nullptr &&
                 plan_->group_type_ == ColumnType::kString &&
                 group_col_->dict_size() <= kDenseGroupMaxDict &&
                 !plan_->any_sketch_;
  // Dense GROUP BY accumulators: one AggState per (dict code, select item)
  // plus a per-code matched-row count deciding which groups exist.
  if (dense_group_) {
    dense_states_.resize(group_col_->dict_size() * arity);
    dense_rows_.resize(group_col_->dict_size(), 0);
    group_codes_ = group_col_->codes().data();
  }
  no_filter_ = plan_->pred_.always_true();
}

bool AggregateCursor::Step(size_t max_batches) {
  const Table& table = *table_;
  const size_t arity = plan_->inputs_.size();
  for (size_t b = 0; b < max_batches && next_row_ < total_rows_; ++b) {
    const uint32_t start = static_cast<uint32_t>(next_row_);
    const uint32_t len = static_cast<uint32_t>(
        std::min<size_t>(kBatchSize, total_rows_ - next_row_));
    next_row_ += len;
    if (no_filter_ && group_col_ == nullptr) {
      result_.rows_matched += len;
      plan_->AccumulateUngroupedDense(table, start, len, &result_);
      continue;
    }
    if (no_filter_) {
      SelAll(start, len, &sel_);
    } else {
      plan_->pred_.FilterBatch(table, start, len, &sel_);
    }
    result_.rows_matched += sel_.count;
    if (sel_.count == 0) continue;

    if (group_col_ == nullptr) {
      plan_->AccumulateUngrouped(table, sel_, &result_);
      continue;
    }

    if (dense_group_) {
      for (uint32_t i = 0; i < sel_.count; ++i) {
        ++dense_rows_[group_codes_[sel_.rows[i]]];
      }
      for (size_t item = 0; item < arity; ++item) {
        const CompiledQuery::AggInput& in = plan_->inputs_[item];
        if (in.is_group_column) continue;  // rendered from the group key
        if (in.column < 0 || in.type == ColumnType::kString) {
          for (uint32_t i = 0; i < sel_.count; ++i) {
            dense_states_[group_codes_[sel_.rows[i]] * arity + item]
                .AddCountOnly();
          }
          result_.states[item].count += sel_.count;
          continue;
        }
        const Column& col = table.column(static_cast<size_t>(in.column));
        AggState* global = &result_.states[item];
        if (in.type == ColumnType::kInt64) {
          const int64_t* p = col.ints().data();
          for (uint32_t i = 0; i < sel_.count; ++i) {
            const uint32_t row = sel_.rows[i];
            const double v = static_cast<double>(p[row]);
            dense_states_[group_codes_[row] * arity + item].Add(v);
            global->Add(v);
          }
        } else {
          const double* p = col.doubles().data();
          for (uint32_t i = 0; i < sel_.count; ++i) {
            const uint32_t row = sel_.rows[i];
            const double v = p[row];
            dense_states_[group_codes_[row] * arity + item].Add(v);
            global->Add(v);
          }
        }
      }
      continue;
    }

    // Fallback grouping (numeric, very-high-cardinality, or sketch-carrying
    // group keys): Value-keyed sorted groups over the selection vector.
    for (uint32_t i = 0; i < sel_.count; ++i) {
      const uint32_t row = sel_.rows[i];
      Value key = group_col_->ValueAt(row);
      std::vector<AggState>& gstates = result_.GroupStates(key, arity);
      for (size_t item = 0; item < arity; ++item) {
        const CompiledQuery::AggInput& in = plan_->inputs_[item];
        if (in.is_group_column) continue;
        AggState& gs = gstates[item];
        if (in.func->IsSketch() && gs.sketch == nullptr) {
          in.func->InitState(gs, in.param);
        }
        if (in.column < 0 || in.type == ColumnType::kString) {
          if (in.func->IsSketch() && in.column >= 0) {
            const Column& col = table.column(static_cast<size_t>(in.column));
            const std::string& s = col.DictEntry(col.StringCodeAt(row));
            gs.AddString(s);
            result_.states[item].AddString(s);
          } else {
            gs.AddCountOnly();
            result_.states[item].AddCountOnly();
          }
          continue;
        }
        const Column& col = table.column(static_cast<size_t>(in.column));
        const double v = in.type == ColumnType::kInt64
                             ? static_cast<double>(col.Int64At(row))
                             : col.DoubleAt(row);
        gs.Add(v);
        result_.states[item].Add(v);
      }
    }
  }
  return done();
}

AggregateResult AggregateCursor::Take() {
  const size_t arity = plan_->inputs_.size();
  if (dense_group_) {
    // Emit only codes with matching rows, sorted by key (dictionary order
    // is insertion order, not value order).
    const Column* group_col = group_col_;
    std::vector<uint32_t> present;
    for (uint32_t code = 0; code < dense_rows_.size(); ++code) {
      if (dense_rows_[code] > 0) present.push_back(code);
    }
    std::sort(present.begin(), present.end(),
              [group_col](uint32_t a, uint32_t b) {
                return group_col->DictEntry(a) < group_col->DictEntry(b);
              });
    result_.groups.reserve(present.size());
    for (uint32_t code : present) {
      result_.groups.emplace_back(
          Value(group_col->DictEntry(code)),
          std::vector<AggState>(
              dense_states_.begin() + static_cast<ptrdiff_t>(code * arity),
              dense_states_.begin() +
                  static_cast<ptrdiff_t>((code + 1) * arity)));
    }
    dense_group_ = false;  // groups emitted; Take() is one-shot
  }
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

void PlanCache::AttachMetrics(obs::MetricsRegistry* registry) {
  hits_metric_ = registry->GetCounter("db.plan_cache.hits");
  binds_metric_ = registry->GetCounter("db.plan_cache.binds");
  rows_scanned_ = registry->GetHistogram("db.rows_scanned");
  rows_selected_ = registry->GetHistogram("db.rows_selected");
}

void PlanCache::RecordExecution(uint64_t rows_scanned,
                                uint64_t rows_selected) {
  if (rows_scanned_ == nullptr) return;
  rows_scanned_->Record(rows_scanned);
  rows_selected_->Record(rows_selected);
}

Result<const CompiledQuery*> PlanCache::GetOrBind(const std::string& key,
                                                  const Table& table,
                                                  const SelectQuery& query) {
  std::string fingerprint = query.ToString();
  auto it = plans_.find(key);
  if (it != plans_.end() && it->second.fingerprint == fingerprint &&
      it->second.plan.CompatibleWith(table)) {
    ++hits_;
    if (hits_metric_ != nullptr) hits_metric_->Add();
    return &it->second.plan;
  }
  SEAWEED_ASSIGN_OR_RETURN(CompiledQuery plan, CompiledQuery::Bind(table, query));
  ++binds_;
  if (binds_metric_ != nullptr) binds_metric_->Add();
  Entry& entry = plans_[key];
  entry.fingerprint = std::move(fingerprint);
  entry.plan = std::move(plan);
  return &entry.plan;
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

Result<AggregateResult> ExecuteAggregate(const Table& table,
                                         const SelectQuery& query) {
  SEAWEED_ASSIGN_OR_RETURN(CompiledQuery plan, CompiledQuery::Bind(table, query));
  return plan.Execute(table);
}

Result<int64_t> CountMatching(const Table& table, const SelectQuery& query) {
  SEAWEED_ASSIGN_OR_RETURN(BatchPredicate pred,
                           BatchPredicate::Bind(query.where, table));
  const size_t n = table.num_rows();
  if (pred.always_true()) return static_cast<int64_t>(n);
  int64_t matched = 0;
  SelVector sel;
  for (size_t batch = 0; batch < n; batch += kBatchSize) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<size_t>(kBatchSize, n - batch));
    pred.FilterBatch(table, static_cast<uint32_t>(batch), len, &sel);
    matched += sel.count;
  }
  return matched;
}

Result<RowSet> ExecuteSelect(const Table& table, const SelectQuery& query,
                             size_t limit) {
  SEAWEED_ASSIGN_OR_RETURN(BatchPredicate pred,
                           BatchPredicate::Bind(query.where, table));
  RowSet out;
  std::vector<int> cols;
  bool star = false;
  for (const auto& item : query.items) {
    if (item.is_aggregate) {
      return Status::InvalidArgument(
          "mixed aggregate/projection select list is not supported");
    }
    if (item.column.empty()) {
      star = true;
    } else {
      SEAWEED_ASSIGN_OR_RETURN(int c,
                               table.schema().RequireColumn(item.column));
      cols.push_back(c);
    }
  }
  if (star) {
    cols.clear();
    for (size_t i = 0; i < table.num_columns(); ++i) {
      cols.push_back(static_cast<int>(i));
    }
  }
  for (int c : cols) {
    out.column_names.push_back(table.schema().column(static_cast<size_t>(c)).name);
  }
  const size_t n = table.num_rows();
  SelVector sel;
  for (size_t batch = 0; batch < n && out.rows.size() < limit;
       batch += kBatchSize) {
    const uint32_t start = static_cast<uint32_t>(batch);
    const uint32_t len =
        static_cast<uint32_t>(std::min<size_t>(kBatchSize, n - batch));
    pred.FilterBatch(table, start, len, &sel);
    for (uint32_t i = 0; i < sel.count && out.rows.size() < limit; ++i) {
      const size_t row = sel.rows[i];
      std::vector<Value> vals;
      vals.reserve(cols.size());
      for (int c : cols) {
        vals.push_back(table.column(static_cast<size_t>(c)).ValueAt(row));
      }
      out.rows.push_back(std::move(vals));
    }
  }
  return out;
}

}  // namespace seaweed::db

// Vectorized batch kernels for local query execution.
//
// The executor processes tables in fixed-size batches of rows. A predicate
// evaluates to a *selection vector* per batch — a sorted array of matching
// absolute row ids — instead of a per-row boolean from a recursive tree
// walk. Compare kernels are flat, type-specialized loops with a branch-free
// append (the store happens unconditionally; only the cursor advance is
// predicated), AND composes by re-filtering the left side's selection, OR
// merges two sorted selections, and aggregation runs fused loops over the
// final selection with no Value boxing.
//
// All kernels preserve row order (selection vectors stay sorted ascending),
// so floating-point accumulation happens in table order whatever the
// predicate, and sliced and one-shot scans give bit-identical results.
#pragma once

#include <cstdint>

#include "db/ast.h"

namespace seaweed::db {

// Rows per batch. Large enough to amortize per-batch dispatch, small enough
// that a selection vector (4 KiB) stays cache- and stack-friendly.
inline constexpr uint32_t kBatchSize = 1024;

// Sorted matching row ids (absolute) within one batch.
struct SelVector {
  uint32_t rows[kBatchSize];
  uint32_t count = 0;

  void Clear() { count = 0; }
};

// Fills `out` with the identity selection [start, start + len).
void SelAll(uint32_t start, uint32_t len, SelVector* out);

// Merges two sorted selections (subsets of the same batch) into their
// sorted union.
void SelUnion(const SelVector& a, const SelVector& b, SelVector* out);

// Comparison functors with three-way semantics: each op is expressed
// through < and > only (= is "neither less nor greater"), so a NaN column
// value compares equal to every literal. CSV ingest rejects non-finite
// doubles, so loaded tables hold no NaN.
struct CmpEq {
  template <typename T>
  bool operator()(T v, T lit) const { return !(v < lit) && !(v > lit); }
};
struct CmpNe {
  template <typename T>
  bool operator()(T v, T lit) const { return (v < lit) || (v > lit); }
};
struct CmpLt {
  template <typename T>
  bool operator()(T v, T lit) const { return v < lit; }
};
struct CmpLe {
  template <typename T>
  bool operator()(T v, T lit) const { return !(v > lit); }
};
struct CmpGt {
  template <typename T>
  bool operator()(T v, T lit) const { return v > lit; }
};
struct CmpGe {
  template <typename T>
  bool operator()(T v, T lit) const { return !(v < lit); }
};

// Dense filter: scans rows [start, start + len) of `col` and appends
// matching row ids to `out`. `Lit` is the comparison domain: the column
// value is converted to it first (int64 column vs double literal compares
// as double).
template <typename T, typename Lit, typename Cmp>
inline void FilterDense(const T* col, uint32_t start, uint32_t len, Lit lit,
                        Cmp cmp, SelVector* out) {
  uint32_t n = out->count;
  for (uint32_t i = 0; i < len; ++i) {
    const uint32_t row = start + i;
    out->rows[n] = row;
    n += cmp(static_cast<Lit>(col[row]), lit) ? 1u : 0u;
  }
  out->count = n;
}

// Selective filter: refines an input selection, appending the surviving
// row ids to `out`.
template <typename T, typename Lit, typename Cmp>
inline void FilterSel(const T* col, const SelVector& in, Lit lit, Cmp cmp,
                      SelVector* out) {
  uint32_t n = out->count;
  for (uint32_t i = 0; i < in.count; ++i) {
    const uint32_t row = in.rows[i];
    out->rows[n] = row;
    n += cmp(static_cast<Lit>(col[row]), lit) ? 1u : 0u;
  }
  out->count = n;
}

// Runtime-op dispatch over the comparison functors.
template <typename T, typename Lit>
inline void FilterDenseOp(const T* col, uint32_t start, uint32_t len, Lit lit,
                          CompareOp op, SelVector* out) {
  switch (op) {
    case CompareOp::kEq: FilterDense(col, start, len, lit, CmpEq{}, out); break;
    case CompareOp::kNe: FilterDense(col, start, len, lit, CmpNe{}, out); break;
    case CompareOp::kLt: FilterDense(col, start, len, lit, CmpLt{}, out); break;
    case CompareOp::kLe: FilterDense(col, start, len, lit, CmpLe{}, out); break;
    case CompareOp::kGt: FilterDense(col, start, len, lit, CmpGt{}, out); break;
    case CompareOp::kGe: FilterDense(col, start, len, lit, CmpGe{}, out); break;
  }
}

template <typename T, typename Lit>
inline void FilterSelOp(const T* col, const SelVector& in, Lit lit,
                        CompareOp op, SelVector* out) {
  switch (op) {
    case CompareOp::kEq: FilterSel(col, in, lit, CmpEq{}, out); break;
    case CompareOp::kNe: FilterSel(col, in, lit, CmpNe{}, out); break;
    case CompareOp::kLt: FilterSel(col, in, lit, CmpLt{}, out); break;
    case CompareOp::kLe: FilterSel(col, in, lit, CmpLe{}, out); break;
    case CompareOp::kGt: FilterSel(col, in, lit, CmpGt{}, out); break;
    case CompareOp::kGe: FilterSel(col, in, lit, CmpGe{}, out); break;
  }
}

// Fused aggregate accumulation over a selection: one pass updating
// sum/count/min/max through Acc::Add, in row order. Acc is duck-typed
// (AggState in practice) to keep this header free of executor types.
template <typename T, typename Acc>
inline void AccumulateSel(const T* col, const SelVector& sel, Acc* acc) {
  for (uint32_t i = 0; i < sel.count; ++i) {
    acc->Add(static_cast<double>(col[sel.rows[i]]));
  }
}

// Dense variant for the no-WHERE fast path: every row in [start, start+len)
// contributes.
template <typename T, typename Acc>
inline void AccumulateDense(const T* col, uint32_t start, uint32_t len,
                            Acc* acc) {
  for (uint32_t i = 0; i < len; ++i) {
    acc->Add(static_cast<double>(col[start + i]));
  }
}

}  // namespace seaweed::db

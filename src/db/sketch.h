// Mergeable sketch states for approximate aggregate functions.
//
// A SketchState is the function-specific part of an AggState: exact
// functions (SUM/COUNT/AVG/MIN/MAX) carry none, approximate functions
// attach one at init time. Sketches must be:
//  * mergeable — Merge() folds another instance of the same type in; the
//    aggregation tree merges children in sorted-key order, so results are
//    deterministic given the tree shape (but, unlike the exact quad, not
//    necessarily identical across different shapes);
//  * losslessly encodable — Decode(Encode(s)) reproduces s byte-for-byte,
//    because the serializing-transport and loopback differentials compare
//    runs with and without the wire codec in flight.
//
// Three implementations ship with the registry (tags must stay stable,
// they are the wire format):
//  * HllSketch (tag 1) — HyperLogLog distinct counting, p=12 (4096
//    registers, ~1.6% standard error). Register-max merge is fully
//    order-independent.
//  * QuantileSketch (tag 2) — weighted compacting buffer of (value,
//    weight) centroids, capped at kMaxCentroids after compaction.
//    Deterministic given merge order; observed rank error well under 1%
//    for 10^6-row inputs (see tests/sketch_test.cc).
//  * TopKSketch (tag 3) — Misra-Gries heavy hitters over Value keys.
//    Counts under-estimate true frequency by at most N/capacity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "db/value.h"

namespace seaweed::db {

// Wire tags for AggState payloads. Tag 0 means "exact quad only" and is
// shared by every exact function; nonzero tags name a sketch payload.
inline constexpr uint8_t kStateTagExact = 0;
inline constexpr uint8_t kStateTagHll = 1;
inline constexpr uint8_t kStateTagQuantile = 2;
inline constexpr uint8_t kStateTagTopK = 3;

class SketchState {
 public:
  virtual ~SketchState() = default;

  virtual uint8_t tag() const = 0;
  // Per-row updates. The executor routes numeric columns through Update
  // (same double the exact quad sees) and string columns through
  // UpdateString; functions that disallow strings never see the latter.
  virtual void Update(double v) = 0;
  virtual void UpdateString(const std::string& s) = 0;
  // Folds `other` in; callers guarantee the same concrete type (states of
  // one select item always come from the same registered function).
  virtual void Merge(const SketchState& other) = 0;
  virtual std::unique_ptr<SketchState> Clone() const = 0;
  // Payload only (no tag byte — AggState writes that); starts with a
  // version byte so payloads can evolve.
  virtual void Encode(Writer& w) const = 0;
  virtual bool Equals(const SketchState& other) const = 0;
  size_t EncodedBytes() const;
};

// HyperLogLog with 2^12 registers and a 64-bit hash (splitmix64 finalizer
// over the IEEE bits for numerics, FNV-1a for strings).
class HllSketch final : public SketchState {
 public:
  static constexpr int kPrecision = 12;
  static constexpr size_t kRegisters = size_t{1} << kPrecision;
  // Largest register value: an all-zero 52-bit hash remainder.
  static constexpr uint8_t kMaxRank = 64 - kPrecision + 1;

  HllSketch() : regs_(kRegisters, 0) {}

  uint8_t tag() const override { return kStateTagHll; }
  void Update(double v) override;
  void UpdateString(const std::string& s) override;
  void Merge(const SketchState& other) override;
  std::unique_ptr<SketchState> Clone() const override;
  void Encode(Writer& w) const override;
  bool Equals(const SketchState& other) const override;
  static Result<std::unique_ptr<SketchState>> Decode(Reader& r);

  // Distinct-count estimate with the standard small-range (linear
  // counting) correction.
  double Estimate() const;

 private:
  void AddHash(uint64_t h);
  std::vector<uint8_t> regs_;
};

// Mergeable quantile summary: a buffer of (value, weight) pairs. Inserts
// append weight-1 points; when the buffer exceeds 2*kMaxCentroids it is
// sorted and compacted to kMaxCentroids equal-weight groups, each replaced
// by its weighted mean. Merge concatenates and compacts the same way, so
// the state is a deterministic function of the insert/merge sequence.
class QuantileSketch final : public SketchState {
 public:
  static constexpr size_t kMaxCentroids = 1024;

  uint8_t tag() const override { return kStateTagQuantile; }
  void Update(double v) override;
  void UpdateString(const std::string& s) override;  // CHECK-fails
  void Merge(const SketchState& other) override;
  std::unique_ptr<SketchState> Clone() const override;
  void Encode(Writer& w) const override;
  bool Equals(const SketchState& other) const override;
  static Result<std::unique_ptr<SketchState>> Decode(Reader& r);

  // Value at quantile q in [0, 1]: the first centroid whose cumulative
  // weight reaches q * total_weight.
  double Query(double q) const;
  double total_weight() const;

 private:
  void CompactIfNeeded();
  // Sorted-by-value (value, weight) centroids plus an unsorted tail of
  // recent inserts; Query() sorts a scratch copy.
  std::vector<std::pair<double, double>> pts_;
};

// Misra-Gries heavy hitters keyed by Value (numeric columns arrive as the
// same double the exact quad sees; string columns as dictionary entries).
// Capacity is fixed at init from the query's k and travels in the payload
// so decode is self-contained.
class TopKSketch final : public SketchState {
 public:
  explicit TopKSketch(size_t capacity) : capacity_(capacity) {}
  static size_t CapacityFor(int64_t k);

  uint8_t tag() const override { return kStateTagTopK; }
  void Update(double v) override;
  void UpdateString(const std::string& s) override;
  void Merge(const SketchState& other) override;
  std::unique_ptr<SketchState> Clone() const override;
  void Encode(Writer& w) const override;
  bool Equals(const SketchState& other) const override;
  static Result<std::unique_ptr<SketchState>> Decode(Reader& r);

  // Top `k` surviving entries ordered by (count desc, key asc). Counts
  // under-estimate true frequency by at most N/capacity.
  std::vector<std::pair<Value, int64_t>> Top(size_t k) const;
  size_t capacity() const { return capacity_; }

 private:
  void Add(const Value& key, int64_t weight);
  void TrimToCapacity();
  size_t capacity_;
  // Sorted by key (Value::operator<): deterministic encode order and
  // O(log n) update via lower_bound.
  std::vector<std::pair<Value, int64_t>> counts_;
};

// Decodes one sketch payload by wire tag (the dispatch the registry and
// AggState::Decode use). Unknown tags are a ParseError, not a crash:
// malformed messages must be survivable.
Result<std::unique_ptr<SketchState>> DecodeSketchState(uint8_t tag,
                                                       Reader& r);

}  // namespace seaweed::db

// Metrics registry: named counters, gauges, log-bucketed histograms, and
// simulated-time timeseries.
//
// Recording goes through pre-resolved handles: a component asks the registry
// for an instrument once (by name, at construction/wiring time) and keeps the
// returned raw pointer. The hot path is then a single add on a cache-resident
// word — no string lookup, no hashing, no allocation. Handles stay valid for
// the registry's lifetime (instruments are heap-held behind the name map).
//
// Thread model: recording operations are commutative — relaxed atomic adds
// plus CAS min/max — so concurrent recorders produce the same final values
// regardless of interleaving. Readers (export, reports) run when recording
// has settled, so plain loads observe the final values.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/time_types.h"

namespace seaweed::obs {

namespace internal {

inline void AtomicMax(std::atomic<int64_t>& target, int64_t v) {
  int64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

inline void AtomicMaxU(std::atomic<uint64_t>& target, uint64_t v) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

inline void AtomicMinU(std::atomic<uint64_t>& target, uint64_t v) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

}  // namespace internal

// Monotonic event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time level (queue depths, population counts). Set() is not
// commutative, so levels must be Set from one thread at a time; Add() is
// safe from any thread.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    internal::AtomicMax(max_, v);
  }
  void Add(int64_t d) {
    const int64_t v = value_.fetch_add(d, std::memory_order_relaxed) + d;
    internal::AtomicMax(max_, v);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  // Largest value ever Set (initially 0).
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

// Log2-bucketed histogram over non-negative integer samples. Bucket i counts
// samples of bit width i: bucket 0 holds v == 0, bucket i holds
// 2^(i-1) <= v < 2^i. Quantiles are therefore approximate (within a factor of
// two), which is enough for latency/row-count distributions at ~zero cost.
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;

  static int BucketOf(uint64_t v) { return std::bit_width(v); }
  // Inclusive upper bound of bucket b's value range.
  static uint64_t BucketUpperBound(int b) {
    return b >= 64 ? ~0ULL : (1ULL << b) - 1;
  }

  void Record(uint64_t v) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    internal::AtomicMinU(min_, v);
    internal::AtomicMaxU(max_, v);
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const {
    const uint64_t c = count();
    return c ? static_cast<double>(sum()) / static_cast<double>(c) : 0;
  }
  // Upper bound of the first bucket whose cumulative count reaches q*count.
  uint64_t ApproxQuantile(double q) const;
  // Snapshot of the bucket counts.
  std::array<uint64_t, kNumBuckets> buckets() const {
    std::array<uint64_t, kNumBuckets> out;
    for (int b = 0; b < kNumBuckets; ++b) {
      out[b] = buckets_[b].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ULL};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

// Accumulates values into fixed-width simulated-time buckets. The default
// width is one hour, matching the paper's per-hour bandwidth accounting;
// bucket i covers [i*width, (i+1)*width). Record takes a spinlock (the
// bucket vector may grow); buckets()/total() must be read from exclusive
// contexts.
class Timeseries {
 public:
  explicit Timeseries(SimDuration bucket_width = kHour)
      : bucket_width_(bucket_width > 0 ? bucket_width : kHour) {}

  void Record(SimTime t, uint64_t v) {
    size_t b = BucketIndex(t);
    while (lock_.test_and_set(std::memory_order_acquire)) {
    }
    if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
    buckets_[b] += v;
    total_ += v;
    lock_.clear(std::memory_order_release);
  }

  size_t BucketIndex(SimTime t) const {
    return t > 0 ? static_cast<size_t>(t / bucket_width_) : 0;
  }

  uint64_t total() const { return total_; }
  SimDuration bucket_width() const { return bucket_width_; }
  // Buckets [0, last-recorded]; trailing empty buckets are not materialized.
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  uint64_t ValueAt(size_t bucket) const {
    return bucket < buckets_.size() ? buckets_[bucket] : 0;
  }

 private:
  SimDuration bucket_width_;
  std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
};

// Name -> instrument map. Get* registers on first use and returns the same
// pointer thereafter; names are namespaced by convention ("sim.msgs_sent",
// "bw.tx.pastry", ...). Separate namespaces per instrument kind. Get/Find
// are mutex-protected (instruments may be resolved lazily from any thread);
// the snapshot views are for settled registries.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  // bucket_width applies only on first registration.
  Timeseries* GetTimeseries(const std::string& name,
                            SimDuration bucket_width = kHour);

  // Lookup without registering; nullptr when absent.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;
  const Timeseries* FindTimeseries(const std::string& name) const;

  // Snapshot views, sorted by name (std::map iteration order).
  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::unique_ptr<Timeseries>>& timeseries()
      const {
    return timeseries_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Timeseries>> timeseries_;
};

}  // namespace seaweed::obs

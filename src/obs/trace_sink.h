// Query-lifecycle tracing: span records in a fixed-capacity ring buffer.
//
// A span is one step of a query's lifecycle (disseminate, metadata lookup,
// predictor merge, aggregation round, result delivery) with simulated start
// and end timestamps, a parent link, and a small attribute set. Spans are
// grouped into traces by a 64-bit trace key — normally TraceKey(query_id).
//
// The sink appends a record at StartSpan and patches it in place at EndSpan,
// so open spans are visible (end == kOpenSpan) and the ring never needs a
// separate open-span table. When a ring wraps, the oldest spans are
// overwritten; EndSpan/AddAttr on an overwritten span are no-ops. The first
// span started for a trace key becomes the trace's root, and later spans
// started without an explicit parent attach to it — components deep in the
// stack can record lifecycle steps without threading span ids through the
// simulated network. Span ids are the dense per-sink start sequence.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/node_id.h"
#include "common/time_types.h"

namespace seaweed::obs {

using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = 0;
inline constexpr SimTime kOpenSpan = -1;

// Folds a 128-bit query/node id into the 64-bit key spans are grouped by.
inline uint64_t TraceKey(const NodeId& id) {
  return id.hi() ^ (id.lo() * 0x9e3779b97f4a7c15ULL);
}

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;  // kNoSpan = root of its trace
  uint64_t trace = 0;
  const char* name = "";  // must be a static-lifetime literal
  SimTime start = 0;
  SimTime end = kOpenSpan;  // kOpenSpan while the span is open
  std::vector<std::pair<const char*, int64_t>> attrs;
  std::vector<std::pair<const char*, std::string>> str_attrs;

  SimDuration Duration() const { return end == kOpenSpan ? 0 : end - start; }
};

class TraceSink {
 public:
  explicit TraceSink(size_t capacity = 1 << 15);

  // Starts a span in trace `trace_key` at simulated time `now`. With
  // parent == kNoSpan the span attaches to the trace's root (or becomes it).
  // Returns kNoSpan when the sink is disabled.
  SpanId StartSpan(const char* name, uint64_t trace_key, SimTime now,
                   SpanId parent = kNoSpan);
  void EndSpan(SpanId id, SimTime now);
  void AddAttr(SpanId id, const char* key, int64_t value);
  void AddAttr(SpanId id, const char* key, std::string value);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Root span of `trace_key`'s trace, or kNoSpan if none started yet.
  SpanId RootOf(uint64_t trace_key) const;

  // Total spans ever started / overwritten by ring wrap-around.
  uint64_t started() const { return started_; }
  uint64_t dropped() const {
    return started_ > ring_.size() ? started_ - ring_.size() : 0;
  }
  // Spans currently retained in the ring.
  size_t size() const {
    return started_ < ring_.size() ? static_cast<size_t>(started_)
                                   : ring_.size();
  }
  size_t capacity() const { return ring_.size(); }

  // nullptr if the span was overwritten (or never existed). The pointer is
  // invalidated by the next StartSpan.
  const SpanRecord* Find(SpanId id) const;
  // Visits retained spans in start order.
  void ForEach(const std::function<void(const SpanRecord&)>& fn) const;

 private:
  SpanRecord* Slot(SpanId id);

  std::vector<SpanRecord> ring_;
  uint64_t started_ = 0;  // ids are 1..started_
  mutable std::mutex roots_mu_;
  std::unordered_map<uint64_t, SpanId> roots_;
  bool enabled_ = true;
};

}  // namespace seaweed::obs

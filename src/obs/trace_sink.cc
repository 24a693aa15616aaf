#include "obs/trace_sink.h"

namespace seaweed::obs {

TraceSink::TraceSink(size_t capacity) : ring_(capacity > 0 ? capacity : 1) {}

SpanId TraceSink::StartSpan(const char* name, uint64_t trace_key, SimTime now,
                            SpanId parent) {
  if (!enabled_) return kNoSpan;
  const SpanId id = ++started_;
  if (parent == kNoSpan) {
    std::lock_guard<std::mutex> lock(roots_mu_);
    auto [it, inserted] = roots_.emplace(trace_key, id);
    if (!inserted) parent = it->second;
  }
  SpanRecord& rec = ring_[(id - 1) % ring_.size()];
  rec.id = id;
  rec.parent = parent;
  rec.trace = trace_key;
  rec.name = name;
  rec.start = now;
  rec.end = kOpenSpan;
  rec.attrs.clear();
  rec.str_attrs.clear();
  return id;
}

SpanRecord* TraceSink::Slot(SpanId id) {
  if (id == kNoSpan || id > started_) return nullptr;
  SpanRecord& rec = ring_[(id - 1) % ring_.size()];
  return rec.id == id ? &rec : nullptr;  // id mismatch: overwritten
}

void TraceSink::EndSpan(SpanId id, SimTime now) {
  if (SpanRecord* rec = Slot(id)) rec->end = now;
}

void TraceSink::AddAttr(SpanId id, const char* key, int64_t value) {
  if (SpanRecord* rec = Slot(id)) rec->attrs.emplace_back(key, value);
}

void TraceSink::AddAttr(SpanId id, const char* key, std::string value) {
  if (SpanRecord* rec = Slot(id)) {
    rec->str_attrs.emplace_back(key, std::move(value));
  }
}

SpanId TraceSink::RootOf(uint64_t trace_key) const {
  std::lock_guard<std::mutex> lock(roots_mu_);
  auto it = roots_.find(trace_key);
  return it == roots_.end() ? kNoSpan : it->second;
}

const SpanRecord* TraceSink::Find(SpanId id) const {
  return const_cast<TraceSink*>(this)->Slot(id);
}

void TraceSink::ForEach(
    const std::function<void(const SpanRecord&)>& fn) const {
  for (SpanId id = dropped() + 1; id <= started_; ++id) {
    if (const SpanRecord* rec = Find(id)) fn(*rec);
  }
}

}  // namespace seaweed::obs

#include "sim/fault_transport.h"

#include <utility>

#include "common/logging.h"

namespace seaweed {

FaultInjectingTransport::FaultInjectingTransport(
    Transport* inner, FaultPlan plan, uint64_t salt,
    const std::string& counter_prefix)
    : TransportDecorator(inner),
      plan_(std::move(plan)),
      stream_seed_(plan_.seed ^ salt ^ 0xfa117ULL),
      tx_seq_(static_cast<size_t>(inner->topology().num_endsystems()), 0) {
  obs::MetricsRegistry& m = obs()->metrics;
  burst_drops_metric_ = m.GetCounter(counter_prefix + "burst_drops");
  partition_drops_metric_ = m.GetCounter(counter_prefix + "partition_drops");
  delayed_metric_ = m.GetCounter(counter_prefix + "delayed");
}

void FaultInjectingTransport::ChargeDrop(EndsystemIndex from, SimTime now,
                                         const WireMessage& msg) {
  // Sender pays tx for the doomed datagram, same as Network::Send would
  // have; the bytes land in the dedicated dropped series.
  meter()->RecordTxDropped(from, now, msg.WireBytes() + kMessageHeaderBytes);
  injected_drops_.fetch_add(1, std::memory_order_relaxed);
}

bool FaultInjectingTransport::Send(EndsystemIndex from, EndsystemIndex to,
                                   TrafficCategory cat, WireMessagePtr msg) {
  SEAWEED_CHECK_MSG(msg != nullptr,
                    "FaultInjectingTransport::Send requires a message");
  if (!IsUp(from)) return false;
  const SimTime now = scheduler()->Now();

  if (plan_.Partitioned(from, to, now)) {
    ChargeDrop(from, now, *msg);
    partition_drops_metric_->Add();
    return true;  // sent, but the partition ate it
  }

  // One counter-hash generator per message: decisions depend only on
  // (sender, sequence), never on draw interleaving.
  Rng msg_rng(MixSeed(stream_seed_, from, tx_seq_[from]++));

  const double loss = plan_.LossAt(now);
  if (loss > 0 && msg_rng.Bernoulli(loss)) {
    ChargeDrop(from, now, *msg);
    burst_drops_metric_->Add();
    return true;
  }

  const SimDuration extra = plan_.ExtraDelayAt(now, msg_rng);
  if (extra > 0) {
    injected_delays_.fetch_add(1, std::memory_order_relaxed);
    delayed_metric_->Add();
    // The message enters the wire `extra` later; tx is charged then (and
    // skipped entirely if the sender crashed in the meantime).
    scheduler()->After(extra,
                       [this, from, to, cat, msg = std::move(msg)]() mutable {
                         inner()->Send(from, to, cat, std::move(msg));
                       });
    return true;
  }

  return inner()->Send(from, to, cat, std::move(msg));
}

bool FaultInjectingTransport::Linked(EndsystemIndex from,
                                     EndsystemIndex to) const {
  if (plan_.Partitioned(from, to, scheduler()->Now())) return false;
  return inner()->Linked(from, to);
}

}  // namespace seaweed

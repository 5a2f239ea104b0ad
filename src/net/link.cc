#include "net/link.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace inband {

Link::Link(Simulator& sim, LinkParams params)
    : sim_{sim}, params_{params}, jitter_rng_{params.jitter_seed} {
  INBAND_ASSERT(params_.bandwidth_bps > 0);
  INBAND_ASSERT(params_.prop_delay >= 0);
  INBAND_ASSERT(params_.jitter_median >= 0);
  INBAND_ASSERT(params_.jitter_sigma >= 0.0);
}

SimTime Link::serialization_delay(std::uint64_t bytes) const {
  // ns = bytes * 8 * 1e9 / bps, rounded up so zero-cost packets cannot exist.
  const auto num = static_cast<__uint128_t>(bytes) * 8u * 1'000'000'000u;
  const auto d = static_cast<SimTime>(
      (num + params_.bandwidth_bps - 1) / params_.bandwidth_bps);
  return std::max<SimTime>(d, 1);
}

SimTime Link::backlog(SimTime now) const {
  return busy_until_ > now ? busy_until_ - now : 0;
}

void Link::set_extra_delay(SimTime d) {
  INBAND_ASSERT(d >= 0);
  extra_delay_ = d;
}

bool Link::transmit(PacketRef pkt, PacketSink& dst) {
  const SimTime now = sim_.now();
  if (params_.queue_bytes != 0) {
    const SimTime queue_limit = serialization_delay(params_.queue_bytes);
    if (backlog(now) > queue_limit) {
      ++drops_;
      return false;  // ref dies here: slot recycles
    }
  }
  const std::uint64_t wire_bytes = pkt->wire_size();
  const SimTime start = std::max(now, busy_until_);
  const SimTime done = start + serialization_delay(wire_bytes);
  busy_until_ = done;
  ++tx_packets_;
  tx_bytes_ += wire_bytes;
  SimTime deliver_at = done + params_.prop_delay + extra_delay_;
  if (params_.jitter_median > 0 && params_.jitter_sigma > 0.0) {
    deliver_at += static_cast<SimTime>(jitter_rng_.lognormal_median(
        static_cast<double>(params_.jitter_median), params_.jitter_sigma));
  }
  // FIFO: jitter may not reorder packets on the wire.
  deliver_at = std::max(deliver_at, last_delivery_ + 1);
  last_delivery_ = deliver_at;

  struct Deliver {
    PacketSink* dst;
    PacketRef p;
    void operator()() {
      PacketBatch batch;
      batch.push(std::move(p));
      dst->handle_batch(std::move(batch));
    }
  };
  Deliver deliver{&dst, std::move(pkt)};
  // The per-packet event must live inline in the event pool; delivery state
  // that outgrows the callback's small buffer would put an allocation back
  // on every simulated hop. The pooled handle is two words.
  static_assert(EventCallback::fits_inline<Deliver>());
  sim_.schedule_at(deliver_at, std::move(deliver));
  return true;
}

}  // namespace inband

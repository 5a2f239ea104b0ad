// TCP model configuration.
//
// The model implements the mechanisms that produce causally-triggered
// transmissions — flow control (a fixed window), ACK clocking, piggybacked
// cumulative ACKs — plus the §5 "timing violation" behaviours (delayed ACKs,
// pacing) as switchable options. Congestion control is deliberately a fixed
// window: the paper's flows are window/application-limited datacenter flows,
// and a fixed quota is precisely the "flow control" the measurement technique
// keys on.
#pragma once

#include <cstdint>

#include "util/time.h"

namespace inband {

struct TcpConfig {
  // Maximum segment payload bytes.
  std::uint32_t mss = 1448;

  // Fixed send window (the flow-control quota), bytes. The effective window
  // is min(cwnd_bytes, peer receive window).
  std::uint32_t cwnd_bytes = 16 * 1448;

  // Delayed acknowledgements (off by default: memcached-style workloads run
  // with quickack-ish behaviour; the ablation bench turns this on).
  bool delayed_ack = false;
  SimTime delack_timeout = ms(40);
  int ack_every = 2;  // ack at latest every N full segments

  // Packet pacing of data segments (off by default; ablation knob).
  bool pacing = false;
  std::uint64_t pacing_rate_bps = 1'000'000'000;

  // Initial retransmission timeout (RFC 6298 shape; bounds below).
  SimTime rto_initial = ms(50);
};

// Advertised receive buffer, bytes.
inline constexpr std::uint32_t kRecvBufferBytes = 1 << 20;

// Retransmission timeout bounds, and the retransmissions a connection makes
// before it gives up and resets.
inline constexpr SimTime kRtoMin = ms(5);
inline constexpr SimTime kRtoMax = sec(4);
inline constexpr int kMaxRetries = 8;

// TIME_WAIT linger (2*MSL equivalent; short — simulated networks do not
// hold stragglers for minutes).
inline constexpr SimTime kTimeWaitLinger = ms(2);

}  // namespace inband

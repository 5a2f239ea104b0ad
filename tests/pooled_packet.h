// Test helper: copies a by-value Packet into a fresh slot of a PacketPool,
// the only form the fabric's send and transmit entry points take.
#pragma once

#include "net/packet_pool.h"

namespace inband {

inline PacketRef pooled(PacketPool& pool, const Packet& pkt) {
  PacketRef ref = pool.acquire();
  *ref = pkt;
  return ref;
}

}  // namespace inband

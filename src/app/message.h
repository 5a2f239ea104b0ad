// Key-value wire protocol (memcached-flavoured).
//
// Requests and responses are KvMessage values (net/packet.h) carried through
// the TCP model. Wire sizes approximate memcached's text protocol: a fixed
// header plus the value bytes for SETs and GET hits. The response echoes the
// request id and creation timestamp so the client can compute end-to-end
// latency without a lookup table.
#pragma once

#include <cstdint>

#include "net/packet.h"

namespace inband {

// Header sizes loosely modelled on memcached's text protocol framing.
inline constexpr std::uint32_t kKvRequestHeader = 40;
inline constexpr std::uint32_t kKvResponseHeader = 32;

std::uint32_t kv_request_wire_size(KvOp op, std::uint32_t value_len);
std::uint32_t kv_response_wire_size(const KvMessage& response);

// The response to `req` (store effects are applied by the server).
KvMessage kv_response(const KvMessage& req, bool hit, std::uint32_t value_len);

}  // namespace inband

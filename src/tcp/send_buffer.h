// TCP send buffer.
//
// Tracks the application byte stream in absolute stream offsets (0 == ISN,
// so the first app byte is offset 1, after the SYN). Payload *content* is
// just a byte count; application messages are retained with the stream
// offset at which they end so that (re)transmitted segments can carry the
// right MessageRefs until the data is acknowledged.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "util/ring_buffer.h"
#include "util/shard.h"

namespace inband {

INBAND_SHARD_LOCAL(owner)
class SendBuffer {
 public:
  // First app byte sits at stream offset 1 (offset 0 is the SYN).
  SendBuffer() = default;

  // Appends n bytes with no message boundary (bulk data).
  void append_bytes(std::uint64_t n) { end_ += n; }

  // Appends one application message occupying `wire_bytes` bytes.
  void append_message(const KvMessage& msg, std::uint32_t wire_bytes);

  // One past the last queued byte (absolute stream offset).
  std::uint64_t end() const { return end_; }

  // Message refs with end_offset in (range_start, range_end]; used when
  // building a segment covering that range. Returns a MsgList so the common
  // zero/one-message segment allocates nothing.
  MsgList messages_in(std::uint64_t range_start,
                      std::uint64_t range_end) const;

  // Drops bookkeeping for messages fully acknowledged below `snd_una`.
  void release_acked(std::uint64_t snd_una);

  std::size_t pending_messages() const { return msgs_.size(); }

 private:
  std::uint64_t end_ = 1;
  RingBuffer<MessageRef> msgs_;  // sorted by end_offset (append-only order)
};

}  // namespace inband

// The simulated packet.
//
// A TCP-ish segment: flow key, 32-bit sequence/ack numbers (with wraparound,
// as on the wire), flags, advertised window, timestamp option, and a payload
// *length* rather than payload bytes. Application messages ride along by
// value, annotated with the stream offset at which they end, so the
// receiver's TCP can deliver a message exactly when its final byte arrives
// in order — message content never teleports around the simulated network.
// A Packet is plain data: copying or moving it copies its messages, so it
// crosses shard boundaries (net/shard_channel.h) like any other value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

#include "net/flow.h"
#include "util/hotpath.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

// The one application message type: a memcached-flavoured GET/SET request
// or its response (app/message.h has the wire sizes). Segments carry it by
// value, like a header field, so it lives in net/, which cannot include app/.
enum class KvOp : std::uint8_t { kGet, kSet };
enum class KvKind : std::uint8_t { kRequest, kResponse };

struct KvMessage {
  KvKind kind = KvKind::kRequest;
  KvOp op = KvOp::kGet;
  bool hit = false;             // GET response only
  std::uint32_t value_len = 0;  // SET request / GET-hit response value bytes
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  SimTime created_at = kNoTime;  // stamped at the client on request creation
};

// A message whose final byte lies within this segment's payload.
// `end_offset` is an absolute 64-bit stream offset (one past the last byte).
struct MessageRef {
  std::uint64_t end_offset = 0;
  KvMessage msg;
};

// Message container with inline storage for the common case.
//
// Rig packets carry zero or one message boundary (a pipelined request or a
// response each fit in a single MSS); a std::vector here was the largest
// per-packet heap allocation in the fig-3 rig. Two refs live inline; longer
// lists (deep retransmission ranges) spill to a heap array. Only `push_msg`
// ever allocates, and only past the inline capacity.
INBAND_SHARD_LOCAL(owner)
class MsgList {
 public:
  static constexpr std::uint32_t kInline = 2;

  MsgList() = default;
  MsgList(std::initializer_list<MessageRef> init) {
    for (const MessageRef& m : init) push_msg(m);
  }
  MsgList(const MsgList& other) { copy_from(other); }
  MsgList(MsgList&& other) noexcept { move_from(std::move(other)); }
  MsgList& operator=(const MsgList& other) {
    if (this != &other) {
      clear();
      copy_from(other);
    }
    return *this;
  }
  MsgList& operator=(MsgList&& other) noexcept {
    if (this != &other) {
      clear();
      move_from(std::move(other));
    }
    return *this;
  }
  ~MsgList() { clear(); }

  void push_msg(const MessageRef& m) {
    if (heap_ == nullptr) {
      if (size_ < kInline) {
        inline_[size_++] = m;
        return;
      }
      INBAND_COLD_OK("spill past inline capacity: rig packets carry <=2 msgs");
      spill(2 * kInline);
    } else if (size_ == heap_cap_) {
      INBAND_COLD_OK("heap regrowth only beyond inline capacity");
      spill(2 * heap_cap_);
    }
    heap_[size_++] = m;
  }

  void clear() {
    if (heap_ != nullptr) {
      INBAND_COLD_OK("heap branch exists only after a >2-message spill");
      delete[] heap_;
      heap_ = nullptr;
      heap_cap_ = 0;
    }
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const MessageRef* begin() const { return data(); }
  const MessageRef* end() const { return data() + size_; }
  const MessageRef& operator[](std::size_t i) const { return data()[i]; }
  const MessageRef& front() const { return data()[0]; }
  const MessageRef& back() const { return data()[size_ - 1]; }

 private:
  const MessageRef* data() const { return heap_ != nullptr ? heap_ : inline_; }

  void spill(std::uint32_t new_cap) {
    MessageRef* grown = new MessageRef[new_cap];
    MessageRef* old = heap_ != nullptr ? heap_ : inline_;
    for (std::uint32_t i = 0; i < size_; ++i) grown[i] = old[i];
    delete[] heap_;
    heap_ = grown;
    heap_cap_ = new_cap;
  }

  void copy_from(const MsgList& other) {
    for (const MessageRef& m : other) push_msg(m);
  }

  void move_from(MsgList&& other) noexcept {
    size_ = other.size_;
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      heap_cap_ = other.heap_cap_;
      other.heap_ = nullptr;
      other.heap_cap_ = 0;
    } else {
      for (std::uint32_t i = 0; i < size_; ++i) inline_[i] = other.inline_[i];
    }
    other.size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t heap_cap_ = 0;
  MessageRef* heap_ = nullptr;  // null while the list fits inline
  MessageRef inline_[kInline];
};

namespace tcpflag {
inline constexpr std::uint8_t kSyn = 1 << 0;
inline constexpr std::uint8_t kAck = 1 << 1;
inline constexpr std::uint8_t kFin = 1 << 2;
inline constexpr std::uint8_t kRst = 1 << 3;
inline constexpr std::uint8_t kPsh = 1 << 4;
}  // namespace tcpflag

INBAND_SHARD_LOCAL(owner)
struct Packet {
  FlowKey flow;
  std::uint32_t seq = 0;        // sequence number of the first payload byte
  std::uint32_t ack = 0;        // cumulative ack (valid when kAck set)
  std::uint32_t wnd = 0;        // advertised receive window, bytes
  std::uint8_t flags = 0;
  std::uint32_t payload_len = 0;

  // TCP timestamp option (always on in this model).
  SimTime ts_val = kNoTime;  // sender clock at transmission
  SimTime ts_ecr = kNoTime;  // echoed peer timestamp

  // Application message boundaries inside this segment (sender-ordered).
  MsgList msgs;

  // Bookkeeping stamped by Network::send().
  std::uint64_t pkt_id = 0;
  SimTime sent_at = kNoTime;

  bool has(std::uint8_t flag) const { return (flags & flag) != 0; }

  // Bytes on the wire: IPv4 (20) + TCP with timestamp option (32) + payload.
  std::uint32_t wire_size() const { return 52 + payload_len; }

  // Sequence space this segment occupies (SYN and FIN consume one each).
  std::uint32_t seq_len() const {
    return payload_len + (has(tcpflag::kSyn) ? 1u : 0u) +
           (has(tcpflag::kFin) ? 1u : 0u);
  }
};

std::string format_packet(const Packet& p);

}  // namespace inband

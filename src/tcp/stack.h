// Host-level TCP: connection demultiplexing, listeners, port allocation.
//
// One TcpStack per host. Demux keys on the full 4-tuple as seen from the
// local side; listeners match on destination port only, irrespective of the
// destination address — exactly the loopback-VIP configuration of a real
// direct-server-return backend, which accepts traffic addressed to the VIP
// arriving on its own NIC.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "tcp/connection.h"
#include "util/rng.h"
#include "util/shard.h"

namespace inband {

INBAND_SHARD_LOCAL(shard)
class TcpStack {
 public:
  // Called when a SYN creates a new passive connection, before the SYN+ACK
  // goes out; set callbacks on the connection here.
  using AcceptCallback = std::function<void(TcpConnection&)>;

  TcpStack(Host& host, TcpConfig default_config, std::uint64_t seed);
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  // Creates an active-open connection to `remote` from an ephemeral local
  // port. Set callbacks on the returned connection, then call open() on it.
  // The pointer stays valid until the on_closed callback returns.
  TcpConnection* connect(Endpoint remote);
  TcpConnection* connect(Endpoint remote, const TcpConfig& config);

  void listen(std::uint16_t port, AcceptCallback cb);

  // Entry point from the owning host. The packet is borrowed for the call:
  // batch delivery hands each pooled element here without copying it out.
  INBAND_HOT void on_packet(const Packet& pkt);

  TcpConnection* find(const FlowKey& local_view);
  std::size_t connection_count() const { return conns_.size(); }

  Host& host() { return host_; }
  Simulator& sim() { return host_.sim(); }
  PacketPool& pool() { return host_.network().pool(); }
  const TcpConfig& default_config() const { return default_config_; }

  std::uint64_t resets_sent() const { return resets_sent_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t initiated() const { return initiated_; }

  // Invariant audit: demux-map key consistency plus every connection's own
  // sequence/window invariants.
  void audit_invariants(AuditScope& scope) const;

  // Order-independent digest over all live connections plus stack-level
  // counters and the port/ISN RNG state.
  void digest_state(StateDigest& digest) const;

 private:
  friend class TcpConnection;

  INBAND_HOT void output(PacketRef pkt);
  // Defers destruction of a closed connection to a fresh event.
  void reap(const FlowKey& key);
  std::uint16_t allocate_port();
  std::uint32_t make_isn();
  void send_rst_for(const Packet& pkt);
  bool port_in_use(std::uint16_t port) const;

  Host& host_;
  TcpConfig default_config_;
  Rng rng_;
  std::unordered_map<FlowKey, std::unique_ptr<TcpConnection>, FlowKeyHash>
      conns_;
  std::unordered_map<std::uint16_t, AcceptCallback> listeners_;
  std::uint16_t next_ephemeral_ = 32768;
  std::uint64_t conn_counter_ = 0;
  std::uint64_t resets_sent_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t initiated_ = 0;
};

// Convenience host owning a TCP stack.
INBAND_SHARD_LOCAL(shard)
class TcpHost : public Host {
 public:
  TcpHost(Simulator& sim, Network& net, Ipv4 addr, std::string name,
          TcpConfig config = {}, std::uint64_t seed = 1)
      : Host(sim, net, addr, std::move(name)),
        stack_(*this, config, seed) {}

  TcpStack& stack() { return stack_; }

  // Native batch delivery: segments are processed in place, straight out of
  // the pooled buffers; nothing is copied onto this hop.
  INBAND_HOT void handle_batch(PacketBatch&& batch) override {
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      stack_.on_packet(*batch[i]);
    }
  }

 private:
  TcpStack stack_;
};

}  // namespace inband

#include "net/network.h"

#include "util/assert.h"
#include "util/logging.h"

namespace inband {

Host::Host(Simulator& sim, Network& net, Ipv4 addr, std::string name)
    : sim_{sim}, net_{net}, addr_{addr}, name_{std::move(name)} {
  net_.attach(*this);
}

void Network::attach(Host& host) {
  const auto [it, inserted] = hosts_.emplace(host.addr(), &host);
  (void)it;
  INBAND_ASSERT(inserted, "duplicate host address");
}

Link& Network::add_link(Ipv4 from, Ipv4 to, const LinkParams& params) {
  INBAND_ASSERT(from != to, "self-link");
  auto link = std::make_unique<Link>(sim_, params);
  auto& ref = *link;
  const auto [it, inserted] = links_.emplace(key(from, to), std::move(link));
  (void)it;
  INBAND_ASSERT(inserted, "duplicate link");
  return ref;
}

bool Network::has_link(Ipv4 from, Ipv4 to) const {
  return links_.find(key(from, to)) != links_.end();
}

Link& Network::link(Ipv4 from, Ipv4 to) {
  const auto it = links_.find(key(from, to));
  INBAND_ASSERT(it != links_.end(), "no such link");
  return *it->second;
}

bool Network::send(Ipv4 from, Ipv4 to, PacketRef pkt) {
  Packet& p = *pkt;
  p.pkt_id = next_pkt_id_++;
  p.sent_at = sim_.now();
  if (observer_ != nullptr) observer_->on_packet(p, from, to);
  ++packets_sent_;

  const auto lit = links_.find(key(from, to));
  if (lit == links_.end()) {
    // No (from, to) link: either the destination lives on another shard and
    // the egress takes the packet, or it is a programming error. The
    // fault interceptor is skipped by design (see RemoteEgress); the local
    // ref recycles here — the egress copied.
    INBAND_ASSERT(remote_ != nullptr, "sending over a missing link");
    ++remote_packets_;
    const bool taken = remote_->forward(p, from, to);
    INBAND_ASSERT(taken, "sending over a missing link (egress refused)");
    return true;
  }
  const auto hit = hosts_.find(to);
  INBAND_ASSERT(hit != hosts_.end(), "no host attached at destination");
  Link& link = *lit->second;
  Host& dst = *hit->second;

  SendVerdict verdict;
  if (interceptor_ != nullptr) verdict = interceptor_->on_send(p, from, to);
  // Lost in the network: the sender saw a successful send and recovery is
  // the transport's problem, so this is `true`, unlike a queue drop. The ref
  // dies here and the slot recycles.
  if (verdict.drop) return true;
  if (verdict.duplicate_hold != kNoTime) {
    PacketRef dup = pool_.acquire();
    *dup = p;
    transmit_held(link, dst, std::move(dup), verdict.duplicate_hold);
  }
  if (verdict.hold > 0) {
    transmit_held(link, dst, std::move(pkt), verdict.hold);
    return true;
  }
  if (!link.transmit(std::move(pkt), dst)) {
    ++packets_dropped_;
    return false;
  }
  return true;
}

void Network::transmit_held(Link& link, Host& dst, PacketRef pkt,
                            SimTime hold) {
  INBAND_ASSERT(hold >= 0);
  struct Release {
    Network* net;
    Link* link;
    Host* dst;
    PacketRef p;
    void operator()() {
      if (!link->transmit(std::move(p), *dst)) ++net->packets_dropped_;
    }
  };
  Release release{this, &link, &dst, std::move(pkt)};
  static_assert(EventCallback::fits_inline<Release>());
  sim_.schedule_after(hold, std::move(release));
}

}  // namespace inband

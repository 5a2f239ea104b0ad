#include "scenario/backlogged_rig.h"

#include "lb/policies.h"
#include "util/assert.h"

namespace inband {

namespace {
constexpr Ipv4 kSenderAddr = make_ipv4(10, 0, 0, 1);
constexpr Ipv4 kVip = make_ipv4(10, 1, 0, 1);
constexpr Ipv4 kReceiverAddr = make_ipv4(10, 2, 0, 1);
constexpr std::uint16_t kSinkPort = 9000;
}  // namespace

BackloggedRig::BackloggedRig(BackloggedRigConfig config)
    : config_{config}, net_{sim_} {
  TcpConfig tcp;
  tcp.mss = config_.mss;
  tcp.cwnd_bytes = config_.window_segments * config_.mss;
  tcp.delayed_ack = config_.delayed_ack;
  tcp.delack_timeout = config_.delack_timeout;
  tcp.pacing = config_.pacing;
  tcp.pacing_rate_bps = config_.pacing_rate_bps;

  sender_host_ = std::make_unique<TcpHost>(sim_, net_, kSenderAddr, "sender",
                                           tcp, config_.seed);
  // The receiver shares the TCP options: delayed ACKs in particular matter
  // at the receiver, whose ACK policy shapes the sender's triggered
  // transmissions.
  receiver_host_ = std::make_unique<TcpHost>(sim_, net_, kReceiverAddr,
                                             "receiver", tcp,
                                             config_.seed + 1);

  LinkParams up{config_.bandwidth_bps, config_.sender_lb_delay, 0,
                config_.forward_jitter_median, config_.forward_jitter_sigma,
                config_.seed ^ 0xf01};
  LinkParams mid{config_.bandwidth_bps, config_.lb_receiver_delay, 0,
                 config_.forward_jitter_median, config_.forward_jitter_sigma,
                 config_.seed ^ 0xf02};
  LinkParams back{config_.bandwidth_bps, config_.receiver_sender_delay, 0,
                  config_.return_jitter_median, config_.return_jitter_sigma,
                  config_.seed ^ 0xf03};
  net_.add_link(kSenderAddr, kVip, up);
  net_.add_link(kVip, kReceiverAddr, mid);
  net_.add_link(kReceiverAddr, kSenderAddr, back);

  BackendPool pool{{0, "receiver", kReceiverAddr, 1, true}};
  lb_ = std::make_unique<LoadBalancer>(
      sim_, net_, kVip, "lb", pool,
      std::make_unique<StaticMaglevPolicy>(pool, /*table_size=*/251));
  net_.set_observer(this);

  if (config_.fault.enabled()) {
    INBAND_ASSERT(config_.fault.servers.empty(),
                  "backlogged rig has no KvServers for server faults");
    fault_ = std::make_unique<FaultLayer>(
        sim_, net_, config_.fault,
        std::vector<FaultLayer::LinkRef>{
            {kSenderAddr, kVip, LinkScope::kClientToLb, 0},
            {kVip, kReceiverAddr, LinkScope::kLbToServer, 0},
            {kReceiverAddr, kSenderAddr, LinkScope::kServerToClient, 0}});
  }

  bulk_sink_ = std::make_unique<BulkSink>(*receiver_host_, kSinkPort);
  bulk_sender_ = std::make_unique<BulkSender>(
      *sender_host_, Endpoint{kVip, kSinkPort}, tcp);
  bulk_sender_->set_rtt_recorder([this](SimTime now, SimTime rtt) {
    ground_truth_.push_back({now, rtt});
  });
}

void BackloggedRig::on_packet(const Packet& /*pkt*/, Ipv4 from,
                              Ipv4 /*to*/) {
  // hotlint:allow(hot-growth): the rig's output, one timestamp per packet
  if (from == kVip) arrivals_.push_back(sim_.now());
}

void BackloggedRig::run() {
  if (config_.step_time < config_.duration && config_.step_extra > 0) {
    sim_.schedule_at(config_.step_time, [this] {
      net_.link(kVip, kReceiverAddr).set_extra_delay(config_.step_extra);
    });
  }
  bulk_sender_->start();
  sim_.run_until(config_.duration);
}

}  // namespace inband

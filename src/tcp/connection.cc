#include "tcp/connection.h"

#include <algorithm>

#include "check/invariant_auditor.h"
#include "check/state_digest.h"
#include "tcp/seq.h"
#include "tcp/stack.h"
#include "util/assert.h"
#include "util/logging.h"

namespace inband {

const char* tcp_state_name(TcpState s) {
  switch (s) {
    case TcpState::kClosed:
      return "CLOSED";
    case TcpState::kSynSent:
      return "SYN_SENT";
    case TcpState::kSynRcvd:
      return "SYN_RCVD";
    case TcpState::kEstablished:
      return "ESTABLISHED";
    case TcpState::kFinWait1:
      return "FIN_WAIT_1";
    case TcpState::kFinWait2:
      return "FIN_WAIT_2";
    case TcpState::kCloseWait:
      return "CLOSE_WAIT";
    case TcpState::kLastAck:
      return "LAST_ACK";
    case TcpState::kClosing:
      return "CLOSING";
    case TcpState::kTimeWait:
      return "TIME_WAIT";
  }
  return "?";
}

TcpConnection::TcpConnection(TcpStack& stack, FlowKey key_local_view,
                             TcpConfig config, std::uint32_t isn,
                             bool active_open)
    : stack_{stack},
      key_{key_local_view},
      config_{config},
      isn_{isn},
      rto_{config.rto_initial} {
  INBAND_ASSERT(config_.mss > 0);
  INBAND_ASSERT(config_.cwnd_bytes >= config_.mss);
  (void)active_open;
}

Simulator& TcpConnection::sim() { return stack_.sim(); }

// Stream offset the next outgoing ACK acknowledges (data plus processed FIN).
static std::uint64_t ack_offset_of(const RecvBuffer& rb, bool fin_processed,
                                   std::uint64_t fin_offset) {
  return fin_processed ? fin_offset + 1 : rb.rcv_nxt();
}

std::uint32_t TcpConnection::advertised_window() const {
  const std::uint64_t buffered = recv_buf_.buffered_bytes();
  if (buffered >= kRecvBufferBytes) return 0;
  return kRecvBufferBytes - static_cast<std::uint32_t>(buffered);
}

std::uint64_t TcpConnection::effective_window() const {
  return std::min<std::uint64_t>(config_.cwnd_bytes, peer_rwnd_);
}

PacketRef TcpConnection::make_packet(std::uint8_t flags,
                                     std::uint64_t seq_offset,
                                     std::uint32_t payload_len) {
  PacketRef p = stack_.pool().acquire();
  p->flow = key_;
  p->seq = wrap_seq(isn_, seq_offset);
  p->flags = flags;
  p->payload_len = payload_len;
  p->wnd = advertised_window();
  p->ts_val = sim().now();
  if ((flags & tcpflag::kAck) != 0) {
    p->ack = wrap_seq(
        irs_, ack_offset_of(recv_buf_, peer_fin_processed_, peer_fin_offset_));
    p->ts_ecr = ts_recent_;
  }
  return p;
}

void TcpConnection::emit(PacketRef pkt) {
  ++segments_sent_;
  if (pkt->has(tcpflag::kAck)) {
    unacked_segments_ = 0;
    cancel_delack();
  }
  stack_.output(std::move(pkt));
}

void TcpConnection::open() {
  INBAND_ASSERT(state_ == TcpState::kClosed, "open() on used connection");
  state_ = TcpState::kSynSent;
  snd_una_ = 0;
  snd_nxt_ = 1;  // SYN occupies offset 0
  emit(make_packet(tcpflag::kSyn, 0, 0));
  arm_retx();
}

void TcpConnection::send_message(const KvMessage& msg,
                                 std::uint32_t wire_bytes) {
  INBAND_ASSERT(!close_requested_, "send after close()");
  send_buf_.append_message(msg, wire_bytes);
  try_send();
}

void TcpConnection::send_bytes(std::uint64_t n) {
  INBAND_ASSERT(!close_requested_, "send after close()");
  send_buf_.append_bytes(n);
  try_send();
}

void TcpConnection::close() {
  if (close_requested_) return;
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    // Closing an unestablished connection: no peer state to unwind.
    teardown(false);
    return;
  }
  close_requested_ = true;
  try_send();
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) return;
  emit(make_packet(tcpflag::kRst | tcpflag::kAck, snd_nxt_, 0));
  teardown(true);
}

void TcpConnection::on_packet(const Packet& pkt) {
  ++segments_received_;

  if (pkt.has(tcpflag::kRst)) {
    teardown(true);
    return;
  }

  switch (state_) {
    case TcpState::kClosed: {
      // Passive open: the stack routes the initial SYN here.
      if (!pkt.has(tcpflag::kSyn) || pkt.has(tcpflag::kAck)) return;
      irs_ = pkt.seq;
      ts_recent_ = pkt.ts_val;
      peer_rwnd_ = pkt.wnd;
      state_ = TcpState::kSynRcvd;
      snd_una_ = 0;
      snd_nxt_ = 1;
      emit(make_packet(tcpflag::kSyn | tcpflag::kAck, 0, 0));
      arm_retx();
      return;
    }
    case TcpState::kSynSent: {
      if (pkt.has(tcpflag::kSyn) && pkt.has(tcpflag::kAck)) {
        const std::int64_t una = unwrap_seq(isn_, pkt.ack, snd_una_);
        if (una < 1) return;  // does not cover our SYN
        irs_ = pkt.seq;
        ts_recent_ = pkt.ts_val;
        peer_rwnd_ = pkt.wnd;
        snd_una_ = 1;
        retx_attempts_ = 0;
        disarm_retx();
        if (pkt.ts_ecr != kNoTime) {
          update_rtt(sim().now() - pkt.ts_ecr);
          if (cb_.on_rtt_sample) cb_.on_rtt_sample(*this, srtt_);
        }
        state_ = TcpState::kEstablished;
        send_ack_now();
        if (cb_.on_established) cb_.on_established(*this);
        try_send();
      }
      return;
    }
    case TcpState::kSynRcvd: {
      if (pkt.has(tcpflag::kSyn) && !pkt.has(tcpflag::kAck)) {
        // Duplicate SYN (our SYN+ACK may be lost); retransmit timer covers
        // recovery, but answering immediately is cheap and realistic.
        emit(make_packet(tcpflag::kSyn | tcpflag::kAck, 0, 0));
        return;
      }
      if (!pkt.has(tcpflag::kAck)) return;
      const std::int64_t una = unwrap_seq(isn_, pkt.ack, snd_una_);
      if (una < 1) return;
      state_ = TcpState::kEstablished;
      retx_attempts_ = 0;
      disarm_retx();
      if (cb_.on_established) cb_.on_established(*this);
      break;  // fall through to common processing (ACK may carry data)
    }
    case TcpState::kTimeWait: {
      // Retransmitted FIN from the peer: re-ack it.
      if (pkt.has(tcpflag::kFin)) send_ack_now();
      return;
    }
    default:
      break;
  }

  // Common processing for established and closing states.
  if (pkt.ts_val != kNoTime) {
    const std::int64_t seg_off = unwrap_seq(irs_, pkt.seq, recv_buf_.rcv_nxt());
    const auto ack_off = static_cast<std::int64_t>(
        ack_offset_of(recv_buf_, peer_fin_processed_, peer_fin_offset_));
    if (seg_off <= ack_off) ts_recent_ = pkt.ts_val;
  }
  if (pkt.has(tcpflag::kAck)) handle_ack(pkt);
  if (state_ == TcpState::kClosed) return;  // handle_ack may finish teardown
  if (pkt.payload_len > 0 || pkt.has(tcpflag::kFin)) handle_data(pkt);
  if (state_ == TcpState::kClosed) return;
  try_send();
}

void TcpConnection::handle_ack(const Packet& pkt) {
  peer_rwnd_ = pkt.wnd;
  const std::int64_t una_signed = unwrap_seq(isn_, pkt.ack, snd_una_);
  if (una_signed < 0) return;
  const auto una = static_cast<std::uint64_t>(una_signed);
  if (una > snd_nxt_) return;  // acks data never sent; ignore
  if (una <= snd_una_) return;

  snd_una_ = una;
  send_buf_.release_acked(una);
  retx_attempts_ = 0;
  if (pkt.ts_ecr != kNoTime) {
    const SimTime sample = sim().now() - pkt.ts_ecr;
    update_rtt(sample);
    if (cb_.on_rtt_sample) cb_.on_rtt_sample(*this, sample);
  }

  if (fin_sent_ && snd_una_ > fin_offset_) {
    switch (state_) {
      case TcpState::kFinWait1:
        state_ = TcpState::kFinWait2;
        break;
      case TcpState::kClosing:
        enter_time_wait();
        break;
      case TcpState::kLastAck:
        teardown(false);
        return;
      default:
        break;
    }
  }

  disarm_retx();
  if (snd_nxt_ > snd_una_) arm_retx();
}

void TcpConnection::handle_data(const Packet& pkt) {
  const std::int64_t start_signed =
      unwrap_seq(irs_, pkt.seq, recv_buf_.rcv_nxt());
  if (start_signed < 0) {
    send_ack_now();  // ancient duplicate; re-ack
    return;
  }
  const auto start = static_cast<std::uint64_t>(start_signed);
  const std::uint64_t end = start + pkt.payload_len;

  RecvBuffer::Delivery d;
  if (pkt.payload_len > 0) {
    d = recv_buf_.on_segment(start, end, pkt.msgs);
  }

  if (pkt.has(tcpflag::kFin)) {
    peer_fin_seen_ = true;
    peer_fin_offset_ = end;
  }
  bool fin_just_processed = false;
  if (peer_fin_seen_ && !peer_fin_processed_ &&
      recv_buf_.rcv_nxt() == peer_fin_offset_) {
    peer_fin_processed_ = true;
    fin_just_processed = true;
    switch (state_) {
      case TcpState::kEstablished:
        state_ = TcpState::kCloseWait;
        if (cb_.on_peer_close) cb_.on_peer_close(*this);
        break;
      case TcpState::kFinWait1:
        // Our FIN not yet acked (else we'd be in FIN_WAIT_2).
        state_ = TcpState::kClosing;
        break;
      case TcpState::kFinWait2:
        enter_time_wait();
        break;
      default:
        break;
    }
  }

  if (d.bytes > 0) ++unacked_segments_;

  // Application delivery may immediately queue a response; the response
  // segment piggybacks the ACK, which is the dominant causally-triggered
  // transmission in request/response traffic.
  for (const auto& m : d.messages) {
    if (cb_.on_message) cb_.on_message(*this, m.msg);
    if (state_ == TcpState::kClosed) return;
  }
  if (d.bytes > 0 && cb_.on_data) {
    cb_.on_data(*this, d.bytes);
    if (state_ == TcpState::kClosed) return;
  }

  const bool force_ack = d.duplicate || d.out_of_order || fin_just_processed;
  if (force_ack) {
    send_ack_now();
  } else if (unacked_segments_ > 0) {
    const bool immediate =
        !config_.delayed_ack || unacked_segments_ >= config_.ack_every;
    schedule_ack(immediate);
  }
}

void TcpConnection::try_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1) {
    return;
  }

  const SimTime now = sim().now();
  if (config_.pacing && now < next_pace_) {
    if (pace_timer_ == kInvalidEventId) {
      pace_timer_ = sim().schedule_at(next_pace_, [this] {
        pace_timer_ = kInvalidEventId;
        try_send();
      });
    }
    return;
  }

  while (true) {
    const std::uint64_t wnd = effective_window();
    const std::uint64_t avail_end =
        std::min(snd_una_ + wnd, send_buf_.end());
    if (snd_nxt_ >= avail_end) break;
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.mss, avail_end - snd_nxt_));
    send_data_segment(snd_nxt_, len, /*retransmission=*/false);
    snd_nxt_ += len;
    if (config_.pacing) {
      const auto pace_ns = static_cast<SimTime>(
          (static_cast<__uint128_t>(len) * 8u * 1'000'000'000u) /
          config_.pacing_rate_bps);
      next_pace_ = std::max(now, next_pace_) + std::max<SimTime>(pace_ns, 1);
      if (snd_nxt_ < std::min(snd_una_ + effective_window(), send_buf_.end()) &&
          pace_timer_ == kInvalidEventId) {
        pace_timer_ = sim().schedule_at(next_pace_, [this] {
          pace_timer_ = kInvalidEventId;
          try_send();
        });
      }
      break;  // at most one segment per pacing slot
    }
  }

  maybe_send_fin();

  if (snd_nxt_ > snd_una_ && retx_timer_ == kInvalidEventId) arm_retx();
}

void TcpConnection::send_data_segment(std::uint64_t offset, std::uint32_t len,
                                      bool retransmission) {
  auto msgs = send_buf_.messages_in(offset, offset + len);
  std::uint8_t flags = tcpflag::kAck;
  if (!msgs.empty()) flags |= tcpflag::kPsh;
  PacketRef p = make_packet(flags, offset, len);
  p->msgs = std::move(msgs);
  if (retransmission) ++retransmits_;
  emit(std::move(p));
}

bool TcpConnection::maybe_send_fin() {
  if (!close_requested_ || fin_sent_) return false;
  if (snd_nxt_ != send_buf_.end()) return false;  // data still queued
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) {
    return false;
  }
  fin_offset_ = snd_nxt_;
  fin_sent_ = true;
  emit(make_packet(tcpflag::kFin | tcpflag::kAck, snd_nxt_, 0));
  snd_nxt_ += 1;
  state_ = state_ == TcpState::kEstablished ? TcpState::kFinWait1
                                            : TcpState::kLastAck;
  // Retransmission arming is the caller's epilogue (try_send): after a FIN
  // snd_nxt_ > snd_una_ always holds, so the timer is armed there, once the
  // whole burst and the FIN are on the fabric. An unpaced try_send pushes
  // no event inside its loop, so handing each segment over at emit() gives
  // it the same pkt_id, delivery-event order and link/fault RNG draws as
  // handing the burst over in one piece would.
  return true;
}

void TcpConnection::send_ack_now() {
  emit(make_packet(tcpflag::kAck, snd_nxt_, 0));
}

void TcpConnection::schedule_ack(bool immediate) {
  if (immediate) {
    send_ack_now();
    return;
  }
  if (delack_timer_ != kInvalidEventId) return;
  delack_timer_ = sim().schedule_after(config_.delack_timeout, [this] {
    delack_timer_ = kInvalidEventId;
    send_ack_now();
  });
}

void TcpConnection::cancel_delack() {
  if (delack_timer_ != kInvalidEventId) {
    sim().cancel(delack_timer_);
    delack_timer_ = kInvalidEventId;
  }
}

void TcpConnection::arm_retx() {
  INBAND_DCHECK(retx_timer_ == kInvalidEventId);
  retx_timer_ = sim().schedule_after(rto_, [this] {
    retx_timer_ = kInvalidEventId;
    on_retx_timeout();
  });
}

void TcpConnection::disarm_retx() {
  if (retx_timer_ != kInvalidEventId) {
    sim().cancel(retx_timer_);
    retx_timer_ = kInvalidEventId;
  }
}

void TcpConnection::on_retx_timeout() {
  ++retx_attempts_;
  if (retx_attempts_ > kMaxRetries) {
    LOG_DEBUG() << "conn " << format_flow(key_) << " gave up after "
                << kMaxRetries << " retries in "
                << tcp_state_name(state_);
    teardown(true);
    return;
  }
  rto_ = std::min(rto_ * 2, kRtoMax);

  switch (state_) {
    case TcpState::kSynSent:
      ++retransmits_;
      emit(make_packet(tcpflag::kSyn, 0, 0));
      break;
    case TcpState::kSynRcvd:
      ++retransmits_;
      emit(make_packet(tcpflag::kSyn | tcpflag::kAck, 0, 0));
      break;
    default: {
      if (snd_una_ >= snd_nxt_) break;  // nothing outstanding
      if (fin_sent_ && snd_una_ == fin_offset_) {
        ++retransmits_;
        emit(make_packet(tcpflag::kFin | tcpflag::kAck, fin_offset_, 0));
      } else {
        const auto len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            config_.mss,
            std::min(snd_nxt_, send_buf_.end()) - snd_una_));
        if (len > 0) {
          send_data_segment(snd_una_, len, /*retransmission=*/true);
        }
      }
      break;
    }
  }
  arm_retx();
}

void TcpConnection::update_rtt(SimTime sample) {
  if (sample < 0) return;
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const SimTime err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, kRtoMin, kRtoMax);
}

void TcpConnection::enter_time_wait() {
  state_ = TcpState::kTimeWait;
  disarm_retx();
  cancel_delack();
  if (time_wait_timer_ == kInvalidEventId) {
    time_wait_timer_ = sim().schedule_after(kTimeWaitLinger, [this] {
      time_wait_timer_ = kInvalidEventId;
      teardown(false);
    });
  }
}

void TcpConnection::teardown(bool reset_seen) {
  if (state_ == TcpState::kClosed) return;
  state_ = TcpState::kClosed;
  disarm_retx();
  cancel_delack();
  if (time_wait_timer_ != kInvalidEventId) {
    sim().cancel(time_wait_timer_);
    time_wait_timer_ = kInvalidEventId;
  }
  if (pace_timer_ != kInvalidEventId) {
    sim().cancel(pace_timer_);
    pace_timer_ = kInvalidEventId;
  }
  if (cb_.on_closed) cb_.on_closed(*this, reset_seen);
  stack_.reap(key_);
}

void TcpConnection::audit_invariants(AuditScope& scope) const {
  const std::string who = format_flow(key_);
  scope.check(snd_una_ <= snd_nxt_, "snd-una-le-snd-nxt", who);
  scope.check(snd_nxt_ <= send_buf_.end() + (fin_sent_ ? 1 : 0),
              "snd-nxt-within-queued", who);
  if (fin_sent_) {
    scope.check(close_requested_, "fin-implies-close-requested", who);
    scope.check(fin_offset_ == send_buf_.end(), "fin-after-stream-end", who);
  }
  if (peer_fin_seen_) {
    scope.check(recv_buf_.rcv_nxt() <= peer_fin_offset_ + 1,
                "rcv-nxt-within-peer-fin", who);
  }
  if (peer_fin_processed_) {
    scope.check(peer_fin_seen_, "fin-processed-implies-seen", who);
  }
  scope.check(srtt_ >= 0 && rttvar_ >= 0, "rtt-estimator-nonnegative", who);
  scope.check(rto_ > 0, "rto-positive", who);
  scope.check(retx_attempts_ >= 0, "retx-attempts-nonnegative", who);
  scope.check(ts_recent_ == kNoTime || ts_recent_ <= scope.now(),
              "timestamp-echo-in-past", who);
}

void TcpConnection::digest_state(StateDigest& digest) const {
  digest.mix(hash_flow(key_));
  digest.mix_u32(static_cast<std::uint32_t>(state_));
  digest.mix_u32(isn_);
  digest.mix_u32(irs_);
  digest.mix(snd_una_);
  digest.mix(snd_nxt_);
  digest.mix(send_buf_.end());
  digest.mix(peer_rwnd_);
  digest.mix_bool(close_requested_);
  digest.mix_bool(fin_sent_);
  digest.mix(recv_buf_.rcv_nxt());
  digest.mix_bool(peer_fin_seen_);
  digest.mix_i64(ts_recent_);
  digest.mix_i64(srtt_);
  digest.mix_i64(rttvar_);
  digest.mix_i64(rto_);
  digest.mix_i64(next_pace_);
  digest.mix(retransmits_);
  digest.mix(segments_sent_);
  digest.mix(segments_received_);
}

}  // namespace inband

#include "app/kv_client.h"

#include "util/assert.h"
#include "util/logging.h"

namespace inband {

namespace {
// A closed connection is reopened by its own event, after this delay.
constexpr SimTime kReconnectDelay = 0;
}  // namespace

KvClient::KvClient(TcpHost& host, KvClientConfig config)
    : host_{host},
      config_{config},
      rng_{splitmix64(config.seed ^ 0xc11e47ULL)} {
  INBAND_ASSERT(config_.connections > 0);
  INBAND_ASSERT(config_.pipeline > 0);
  INBAND_ASSERT(config_.keyspace > 0);
  INBAND_ASSERT(config_.get_ratio >= 0.0 && config_.get_ratio <= 1.0);
  slots_.resize(static_cast<std::size_t>(config_.connections));
}

void KvClient::start() {
  INBAND_ASSERT(!running_, "start() called twice");
  running_ = true;
  for (int i = 0; i < config_.connections; ++i) open_connection(i);
}

void KvClient::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& slot : slots_) {
    if (slot.think_timer != kInvalidEventId) {
      host_.sim().cancel(slot.think_timer);
      slot.think_timer = kInvalidEventId;
    }
    if (slot.conn != nullptr && slot.conn->can_send()) {
      slot.conn->close();
    }
  }
}

void KvClient::open_connection(int slot_index) {
  auto& slot = slots_[static_cast<std::size_t>(slot_index)];
  INBAND_ASSERT(slot.conn == nullptr);
  slot.issued = 0;
  slot.completed = 0;
  slot.outstanding = 0;
  slot.conn = host_.stack().connect(config_.server);
  ++connections_opened_;

  auto& cb = slot.conn->callbacks();
  cb.on_established = [this, slot_index](TcpConnection&) {
    fill_pipeline(slot_index);
  };
  cb.on_message = [this, slot_index](TcpConnection&, const KvMessage& resp) {
    INBAND_ASSERT(resp.kind == KvKind::kResponse);
    on_response(slot_index, resp);
  };
  cb.on_closed = [this, slot_index](TcpConnection&, bool reset) {
    on_conn_closed(slot_index, reset);
  };
  slot.conn->open();
}

void KvClient::fill_pipeline(int slot_index) {
  auto& slot = slots_[static_cast<std::size_t>(slot_index)];
  if (!running_ || slot.conn == nullptr || !slot.conn->can_send()) return;
  while (slot.outstanding < config_.pipeline &&
         (config_.requests_per_conn == 0 ||
          slot.issued < config_.requests_per_conn)) {
    issue_request(slot_index);
  }
}

void KvClient::issue_request(int slot_index) {
  auto& slot = slots_[static_cast<std::size_t>(slot_index)];
  KvMessage req;
  req.kind = KvKind::kRequest;
  req.op = rng_.bernoulli(config_.get_ratio) ? KvOp::kGet : KvOp::kSet;
  req.id = next_request_id_++;
  req.key = rng_.uniform_u64(0, config_.keyspace - 1);
  req.value_len = req.op == KvOp::kSet ? config_.value_len : 0;
  req.created_at = host_.sim().now();
  const std::uint32_t wire = kv_request_wire_size(req.op, req.value_len);
  ++slot.issued;
  ++slot.outstanding;
  ++requests_sent_;
  slot.conn->send_message(req, wire);
}

void KvClient::on_response(int slot_index, const KvMessage& resp) {
  auto& slot = slots_[static_cast<std::size_t>(slot_index)];
  INBAND_ASSERT(slot.outstanding > 0, "response without outstanding request");
  --slot.outstanding;
  ++slot.completed;
  ++responses_received_;

  const SimTime now = host_.sim().now();
  if (recorder_) {
    RequestRecord rec;
    rec.sent_at = resp.created_at;
    rec.latency = now - resp.created_at;
    rec.op = resp.op;
    rec.hit = resp.hit;
    rec.conn_index = slot_index;
    rec.flow = slot.conn->key();
    recorder_(rec);
  }

  if (!running_) return;

  // Churn: after requests_per_conn responses, recycle the connection. The
  // LB will see a fresh flow and make a fresh routing decision.
  if (config_.requests_per_conn != 0 &&
      slot.completed >= config_.requests_per_conn) {
    if (slot.conn->can_send()) slot.conn->close();
    return;  // reconnect happens in on_conn_closed
  }

  if (config_.think_time > 0) {
    if (slot.think_timer == kInvalidEventId) {
      slot.think_timer =
          host_.sim().schedule_after(config_.think_time, [this, slot_index] {
            slots_[static_cast<std::size_t>(slot_index)].think_timer =
                kInvalidEventId;
            fill_pipeline(slot_index);
          });
    }
  } else {
    // Immediate refill: the next request is causally triggered by this
    // response.
    fill_pipeline(slot_index);
  }
}

void KvClient::on_conn_closed(int slot_index, bool reset) {
  auto& slot = slots_[static_cast<std::size_t>(slot_index)];
  slot.conn = nullptr;
  if (reset) ++connection_failures_;
  if (!running_) return;
  host_.sim().schedule_after(kReconnectDelay, [this, slot_index] {
    if (running_ &&
        slots_[static_cast<std::size_t>(slot_index)].conn == nullptr) {
      open_connection(slot_index);
    }
  });
}

}  // namespace inband

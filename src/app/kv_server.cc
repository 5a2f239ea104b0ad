#include "app/kv_server.h"

#include <algorithm>

#include "util/assert.h"
#include "util/logging.h"

namespace inband {

KvServer::KvServer(TcpHost& host, KvServerConfig config)
    : host_{host},
      config_{config},
      rng_{splitmix64(config.seed ^ 0x5e57e5ULL)} {
  INBAND_ASSERT(config_.workers > 0);
  host_.stack().listen(config_.port,
                       [this](TcpConnection& conn) { on_accept(conn); });
}

void KvServer::add_injector(std::unique_ptr<VariabilityInjector> injector) {
  INBAND_ASSERT(injector != nullptr);
  // Each injector gets its own stream, keyed by the server seed and the
  // attachment index. Injectors drawing from the server's stream would make
  // one entity's draw history depend on another's call pattern — exactly the
  // cross-entity coupling a per-shard digest cannot tolerate.
  injector->seed_stream(
      splitmix64(config_.seed ^ (0x16a3ec7ULL + injectors_.size())));
  injectors_.push_back(std::move(injector));
}

void KvServer::abort_all_connections() {
  queue_.clear();
  // abort() runs on_closed, which erases the entry; step past it first.
  for (auto it = open_conns_.begin(); it != open_conns_.end();) {
    (it++)->second->abort();
  }
}

void KvServer::on_accept(TcpConnection& conn) {
  open_conns_.emplace(conn.key(), &conn);
  conn.callbacks().on_message = [this](TcpConnection& c,
                                       const KvMessage& req) {
    INBAND_ASSERT(req.kind == KvKind::kRequest);
    on_request(c, req);
  };
  conn.callbacks().on_peer_close = [](TcpConnection& c) { c.close(); };
  conn.callbacks().on_closed = [this](TcpConnection& c, bool /*reset*/) {
    open_conns_.erase(c.key());
  };
}

void KvServer::on_request(TcpConnection& conn, const KvMessage& request) {
  const Pending work{conn.key(), request};
  if (busy_workers_ < config_.workers) {
    start_processing(work);
  } else {
    queue_.push(work);
    max_queue_depth_ = std::max(max_queue_depth_, queue_.size());
  }
}

SimTime KvServer::service_time(const KvMessage& request) {
  const SimTime base =
      request.op == KvOp::kGet ? config_.get_base : config_.set_base;
  SimTime svc = base;
  if (config_.service_sigma > 0.0) {
    svc = static_cast<SimTime>(rng_.lognormal_median(
        static_cast<double>(svc), config_.service_sigma));
  }
  const SimTime now = host_.sim().now();
  for (auto& inj : injectors_) {
    svc += inj->extra_service_time(now, base);
  }
  return std::max<SimTime>(svc, 1);
}

void KvServer::account_busy(SimTime now, int delta) {
  busy_integral_ns_ += static_cast<double>(busy_workers_) *
                       static_cast<double>(now - busy_last_change_);
  busy_last_change_ = now;
  busy_workers_ += delta;
  INBAND_DCHECK(busy_workers_ >= 0 && busy_workers_ <= config_.workers);
}

double KvServer::busy_worker_seconds(SimTime now) const {
  return (busy_integral_ns_ + static_cast<double>(busy_workers_) *
                                  static_cast<double>(now - busy_last_change_)) /
         1e9;
}

void KvServer::start_processing(const Pending& work) {
  const SimTime now = host_.sim().now();
  SimTime start_at = now;
  for (auto& inj : injectors_) {
    start_at = std::max(start_at, inj->frozen_until(now));
  }
  const SimTime svc = service_time(work.request);
  account_busy(now, +1);
  struct Finish {
    KvServer* server;
    Pending work;
    void operator()() const { server->finish(work); }
  };
  // One service completion per request: it must live inline in the event
  // pool, or every request pays a heap allocation.
  static_assert(EventCallback::fits_inline<Finish>());
  host_.sim().schedule_at(start_at + svc, Finish{this, work});
}

void KvServer::finish(const Pending& work) {
  const SimTime now = host_.sim().now();
  account_busy(now, -1);

  const KvMessage& req = work.request;
  bool hit = false;
  std::uint32_t value_len = 0;
  if (req.op == KvOp::kSet) {
    // hotlint:allow(hot-growth): KV write; keyspace bounded by the workload
    store_[req.key] = req.value_len;
    ++sets_;
  } else {
    const auto it = store_.find(req.key);
    hit = it != store_.end();
    if (hit) {
      value_len = it->second;
      ++hits_;
    }
    ++gets_;
  }
  ++requests_served_;

  // The connection may have died while the request was in service.
  const auto conn = open_conns_.find(work.flow);
  if (conn != open_conns_.end() && conn->second->can_send()) {
    const KvMessage resp = kv_response(req, hit, value_len);
    conn->second->send_message(resp, kv_response_wire_size(resp));
  }

  if (!queue_.empty() && busy_workers_ < config_.workers) {
    Pending next = queue_.front();
    queue_.pop();
    // Dead connections may sit in the queue; drop their work.
    while (open_conns_.find(next.flow) == open_conns_.end()) {
      if (queue_.empty()) return;
      next = queue_.front();
      queue_.pop();
    }
    start_processing(next);
  }
}

}  // namespace inband

#include "app/message.h"

namespace inband {

std::uint32_t kv_request_wire_size(KvOp op, std::uint32_t value_len) {
  return op == KvOp::kSet ? kKvRequestHeader + value_len : kKvRequestHeader;
}

std::uint32_t kv_response_wire_size(const KvMessage& response) {
  if (response.op == KvOp::kGet && response.hit) {
    return kKvResponseHeader + response.value_len;
  }
  return kKvResponseHeader;
}

KvMessage kv_response(const KvMessage& req, bool hit,
                      std::uint32_t value_len) {
  KvMessage resp;
  resp.kind = KvKind::kResponse;
  resp.op = req.op;
  resp.hit = hit;
  resp.value_len = value_len;
  resp.id = req.id;
  resp.key = req.key;
  resp.created_at = req.created_at;
  return resp;
}

}  // namespace inband

#include "net/packet.h"

#include <sstream>

namespace inband {

std::string format_flow(const FlowKey& f) {
  return format_endpoint(f.src) + ">" + format_endpoint(f.dst);
}

std::string format_packet(const Packet& p) {
  std::ostringstream os;
  os << format_flow(p.flow) << " [";
  if (p.has(tcpflag::kSyn)) os << 'S';
  if (p.has(tcpflag::kFin)) os << 'F';
  if (p.has(tcpflag::kRst)) os << 'R';
  if (p.has(tcpflag::kAck)) os << '.';
  if (p.has(tcpflag::kPsh)) os << 'P';
  os << "] seq=" << p.seq;
  if (p.has(tcpflag::kAck)) os << " ack=" << p.ack;
  os << " len=" << p.payload_len << " wnd=" << p.wnd;
  return os.str();
}

}  // namespace inband

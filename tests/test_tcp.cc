// Unit tests: TCP model (handshake, delivery, flow control, ACK policy,
// retransmission, teardown, pacing, sequence arithmetic, buffers).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "net/trace.h"
#include "pooled_packet.h"
#include "tcp/seq.h"
#include "tcp/stack.h"
#include "util/rng.h"

namespace inband {
namespace {

constexpr Ipv4 kA = make_ipv4(10, 0, 0, 1);
constexpr Ipv4 kB = make_ipv4(10, 0, 0, 2);
constexpr std::uint16_t kPort = 7000;

// A message whose id carries a test tag.
KvMessage tagged(int tag) {
  KvMessage m;
  m.id = static_cast<std::uint64_t>(tag);
  return m;
}

// Test-only adapter: a PacketObserver that forwards to a lambda.
struct CallbackObserver final : PacketObserver {
  explicit CallbackObserver(std::function<void(const Packet&, Ipv4, Ipv4)> f)
      : fn{std::move(f)} {}
  void on_packet(const Packet& pkt, Ipv4 from, Ipv4 to) override {
    fn(pkt, from, to);
  }
  std::function<void(const Packet&, Ipv4, Ipv4)> fn;
};

// Two hosts on a duplex link; B listens.
struct TcpRig {
  explicit TcpRig(TcpConfig config = {}, LinkParams link = {1'000'000'000,
                                                            us(50), 0})
      : net{sim},
        a{sim, net, kA, "a", config, 1},
        b{sim, net, kB, "b", config, 2} {
    net.add_duplex_link(kA, kB, link);
  }

  Simulator sim;
  Network net;
  TcpHost a;
  TcpHost b;
};

// --- sequence arithmetic ---

TEST(Seq, ComparisonAcrossWrap) {
  EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));
  EXPECT_TRUE(seq_gt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(seq_le(5u, 5u));
  EXPECT_TRUE(seq_ge(5u, 5u));
  EXPECT_FALSE(seq_lt(5u, 5u));
}

TEST(Seq, WrapUnwrapRoundTrip) {
  const std::uint32_t isn = 0xfffffff0u;
  for (std::uint64_t offset : {0ULL, 1ULL, 100ULL, 0x100000000ULL,
                               0x100000010ULL}) {
    const std::uint32_t wire = wrap_seq(isn, offset);
    EXPECT_EQ(unwrap_seq(isn, wire, offset), static_cast<std::int64_t>(offset))
        << offset;
  }
}

TEST(Seq, UnwrapPicksNearestToReference) {
  const std::uint32_t isn = 0;
  // Wire value 10 near reference 0x100000000 means offset 0x10000000a.
  EXPECT_EQ(unwrap_seq(isn, 10, 0x100000000ULL), 0x10000000aLL);
  // Same wire value near reference 0 means plain 10.
  EXPECT_EQ(unwrap_seq(isn, 10, 0), 10);
}

TEST(Seq, UnwrapDetectsOldDuplicate) {
  // Reference advanced past the wire value: offset comes out below ref.
  const std::int64_t off = unwrap_seq(0, 100, 1'000'000);
  EXPECT_LT(off, 1'000'000);
}

// --- send/recv buffers ---

TEST(SendBuffer, TracksOffsetsAndMessages) {
  SendBuffer sb;
  EXPECT_EQ(sb.end(), 1u);  // first app byte after SYN
  sb.append_message(tagged(1), 100);
  sb.append_message(tagged(2), 50);
  EXPECT_EQ(sb.end(), 151u);
  const auto msgs = sb.messages_in(1, 101);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].end_offset, 101u);
  EXPECT_EQ(sb.messages_in(1, 151).size(), 2u);
  EXPECT_EQ(sb.messages_in(101, 150).size(), 0u);  // second ends at 151
}

// Issue 10 flagged the (range_start, range_end] comparator for mishandling a
// message whose end_offset equals range_start — retransmission segments that
// split exactly at a message boundary could then pick up or drop the
// boundary message. The intended semantics: a message belongs to the one
// segment whose byte range contains its final byte (the interval is open on
// the left, closed on the right). The comparator implements exactly that;
// these tests pin every boundary case so it cannot regress silently.
TEST(SendBuffer, MessagesInExactBoundarySemantics) {
  SendBuffer sb;
  sb.append_message(tagged(1), 100);  // ends at 101
  sb.append_message(tagged(2), 50);   // ends at 151
  // A message ending exactly at range_end belongs to that segment...
  const auto first = sb.messages_in(1, 101);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].end_offset, 101u);
  // ...and is excluded from the next segment, whose range starts there.
  const auto second = sb.messages_in(101, 151);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].end_offset, 151u);
  // Zero-length range at a boundary matches nothing.
  EXPECT_EQ(sb.messages_in(101, 101).size(), 0u);
  // Range ending one byte short of the boundary message excludes it; range
  // starting one byte earlier picks it up.
  EXPECT_EQ(sb.messages_in(1, 100).size(), 0u);
  EXPECT_EQ(sb.messages_in(100, 101).size(), 1u);
  // Whole-stream query sees both, in order.
  const auto all = sb.messages_in(0, 151);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].end_offset, 101u);
  EXPECT_EQ(all[1].end_offset, 151u);
}

// Differential check: for any segmentation of the stream — cut points biased
// onto exact message boundaries, as retransmit splits produce — walking the
// segments in order yields every message exactly once, each inside the one
// segment containing its final byte.
TEST(SendBuffer, MessagesInPartitionUnderArbitrarySegmentation) {
  Rng rng{0x5e9b0ffe7ULL};
  for (int trial = 0; trial < 200; ++trial) {
    SendBuffer sb;
    std::vector<std::uint64_t> ends;
    const int messages = static_cast<int>(rng.uniform_u64(1, 12));
    for (int m = 0; m < messages; ++m) {
      const auto wire = static_cast<std::uint32_t>(rng.uniform_u64(1, 7));
      sb.append_message(tagged(m), wire);
      ends.push_back(sb.end());
    }
    // Random cut points over [1, end], half of them snapped onto a message
    // boundary (the adversarial case).
    std::vector<std::uint64_t> cuts{1, sb.end()};
    const int extra = static_cast<int>(rng.uniform_u64(0, 6));
    for (int c = 0; c < extra; ++c) {
      if (rng.bernoulli(0.5)) {
        cuts.push_back(ends[rng.uniform_u64(0, ends.size() - 1)]);
      } else {
        cuts.push_back(rng.uniform_u64(1, sb.end()));
      }
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<std::uint64_t> seen;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const auto msgs = sb.messages_in(cuts[i], cuts[i + 1]);
      for (std::uint32_t j = 0; j < msgs.size(); ++j) {
        EXPECT_GT(msgs[j].end_offset, cuts[i]);
        EXPECT_LE(msgs[j].end_offset, cuts[i + 1]);
        seen.push_back(msgs[j].end_offset);
      }
    }
    EXPECT_EQ(seen, ends) << "segmentation dropped or duplicated a message "
                             "(trial " << trial << ")";
  }
}

TEST(SendBuffer, ReleaseAckedDropsCoveredMessages) {
  SendBuffer sb;
  sb.append_message(tagged(1), 10);
  sb.append_message(tagged(2), 10);
  sb.release_acked(11);
  EXPECT_EQ(sb.pending_messages(), 1u);
  sb.release_acked(21);
  EXPECT_EQ(sb.pending_messages(), 0u);
}

TEST(RecvBuffer, InOrderDelivery) {
  RecvBuffer rb;
  MsgList msgs{{51, tagged(7)}};
  const auto d = rb.on_segment(1, 51, msgs);
  EXPECT_EQ(d.bytes, 50u);
  ASSERT_EQ(d.messages.size(), 1u);
  EXPECT_FALSE(d.out_of_order);
  EXPECT_EQ(rb.rcv_nxt(), 51u);
}

TEST(RecvBuffer, OutOfOrderHeldThenDrained) {
  RecvBuffer rb;
  auto d1 = rb.on_segment(51, 101, {});
  EXPECT_TRUE(d1.out_of_order);
  EXPECT_EQ(d1.bytes, 0u);
  EXPECT_EQ(rb.buffered_bytes(), 50u);
  auto d2 = rb.on_segment(1, 51, {});
  EXPECT_EQ(d2.bytes, 100u);
  EXPECT_EQ(rb.rcv_nxt(), 101u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(RecvBuffer, DuplicateDetected) {
  RecvBuffer rb;
  rb.on_segment(1, 51, {});
  const auto d = rb.on_segment(1, 51, {});
  EXPECT_TRUE(d.duplicate);
  EXPECT_EQ(d.bytes, 0u);
}

TEST(RecvBuffer, OverlappingRetransmissionDeliversOnce) {
  RecvBuffer rb;
  auto payload = tagged(9);
  MsgList msgs{{41, payload}};
  rb.on_segment(21, 41, msgs);                    // ooo
  const auto d = rb.on_segment(1, 41, msgs);      // covers both
  EXPECT_EQ(d.bytes, 40u);
  ASSERT_EQ(d.messages.size(), 1u);               // deduped
}

TEST(RecvBuffer, MessageDeliveredOnlyWhenComplete) {
  RecvBuffer rb;
  auto payload = tagged(3);
  // Message ends at 101; first segment covers only [1, 51).
  auto d1 = rb.on_segment(1, 51, {{101, payload}});
  EXPECT_EQ(d1.messages.size(), 0u);
  auto d2 = rb.on_segment(51, 101, {{101, payload}});
  ASSERT_EQ(d2.messages.size(), 1u);
}

// --- handshake ---

TEST(TcpHandshake, EstablishesBothSides) {
  TcpRig rig;
  TcpConnection* server_conn = nullptr;
  bool client_established = false;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) { server_conn = &c; });
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established =
      [&](TcpConnection&) { client_established = true; };
  client->open();
  rig.sim.run_until(ms(10));
  EXPECT_TRUE(client_established);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(client->state(), TcpState::kEstablished);
  EXPECT_EQ(server_conn->state(), TcpState::kEstablished);
}

TEST(TcpHandshake, TakesOneRtt) {
  TcpRig rig;  // 50us one-way => RTT 100us (plus tiny serialization)
  SimTime established_at = kNoTime;
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established = [&](TcpConnection& c) {
    established_at = c.srtt() >= 0 ? rig.sim.now() : rig.sim.now();
  };
  client->open();
  rig.sim.run_until(ms(10));
  ASSERT_NE(established_at, kNoTime);
  EXPECT_GE(established_at, us(100));
  EXPECT_LT(established_at, us(110));
}

TEST(TcpHandshake, SynRetransmitsOnLoss) {
  // Tiny queue so the first SYN can be forced to drop: we instead drop by
  // sending into a link with 1-byte queue while it is busy. Simpler: use a
  // link so slow the first SYN serializes for a long time is not a loss.
  // Force loss deterministically by removing the listener until t=60ms:
  // the stack RSTs unknown flows, so instead test RTO by a genuinely lossy
  // queue: saturate it with junk at t=0.
  TcpRig rig{{}, {1'000'000, us(10), 600}};  // 1 Mb/s, 600-byte queue
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  // Saturate the a->b link queue so the first SYN drops.
  Packet junk;
  junk.flow = {{kA, 9}, {kB, 9}, IpProto::kUdp};
  junk.payload_len = 1400;
  rig.net.send(kA, kB, pooled(rig.net.pool(), junk));
  rig.net.send(kA, kB, pooled(rig.net.pool(), junk));

  bool established = false;
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established =
      [&](TcpConnection&) { established = true; };
  client->open();
  rig.sim.run_until(sec(2));
  EXPECT_TRUE(established);
  EXPECT_GT(client->retransmits(), 0u);
}

TEST(TcpHandshake, ConnectToClosedPortGetsReset) {
  TcpRig rig;
  bool closed = false;
  bool was_reset = false;
  auto* client = rig.a.stack().connect({kB, kPort});  // nobody listening
  client->callbacks().on_closed = [&](TcpConnection&, bool reset) {
    closed = true;
    was_reset = reset;
  };
  client->open();
  rig.sim.run_until(ms(10));
  EXPECT_TRUE(closed);
  EXPECT_TRUE(was_reset);
  EXPECT_EQ(rig.b.stack().resets_sent(), 1u);
}

// --- data transfer ---

struct EchoServer {
  explicit EchoServer(TcpHost& host, std::uint16_t port) {
    host.stack().listen(port, [this](TcpConnection& c) {
      c.callbacks().on_message = [this](TcpConnection& conn,
                                        const KvMessage& p) {
        ++received;
        conn.send_message(p, 100);  // echo back, fixed size
      };
      c.callbacks().on_peer_close = [](TcpConnection& conn) { conn.close(); };
    });
  }
  int received = 0;
};

TEST(TcpData, MessageRoundTripPreservesIdentity) {
  TcpRig rig;
  EchoServer server{rig.b, kPort};
  auto* client = rig.a.stack().connect({kB, kPort});
  std::optional<KvMessage> got;
  KvMessage sent = tagged(42);
  sent.key = 7;
  sent.value_len = 64;
  client->callbacks().on_established = [&](TcpConnection& c) {
    c.send_message(sent, 200);
  };
  client->callbacks().on_message = [&](TcpConnection&, const KvMessage& m) {
    got = m;
  };
  client->open();
  rig.sim.run_until(ms(10));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 42u);
  EXPECT_EQ(got->key, 7u);
  EXPECT_EQ(got->value_len, 64u);
  EXPECT_EQ(server.received, 1);
}

TEST(TcpData, LargeMessageSegmentsAndReassembles) {
  TcpRig rig;
  int delivered = 0;
  std::uint64_t bytes = 0;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    c.callbacks().on_message = [&](TcpConnection&,
                                   const KvMessage&) {
      ++delivered;
    };
    c.callbacks().on_data = [&](TcpConnection&, std::uint64_t n) {
      bytes += n;
    };
  });
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established = [&](TcpConnection& c) {
    c.send_message(tagged(1), 10'000);  // ~7 segments
  };
  client->open();
  rig.sim.run_until(ms(50));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(bytes, 10'000u);
  EXPECT_GT(client->segments_sent(), 7u);
}

TEST(TcpData, PipelinedMessagesDeliverInOrder) {
  TcpRig rig;
  std::vector<int> tags;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    c.callbacks().on_message = [&](TcpConnection&,
                                   const KvMessage& p) {
      tags.push_back(static_cast<int>(p.id));
    };
  });
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established = [&](TcpConnection& c) {
    for (int i = 0; i < 20; ++i) {
      c.send_message(tagged(i), 500);
    }
  };
  client->open();
  rig.sim.run_until(ms(50));
  ASSERT_EQ(tags.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(tags[static_cast<size_t>(i)], i);
}

TEST(TcpData, WindowBoundsBytesInFlight) {
  TcpConfig cfg;
  cfg.cwnd_bytes = 2 * cfg.mss;
  TcpRig rig{cfg};
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [&](TcpConnection& c) {
    c.send_bytes(1'000'000);
  };
  client->open();
  // Check the invariant at several points during the transfer.
  for (SimTime t = us(200); t < ms(20); t += us(100)) {
    rig.sim.run_until(t);
    EXPECT_LE(client->bytes_in_flight(), cfg.cwnd_bytes);
  }
}

TEST(TcpData, BulkThroughputIsWindowOverRtt) {
  TcpConfig cfg;
  cfg.cwnd_bytes = 16 * cfg.mss;  // ~23 KB
  TcpRig rig{cfg, {10'000'000'000, us(50), 0}};  // RTT ~100us
  std::uint64_t bytes = 0;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    c.callbacks().on_data = [&](TcpConnection&, std::uint64_t n) {
      bytes += n;
    };
  });
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [&](TcpConnection& c) {
    c.send_bytes(1ULL << 30);
  };
  client->open();
  rig.sim.run_until(sec(1));
  // Expected ~ W/RTT = 23168 B / ~105us ≈ 210 MB/s; allow wide margin.
  const double mbps = static_cast<double>(bytes) / 1e6;
  EXPECT_GT(mbps, 150.0);
  EXPECT_LT(mbps, 260.0);
}

TEST(TcpData, SenderGetsRttSamples) {
  TcpRig rig;  // one-way 50us
  std::vector<SimTime> rtts;
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_rtt_sample = [&](TcpConnection&, SimTime rtt) {
    rtts.push_back(rtt);
  };
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_bytes(5000);
  };
  client->open();
  rig.sim.run_until(ms(20));
  ASSERT_GT(rtts.size(), 1u);
  for (SimTime r : rtts) {
    EXPECT_GE(r, us(100));
    EXPECT_LT(r, us(200));
  }
}

// --- ACK policy ---

// Counts pure ACKs (no payload) from B to A at the network layer.
struct AckCounter final : PacketObserver {
  explicit AckCounter(Network& net) { net.set_observer(this); }
  void on_packet(const Packet& pkt, Ipv4 from, Ipv4) override {
    if (from == kB && pkt.payload_len == 0 && pkt.has(tcpflag::kAck) &&
        !pkt.has(tcpflag::kSyn) && !pkt.has(tcpflag::kFin)) {
      ++pure_acks;
    }
    if (from == kA && pkt.payload_len > 0) ++data_segments;
  }
  int pure_acks = 0;
  int data_segments = 0;
};

TEST(TcpAck, ImmediateAckPerSegmentWithoutDelack) {
  TcpConfig cfg;
  cfg.delayed_ack = false;
  cfg.cwnd_bytes = 4 * cfg.mss;
  TcpRig rig{cfg};
  AckCounter acks{rig.net};
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_bytes(8 * 1448);
  };
  client->open();
  rig.sim.run_until(ms(50));
  // Every data segment individually acked (handshake ack excluded).
  EXPECT_GE(acks.pure_acks, acks.data_segments);
}

TEST(TcpAck, DelayedAckHalvesAckCount) {
  TcpConfig cfg;
  cfg.delayed_ack = true;
  cfg.ack_every = 2;
  cfg.cwnd_bytes = 8 * cfg.mss;
  TcpRig rig{cfg};
  AckCounter acks{rig.net};
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_bytes(64 * 1448);
  };
  client->open();
  rig.sim.run_until(sec(1));
  // Roughly one ack per two segments (64 segments -> ~32 acks + stragglers).
  EXPECT_LT(acks.pure_acks, 64 * 3 / 4);
  EXPECT_GT(acks.pure_acks, 64 / 4);
}

TEST(TcpAck, DelackTimerFlushesOddSegment) {
  TcpConfig cfg;
  cfg.delayed_ack = true;
  // Must stay below kRtoMin (5ms), as on real stacks, or the sender's
  // retransmission races the delayed ACK.
  cfg.delack_timeout = ms(2);
  TcpRig rig{cfg};
  AckCounter acks{rig.net};
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_bytes(100);  // single small segment
  };
  client->open();
  rig.sim.run_until(ms(1));
  const int before = acks.pure_acks;
  EXPECT_GT(client->bytes_in_flight(), 0u);  // still unacked
  rig.sim.run_until(ms(5));  // delack timer fires ~2ms after delivery
  EXPECT_EQ(before + 1, acks.pure_acks);
  EXPECT_EQ(client->bytes_in_flight(), 0u);
  EXPECT_EQ(client->retransmits(), 0u);  // the ACK beat the RTO
}

// --- loss recovery ---

TEST(TcpLoss, RecoversThroughLossyQueue) {
  TcpConfig cfg;
  cfg.cwnd_bytes = 32 * cfg.mss;  // overdrive a small queue
  cfg.rto_initial = ms(20);
  // 100 Mb/s with a 5 KB queue: a 32-segment burst overflows it.
  TcpRig rig{cfg, {100'000'000, us(50), 5000}};
  std::uint64_t bytes = 0;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    c.callbacks().on_data = [&](TcpConnection&, std::uint64_t n) {
      bytes += n;
    };
  });
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  constexpr std::uint64_t kTotal = 200 * 1448;
  client->callbacks().on_established = [&](TcpConnection& c) {
    c.send_bytes(kTotal);
  };
  client->open();
  rig.sim.run_until(sec(10));
  EXPECT_EQ(bytes, kTotal);  // everything arrives despite drops
  EXPECT_GT(client->retransmits(), 0u);
  EXPECT_GT(rig.net.stats().packets_dropped, 0u);
}

TEST(TcpLoss, MessagesSurviveRetransmission) {
  TcpConfig cfg;
  cfg.cwnd_bytes = 32 * cfg.mss;
  cfg.rto_initial = ms(20);
  TcpRig rig{cfg, {100'000'000, us(50), 5000}};
  std::vector<int> tags;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    c.callbacks().on_message = [&](TcpConnection&,
                                   const KvMessage& p) {
      tags.push_back(static_cast<int>(p.id));
    };
  });
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [&](TcpConnection& c) {
    for (int i = 0; i < 100; ++i) {
      c.send_message(tagged(i), 1448);
    }
  };
  client->open();
  rig.sim.run_until(sec(10));
  ASSERT_EQ(tags.size(), 100u);  // exactly once each
  for (int i = 0; i < 100; ++i) EXPECT_EQ(tags[static_cast<size_t>(i)], i);
}

// --- teardown ---

TEST(TcpClose, GracefulFinBothWays) {
  TcpRig rig;
  bool client_closed = false;
  bool client_reset = false;
  rig.b.stack().listen(kPort, [](TcpConnection& c) {
    c.callbacks().on_peer_close = [](TcpConnection& conn) { conn.close(); };
  });
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established = [](TcpConnection& c) { c.close(); };
  client->callbacks().on_closed = [&](TcpConnection&, bool reset) {
    client_closed = true;
    client_reset = reset;
  };
  client->open();
  rig.sim.run_until(sec(1));
  EXPECT_TRUE(client_closed);
  EXPECT_FALSE(client_reset);
  // Both stacks reaped their connections (after TIME_WAIT).
  EXPECT_EQ(rig.a.stack().connection_count(), 0u);
  EXPECT_EQ(rig.b.stack().connection_count(), 0u);
}

TEST(TcpClose, CloseFlushesQueuedDataFirst) {
  TcpRig rig;
  std::uint64_t bytes = 0;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    c.callbacks().on_data = [&](TcpConnection&, std::uint64_t n) {
      bytes += n;
    };
    c.callbacks().on_peer_close = [](TcpConnection& conn) { conn.close(); };
  });
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_bytes(50'000);
    c.close();  // FIN must trail the data
  };
  client->open();
  rig.sim.run_until(sec(1));
  EXPECT_EQ(bytes, 50'000u);
}

TEST(TcpClose, AbortSendsRstAndPeerSeesReset) {
  TcpRig rig;
  bool server_reset = false;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    c.callbacks().on_closed = [&](TcpConnection&, bool reset) {
      server_reset = reset;
    };
  });
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established = [](TcpConnection& c) { c.abort(); };
  client->open();
  rig.sim.run_until(ms(10));
  EXPECT_TRUE(server_reset);
}

TEST(TcpClose, ChurnReusesStack) {
  TcpRig rig;
  EchoServer server{rig.b, kPort};
  int completed = 0;
  std::vector<std::uint16_t> ports;
  std::function<void()> open_one = [&] {
    auto* c = rig.a.stack().connect({kB, kPort});
    ports.push_back(c->local().port);
    c->callbacks().on_established = [](TcpConnection& conn) {
      conn.send_message(tagged(0), 100);
    };
    c->callbacks().on_message = [](TcpConnection& conn,
                                   const KvMessage&) {
      conn.close();
    };
    c->callbacks().on_closed = [&](TcpConnection&, bool) {
      ++completed;
      if (completed < 20) open_one();
    };
    c->open();
  };
  open_one();
  rig.sim.run_until(sec(5));
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(server.received, 20);
  // All ephemeral ports distinct while TIME_WAIT entries lingered.
  std::sort(ports.begin(), ports.end());
  EXPECT_EQ(std::adjacent_find(ports.begin(), ports.end()), ports.end());
}

// --- pacing ---

TEST(TcpPacing, SpacesSegmentsAtRate) {
  TcpConfig cfg;
  cfg.pacing = true;
  cfg.pacing_rate_bps = 100'000'000;  // 1448B -> ~116us spacing
  cfg.cwnd_bytes = 16 * cfg.mss;
  TcpRig rig{cfg, {10'000'000'000, us(50), 0}};
  std::vector<SimTime> data_times;
  CallbackObserver obs{[&](const Packet& pkt, Ipv4 from, Ipv4) {
    if (from == kA && pkt.payload_len > 0) data_times.push_back(pkt.sent_at);
  }};
  rig.net.set_observer(&obs);
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_bytes(20 * 1448);
  };
  client->open();
  rig.sim.run_until(sec(1));
  ASSERT_GT(data_times.size(), 4u);
  for (std::size_t i = 1; i < data_times.size(); ++i) {
    EXPECT_GE(data_times[i] - data_times[i - 1], us(110));
  }
}

TEST(TcpPacing, UnpacedSenderBursts) {
  TcpConfig cfg;
  cfg.cwnd_bytes = 16 * cfg.mss;
  TcpRig rig{cfg, {10'000'000'000, us(50), 0}};
  std::vector<SimTime> data_times;
  CallbackObserver obs{[&](const Packet& pkt, Ipv4 from, Ipv4) {
    if (from == kA && pkt.payload_len > 0) data_times.push_back(pkt.sent_at);
  }};
  rig.net.set_observer(&obs);
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_bytes(16 * 1448);
  };
  client->open();
  rig.sim.run_until(ms(10));
  ASSERT_EQ(data_times.size(), 16u);
  // The initial window leaves as one burst: identical enqueue timestamps.
  EXPECT_EQ(data_times.front(), data_times.back());
}

// --- stack behaviours ---

TEST(TcpStack, ListenerSeesVipAddressedFlows) {
  // Server accepts a flow whose destination address is NOT the server's own
  // address — the DSR/VIP case. We emulate the LB by sending with send_to.
  Simulator sim;
  Network net{sim};
  constexpr Ipv4 kVip = make_ipv4(10, 9, 9, 9);
  TcpHost client{sim, net, kA, "client", {}, 1};
  TcpHost server{sim, net, kB, "server", {}, 2};

  // Forwarding middlebox at the VIP.
  struct Fwd final : Host {
    using Host::Host;
    Ipv4 target = 0;
    void handle_batch(PacketBatch&& batch) override {
      for (std::uint32_t i = 0; i < batch.size(); ++i) {
        send_to(target, batch.take(i));
      }
    }
  };
  Fwd fwd{sim, net, kVip, "fwd"};
  fwd.target = kB;
  net.add_link(kA, kVip, {1'000'000'000, us(10), 0});
  net.add_link(kVip, kB, {1'000'000'000, us(10), 0});
  net.add_link(kB, kA, {1'000'000'000, us(10), 0});

  bool established = false;
  server.stack().listen(kPort, [](TcpConnection&) {});
  auto* conn = client.stack().connect({kVip, kPort});
  conn->callbacks().on_established =
      [&](TcpConnection&) { established = true; };
  conn->open();
  sim.run_until(ms(10));
  EXPECT_TRUE(established);
  // The server-side connection's local endpoint is the VIP.
  EXPECT_EQ(server.stack().connection_count(), 1u);
}

TEST(TcpStack, CountsInitiatedAndAccepted) {
  TcpRig rig;
  EchoServer server{rig.b, kPort};
  for (int i = 0; i < 3; ++i) {
    auto* c = rig.a.stack().connect({kB, kPort});
    c->callbacks().on_established = [](TcpConnection& conn) { conn.close(); };
    c->open();
  }
  rig.sim.run_until(sec(1));
  EXPECT_EQ(rig.a.stack().initiated(), 3u);
  EXPECT_EQ(rig.b.stack().accepted(), 3u);
}

TEST(TcpStack, StrayPacketGetsRst) {
  TcpRig rig;
  Packet stray;
  stray.flow = {{kA, 1234}, {kB, kPort}, IpProto::kTcp};
  stray.flags = tcpflag::kAck;
  stray.ack = 77;
  rig.net.send(kA, kB, pooled(rig.net.pool(), stray));
  rig.sim.run_until(ms(1));
  EXPECT_EQ(rig.b.stack().resets_sent(), 1u);
}


// --- parameterized sweeps ---

// Reliability property across queue sizes (loss rates): every message is
// delivered exactly once, in order, no matter how lossy the path.
class TcpLossSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpLossSweep, ExactlyOnceInOrderDelivery) {
  TcpConfig cfg;
  cfg.cwnd_bytes = 32 * cfg.mss;
  cfg.rto_initial = ms(20);
  TcpRig rig{cfg, {100'000'000, us(50), GetParam()}};
  std::vector<int> tags;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    c.callbacks().on_message = [&](TcpConnection&,
                                   const KvMessage& p) {
      tags.push_back(static_cast<int>(p.id));
    };
  });
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [&](TcpConnection& c) {
    for (int i = 0; i < 60; ++i) {
      c.send_message(tagged(i), 1448);
    }
  };
  client->open();
  rig.sim.run_until(sec(20));
  ASSERT_EQ(tags.size(), 60u) << "queue=" << GetParam();
  for (int i = 0; i < 60; ++i) EXPECT_EQ(tags[static_cast<size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(QueueSizes, TcpLossSweep,
                         testing::Values<std::uint64_t>(0,      // lossless
                                                        20000,  // mild loss
                                                        8000,   // heavy loss
                                                        4000));  // brutal

// Throughput scales with the window until the link saturates.
class TcpWindowSweep : public testing::TestWithParam<std::uint32_t> {};

TEST_P(TcpWindowSweep, ThroughputTracksWindowOverRtt) {
  TcpConfig cfg;
  cfg.cwnd_bytes = GetParam() * cfg.mss;
  TcpRig rig{cfg, {10'000'000'000, us(50), 0}};  // RTT ~100us
  std::uint64_t bytes = 0;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    c.callbacks().on_data = [&](TcpConnection&, std::uint64_t n) {
      bytes += n;
    };
  });
  auto* client = rig.a.stack().connect({kB, kPort}, cfg);
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_bytes(1ULL << 30);
  };
  client->open();
  rig.sim.run_until(ms(500));
  const double expected_bps =
      static_cast<double>(cfg.cwnd_bytes) / 110e-6;  // W / RTT(+ser)
  const double measured_bps = static_cast<double>(bytes) / 0.5;
  EXPECT_GT(measured_bps, expected_bps * 0.7) << "W=" << GetParam();
  EXPECT_LT(measured_bps, expected_bps * 1.2) << "W=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Windows, TcpWindowSweep,
                         testing::Values<std::uint32_t>(1, 2, 4, 8, 32));

// Reassembly correctness for every permutation of three segments.
class ReassemblyPermutation : public testing::TestWithParam<int> {};

TEST_P(ReassemblyPermutation, AllOrdersDeliverFullStream) {
  // Segments: [1,101), [101,201), [201,301); message ends at 301.
  struct Seg {
    std::uint64_t start, end;
  };
  std::vector<Seg> segs{{1, 101}, {101, 201}, {201, 301}};
  std::vector<int> perm{0, 1, 2};
  for (int i = 0; i < GetParam(); ++i) std::next_permutation(perm.begin(), perm.end());

  RecvBuffer rb;
  auto payload = tagged(5);
  std::uint64_t delivered = 0;
  std::size_t messages = 0;
  for (int idx : perm) {
    const auto d = rb.on_segment(segs[static_cast<size_t>(idx)].start,
                                 segs[static_cast<size_t>(idx)].end,
                                 {{301, payload}});
    delivered += d.bytes;
    messages += d.messages.size();
  }
  EXPECT_EQ(delivered, 300u);
  EXPECT_EQ(messages, 1u);
  EXPECT_EQ(rb.rcv_nxt(), 301u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Permutations, ReassemblyPermutation,
                         testing::Range(0, 6));

// RTT sampling stays correct across propagation delays.
class TcpRttSweep : public testing::TestWithParam<SimTime> {};

TEST_P(TcpRttSweep, TimestampRttMatchesPath) {
  const SimTime one_way = GetParam();
  TcpRig rig{{}, {10'000'000'000, one_way, 0}};
  std::vector<SimTime> rtts;
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_rtt_sample = [&](TcpConnection&, SimTime rtt) {
    rtts.push_back(rtt);
  };
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_bytes(20 * 1448);
  };
  client->open();
  rig.sim.run_until(sec(1));
  ASSERT_GT(rtts.size(), 5u);
  for (SimTime r : rtts) {
    EXPECT_GE(r, 2 * one_way);
    EXPECT_LT(r, 2 * one_way + us(60));
  }
}

INSTANTIATE_TEST_SUITE_P(Delays, TcpRttSweep,
                         testing::Values(us(10), us(50), us(200), ms(1)));


// --- additional teardown edge cases ---

TEST(TcpClose, SimultaneousClose) {
  TcpRig rig;
  TcpConnection* server_conn = nullptr;
  bool client_closed = false;
  bool server_closed = false;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) {
    server_conn = &c;
    c.callbacks().on_closed = [&](TcpConnection&, bool) {
      server_closed = true;
    };
  });
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_closed = [&](TcpConnection&, bool) {
    client_closed = true;
  };
  client->open();
  rig.sim.run_until(ms(5));
  ASSERT_NE(server_conn, nullptr);
  // Both sides close in the same instant: FINs cross in flight.
  client->close();
  server_conn->close();
  rig.sim.run_until(sec(1));
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(rig.a.stack().connection_count(), 0u);
  EXPECT_EQ(rig.b.stack().connection_count(), 0u);
}

TEST(TcpClose, HalfCloseServerKeepsSending) {
  // Client closes its write side; the server may still deliver data.
  TcpRig rig;
  std::uint64_t client_received = 0;
  TcpConnection* server_conn = nullptr;
  rig.b.stack().listen(kPort, [&](TcpConnection& c) { server_conn = &c; });
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_data = [&](TcpConnection&, std::uint64_t n) {
    client_received += n;
  };
  client->open();
  rig.sim.run_until(ms(5));
  client->close();  // client -> FIN
  rig.sim.run_until(ms(10));
  ASSERT_NE(server_conn, nullptr);
  ASSERT_EQ(server_conn->state(), TcpState::kCloseWait);
  server_conn->send_bytes(5000);  // server responds on the half-open conn
  rig.sim.run_until(ms(50));
  EXPECT_EQ(client_received, 5000u);
  server_conn->close();
  rig.sim.run_until(sec(1));
  EXPECT_EQ(rig.a.stack().connection_count(), 0u);
}

TEST(TcpClose, DataAfterCloseAsserts) {
  TcpRig rig;
  rig.b.stack().listen(kPort, [](TcpConnection&) {});
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established = [](TcpConnection& c) { c.close(); };
  client->open();
  rig.sim.run_until(ms(1));
  EXPECT_FALSE(client->can_send());
  EXPECT_DEATH(client->send_bytes(10), "send after close");
}

TEST(TcpState, NamesAreDistinct) {
  EXPECT_STREQ(tcp_state_name(TcpState::kEstablished), "ESTABLISHED");
  EXPECT_STREQ(tcp_state_name(TcpState::kFinWait1), "FIN_WAIT_1");
  EXPECT_STREQ(tcp_state_name(TcpState::kTimeWait), "TIME_WAIT");
  EXPECT_STREQ(tcp_state_name(TcpState::kClosed), "CLOSED");
}

// Piggybacked ACKs: in request/response traffic the response data segment
// carries the ACK, so the server sends (almost) no pure ACKs at all.
TEST(TcpAck, ResponsesPiggybackAcks) {
  TcpRig rig;
  int server_pure_acks = 0;
  int server_data_segments = 0;
  CallbackObserver obs{[&](const Packet& pkt, Ipv4 from, Ipv4) {
    if (from != kB) return;
    if (pkt.has(tcpflag::kSyn) || pkt.has(tcpflag::kFin)) return;
    if (pkt.payload_len == 0 && pkt.has(tcpflag::kAck)) ++server_pure_acks;
    if (pkt.payload_len > 0) ++server_data_segments;
  }};
  rig.net.set_observer(&obs);
  EchoServer server{rig.b, kPort};
  auto* client = rig.a.stack().connect({kB, kPort});
  int remaining = 50;
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_message(tagged(0), 100);
  };
  client->callbacks().on_message = [&](TcpConnection& c,
                                       const KvMessage&) {
    if (--remaining > 0) {
      c.send_message(tagged(remaining), 100);
    }
  };
  client->open();
  rig.sim.run_until(sec(1));
  EXPECT_EQ(server_data_segments, 50);
  // The echo goes out in the same event as the request delivery, so the ACK
  // rides the response: no pure ACK per request from the server.
  EXPECT_LE(server_pure_acks, 2);
}

// --- fixed transport constants: RTO bounds, retries, TIME_WAIT, ISNs ---

// Loses every packet A sends to B, after the observer has seen it.
struct BlackholeFromA final : SendInterceptor {
  SendVerdict on_send(const Packet&, Ipv4 from, Ipv4) override {
    SendVerdict v;
    v.drop = active && from == kA;
    return v;
  }
  bool active = true;
};

// Send times of the SYNs A emits against a black-holed path, and when and
// how the connection ended.
struct SynAttempts {
  explicit SynAttempts(SimTime rto_initial) : rig{config(rto_initial)} {
    rig.net.set_interceptor(&hole);
    rig.net.set_observer(&obs);
    rig.b.stack().listen(kPort, [](TcpConnection&) {});
    auto* client = rig.a.stack().connect({kB, kPort});
    client->callbacks().on_closed = [this](TcpConnection&, bool reset) {
      closed_at = rig.sim.now();
      closed_by_reset = reset;
    };
    client->open();
    rig.sim.run_until(sec(120));
  }

  static TcpConfig config(SimTime rto_initial) {
    TcpConfig cfg;
    cfg.rto_initial = rto_initial;
    return cfg;
  }

  TcpRig rig;
  BlackholeFromA hole;
  std::vector<SimTime> syn_times;
  CallbackObserver obs{[this](const Packet& pkt, Ipv4 from, Ipv4) {
    if (from == kA && pkt.has(tcpflag::kSyn)) syn_times.push_back(rig.sim.now());
  }};
  SimTime closed_at = kNoTime;
  bool closed_by_reset = false;
};

TEST(TcpLoss, GivesUpAfterMaxRetries) {
  SynAttempts run{ms(10)};
  // The first SYN, kMaxRetries retransmissions, then a reset at the next
  // timeout. 10ms doubled eight times stays under kRtoMax, so the timeouts
  // sum to rto_initial * (2^(kMaxRetries+1) - 1).
  ASSERT_EQ(run.syn_times.size(), static_cast<std::size_t>(kMaxRetries + 1));
  EXPECT_TRUE(run.closed_by_reset);
  EXPECT_EQ(run.closed_at, ms(10) * ((SimTime{1} << (kMaxRetries + 1)) - 1));
  EXPECT_EQ(run.rig.a.stack().connection_count(), 0u);
}

TEST(TcpLoss, BackoffCappedAtRtoMax) {
  SynAttempts run{sec(1)};
  ASSERT_EQ(run.syn_times.size(), static_cast<std::size_t>(kMaxRetries + 1));
  SimTime rto = sec(1);
  for (std::size_t i = 1; i < run.syn_times.size(); ++i) {
    EXPECT_EQ(run.syn_times[i] - run.syn_times[i - 1], rto) << "gap " << i;
    rto = std::min(rto * 2, kRtoMax);
  }
  EXPECT_EQ(run.syn_times[3] - run.syn_times[2], kRtoMax);  // 4s, not 8s
  EXPECT_TRUE(run.closed_by_reset);
}

// On a 100us-RTT path the RFC 6298 estimate (srtt + 4 rttvar) is far below
// kRtoMin, so a lost segment is retransmitted exactly kRtoMin after it left.
TEST(TcpLoss, RetransmitTimeoutFlooredAtRtoMin) {
  TcpRig rig;
  BlackholeFromA hole;
  hole.active = false;
  rig.net.set_interceptor(&hole);
  std::vector<SimTime> data_times;
  CallbackObserver obs{[&](const Packet& pkt, Ipv4 from, Ipv4) {
    if (from == kA && pkt.payload_len > 0) data_times.push_back(rig.sim.now());
  }};
  rig.net.set_observer(&obs);
  EchoServer server{rig.b, kPort};
  auto* client = rig.a.stack().connect({kB, kPort});
  int echoes = 0;
  client->callbacks().on_established = [](TcpConnection& c) {
    c.send_message(tagged(0), 100);
  };
  client->callbacks().on_message = [&](TcpConnection& c, const KvMessage&) {
    if (++echoes < 5) c.send_message(tagged(echoes), 100);
  };
  client->open();
  rig.sim.run_until(ms(10));
  ASSERT_EQ(echoes, 5);
  ASSERT_EQ(data_times.size(), 5u);
  EXPECT_LT(client->srtt(), us(200));

  hole.active = true;
  client->send_message(tagged(99), 100);
  rig.sim.run_until(ms(30));
  // The first retransmission waits kRtoMin, the next one twice that.
  ASSERT_GE(data_times.size(), 8u);
  EXPECT_EQ(data_times[6] - data_times[5], kRtoMin);
  EXPECT_EQ(data_times[7] - data_times[6], 2 * kRtoMin);
}

// The active closer holds TIME_WAIT for exactly kTimeWaitLinger after it
// acknowledges the peer's FIN, then releases the connection quietly.
TEST(TcpClose, TimeWaitLingersThenReleases) {
  TcpRig rig;
  SimTime last_send_by_a = kNoTime;
  CallbackObserver obs{[&](const Packet&, Ipv4 from, Ipv4) {
    if (from == kA) last_send_by_a = rig.sim.now();
  }};
  rig.net.set_observer(&obs);
  rig.b.stack().listen(kPort, [](TcpConnection& c) {
    c.callbacks().on_peer_close = [](TcpConnection& conn) { conn.close(); };
  });
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established = [](TcpConnection& c) { c.close(); };
  SimTime closed_at = kNoTime;
  bool reset = true;
  client->callbacks().on_closed = [&](TcpConnection&, bool r) {
    closed_at = rig.sim.now();
    reset = r;
  };
  client->open();
  rig.sim.run_until(sec(1));
  ASSERT_NE(closed_at, kNoTime);
  EXPECT_FALSE(reset);
  // A's last segment is the ACK of B's FIN, sent as it entered TIME_WAIT.
  EXPECT_EQ(closed_at - last_send_by_a, kTimeWaitLinger);
  EXPECT_EQ(rig.a.stack().connection_count(), 0u);
}

// With nothing held out of order, every segment advertises the whole
// receive buffer.
TEST(TcpData, InOrderReceiverAdvertisesWholeBuffer) {
  TcpRig rig;
  int segments_from_b = 0;
  std::uint32_t min_wnd = ~0u;
  std::uint32_t max_wnd = 0;
  CallbackObserver obs{[&](const Packet& pkt, Ipv4 from, Ipv4) {
    if (from != kB) return;
    ++segments_from_b;
    min_wnd = std::min(min_wnd, pkt.wnd);
    max_wnd = std::max(max_wnd, pkt.wnd);
  }};
  rig.net.set_observer(&obs);
  EchoServer server{rig.b, kPort};
  auto* client = rig.a.stack().connect({kB, kPort});
  client->callbacks().on_established = [](TcpConnection& c) {
    for (int i = 0; i < 10; ++i) c.send_message(tagged(i), 3000);
  };
  client->open();
  rig.sim.run_until(ms(10));
  EXPECT_EQ(server.received, 10);
  EXPECT_GT(segments_from_b, 10);
  EXPECT_EQ(min_wnd, kRecvBufferBytes);
  EXPECT_EQ(max_wnd, kRecvBufferBytes);
}

// Initial sequence numbers come from the stack's seeded stream: distinct
// across connections, and the same for a same-seed rerun.
TEST(TcpHandshake, IsnsDistinctAndSeedDetermined) {
  auto syn_seqs = [] {
    TcpRig rig;
    std::vector<std::uint32_t> seqs;
    CallbackObserver obs{[&](const Packet& pkt, Ipv4 from, Ipv4) {
      if (from == kA && pkt.has(tcpflag::kSyn)) seqs.push_back(pkt.seq);
    }};
    rig.net.set_observer(&obs);
    rig.b.stack().listen(kPort, [](TcpConnection&) {});
    for (int i = 0; i < 8; ++i) rig.a.stack().connect({kB, kPort})->open();
    rig.sim.run_until(ms(10));
    return seqs;
  };
  const auto first = syn_seqs();
  ASSERT_EQ(first.size(), 8u);
  std::vector<std::uint32_t> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
  EXPECT_EQ(syn_seqs(), first);
}

}  // namespace
}  // namespace inband

#include "dist/runtime.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>

#include "dist/luby_mis.hpp"
#include "dist/transport.hpp"
#include "support/conflict_graph.hpp"
#include "test_util.hpp"

namespace treesched {
namespace {

using testutil::small_tree_problem;

// Every backend the transport-axis tests hold to identical behavior.
constexpr TransportKind kAllTransports[] = {TransportKind::kInProc,
                                            TransportKind::kSerialized};

bool uses_codec(TransportKind kind) {
  return kind == TransportKind::kSerialized;
}

TEST(Runtime, MessagesDeliveredAtRoundBoundary) {
  Runtime rt(3);
  rt.connect(0, 1);
  rt.connect(1, 2);
  rt.post(Message{0, 1, 7, {1.5}});
  // Not visible before step().
  EXPECT_TRUE(rt.drain(1).empty());
  rt.step();
  const auto inbox = rt.drain(1);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, 0);
  EXPECT_EQ(inbox[0].tag, 7);
  EXPECT_DOUBLE_EQ(inbox[0].data[0], 1.5);
  // Drain empties the box.
  EXPECT_TRUE(rt.drain(1).empty());
}

TEST(Runtime, CountsRoundsMessagesBytes) {
  Runtime rt(2);
  rt.connect(0, 1);
  rt.post(Message{0, 1, 0, {1.0, 2.0}});
  rt.post(Message{1, 0, 0, {}});
  rt.step();
  rt.step();
  EXPECT_EQ(rt.round(), 2);
  EXPECT_EQ(rt.messages_sent(), 2);
  EXPECT_EQ(rt.bytes_sent(), (16 + 16) + 16);
}

TEST(Runtime, ChannelsAreSymmetricAndIdempotent) {
  Runtime rt(4);
  rt.connect(2, 3);
  rt.connect(3, 2);
  EXPECT_TRUE(rt.connected(2, 3));
  EXPECT_TRUE(rt.connected(3, 2));
  EXPECT_FALSE(rt.connected(0, 3));
  EXPECT_EQ(rt.channels(2).size(), 1u);
  EXPECT_EQ(rt.channels(3).size(), 1u);
}

// --- The transport axis ----------------------------------------------------
//
// Each backend moves messages differently (vector shuffles, serialized
// byte buffers, mutex-guarded byte buffers), but the tests below hold
// all of them to the exact same observable behavior: delivery at the
// round boundary, per-destination posting order, and bit-identical
// round/message/byte counters.

TEST(Transport, RoundBoundaryDeliveryOnEveryBackend) {
  for (TransportKind kind : kAllTransports) {
    SCOPED_TRACE(to_string(kind));
    Runtime rt(3, kind);
    EXPECT_EQ(rt.transport_kind(), kind);
    rt.connect(0, 1);
    rt.connect(1, 2);
    rt.post(Message{0, 1, 7, {1.5}});
    rt.post(Message{2, 1, 9, {-2.0, 3.0}});
    // Nothing is visible before the boundary, on any backend.
    EXPECT_TRUE(rt.drain(1).empty());
    rt.step();
    const auto inbox = rt.drain(1);
    ASSERT_EQ(inbox.size(), 2u);
    EXPECT_EQ(inbox[0].from, 0);
    EXPECT_EQ(inbox[0].tag, 7);
    ASSERT_EQ(inbox[0].data.size(), 1u);
    EXPECT_EQ(inbox[0].data[0], 1.5);
    EXPECT_EQ(inbox[1].from, 2);
    EXPECT_EQ(inbox[1].tag, 9);
    ASSERT_EQ(inbox[1].data.size(), 2u);
    EXPECT_EQ(inbox[1].data[0], -2.0);
    EXPECT_EQ(inbox[1].data[1], 3.0);
    EXPECT_TRUE(rt.drain(1).empty());
  }
}

TEST(Transport, CountersIdenticalAcrossBackends) {
  // One scripted exchange, replayed on every backend: rounds, messages,
  // bytes, and the drained payloads must agree with == (the serialized
  // backends really encode and decode, so equality here means the codec
  // is lossless and the modeled byte charge equals the serialized size).
  struct Observed {
    int rounds = 0;
    std::int64_t messages = 0, bytes = 0;
    std::vector<Message> inbox0, inbox2;
  };
  auto run = [](TransportKind kind) {
    Runtime rt(3, kind);
    rt.connect(0, 1);
    rt.connect(1, 2);
    rt.connect(0, 2);
    rt.post(Message{0, 2, 1, {0.5, -0.0, 1e300}});
    rt.post(Message{1, 2, 2, {}});
    rt.step();
    rt.post(Message{2, 0, 3, {42.0}});
    rt.step();
    rt.step();  // idle round
    Observed got;
    got.rounds = rt.round();
    got.messages = rt.messages_sent();
    got.bytes = rt.bytes_sent();
    got.inbox0 = rt.drain(0);
    got.inbox2 = rt.drain(2);
    return got;
  };
  const Observed ref = run(TransportKind::kInProc);
  EXPECT_EQ(ref.rounds, 3);
  EXPECT_EQ(ref.messages, 3);
  EXPECT_EQ(ref.bytes, (16 + 24) + 16 + (16 + 8));
  for (TransportKind kind : kAllTransports) {
    SCOPED_TRACE(to_string(kind));
    const Observed got = run(kind);
    EXPECT_EQ(got.rounds, ref.rounds);
    EXPECT_EQ(got.messages, ref.messages);
    EXPECT_EQ(got.bytes, ref.bytes);
    ASSERT_EQ(got.inbox0.size(), ref.inbox0.size());
    ASSERT_EQ(got.inbox2.size(), ref.inbox2.size());
    auto expect_same = [](const Message& a, const Message& b) {
      EXPECT_EQ(a.from, b.from);
      EXPECT_EQ(a.to, b.to);
      EXPECT_EQ(a.tag, b.tag);
      ASSERT_EQ(a.data.size(), b.data.size());
      // memcmp, not ==: -0.0 and NaN payloads must survive bit for bit.
      if (!a.data.empty()) {
        EXPECT_EQ(std::memcmp(a.data.data(), b.data.data(),
                              a.data.size() * sizeof(double)),
                  0);
      }
    };
    for (std::size_t i = 0; i < ref.inbox0.size(); ++i)
      expect_same(got.inbox0[i], ref.inbox0[i]);
    for (std::size_t i = 0; i < ref.inbox2.size(); ++i)
      expect_same(got.inbox2[i], ref.inbox2[i]);
  }
}

TEST(Transport, CodecHitsCountEveryMessageOnSerializedBackends) {
  for (TransportKind kind : kAllTransports) {
    SCOPED_TRACE(to_string(kind));
    Runtime rt(4, kind);
    for (int v = 1; v < 4; ++v) rt.connect(0, v);
    const int kMessages = 10;
    for (int i = 0; i < kMessages; ++i)
      rt.post(Message{0, 1 + i % 3, i, {static_cast<double>(i)}});
    rt.step();
    EXPECT_EQ(rt.messages_sent(), kMessages);
    if (uses_codec(kind)) {
      // Encoded at post time, decoded only as inboxes drain.
      EXPECT_EQ(rt.codec_encoded(), kMessages);
      EXPECT_EQ(rt.codec_decoded(), 0);
      for (int v = 0; v < 4; ++v) rt.recycle(rt.drain(v));
      EXPECT_EQ(rt.codec_decoded(), kMessages);
    } else {
      for (int v = 0; v < 4; ++v) rt.recycle(rt.drain(v));
      EXPECT_EQ(rt.codec_encoded(), 0);
      EXPECT_EQ(rt.codec_decoded(), 0);
    }
  }
}

TEST(Transport, UndrainedRoundsAccumulateInPostingOrder) {
  // Messages from several boundaries pile up in one inbox, oldest first,
  // on every backend (the serialized wire appends newly flushed bytes
  // behind the undrained ones).
  for (TransportKind kind : kAllTransports) {
    SCOPED_TRACE(to_string(kind));
    Runtime rt(2, kind);
    rt.connect(0, 1);
    for (int round = 0; round < 3; ++round) {
      rt.post(Message{0, 1, round, {static_cast<double>(round)}});
      rt.post(Message{1, 0, round, {}});
      rt.step();
    }
    const auto inbox = rt.drain(1);
    ASSERT_EQ(inbox.size(), 3u);
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(inbox[static_cast<std::size_t>(round)].tag, round);
      EXPECT_EQ(inbox[static_cast<std::size_t>(round)].data[0],
                static_cast<double>(round));
    }
    EXPECT_EQ(rt.drain(0).size(), 3u);
  }
}

TEST(Transport, RecycledInboxesAreReusedWithoutReallocation) {
  // The free-list contract: a drain/recycle loop settles into reusing
  // the same vector — and, on the serialized wire, the same payload
  // storage, overwritten in place by the decoder.
  for (TransportKind kind : kAllTransports) {
    SCOPED_TRACE(to_string(kind));
    Runtime rt(2, kind);
    rt.connect(0, 1);
    // Warm up two cycles, remembering the buffers in play.  The in-proc
    // backend swaps the recycled vector's storage with its inbox vector
    // (two buffers ping-pong); the serialized backends decode into the
    // recycled vector in place (one buffer, stable payload storage too).
    const Message* slots[2] = {nullptr, nullptr};
    const double* payload = nullptr;
    for (int cycle = 0; cycle < 2; ++cycle) {
      rt.post(Message{0, 1, cycle, {1.0, 2.0, 3.0}});
      rt.step();
      std::vector<Message> inbox = rt.drain(1);
      ASSERT_EQ(inbox.size(), 1u);
      slots[cycle] = inbox.data();
      payload = inbox[0].data.data();
      rt.recycle(std::move(inbox));
    }
    // Steady state: the next drain hands back a warm buffer — no fresh
    // allocation of the message vector.
    rt.post(Message{0, 1, 9, {9.0, 8.0, 7.0}});
    rt.step();
    std::vector<Message> inbox = rt.drain(1);
    ASSERT_EQ(inbox.size(), 1u);
    EXPECT_TRUE(inbox.data() == slots[0] || inbox.data() == slots[1]);
    if (uses_codec(kind)) {
      // In-place decode: same Message slot, same payload buffer.
      EXPECT_EQ(inbox.data(), slots[1]);
      EXPECT_EQ(inbox[0].data.data(), payload);
    }
    EXPECT_EQ(inbox[0].tag, 9);
    EXPECT_EQ(inbox[0].data[0], 9.0);
  }
}

TEST(Transport, KindNamesParseAndResolve) {
  EXPECT_EQ(parse_transport_kind("inproc"), TransportKind::kInProc);
  EXPECT_EQ(parse_transport_kind("serialized"), TransportKind::kSerialized);
  EXPECT_EQ(parse_transport_kind("faulty"), TransportKind::kFaulty);
  EXPECT_THROW(parse_transport_kind("carrier-pigeon"), std::invalid_argument);
  EXPECT_THROW(parse_transport_kind("threaded"), std::invalid_argument);
  // Non-default kinds pass through the resolver untouched.
  for (TransportKind kind : kAllTransports)
    EXPECT_EQ(resolve_transport_kind(kind), kind);
  EXPECT_EQ(std::string(to_string(TransportKind::kSerialized)), "serialized");
  EXPECT_EQ(std::string(to_string(TransportKind::kFaulty)), "faulty");
}

// --- The message codec -----------------------------------------------------

TEST(Codec, RoundTripPreservesEveryBitPattern) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Message messages[] = {
      {0, 1, 0, {}},
      {3, 7, 42, {1.5}},
      {100, 200, -5, {0.0, -0.0, nan, inf, -inf, 5e-324, 1e308}},
  };
  std::vector<std::uint8_t> wire;
  for (const Message& m : messages)
    EXPECT_EQ(encode_message(m, wire),
              static_cast<std::size_t>(message_wire_bytes(m)));
  std::size_t offset = 0;
  for (const Message& m : messages) {
    Message got;
    std::string error;
    ASSERT_TRUE(decode_message({wire.data(), wire.size()}, offset, got, &error))
        << error;
    EXPECT_EQ(got.from, m.from);
    EXPECT_EQ(got.to, m.to);
    EXPECT_EQ(got.tag, m.tag);
    ASSERT_EQ(got.data.size(), m.data.size());
    if (!m.data.empty()) {
      EXPECT_EQ(std::memcmp(got.data.data(), m.data.data(),
                            m.data.size() * sizeof(double)),
                0);
    }
  }
  EXPECT_EQ(offset, wire.size());  // stream fully consumed
}

TEST(Codec, TruncatedBuffersAreRejectedWithDiagnostics) {
  std::vector<std::uint8_t> wire;
  encode_message(Message{1, 2, 3, {4.0, 5.0}}, wire);
  // Every proper prefix fails cleanly: false, offset untouched, an error
  // message that names the problem.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::size_t offset = 0;
    Message out;
    std::string error;
    EXPECT_FALSE(decode_message({wire.data(), len}, offset, out, &error))
        << "prefix " << len;
    EXPECT_EQ(offset, 0u);
    EXPECT_FALSE(error.empty());
  }
  // The full buffer still decodes.
  std::size_t offset = 0;
  Message out;
  EXPECT_TRUE(decode_message({wire.data(), wire.size()}, offset, out));
}

TEST(Codec, CorruptHeadersAreRejected) {
  auto corrupt_field = [](int field_index, std::int32_t value) {
    std::vector<std::uint8_t> wire;
    encode_message(Message{1, 2, 3, {4.0}}, wire);
    std::memcpy(wire.data() + 4 * field_index, &value, 4);
    std::size_t offset = 0;
    Message out;
    std::string error;
    const bool ok =
        decode_message({wire.data(), wire.size()}, offset, out, &error);
    if (!ok) {
      EXPECT_EQ(offset, 0u);
    }
    return ok;
  };
  EXPECT_FALSE(corrupt_field(0, -7));  // negative from
  EXPECT_FALSE(corrupt_field(1, -1));  // negative to
  EXPECT_FALSE(corrupt_field(3, -1));  // negative payload length
  // A count pointing far past the buffer is truncation, not a crash.
  EXPECT_FALSE(corrupt_field(3, 1 << 20));
  // A negative tag is legal — tags are opaque.
  EXPECT_TRUE(corrupt_field(2, -3));
}

// --- The fault-injection backend -------------------------------------------

TEST(Faulty, ParseFaultPlanAcceptsSpecsAndRejectsGarbage) {
  const FaultPlan plan = parse_fault_plan(
      "drop=0.05,dup=0.02,corrupt=0.01,reorder=0.1,delay=0.05,maxdelay=3,"
      "budget=4,seed=7,inner=inproc");
  EXPECT_DOUBLE_EQ(plan.drop, 0.05);
  EXPECT_DOUBLE_EQ(plan.duplicate, 0.02);
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(plan.reorder, 0.1);
  EXPECT_DOUBLE_EQ(plan.delay, 0.05);
  EXPECT_EQ(plan.max_delay_rounds, 3);
  EXPECT_EQ(plan.retransmit_budget, 4);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.inner, TransportKind::kInProc);
  EXPECT_TRUE(plan.any());
  EXPECT_FALSE(parse_fault_plan("").any());
  // "duplicate" and "retransmit" are accepted aliases.
  EXPECT_DOUBLE_EQ(parse_fault_plan("duplicate=0.5").duplicate, 0.5);
  EXPECT_EQ(parse_fault_plan("retransmit=3").retransmit_budget, 3);
  EXPECT_THROW(parse_fault_plan("drop=2.0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("drop=pigeons"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("gremlins=0.5"), std::invalid_argument);
  // Outcome rates are mutually exclusive slices of one draw: must sum <= 1.
  EXPECT_THROW(parse_fault_plan("drop=0.6,dup=0.6"), std::invalid_argument);
}

TEST(Faulty, FrameCodecRoundTripsAndDetectsEverySingleBitFlip) {
  const Message m{3, 7, 42, {1.5, -0.0, 1e300}};
  std::vector<std::uint8_t> wire;
  const std::size_t len = encode_frame(m, 9, wire);
  EXPECT_EQ(len, wire.size());
  EXPECT_EQ(len, 8u + static_cast<std::size_t>(message_wire_bytes(m)));
  std::size_t offset = 0;
  std::uint32_t seq = 0;
  Message out;
  std::string error;
  ASSERT_TRUE(decode_frame({wire.data(), wire.size()}, offset, seq, out,
                           &error))
      << error;
  EXPECT_EQ(offset, wire.size());
  EXPECT_EQ(seq, 9u);
  EXPECT_EQ(out.from, 3);
  EXPECT_EQ(out.to, 7);
  EXPECT_EQ(out.tag, 42);
  ASSERT_EQ(out.data.size(), m.data.size());
  EXPECT_EQ(std::memcmp(out.data.data(), m.data.data(),
                        m.data.size() * sizeof(double)),
            0);
  // Every single-bit flip anywhere in the frame — checksum, sequence
  // number, header, payload — is rejected, with the offset untouched.
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = wire;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    offset = 0;
    EXPECT_FALSE(decode_frame({bad.data(), bad.size()}, offset, seq, out))
        << "bit " << bit;
    EXPECT_EQ(offset, 0u) << "bit " << bit;
  }
  // Every proper prefix is truncation, rejected cleanly.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    offset = 0;
    EXPECT_FALSE(decode_frame({wire.data(), cut}, offset, seq, out))
        << "prefix " << cut;
    EXPECT_EQ(offset, 0u);
  }
}

// A deterministic scripted exchange on a faulty runtime: every node
// posts to every other for `rounds` rounds, draining at each boundary.
struct FaultyRun {
  FaultStats stats;
  bool degraded = false;
  std::vector<Message> delivered;  // all inboxes, in drain order
};
FaultyRun scripted_faulty_run(const FaultPlan& plan, int rounds) {
  const int n = 4;
  Runtime rt(n, TransportKind::kFaulty, &plan);
  EXPECT_EQ(rt.transport_kind(), TransportKind::kFaulty);
  for (int a = 0; a < n; ++a)
    for (int b = a + 1; b < n; ++b) rt.connect(a, b);
  FaultyRun run;
  int tag = 0;
  for (int r = 0; r < rounds; ++r) {
    for (int a = 0; a < n; ++a)
      for (int b = 0; b < n; ++b)
        if (a != b)
          rt.post(Message{a, b, tag++, {static_cast<double>(r), 1.0 * a}});
    rt.step();
    for (int v = 0; v < n; ++v) {
      std::vector<Message> inbox = rt.drain(v);
      run.delivered.insert(run.delivered.end(), inbox.begin(), inbox.end());
      rt.recycle(std::move(inbox));
    }
  }
  const FaultStats* stats = rt.fault_stats();
  EXPECT_NE(stats, nullptr);
  if (stats != nullptr) run.stats = *stats;
  run.degraded = rt.degraded();
  return run;
}

bool same_messages(const std::vector<Message>& a,
                   const std::vector<Message>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].from != b[i].from || a[i].to != b[i].to ||
        a[i].tag != b[i].tag || a[i].data != b[i].data)
      return false;
  }
  return true;
}

TEST(Faulty, SeededPlansReplayDeterministically) {
  FaultPlan plan;
  plan.drop = 0.2;
  plan.duplicate = 0.1;
  plan.corrupt = 0.1;
  plan.reorder = 0.2;
  plan.delay = 0.1;
  plan.seed = 42;
  const FaultyRun first = scripted_faulty_run(plan, 8);
  const FaultyRun second = scripted_faulty_run(plan, 8);
  // Same seed, same script: identical fault decisions, counters, and
  // delivered streams — the whole point of hash-addressed fault dice.
  EXPECT_EQ(first.stats.frames_posted, second.stats.frames_posted);
  EXPECT_EQ(first.stats.frames_dropped, second.stats.frames_dropped);
  EXPECT_EQ(first.stats.frames_duplicated, second.stats.frames_duplicated);
  EXPECT_EQ(first.stats.frames_corrupted, second.stats.frames_corrupted);
  EXPECT_EQ(first.stats.frames_delayed, second.stats.frames_delayed);
  EXPECT_EQ(first.stats.frames_reordered, second.stats.frames_reordered);
  EXPECT_EQ(first.stats.retransmits, second.stats.retransmits);
  EXPECT_EQ(first.stats.dup_dropped, second.stats.dup_dropped);
  EXPECT_EQ(first.stats.corrupt_dropped, second.stats.corrupt_dropped);
  EXPECT_EQ(first.stats.frames_lost, second.stats.frames_lost);
  EXPECT_TRUE(same_messages(first.delivered, second.delivered));
  // The plan actually fired, was fully masked, and nothing mis-decoded.
  EXPECT_GT(first.stats.retransmits, 0);
  EXPECT_EQ(first.stats.frames_lost, 0);
  EXPECT_EQ(first.stats.corrupt_undetected, 0);
  EXPECT_EQ(first.stats.frames_delivered, first.stats.frames_posted);
  EXPECT_FALSE(first.degraded);
  // And masked means: delivered exactly the fault-free stream.
  const FaultyRun clean = scripted_faulty_run(FaultPlan{}, 8);
  EXPECT_TRUE(same_messages(first.delivered, clean.delivered));
}

TEST(Faulty, CounterClosedForms) {
  // Duplication-only: the extra copy always arrives and is always
  // deduped by sequence number — dup_dropped == frames_duplicated, no
  // retransmit ever needed, everything delivered exactly once.
  FaultPlan dup_only;
  dup_only.duplicate = 1.0;
  const FaultyRun dup = scripted_faulty_run(dup_only, 5);
  EXPECT_EQ(dup.stats.frames_duplicated, dup.stats.frames_posted);
  EXPECT_EQ(dup.stats.dup_dropped, dup.stats.frames_duplicated);
  EXPECT_EQ(dup.stats.retransmits, 0);
  EXPECT_EQ(dup.stats.frames_delivered, dup.stats.frames_posted);
  EXPECT_EQ(dup.stats.frames_lost, 0);
  EXPECT_FALSE(dup.degraded);
  EXPECT_TRUE(same_messages(dup.delivered,
                            scripted_faulty_run(FaultPlan{}, 5).delivered));

  // Total blackout against budget b: every frame costs exactly b
  // retransmit attempts, then is declared lost; nothing is delivered and
  // the runtime is degraded.
  FaultPlan blackout;
  blackout.drop = 1.0;
  blackout.retransmit_budget = 3;
  const FaultyRun lost = scripted_faulty_run(blackout, 4);
  EXPECT_EQ(lost.stats.retransmits, lost.stats.frames_posted * 3);
  EXPECT_EQ(lost.stats.frames_lost, lost.stats.frames_posted);
  EXPECT_EQ(lost.stats.frames_delivered, 0);
  EXPECT_TRUE(lost.delivered.empty());
  EXPECT_TRUE(lost.degraded);

  // Conservation holds on every plan: delivered + lost == posted.
  for (const FaultyRun* run : {&dup, &lost})
    EXPECT_EQ(run->stats.frames_delivered + run->stats.frames_lost,
              run->stats.frames_posted);

  // Concrete fault-free backends expose no fault surface at all.
  for (TransportKind kind : kAllTransports) {
    Runtime rt(2, kind);
    EXPECT_EQ(rt.fault_stats(), nullptr);
    EXPECT_FALSE(rt.degraded());
  }
}

TEST(Faulty, RecoveryPathReusesRecycledBuffers) {
  // The free-list contract survives the recovery layer: a steady
  // drain/recycle loop under constant drop-and-retransmit hands back the
  // warm buffers — the retransmit machinery allocates nothing per round
  // once the manifests are warm.
  FaultPlan plan;
  plan.drop = 0.4;
  plan.seed = 9;
  Runtime rt(2, TransportKind::kFaulty, &plan);
  rt.connect(0, 1);
  const Message* slots[2] = {nullptr, nullptr};
  for (int cycle = 0; cycle < 2; ++cycle) {
    rt.post(Message{0, 1, cycle, {1.0, 2.0, 3.0}});
    rt.step();
    std::vector<Message> inbox = rt.drain(1);
    ASSERT_EQ(inbox.size(), 1u);
    slots[cycle] = inbox.data();
    rt.recycle(std::move(inbox));
  }
  for (int cycle = 2; cycle < 8; ++cycle) {
    rt.post(Message{0, 1, cycle, {9.0, 8.0, 7.0}});
    rt.step();
    std::vector<Message> inbox = rt.drain(1);
    ASSERT_EQ(inbox.size(), 1u);
    EXPECT_TRUE(inbox.data() == slots[0] || inbox.data() == slots[1])
        << "cycle " << cycle;
    EXPECT_EQ(inbox[0].tag, cycle);
    rt.recycle(std::move(inbox));
  }
  ASSERT_NE(rt.fault_stats(), nullptr);
  EXPECT_GT(rt.fault_stats()->retransmits, 0);  // recovery really ran
  EXPECT_EQ(rt.fault_stats()->frames_lost, 0);
}

TEST(ConflictGraphs, AdjacencyMatchesConflictPredicate) {
  const Problem p = small_tree_problem(5, 24, 2, 12);
  std::vector<InstanceId> all(static_cast<std::size_t>(p.num_instances()));
  for (InstanceId i = 0; i < p.num_instances(); ++i)
    all[static_cast<std::size_t>(i)] = i;
  const ConflictGraph graph(p, {all.data(), all.size()});
  ASSERT_EQ(graph.size(), p.num_instances());
  for (int a = 0; a < graph.size(); ++a) {
    for (int b = 0; b < graph.size(); ++b) {
      if (a == b) continue;
      const bool adjacent =
          std::find(graph.neighbors(a).begin(), graph.neighbors(a).end(), b) !=
          graph.neighbors(a).end();
      EXPECT_EQ(adjacent, p.conflicting(graph.instance(a), graph.instance(b)))
          << a << " vs " << b;
    }
  }
}

TEST(LubyProtocol, MessageLevelRunProducesValidMis) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Problem p = small_tree_problem(seed + 20, 24, 2, 14);
    std::vector<InstanceId> all(static_cast<std::size_t>(p.num_instances()));
    for (InstanceId i = 0; i < p.num_instances(); ++i)
      all[static_cast<std::size_t>(i)] = i;
    const ProtocolResult result =
        run_luby_protocol(p, {all.data(), all.size()}, seed);
    // The explicit graph is only the validity oracle; the protocol ran
    // on rendezvous-discovered neighborhoods.
    const ConflictGraph graph(p, {all.data(), all.size()});
    EXPECT_TRUE(graph.is_maximal_independent_set(result.selected));
    // 2 discovery rounds + 2 synchronous rounds per Luby iteration.
    EXPECT_EQ(result.discovery_rounds, 2);
    EXPECT_GE(result.rounds, result.discovery_rounds + 2);
    EXPECT_EQ((result.rounds - result.discovery_rounds) % 2, 0);
    EXPECT_GT(result.discovery_messages, 0);
    EXPECT_GT(result.messages, result.discovery_messages);
    EXPECT_GT(result.bytes, 0);
  }
}

TEST(LubyProtocol, IsolatedVerticesSelectImmediately) {
  // A problem where no instances conflict: everyone joins the MIS in one
  // iteration.  The only traffic is the discovery registrations (learning
  // that the neighborhood is empty is itself a protocol act); the Luby
  // rounds stay silent.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(7));
  Problem p(7, std::move(networks));
  p.add_demand(0, 2, 1.0);
  p.add_demand(2, 4, 1.0);
  p.add_demand(4, 6, 1.0);
  p.finalize();
  std::vector<InstanceId> all{0, 1, 2};
  const ConflictGraph graph(p, {all.data(), all.size()});
  EXPECT_EQ(graph.num_edges(), 0);
  const ProtocolResult result =
      run_luby_protocol(p, {all.data(), all.size()}, 1);
  EXPECT_EQ(result.selected.size(), 3u);
  EXPECT_EQ(result.rounds, 4);  // 2 discovery + 2 Luby
  EXPECT_EQ(result.discovery_rounds, 2);
  // Each demand registers with its 2 path-edge owners and its demand
  // owner; singleton buckets draw no replies and Luby sends nothing.
  EXPECT_EQ(result.messages, result.discovery_messages);
  EXPECT_EQ(result.discovery_messages, 9);
}

TEST(LubyProtocol, BitIdenticalOnEveryTransport) {
  // The whole message-level Luby run — discovery plus the iteration loop
  // — must come out identical on every backend: same selection, same
  // counters, and on the serialized wire every charged message really
  // crossed the codec.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Problem p = small_tree_problem(seed + 40, 24, 2, 14);
    std::vector<InstanceId> all(static_cast<std::size_t>(p.num_instances()));
    for (InstanceId i = 0; i < p.num_instances(); ++i)
      all[static_cast<std::size_t>(i)] = i;
    const ProtocolResult ref =
        run_luby_protocol(p, {all.data(), all.size()}, seed,
                          TransportKind::kInProc);
    EXPECT_EQ(ref.codec_encoded, 0);
    EXPECT_EQ(ref.codec_decoded, 0);
    const ProtocolResult got = run_luby_protocol(
        p, {all.data(), all.size()}, seed, TransportKind::kSerialized);
    EXPECT_EQ(got.transport, TransportKind::kSerialized);
    ASSERT_EQ(got.selected, ref.selected);
    EXPECT_EQ(got.rounds, ref.rounds);
    EXPECT_EQ(got.messages, ref.messages);
    EXPECT_EQ(got.bytes, ref.bytes);
    EXPECT_EQ(got.discovery_rounds, ref.discovery_rounds);
    EXPECT_EQ(got.discovery_messages, ref.discovery_messages);
    EXPECT_EQ(got.discovery_bytes, ref.discovery_bytes);
    // Every message encoded at post, every message decoded at drain.
    EXPECT_EQ(got.codec_encoded, got.messages);
    EXPECT_EQ(got.codec_decoded, got.messages);
  }
}

}  // namespace
}  // namespace treesched

// Streaming tests: channel cost models, the disk spool, the reliable retry
// machinery, the flush-policy buffer, the Grid Console, and the Section 6.2
// echo experiment (shape properties of Figures 6 and 7).
#include <gtest/gtest.h>

#include "stream/echo_experiment.hpp"
#include "stream/grid_console.hpp"

namespace cg::stream {
namespace {

using namespace cg::literals;

// --------------------------------------------------------------- channel ----

class ChannelFixture : public ::testing::Test {
protected:
  ChannelFixture() : link{sim::LinkSpec::campus(), Rng{7}} {
    link_no_jitter_spec = sim::LinkSpec::campus();
    link_no_jitter_spec.jitter_stddev = Duration::zero();
  }

  sim::Simulation sim;
  sim::Link link;
  sim::LinkSpec link_no_jitter_spec;
};

TEST_F(ChannelFixture, DeliversAfterEstimatedTime) {
  sim::Link quiet{link_no_jitter_spec, Rng{1}};
  ChannelSpec spec = ChannelSpec::interposition_fast();
  spec.jitter_factor = 1.0;
  SimChannel ch{sim, quiet, spec, Rng{2}};
  SimTime delivered;
  ch.send(100, [&](std::size_t bytes) {
    delivered = sim.now();
    EXPECT_EQ(bytes, 100u);
  });
  sim.run();
  EXPECT_GT(delivered.count_micros(), 0);
  EXPECT_EQ(ch.messages_sent(), 1u);
  EXPECT_EQ(ch.bytes_sent(), 100u);
}

TEST_F(ChannelFixture, FifoOrderPreservedUnderBackToBackSends) {
  sim::Link quiet{link_no_jitter_spec, Rng{1}};
  SimChannel ch{sim, quiet, ChannelSpec::interposition_fast(), Rng{2}};
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    ch.send(static_cast<std::size_t>(1 + i * 100),
            [&order, i](std::size_t) { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_F(ChannelFixture, DownLinkFailsImmediately) {
  link.failures().add_outage(SimTime::zero(), SimTime::from_seconds(10));
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  bool failed = false;
  ch.send(100, [](std::size_t) { FAIL() << "delivered on a down link"; },
          [&](std::size_t) { failed = true; });
  sim.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(ch.messages_failed(), 1u);
}

TEST_F(ChannelFixture, SshPacketizationPenalizesLargePayloads) {
  // The ssh profile pays per-packet costs: 10 KB must cost much more than
  // 7x the 1.4 KB cost would suggest for our large-buffer fast profile.
  sim::Link quiet{link_no_jitter_spec, Rng{1}};
  SimChannel ssh{sim, quiet, ChannelSpec::ssh(), Rng{2}};
  SimChannel fast{sim, quiet, ChannelSpec::interposition_fast(), Rng{3}};
  const Duration ssh_small = ssh.estimate(10);
  const Duration ssh_large = ssh.estimate(10'000);
  const Duration fast_large = fast.estimate(10'000);
  EXPECT_GT(ssh_large.count_micros(), 2 * ssh_small.count_micros());
  EXPECT_GT(ssh_large.count_micros(), fast_large.count_micros());
}

TEST_F(ChannelFixture, GloginFixedOverheadDominatesSmallPayloads) {
  sim::Link quiet{link_no_jitter_spec, Rng{1}};
  SimChannel glogin{sim, quiet, ChannelSpec::glogin(), Rng{2}};
  SimChannel ssh{sim, quiet, ChannelSpec::ssh(), Rng{3}};
  SimChannel fast{sim, quiet, ChannelSpec::interposition_fast(), Rng{4}};
  // Campus, 10 bytes: fast < ssh < glogin (Fig. 6 ordering).
  EXPECT_LT(fast.estimate(10).count_micros(), ssh.estimate(10).count_micros());
  EXPECT_LT(ssh.estimate(10).count_micros(), glogin.estimate(10).count_micros());
}

// ----------------------------------------------------------------- spool ----

TEST(SpoolTest, FifoAccounting) {
  sim::DiskModel disk;
  Spool spool{disk};
  EXPECT_TRUE(spool.empty());
  const Duration w1 = spool.push(100);
  spool.push(200);
  EXPECT_GT(w1.count_micros(), 0);
  EXPECT_EQ(spool.depth(), 2u);
  EXPECT_EQ(spool.front_bytes(), 100u);
  EXPECT_EQ(spool.pending_bytes(), 300u);
  spool.pop_acknowledged();
  EXPECT_EQ(spool.front_bytes(), 200u);
  EXPECT_EQ(spool.total_spooled(), 300u);
  const Duration r = spool.charge_recovery_read();
  EXPECT_GT(r.count_micros(), 0);
  spool.pop_acknowledged();
  EXPECT_TRUE(spool.empty());
  EXPECT_THROW(spool.pop_acknowledged(), std::logic_error);
  EXPECT_THROW((void)spool.charge_recovery_read(), std::logic_error);
}

// ------------------------------------------------------- reliable channel ----

class ReliableFixture : public ::testing::Test {
protected:
  ReliableFixture() {
    spec = sim::LinkSpec::campus();
    spec.jitter_stddev = Duration::zero();
  }

  sim::Simulation sim;
  sim::LinkSpec spec;
  sim::DiskModel sender_disk;
  sim::DiskModel receiver_disk;
};

TEST_F(ReliableFixture, DeliversInOrderOnHealthyLink) {
  sim::Link link{spec, Rng{1}};
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  ReliableChannel rc{sim, ch, sender_disk, &receiver_disk};
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    rc.send(100, [&order, i](std::size_t) { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sender_disk.write_ops(), 5u);
  EXPECT_EQ(receiver_disk.write_ops(), 5u);
  EXPECT_FALSE(rc.gave_up());
}

TEST_F(ReliableFixture, RetriesAcrossOutageAndPreservesData) {
  sim::Link link{spec, Rng{1}};
  // Outage from t=0 to t=7 s; retry interval 2 s.
  link.failures().add_outage(SimTime::zero(), SimTime::from_seconds(7));
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  RetryPolicy policy;
  policy.retry_interval = 2_s;
  policy.max_retries = 10;
  ReliableChannel rc{sim, ch, sender_disk, &receiver_disk, policy};
  SimTime delivered;
  rc.send(1000, [&](std::size_t) { delivered = sim.now(); });
  sim.run();
  EXPECT_GT(delivered.to_seconds(), 7.0);  // after the link came back
  EXPECT_FALSE(rc.gave_up());
  EXPECT_GT(rc.retries_performed(), 0u);
  EXPECT_GT(sender_disk.read_ops(), 0u);  // recovery reads charged
}

TEST_F(ReliableFixture, GivesUpAfterMaxRetries) {
  sim::Link link{spec, Rng{1}};
  link.failures().add_outage(SimTime::zero(), SimTime::from_seconds(1e6));
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  RetryPolicy policy;
  policy.retry_interval = 1_s;
  policy.max_retries = 3;
  ReliableChannel rc{sim, ch, sender_disk, &receiver_disk, policy};
  bool gave_up_signalled = false;
  rc.set_give_up_handler([&] { gave_up_signalled = true; });
  bool delivered = false;
  rc.send(100, [&](std::size_t) { delivered = true; });
  sim.run();
  EXPECT_TRUE(rc.gave_up());
  EXPECT_TRUE(gave_up_signalled);
  EXPECT_FALSE(delivered);
  // Sends after give-up are dropped silently.
  rc.send(100, [](std::size_t) { FAIL(); });
  sim.run();
}

TEST_F(ReliableFixture, OrderSurvivesMidStreamOutage) {
  sim::Link link{spec, Rng{1}};
  link.failures().add_outage(SimTime::from_seconds(0.001),
                             SimTime::from_seconds(3));
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  RetryPolicy policy;
  policy.retry_interval = 1_s;
  policy.max_retries = 10;
  ReliableChannel rc{sim, ch, sender_disk, &receiver_disk, policy};
  std::vector<int> order;
  // First message goes out before the outage; the rest queue behind it.
  for (int i = 0; i < 4; ++i) {
    sim.schedule(Duration::millis(i * 2), [&rc, &order, i] {
      rc.send(5000, [&order, i](std::size_t) { order.push_back(i); });
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(ReliableFixture, CoalescingIsOffByDefault) {
  sim::Link link{spec, Rng{1}};
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  ReliableChannel rc{sim, ch, sender_disk, &receiver_disk};
  for (int i = 0; i < 8; ++i) rc.send(100, [](std::size_t) {});
  sim.run();
  // Every message was its own spool append and transmit — the historical
  // event sequence, which the goldens and stream_scale digests pin.
  EXPECT_EQ(rc.coalesced_batches(), 0u);
  EXPECT_EQ(sender_disk.write_ops(), 8u);
  EXPECT_EQ(receiver_disk.write_ops(), 8u);
}

TEST_F(ReliableFixture, CoalescingBatchesMessagesQueuedBehindTransmit) {
  sim::Link link{spec, Rng{1}};
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  RetryPolicy policy;
  policy.max_coalesce_bytes = 64 * 1024;
  ReliableChannel rc{sim, ch, sender_disk, &receiver_disk, policy};
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    rc.send(100, [&order, i](std::size_t) { order.push_back(i); });
  }
  sim.run();
  // The head transmits alone; the nine messages that queued up behind it
  // form one batch: two spool appends and two receiver writes total, with
  // per-message delivery order intact.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(rc.coalesced_batches(), 1u);
  EXPECT_EQ(rc.coalesced_messages(), 9u);
  EXPECT_EQ(sender_disk.write_ops(), 2u);
  EXPECT_EQ(receiver_disk.write_ops(), 2u);
}

TEST_F(ReliableFixture, CoalescingRespectsByteCap) {
  sim::Link link{spec, Rng{1}};
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  RetryPolicy policy;
  policy.max_coalesce_bytes = 250;  // two 100-byte messages per batch, max
  ReliableChannel rc{sim, ch, sender_disk, &receiver_disk, policy};
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    rc.send(100, [&order, i](std::size_t) { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  // Head alone, then four batches of two and a final single: six appends.
  EXPECT_EQ(sender_disk.write_ops(), 6u);
  EXPECT_EQ(rc.coalesced_batches(), 4u);
  EXPECT_EQ(rc.coalesced_messages(), 8u);
}

TEST_F(ReliableFixture, ReceiverWritesCompletingOutOfOrderDeliverInOrder) {
  // A large batch's receiver write takes much longer than a small
  // successor's, so the small one's write completes first. The intermediate
  // file is still consumed front to back: callbacks must fire in send order,
  // with the small batch waiting for its predecessor's write.
  sim::Link link{spec, Rng{1}};
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  RetryPolicy policy;
  policy.max_coalesce_bytes = 64 * 1024;
  ReliableChannel rc{sim, ch, sender_disk, &receiver_disk, policy};
  std::vector<char> order;
  rc.send(200'000, [&order](std::size_t) { order.push_back('A'); });
  rc.send(100, [&order](std::size_t) { order.push_back('B'); });
  rc.send(100, [&order](std::size_t) { order.push_back('C'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

TEST(ReliablePolicyTest, Validation) {
  sim::Simulation sim;
  sim::Link link{sim::LinkSpec::campus(), Rng{1}};
  SimChannel ch{sim, link, ChannelSpec::interposition_fast(), Rng{2}};
  sim::DiskModel disk;
  RetryPolicy bad;
  bad.retry_interval = Duration::zero();
  EXPECT_THROW(ReliableChannel(sim, ch, disk, nullptr, bad), std::invalid_argument);
  bad.retry_interval = 1_s;
  bad.max_retries = -1;
  EXPECT_THROW(ReliableChannel(sim, ch, disk, nullptr, bad), std::invalid_argument);
}

// ---------------------------------------------------------- flush buffer ----

class FlushBufferFixture : public ::testing::Test {
protected:
  FlushBufferConfig small_config() {
    FlushBufferConfig c;
    c.capacity = 16;
    c.timeout = 100_ms;
    return c;
  }

  /// A flush callback that stores each flushed segment as a string.
  FlushBuffer::FlushFn collect() {
    return [this](ChunkRef data) { flushes.push_back(data.to_string()); };
  }

  sim::Simulation sim;
  std::vector<std::string> flushes;
};

TEST_F(FlushBufferFixture, NewlineTriggersImmediateFlush) {
  FlushBuffer buf{sim, small_config(), collect()};
  buf.append("hello\nworld");
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0], "hello\n");
  EXPECT_EQ(buf.buffered(), 5u);  // "world" waits
}

TEST_F(FlushBufferFixture, CapacityTriggersFlush) {
  FlushBufferConfig config = small_config();
  config.flush_on_newline = false;
  FlushBuffer buf{sim, config, collect()};
  buf.append(std::string(40, 'x'));
  ASSERT_EQ(flushes.size(), 2u);
  EXPECT_EQ(flushes[0].size(), 16u);
  EXPECT_EQ(flushes[1].size(), 16u);
  EXPECT_EQ(buf.buffered(), 8u);
}

TEST_F(FlushBufferFixture, TimeoutTriggersFlush) {
  FlushBuffer buf{sim, small_config(), collect()};
  buf.append("abc");
  EXPECT_TRUE(flushes.empty());
  sim.run();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0], "abc");
  EXPECT_NEAR(sim.now().to_seconds(), 0.1, 1e-9);
}

TEST_F(FlushBufferFixture, TimeoutMeasuredFromFirstUnflushedByte) {
  FlushBuffer buf{sim, small_config(), collect()};
  buf.append("a");
  sim.schedule(50_ms, [&] { buf.append("b"); });  // must NOT reset the clock
  sim.run();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0], "ab");
  EXPECT_NEAR(sim.now().to_seconds(), 0.1, 1e-9);
}

TEST_F(FlushBufferFixture, ManualFlushAndEmptyFlushNoop) {
  FlushBuffer buf{sim, small_config(), collect()};
  buf.flush();  // nothing buffered
  EXPECT_TRUE(flushes.empty());
  buf.append("xy");
  buf.flush();
  ASSERT_EQ(flushes.size(), 1u);
  EXPECT_EQ(flushes[0], "xy");
  sim.run();  // pending timer was cancelled; no double flush
  EXPECT_EQ(flushes.size(), 1u);
}

TEST_F(FlushBufferFixture, OversizeAppendFlushesOncePerCapacityInOnePass) {
  // Satellite regression: an append of 10x the capacity used to re-copy the
  // unflushed tail once per emitted flush. The rewrite walks the input in a
  // single pass; behaviorally that must mean exactly ten capacity flushes
  // whose concatenation reassembles the input byte for byte.
  FlushBufferConfig config = small_config();  // capacity 16
  std::string input(config.capacity * 10, '\0');
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<char>('a' + i % 26);  // position-dependent bytes
  }
  FlushBuffer buf{sim, config, collect()};
  buf.append(input);
  ASSERT_EQ(flushes.size(), 10u);
  EXPECT_EQ(buf.flush_count(FlushReason::kCapacity), 10u);
  EXPECT_EQ(buf.flush_count(FlushReason::kNewline), 0u);
  EXPECT_EQ(buf.flush_count(FlushReason::kTimeout), 0u);
  EXPECT_EQ(buf.flush_count(FlushReason::kExplicit), 0u);
  std::string reassembled;
  for (const std::string& f : flushes) {
    EXPECT_EQ(f.size(), config.capacity);
    reassembled += f;
  }
  EXPECT_EQ(reassembled, input);
  EXPECT_EQ(buf.buffered(), 0u);
  sim.run();  // nothing buffered: no timeout flush follows
  EXPECT_EQ(flushes.size(), 10u);
}

TEST_F(FlushBufferFixture, OversizeAppendWithNewlinesReassembles) {
  // Mixed triggers in one oversized append: newline flushes interleave with
  // capacity flushes and the byte stream still reassembles exactly.
  FlushBufferConfig config = small_config();
  std::string input;
  for (int i = 0; i < 8; ++i) {
    input += "line " + std::to_string(i) + "\n";  // 7-8 bytes, newline flush
    input += std::string(20, static_cast<char>('A' + i));  // capacity flush
  }
  FlushBuffer buf{sim, config, collect()};
  buf.append(input);
  buf.flush();
  std::string reassembled;
  for (const std::string& f : flushes) reassembled += f;
  EXPECT_EQ(reassembled, input);
  EXPECT_EQ(buf.flush_count(FlushReason::kNewline), 8u);
  EXPECT_GT(buf.flush_count(FlushReason::kCapacity), 0u);
}

TEST_F(FlushBufferFixture, Validation) {
  FlushBufferConfig zero;
  zero.capacity = 0;
  EXPECT_THROW(FlushBuffer(sim, zero, collect()), std::invalid_argument);
  EXPECT_THROW(FlushBuffer(sim, small_config(), FlushBuffer::FlushFn{}),
               std::invalid_argument);
}

// ------------------------------------------------------------ grid console ----

class GridConsoleFixture : public ::testing::Test {
protected:
  GridConsoleFixture() : network{Rng{11}} {
    network.add_link("ui", "wn0", sim::LinkSpec::campus());
    network.add_link("ui", "wn1", sim::LinkSpec::campus());
  }

  GridConsoleConfig fast_config() {
    GridConsoleConfig c;
    c.mode = jdl::StreamingMode::kFast;
    c.agent_buffer.timeout = 50_ms;
    c.shadow_buffer.timeout = 50_ms;
    return c;
  }

  sim::Simulation sim;
  sim::Network network;
  std::string screen;
};

TEST_F(GridConsoleFixture, OutputReachesScreen) {
  GridConsole console{sim, network, fast_config(), "ui",
                      [&](std::string d) { screen += d; }, Rng{1}};
  ConsoleAgent& agent = console.add_agent(0, "wn0");
  agent.write_stdout("result: 42\n");
  sim.run();
  EXPECT_EQ(screen, "result: 42\n");
}

TEST_F(GridConsoleFixture, InputFansOutToAllSubjobs) {
  // Section 4: input is forwarded to every subjob; rank filtering is the
  // application's business.
  GridConsole console{sim, network, fast_config(), "ui",
                      [&](std::string d) { screen += d; }, Rng{1}};
  ConsoleAgent& a0 = console.add_agent(0, "wn0");
  ConsoleAgent& a1 = console.add_agent(1, "wn1");
  std::vector<std::pair<int, std::string>> inputs;
  a0.set_input_handler([&](std::string line) { inputs.emplace_back(0, line); });
  a1.set_input_handler([&](std::string line) { inputs.emplace_back(1, line); });
  console.shadow().type_line("steer 0.5");
  sim.run();
  ASSERT_EQ(inputs.size(), 2u);
  EXPECT_EQ(inputs[0].second, "steer 0.5\n");
  EXPECT_EQ(inputs[1].second, "steer 0.5\n");
  EXPECT_EQ(console.shadow().lines_typed(), 1u);
}

TEST_F(GridConsoleFixture, MultiRankOutputInterleavesThroughOneScreenBuffer) {
  GridConsole console{sim, network, fast_config(), "ui",
                      [&](std::string d) { screen += d; }, Rng{1}};
  ConsoleAgent& a0 = console.add_agent(0, "wn0");
  ConsoleAgent& a1 = console.add_agent(1, "wn1");
  std::vector<int> ranks_seen;
  console.shadow().set_frame_observer(
      [&](int rank, StdStream, std::string_view) { ranks_seen.push_back(rank); });
  a0.write_stdout("from rank 0\n");
  a1.write_stdout("from rank 1\n");
  sim.run();
  EXPECT_EQ(ranks_seen.size(), 2u);
  EXPECT_NE(screen.find("from rank 0"), std::string::npos);
  EXPECT_NE(screen.find("from rank 1"), std::string::npos);
}

TEST_F(GridConsoleFixture, FastModeLosesDataDuringOutage) {
  GridConsole console{sim, network, fast_config(), "ui",
                      [&](std::string d) { screen += d; }, Rng{1}};
  ConsoleAgent& agent = console.add_agent(0, "wn0");
  network.link("ui", "wn0").failures().add_outage(SimTime::zero(),
                                                  SimTime::from_seconds(5));
  agent.write_stdout("lost\n");
  sim.run();
  EXPECT_TRUE(screen.empty());
  EXPECT_GT(agent.output_bytes_lost(), 0u);
  EXPECT_FALSE(agent.failed());
}

TEST_F(GridConsoleFixture, ReliableModeSurvivesOutage) {
  GridConsoleConfig config = fast_config();
  config.mode = jdl::StreamingMode::kReliable;
  config.retry.retry_interval = 1_s;
  config.retry.max_retries = 20;
  GridConsole console{sim, network, config, "ui",
                      [&](std::string d) { screen += d; }, Rng{1}};
  ConsoleAgent& agent = console.add_agent(0, "wn0");
  network.link("ui", "wn0").failures().add_outage(SimTime::zero(),
                                                  SimTime::from_seconds(5));
  agent.write_stdout("precious data\n");
  sim.run();
  EXPECT_EQ(screen, "precious data\n");
  EXPECT_GT(sim.now().to_seconds(), 5.0);
  EXPECT_GT(console.wn_disk(0).bytes_written(), 0u);
}

TEST_F(GridConsoleFixture, ReliableModeKillsProcessAfterRetriesExhausted) {
  GridConsoleConfig config = fast_config();
  config.mode = jdl::StreamingMode::kReliable;
  config.retry.retry_interval = 1_s;
  config.retry.max_retries = 2;
  GridConsole console{sim, network, config, "ui",
                      [&](std::string d) { screen += d; }, Rng{1}};
  ConsoleAgent& agent = console.add_agent(0, "wn0");
  network.link("ui", "wn0").failures().add_outage(SimTime::zero(),
                                                  SimTime::from_seconds(1e6));
  int fatal_rank = -1;
  console.shadow().set_fatal_handler([&](int rank) { fatal_rank = rank; });
  agent.write_stdout("doomed\n");
  sim.run();
  EXPECT_EQ(fatal_rank, 0);
  EXPECT_TRUE(agent.failed());
}

TEST_F(GridConsoleFixture, CloseFlushesPartialLine) {
  GridConsole console{sim, network, fast_config(), "ui",
                      [&](std::string d) { screen += d; }, Rng{1}};
  ConsoleAgent& agent = console.add_agent(0, "wn0");
  agent.write_stdout("no newline");
  agent.close();
  sim.run();
  EXPECT_EQ(screen, "no newline");
}

TEST_F(GridConsoleFixture, StderrTravelsTheSamePath) {
  GridConsole console{sim, network, fast_config(), "ui",
                      [&](std::string d) { screen += d; }, Rng{1}};
  ConsoleAgent& agent = console.add_agent(0, "wn0");
  std::vector<StdStream> streams;
  console.shadow().set_frame_observer(
      [&](int, StdStream s, std::string_view) { streams.push_back(s); });
  agent.write_stderr("warning!\n");
  sim.run();
  ASSERT_EQ(streams.size(), 1u);
  EXPECT_EQ(streams[0], StdStream::kStderr);
  EXPECT_EQ(screen, "warning!\n");
}

TEST_F(GridConsoleFixture, ReliableInputDirectionGivesUpToo) {
  // The shadow->agent (stdin) direction has its own reliable channel; a
  // permanently dead link exhausts its retries and reports the fatal rank.
  GridConsoleConfig config = fast_config();
  config.mode = jdl::StreamingMode::kReliable;
  config.retry.retry_interval = 1_s;
  config.retry.max_retries = 2;
  GridConsole console{sim, network, config, "ui",
                      [&](std::string d) { screen += d; }, Rng{1}};
  console.add_agent(0, "wn0");
  network.link("ui", "wn0").failures().add_outage(SimTime::zero(),
                                                  SimTime::from_seconds(1e6));
  int fatal_rank = -1;
  console.shadow().set_fatal_handler([&](int rank) { fatal_rank = rank; });
  console.shadow().type_line("into the void");
  sim.run();
  EXPECT_EQ(fatal_rank, 0);
}

// --------------------------------------------------------- echo experiment ----

TEST(EchoExperimentTest, CompletesAllSequences) {
  EchoConfig config;
  config.method = EchoMethod::kFast;
  config.payload_bytes = 10;
  config.sequences = 100;
  const EchoResult result = run_echo_experiment(sim::LinkSpec::campus(), config);
  EXPECT_EQ(result.sequences_completed, 100);
  EXPECT_EQ(result.round_trips_s.count(), 100u);
  EXPECT_FALSE(result.gave_up);
  EXPECT_GT(result.round_trips_s.mean(), 0.0);
}

TEST(EchoExperimentTest, DeterministicForSeed) {
  EchoConfig config;
  config.method = EchoMethod::kReliable;
  config.payload_bytes = 1000;
  config.sequences = 50;
  const EchoResult a = run_echo_experiment(sim::LinkSpec::wan(), config);
  const EchoResult b = run_echo_experiment(sim::LinkSpec::wan(), config);
  ASSERT_EQ(a.round_trips_s.count(), b.round_trips_s.count());
  for (std::size_t i = 0; i < a.round_trips_s.count(); ++i) {
    EXPECT_EQ(a.round_trips_s.samples()[i], b.round_trips_s.samples()[i]);
  }
}

TEST(EchoExperimentTest, CampusSmallPayloadOrdering) {
  // Fig. 6, 10-byte payloads: fast < ssh < {glogin, reliable}; reliable is
  // the slowest method.
  EchoConfig config;
  config.payload_bytes = 10;
  config.sequences = 200;
  const auto mean = [&](EchoMethod m) {
    EchoConfig c = config;
    c.method = m;
    return run_echo_experiment(sim::LinkSpec::campus(), c).round_trips_s.mean();
  };
  const double fast = mean(EchoMethod::kFast);
  const double ssh = mean(EchoMethod::kSsh);
  const double glogin = mean(EchoMethod::kGlogin);
  const double reliable = mean(EchoMethod::kReliable);
  EXPECT_LT(fast, ssh);
  EXPECT_LT(ssh, glogin);
  EXPECT_LT(ssh, reliable);
  EXPECT_GT(reliable, glogin);  // "usually the slowest method"
}

TEST(EchoExperimentTest, CampusLargePayloadReliableBeatsSsh) {
  // Fig. 6's 10 KB crossover: reliable's large buffers beat ssh's
  // packetization despite the disk overhead.
  EchoConfig config;
  config.payload_bytes = 10'000;
  config.sequences = 200;
  EchoConfig ssh_config = config;
  ssh_config.method = EchoMethod::kSsh;
  EchoConfig rel_config = config;
  rel_config.method = EchoMethod::kReliable;
  const double ssh =
      run_echo_experiment(sim::LinkSpec::campus(), ssh_config).round_trips_s.mean();
  const double reliable =
      run_echo_experiment(sim::LinkSpec::campus(), rel_config).round_trips_s.mean();
  EXPECT_LT(reliable, ssh);
}

TEST(EchoExperimentTest, WanSmallPayloadsConverge) {
  // Fig. 7: on the WAN, latency dominates; fast/ssh/glogin are comparable
  // for small payloads (within ~35%), but fast shows higher variance.
  EchoConfig config;
  config.payload_bytes = 100;
  config.sequences = 300;
  const auto run = [&](EchoMethod m) {
    EchoConfig c = config;
    c.method = m;
    return run_echo_experiment(sim::LinkSpec::wan(), c);
  };
  const EchoResult fast = run(EchoMethod::kFast);
  const EchoResult ssh = run(EchoMethod::kSsh);
  const EchoResult glogin = run(EchoMethod::kGlogin);
  EXPECT_NEAR(fast.round_trips_s.mean() / ssh.round_trips_s.mean(), 1.0, 0.35);
  EXPECT_NEAR(glogin.round_trips_s.mean() / ssh.round_trips_s.mean(), 1.0, 0.35);
  EXPECT_GT(fast.round_trips_s.stddev(), ssh.round_trips_s.stddev());
}

TEST(EchoExperimentTest, FastModeDropsDuringOutage) {
  EchoConfig config;
  config.method = EchoMethod::kFast;
  config.payload_bytes = 10;
  config.sequences = 100;
  config.outage_start_s = 0.0;
  config.outage_end_s = 0.05;
  const EchoResult result = run_echo_experiment(sim::LinkSpec::campus(), config);
  EXPECT_EQ(result.sequences_completed, 100);
  // Some sequences were dropped, so fewer round trips were recorded.
  EXPECT_LT(result.round_trips_s.count(), 100u);
  EXPECT_GT(result.bytes_lost, 0u);
}

TEST(EchoExperimentTest, ReliableModeChargesDisk) {
  EchoConfig config;
  config.method = EchoMethod::kReliable;
  config.payload_bytes = 10;
  config.sequences = 10;
  const EchoResult result = run_echo_experiment(sim::LinkSpec::campus(), config);
  // 10 sequences x 2 directions x 2 ends = 40 disk writes.
  EXPECT_EQ(result.disk_ops, 40u);
  EXPECT_EQ(result.disk_bytes_written, 400u);
}

}  // namespace
}  // namespace cg::stream

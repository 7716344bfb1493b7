// Wire-protocol tests: frame encoding, incremental decoding, corruption
// handling, and the disk spool file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "interpose/spool_file.hpp"
#include "interpose/wire.hpp"

namespace cg::interpose {
namespace {

std::string encode(const Frame& frame) {
  std::string out;
  encode_frame_into(out, frame.type, frame.rank, frame.payload);
  return out;
}

Frame owned(const FrameView& view) {
  return Frame{view.type, view.rank, std::string{view.payload}};
}

/// Every frame one session over `bytes` completes.
std::vector<Frame> decode_session(FrameDecoder& decoder, std::string_view bytes) {
  std::vector<Frame> frames;
  decoder.begin(bytes);
  while (const auto view = decoder.next_view()) frames.push_back(owned(*view));
  decoder.end();
  return frames;
}

TEST(WireTest, EncodeDecodeRoundTrip) {
  Frame frame;
  frame.type = FrameType::kStdout;
  frame.rank = 7;
  frame.payload = "hello grid\n";
  const std::string encoded = encode(frame);
  EXPECT_EQ(encoded.size(), kFrameHeaderBytes + frame.payload.size());

  FrameDecoder decoder;
  const std::vector<Frame> decoded = decode_session(decoder, encoded);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], frame);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireTest, EmptyPayloadFrames) {
  Frame hello;
  hello.type = FrameType::kHello;
  hello.rank = 3;
  FrameDecoder decoder;
  const std::vector<Frame> decoded = decode_session(decoder, encode(hello));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].type, FrameType::kHello);
  EXPECT_EQ(decoded[0].rank, 3u);
  EXPECT_TRUE(decoded[0].payload.empty());
}

TEST(WireTest, IncrementalFeedByteByByte) {
  Frame frame;
  frame.type = FrameType::kStdin;
  frame.payload = "abcdef";
  const std::string encoded = encode(frame);
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < encoded.size(); ++i) {
    EXPECT_TRUE(decode_session(decoder, std::string_view{&encoded[i], 1}).empty());
  }
  const std::vector<Frame> decoded =
      decode_session(decoder, std::string_view{&encoded.back(), 1});
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].payload, "abcdef");
}

TEST(WireTest, MultipleFramesInOneBuffer) {
  std::string buffer;
  for (int i = 0; i < 5; ++i) {
    Frame f;
    f.type = FrameType::kStdout;
    f.rank = static_cast<std::uint32_t>(i);
    f.payload = "line " + std::to_string(i);
    buffer += encode(f);
  }
  FrameDecoder decoder;
  const std::vector<Frame> decoded = decode_session(decoder, buffer);
  ASSERT_EQ(decoded.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(decoded[static_cast<std::size_t>(i)].rank,
              static_cast<std::uint32_t>(i));
  }
}

TEST(WireTest, BinaryPayloadSafe) {
  Frame frame;
  frame.type = FrameType::kStdout;
  frame.payload = std::string("\x00\x01\xff\n\x00", 5);
  FrameDecoder decoder;
  const std::vector<Frame> decoded = decode_session(decoder, encode(frame));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].payload.size(), 5u);
  EXPECT_EQ(decoded[0].payload, frame.payload);
}

TEST(WireTest, CorruptTypeThrows) {
  std::string bogus(kFrameHeaderBytes, '\0');
  bogus[0] = '\x7f';  // invalid frame type
  FrameDecoder decoder;
  decoder.begin(bogus);
  EXPECT_THROW((void)decoder.next_view(), std::runtime_error);
  EXPECT_THROW((void)decode_frame_header(bogus.data()), std::runtime_error);
}

TEST(WireTest, ImplausibleLengthThrows) {
  Frame frame;
  frame.type = FrameType::kStdout;
  std::string encoded = encode(frame);
  encoded[5] = '\x7f';  // length high byte -> ~2 GB
  FrameDecoder decoder;
  decoder.begin(encoded);
  EXPECT_THROW((void)decoder.next_view(), std::runtime_error);
}

TEST(WireTest, OversizedPayloadRejectedAtEncode) {
  const std::string payload(kMaxFramePayload + 1, 'x');
  std::string out;
  EXPECT_THROW(encode_frame_into(out, FrameType::kStdout, 0, payload),
               std::invalid_argument);
}

TEST(WireTest, CompactionKeepsDecoderCorrect) {
  // Frames larger than the compaction threshold straddle two sessions, so
  // each is completed in the stash and reclaimed when its session ends.
  FrameDecoder decoder;
  Frame f;
  f.type = FrameType::kStdout;
  f.payload = std::string(6000, 'p');
  const std::string encoded = encode(f);
  const std::string_view wire{encoded};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(decode_session(decoder, wire.substr(0, 3000)).empty());
    const std::vector<Frame> out = decode_session(decoder, wire.substr(3000));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], f);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

// ----------------------------------------------------- zero-copy sessions ----

TEST(WireViewTest, HeaderScratchMatchesTheWireLayout) {
  // [u8 type][u32 rank][u32 length], both big-endian.
  const std::string wire_header("\x03\x00\x00\x00\x2a\x00\x00\x00\x09", 9);
  char header[kFrameHeaderBytes];
  encode_frame_header(header, FrameType::kStderr, 42, 9);
  EXPECT_EQ(std::string_view(header, kFrameHeaderBytes), wire_header);
  std::string scratch = "stale contents from a previous frame";
  encode_frame_into(scratch, FrameType::kStderr, 42, "zero copy");
  EXPECT_EQ(scratch, wire_header + "zero copy");
  const FrameHeader decoded = decode_frame_header(header);
  EXPECT_EQ(decoded.type, FrameType::kStderr);
  EXPECT_EQ(decoded.rank, 42u);
  EXPECT_EQ(decoded.length, 9u);
  EXPECT_THROW(
      encode_frame_header(header, FrameType::kStderr, 0, kMaxFramePayload + 1),
      std::invalid_argument);
}

TEST(WireViewTest, ViewsBorrowTheSessionSpan) {
  Frame frame;
  frame.type = FrameType::kStdout;
  frame.rank = 3;
  frame.payload = "borrowed bytes";
  const std::string encoded = encode(frame);
  FrameDecoder decoder;
  decoder.begin(encoded);
  const auto view = decoder.next_view();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->rank, 3u);
  EXPECT_EQ(view->payload, "borrowed bytes");
  // Zero-copy: the payload view points into the caller's buffer.
  EXPECT_EQ(view->payload.data(), encoded.data() + kFrameHeaderBytes);
  EXPECT_EQ(owned(*view), frame);
  EXPECT_FALSE(decoder.next_view().has_value());
  decoder.end();
  EXPECT_EQ(decoder.buffered_bytes(), 0u);  // nothing straddled, no copy
}

// --------------------------------------------------------- property test ----

/// A frame stream exercising the decoder's corners: empty payloads, 1-byte
/// payloads, payloads longer than a read, every frame type, binary bytes.
std::string corner_stream(std::vector<Frame>& out) {
  out.clear();
  const std::string payloads[] = {
      "",
      "x",
      "ordinary line\n",
      std::string(300, 'Q'),
      std::string("\x00\x01\xff\n\x00", 5),
      "tail",
  };
  std::uint32_t rank = 0;
  for (const auto& payload : payloads) {
    Frame f;
    f.type = static_cast<FrameType>(rank % 6);
    f.rank = rank++;
    f.payload = payload;
    out.push_back(f);
  }
  std::string stream;
  for (const Frame& f : out) stream += encode(f);
  return stream;
}

/// Decodes `stream` delivered as the given consecutive pieces, one zero-copy
/// session per piece.
std::vector<Frame> decode_pieces(const std::string& stream,
                                 const std::vector<std::size_t>& cuts) {
  FrameDecoder decoder;
  std::vector<Frame> frames;
  std::size_t pos = 0;
  for (std::size_t cut : cuts) {
    decoder.begin(stream.data() + pos, cut - pos);
    while (const auto view = decoder.next_view()) frames.push_back(owned(*view));
    decoder.end();
    pos = cut;
  }
  decoder.begin(stream.data() + pos, stream.size() - pos);
  while (const auto view = decoder.next_view()) frames.push_back(owned(*view));
  decoder.end();
  return frames;
}

TEST(WireViewTest, SplitAtEveryByteBoundaryMatchesOneShot) {
  // Satellite property test: cut the stream at every byte offset — including
  // mid-header and mid-payload — and the two-session decode must yield
  // exactly the frames a one-shot decode yields.
  std::vector<Frame> expected;
  const std::string stream = corner_stream(expected);
  ASSERT_EQ(decode_pieces(stream, {}), expected);  // one-shot reference
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    ASSERT_EQ(decode_pieces(stream, {cut}), expected) << "cut at byte " << cut;
  }
}

TEST(WireViewTest, SeededRandomChunkingsMatchOneShot) {
  // 100 seeded shuffles of the read boundaries: each iteration carves the
  // stream into a different sequence of reads (many of them tiny, so frames
  // straddle session after session), and every chunking must decode to the
  // same frame sequence.
  std::vector<Frame> expected;
  const std::string stream = corner_stream(expected);
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return lcg >> 33;
  };
  for (int iteration = 0; iteration < 100; ++iteration) {
    std::vector<std::size_t> cuts;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      // Mostly small reads (1..16 bytes), occasionally a big gulp.
      const std::size_t step =
          next() % 8 == 0 ? 1 + next() % 200 : 1 + next() % 16;
      pos = std::min(stream.size(), pos + step);
      if (pos < stream.size()) cuts.push_back(pos);
    }
    ASSERT_EQ(decode_pieces(stream, cuts), expected)
        << "iteration " << iteration;
  }
}

// ------------------------------------------------------------ spool file ----

class SpoolFileFixture : public ::testing::Test {
protected:
  void SetUp() override {
    path_ = "/tmp/cg-spool-test-" + std::to_string(::testing::UnitTest::GetInstance()
                                                       ->random_seed()) +
            "-" + std::to_string(counter_++);
    std::remove(path_.c_str());
    std::remove((path_ + ".cursor").c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".cursor").c_str());
  }

  static Frame frame(const std::string& payload) {
    Frame f;
    f.type = FrameType::kStdout;
    f.payload = payload;
    return f;
  }

  static int counter_;
  std::string path_;
};

int SpoolFileFixture::counter_ = 0;

TEST_F(SpoolFileFixture, AppendPeekAdvance) {
  auto spool = SpoolFile::open(path_);
  ASSERT_TRUE(spool.has_value());
  ASSERT_TRUE(spool->append(frame("one")).ok());
  ASSERT_TRUE(spool->append(frame("two")).ok());
  EXPECT_EQ(spool->pending(), 2u);

  auto first = spool->peek();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload, "one");
  ASSERT_TRUE(spool->advance().ok());

  auto second = spool->peek();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload, "two");
  ASSERT_TRUE(spool->advance().ok());
  EXPECT_FALSE(spool->peek().has_value());
  EXPECT_EQ(spool->pending(), 0u);
}

TEST_F(SpoolFileFixture, AdvanceWithoutPeekFails) {
  auto spool = SpoolFile::open(path_);
  ASSERT_TRUE(spool.has_value());
  ASSERT_TRUE(spool->append(frame("x")).ok());
  EXPECT_FALSE(spool->advance().ok());
}

TEST_F(SpoolFileFixture, CursorSurvivesReopen) {
  {
    auto spool = SpoolFile::open(path_);
    ASSERT_TRUE(spool.has_value());
    ASSERT_TRUE(spool->append(frame("sent")).ok());
    ASSERT_TRUE(spool->append(frame("unsent")).ok());
    ASSERT_TRUE(spool->peek().has_value());
    ASSERT_TRUE(spool->advance().ok());
  }  // close (simulated crash after sending the first frame)
  auto reopened = SpoolFile::open(path_);
  ASSERT_TRUE(reopened.has_value());
  EXPECT_EQ(reopened->pending(), 1u);
  const auto next = reopened->peek();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->payload, "unsent");
}

TEST_F(SpoolFileFixture, RemoveFilesCleansDisk) {
  auto spool = SpoolFile::open(path_);
  ASSERT_TRUE(spool.has_value());
  ASSERT_TRUE(spool->append(frame("x")).ok());
  spool->remove_files();
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST_F(SpoolFileFixture, CorruptFrameReadsAsTheEndOfTheSpool) {
  {
    auto spool = SpoolFile::open(path_);
    ASSERT_TRUE(spool.has_value());
    ASSERT_TRUE(spool->append(frame("good")).ok());
  }
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char bogus[kFrameHeaderBytes] = {'\x7f'};  // invalid frame type
  std::fwrite(bogus, 1, sizeof(bogus), f);
  std::fclose(f);

  auto spool = SpoolFile::open(path_);
  ASSERT_TRUE(spool.has_value());
  EXPECT_EQ(spool->pending(), 1u);
  const auto first = spool->peek();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload, "good");
  ASSERT_TRUE(spool->advance().ok());
  EXPECT_FALSE(spool->peek().has_value());
  EXPECT_EQ(spool->pending(), 0u);
}

TEST_F(SpoolFileFixture, PeekOnEmptySpool) {
  auto spool = SpoolFile::open(path_);
  ASSERT_TRUE(spool.has_value());
  EXPECT_FALSE(spool->peek().has_value());
  EXPECT_EQ(spool->pending(), 0u);
}

TEST(WireTest, FrameTypeNames) {
  EXPECT_STREQ(to_string(FrameType::kHello), "hello");
  EXPECT_STREQ(to_string(FrameType::kExit), "exit");
  EXPECT_TRUE(is_valid_frame_type(0));
  EXPECT_TRUE(is_valid_frame_type(5));
  EXPECT_FALSE(is_valid_frame_type(6));
}

}  // namespace
}  // namespace cg::interpose

// Wire protocol between a real Console Agent and Console Shadow: length-
// prefixed frames over a byte stream.
//
//   [u8 type][u32 rank (big-endian)][u32 length (big-endian)][payload]
//
// kHello announces an agent (rank in header, empty payload); kStdin flows
// shadow -> agent; kStdout/kStderr flow agent -> shadow; kEof marks a closed
// stream; kExit carries the child's wait status as a decimal string.
//
// The hot path is zero-copy in both directions: encode_frame_header writes
// the 9 header bytes into caller scratch so the payload can be sent from
// wherever it already lives, and the decoder's begin/next_view/end session
// yields FrameViews that borrow the receive buffer — only frames that
// straddle a read boundary copy (and only the bytes they still need).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cg::interpose {

enum class FrameType : std::uint8_t {
  kHello = 0,
  kStdin = 1,
  kStdout = 2,
  kStderr = 3,
  kEof = 4,
  kExit = 5,
};

[[nodiscard]] const char* to_string(FrameType type);
[[nodiscard]] bool is_valid_frame_type(std::uint8_t raw);

/// An owned frame (what the disk spool hands back).
struct Frame {
  FrameType type = FrameType::kStdout;
  std::uint32_t rank = 0;
  std::string payload;

  [[nodiscard]] bool operator==(const Frame&) const = default;
};

/// A decoded frame whose payload borrows the decoder's current input; valid
/// until the next decoder call.
struct FrameView {
  FrameType type = FrameType::kStdout;
  std::uint32_t rank = 0;
  std::string_view payload;
};

/// Fixed header size on the wire.
inline constexpr std::size_t kFrameHeaderBytes = 1 + 4 + 4;
/// Upper bound on a frame payload (sanity check against stream corruption).
inline constexpr std::size_t kMaxFramePayload = 16u << 20;

/// Writes the 9-byte header into `out` (caller scratch of at least
/// kFrameHeaderBytes); the payload itself is transmitted from wherever it
/// already lives. Throws std::invalid_argument on an oversized payload.
void encode_frame_header(char* out, FrameType type, std::uint32_t rank,
                         std::size_t payload_size);

/// Appends one encoded frame to `out` (clears it first, reusing capacity —
/// the replay path encodes many frames through one scratch string).
void encode_frame_into(std::string& out, FrameType type, std::uint32_t rank,
                       std::string_view payload);

struct FrameHeader {
  FrameType type = FrameType::kStdout;
  std::uint32_t rank = 0;
  std::uint32_t length = 0;  ///< payload bytes that follow the header
};

/// Reads the 9-byte header at `in` (at least kFrameHeaderBytes). Throws
/// std::runtime_error on a bad type byte or an implausible length.
[[nodiscard]] FrameHeader decode_frame_header(const char* in);

/// Incremental decoder, driven by zero-copy sessions: begin(span) →
/// next_view() until nullopt → end(). Frames wholly inside the span are
/// yielded as borrowed views; a frame that straddles session boundaries is
/// completed in the internal stash, copying only the bytes it needs. end()
/// stashes the unconsumed tail.
///
/// Throws std::runtime_error on a corrupt header (bad type byte or
/// implausible length), from whichever call first sees the full header.
class FrameDecoder {
public:
  /// Starts a decode session over a borrowed span. The span must stay valid
  /// until end(); any previous session must have been ended.
  void begin(const char* data, std::size_t size);
  void begin(std::string_view data) { begin(data.data(), data.size()); }

  /// Next complete frame, or nullopt when the remaining bytes are partial.
  /// The view borrows the session span (or the stash) until the next call.
  [[nodiscard]] std::optional<FrameView> next_view();

  /// Ends the session: the unconsumed tail of the span is copied into the
  /// stash so the next session can complete the straddling frame.
  void end();

  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

private:
  /// Moves up to `need` unread session bytes into the stash.
  void stash_from_session(std::size_t need);
  void compact();

  std::string buffer_;        ///< stash: bytes owned by the decoder
  std::size_t consumed_ = 0;  ///< consumed prefix of the stash
  const char* ext_ = nullptr;  ///< borrowed span of the active session
  std::size_t ext_size_ = 0;
  std::size_t ext_pos_ = 0;
};

}  // namespace cg::interpose

#include "interpose/wire.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace cg::interpose {

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kStdin: return "stdin";
    case FrameType::kStdout: return "stdout";
    case FrameType::kStderr: return "stderr";
    case FrameType::kEof: return "eof";
    case FrameType::kExit: return "exit";
  }
  return "?";
}

bool is_valid_frame_type(std::uint8_t raw) {
  return raw <= static_cast<std::uint8_t>(FrameType::kExit);
}

namespace {

void put_u32(char* out, std::uint32_t v) {
  out[0] = static_cast<char>((v >> 24) & 0xff);
  out[1] = static_cast<char>((v >> 16) & 0xff);
  out[2] = static_cast<char>((v >> 8) & 0xff);
  out[3] = static_cast<char>(v & 0xff);
}

std::uint32_t get_u32(const char* p) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]));
}

}  // namespace

void encode_frame_header(char* out, FrameType type, std::uint32_t rank,
                         std::size_t payload_size) {
  if (payload_size > kMaxFramePayload) {
    throw std::invalid_argument{"frame payload too large"};
  }
  out[0] = static_cast<char>(type);
  put_u32(out + 1, rank);
  put_u32(out + 5, static_cast<std::uint32_t>(payload_size));
}

void encode_frame_into(std::string& out, FrameType type, std::uint32_t rank,
                       std::string_view payload) {
  char header[kFrameHeaderBytes];
  encode_frame_header(header, type, rank, payload.size());
  out.clear();
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(header, kFrameHeaderBytes);
  out.append(payload);
}

FrameHeader decode_frame_header(const char* p) {
  const auto raw_type = static_cast<std::uint8_t>(p[0]);
  if (!is_valid_frame_type(raw_type)) {
    throw std::runtime_error{"FrameDecoder: corrupt frame type " +
                             std::to_string(raw_type)};
  }
  const std::uint32_t rank = get_u32(p + 1);
  const std::uint32_t length = get_u32(p + 5);
  if (length > kMaxFramePayload) {
    throw std::runtime_error{"FrameDecoder: implausible frame length"};
  }
  return FrameHeader{static_cast<FrameType>(raw_type), rank, length};
}

void FrameDecoder::begin(const char* data, std::size_t size) {
  assert(ext_ == nullptr && "FrameDecoder: previous session not ended");
  ext_ = data;
  ext_size_ = size;
  ext_pos_ = 0;
}

void FrameDecoder::stash_from_session(std::size_t need) {
  const std::size_t take = std::min(need, ext_size_ - ext_pos_);
  if (take > 0) {
    buffer_.append(ext_ + ext_pos_, take);
    ext_pos_ += take;
  }
}

std::optional<FrameView> FrameDecoder::next_view() {
  std::size_t stashed = buffer_.size() - consumed_;
  if (stashed == 0) {
    // Fast path: parse directly out of the borrowed span, zero copies.
    const std::size_t available = ext_size_ - ext_pos_;
    if (available < kFrameHeaderBytes) return std::nullopt;
    const char* p = ext_ + ext_pos_;
    const FrameHeader header = decode_frame_header(p);
    if (available < kFrameHeaderBytes + header.length) return std::nullopt;
    ext_pos_ += kFrameHeaderBytes + header.length;
    return FrameView{header.type, header.rank,
                     std::string_view{p + kFrameHeaderBytes, header.length}};
  }
  // A frame starts in the stash (it straddles a session boundary): top up
  // the stash with exactly the bytes the frame still needs.
  if (stashed < kFrameHeaderBytes) {
    stash_from_session(kFrameHeaderBytes - stashed);
    stashed = buffer_.size() - consumed_;
    if (stashed < kFrameHeaderBytes) return std::nullopt;
  }
  const FrameHeader header = decode_frame_header(buffer_.data() + consumed_);
  const std::size_t frame_size = kFrameHeaderBytes + header.length;
  if (stashed < frame_size) {
    stash_from_session(frame_size - stashed);
    stashed = buffer_.size() - consumed_;
    if (stashed < frame_size) return std::nullopt;
  }
  const char* p = buffer_.data() + consumed_;
  consumed_ += frame_size;
  return FrameView{header.type, header.rank,
                   std::string_view{p + kFrameHeaderBytes, header.length}};
}

void FrameDecoder::end() {
  if (ext_ != nullptr && ext_pos_ < ext_size_) {
    if (consumed_ == buffer_.size() && consumed_ > 0) {
      buffer_.clear();
      consumed_ = 0;
    }
    buffer_.append(ext_ + ext_pos_, ext_size_ - ext_pos_);
  }
  ext_ = nullptr;
  ext_size_ = 0;
  ext_pos_ = 0;
  compact();
}

void FrameDecoder::compact() {
  // Reclaim consumed space once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

}  // namespace cg::interpose

#include "interpose/spool_file.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace cg::interpose {

namespace {

std::string cursor_path(const std::string& path) {
  return path + ".cursor";
}

long load_cursor(const std::string& path) {
  std::FILE* f = std::fopen(cursor_path(path).c_str(), "rb");
  if (f == nullptr) return 0;
  long value = 0;
  if (std::fscanf(f, "%ld", &value) != 1 || value < 0) value = 0;
  std::fclose(f);
  return value;
}

}  // namespace

Expected<SpoolFile> SpoolFile::open(std::string path) {
  // "a+b": reads anywhere, writes always append.
  std::FILE* file = std::fopen(path.c_str(), "a+b");
  if (file == nullptr) {
    return make_error("spool.open", path + ": " + std::strerror(errno));
  }
  const long cursor = load_cursor(path);
  return SpoolFile{std::move(path), file, cursor};
}

SpoolFile::SpoolFile(std::string path, std::FILE* file, long cursor)
    : path_{std::move(path)}, file_{file}, cursor_{cursor} {}

SpoolFile::SpoolFile(SpoolFile&& other) noexcept {
  const std::lock_guard lock{other.mutex_};
  path_ = std::move(other.path_);
  file_ = other.file_;
  cursor_ = other.cursor_;
  last_peek_size_ = other.last_peek_size_;
  fail_appends_ = other.fail_appends_;
  other.file_ = nullptr;
}

SpoolFile& SpoolFile::operator=(SpoolFile&& other) noexcept {
  if (this != &other) {
    close();
    const std::lock_guard lock{other.mutex_};
    path_ = std::move(other.path_);
    file_ = other.file_;
    cursor_ = other.cursor_;
    last_peek_size_ = other.last_peek_size_;
    fail_appends_ = other.fail_appends_;
    other.file_ = nullptr;
  }
  return *this;
}

SpoolFile::~SpoolFile() {
  close();
}

void SpoolFile::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status SpoolFile::append(FrameType type, std::uint32_t rank,
                         std::string_view payload) {
  const std::lock_guard lock{mutex_};
  if (file_ == nullptr) return make_error("spool.append", "spool closed");
  if (fail_appends_) {
    return make_error("spool.append", "injected I/O failure");
  }
  char header[kFrameHeaderBytes];
  encode_frame_header(header, type, rank, payload.size());
  if (std::fwrite(header, 1, sizeof(header), file_) != sizeof(header)) {
    return make_error("spool.append", std::strerror(errno));
  }
  if (!payload.empty() &&
      std::fwrite(payload.data(), 1, payload.size(), file_) != payload.size()) {
    return make_error("spool.append", std::strerror(errno));
  }
  if (std::fflush(file_) != 0) {
    return make_error("spool.append", std::strerror(errno));
  }
  return Status::ok_status();
}

std::optional<Frame> SpoolFile::peek() {
  const std::lock_guard lock{mutex_};
  if (file_ == nullptr) return std::nullopt;
  std::fflush(file_);
  if (std::fseek(file_, cursor_, SEEK_SET) != 0) return std::nullopt;

  // The header sizes the read; the whole frame is then decoded in one
  // session, as the socket path decodes it. A short or corrupt frame reads
  // as a drained spool.
  std::optional<Frame> frame;
  std::string bytes(kFrameHeaderBytes, '\0');
  try {
    if (std::fread(bytes.data(), 1, kFrameHeaderBytes, file_) ==
        kFrameHeaderBytes) {
      const std::size_t length = decode_frame_header(bytes.data()).length;
      bytes.resize(kFrameHeaderBytes + length);
      if (std::fread(bytes.data() + kFrameHeaderBytes, 1, length, file_) ==
          length) {
        FrameDecoder decoder;
        decoder.begin(bytes);
        if (const auto view = decoder.next_view()) {
          frame = Frame{view->type, view->rank, std::string{view->payload}};
        }
        decoder.end();
      }
    }
  } catch (const std::runtime_error&) {
  }
  std::fseek(file_, 0, SEEK_END);
  if (frame) last_peek_size_ = static_cast<long>(bytes.size());
  return frame;
}

Status SpoolFile::advance() {
  const std::lock_guard lock{mutex_};
  if (last_peek_size_ <= 0) {
    return make_error("spool.advance", "advance without a successful peek");
  }
  cursor_ += last_peek_size_;
  last_peek_size_ = 0;
  persist_cursor();
  return Status::ok_status();
}

void SpoolFile::set_fail_appends(bool fail) {
  const std::lock_guard lock{mutex_};
  fail_appends_ = fail;
}

std::size_t SpoolFile::pending() const {
  std::size_t count = 0;
  long saved_cursor;
  {
    const std::lock_guard lock{mutex_};
    saved_cursor = cursor_;
  }
  // Walk the file from the cursor, counting frames.
  long walk = saved_cursor;
  while (true) {
    const std::lock_guard lock{mutex_};
    if (file_ == nullptr) break;
    std::fflush(file_);
    if (std::fseek(file_, walk, SEEK_SET) != 0) break;
    char header[kFrameHeaderBytes];
    const bool whole =
        std::fread(header, 1, sizeof(header), file_) == sizeof(header);
    std::fseek(file_, 0, SEEK_END);
    if (!whole) break;
    try {
      walk += static_cast<long>(kFrameHeaderBytes +
                                decode_frame_header(header).length);
    } catch (const std::runtime_error&) {
      break;  // a corrupt header ends the spool, as peek() reads it
    }
    ++count;
  }
  return count;
}

void SpoolFile::persist_cursor() {
  std::FILE* f = std::fopen(cursor_path(path_).c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "%ld", cursor_);
  std::fclose(f);
}

void SpoolFile::remove_files() {
  const std::lock_guard lock{mutex_};
  close();
  std::remove(path_.c_str());
  std::remove(cursor_path(path_).c_str());
}

}  // namespace cg::interpose

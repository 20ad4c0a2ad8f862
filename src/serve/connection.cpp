#include "serve/connection.h"

#include <cstring>

namespace hobbit::serve {

void LineFramer::Append(std::string_view bytes) {
  if (poisoned_) return;  // hostile stream: drop everything after the error
  // Compact once the consumed prefix dominates, so long sessions do not
  // grow the buffer without bound and per-line extraction stays O(1)
  // amortized.
  if (consumed_ > 4096 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
}

LineFramer::Status LineFramer::Next(std::string* line) {
  if (poisoned_) return poison_status_;
  const char* base = buffer_.data() + consumed_;
  const std::size_t available = buffer_.size() - consumed_;
  const void* nl = std::memchr(base, '\n', available);
  if (nl == nullptr) {
    if (available > max_line_bytes_) {
      poisoned_ = true;
      poison_status_ = Status::kTooLong;
      return Status::kTooLong;
    }
    return Status::kNeedMore;
  }
  std::size_t length = static_cast<std::size_t>(
      static_cast<const char*>(nl) - base);
  std::size_t content = length;
  if (content > 0 && base[content - 1] == '\r') --content;  // CRLF
  if (content > max_line_bytes_) {
    poisoned_ = true;
    poison_status_ = Status::kTooLong;
    return Status::kTooLong;
  }
  if (std::memchr(base, '\0', length) != nullptr) {
    poisoned_ = true;
    poison_status_ = Status::kBadByte;
    return Status::kBadByte;
  }
  line->assign(base, content);
  consumed_ += length + 1;
  return Status::kLine;
}

bool Connection::Ingest(std::string_view bytes) {
  if (done_) return false;
  framer_.Append(bytes);
  std::string line;
  for (;;) {
    switch (framer_.Next(&line)) {
      case LineFramer::Status::kLine:
        HandleLine(line);
        if (done_) return false;
        break;
      case LineFramer::Status::kNeedMore:
        return true;
      case LineFramer::Status::kTooLong:
        ProtocolError("line too long");
        return false;
      case LineFramer::Status::kBadByte:
        ProtocolError("NUL byte in input");
        return false;
    }
  }
}

void Connection::OnEof() {
  if (done_) return;
  if (batch_pending_ > 0) {
    // The peer hung up mid-batch: the short query list makes the service
    // report the truncation, so the client (if still reading) learns why.
    Dispatch(batch_header_, batch_lines_);
  }
  done_ = true;
}

void Connection::Consume(std::size_t n) {
  out_pos_ += n;
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  } else if (out_pos_ > (1u << 20) && out_pos_ * 2 >= out_.size()) {
    out_.erase(0, out_pos_);
    out_pos_ = 0;
  }
  RecomputePause();
}

void Connection::HandleLine(std::string_view line) {
  if (batch_pending_ > 0) {
    batch_lines_.append(line);
    batch_lines_.push_back('\n');
    if (batch_lines_.size() > limits_.max_batch_bytes) {
      ProtocolError("batch payload too large");
      return;
    }
    if (--batch_pending_ == 0) {
      Dispatch(batch_header_, batch_lines_);
      batch_header_.clear();
      batch_lines_.clear();
    }
    return;
  }
  if (line.empty() || line[0] == '#') return;  // blank lines and comments
  if (std::size_t count = BatchLinesAfter(line); count > 0) {
    // Hold the command until its n query lines have arrived; they may
    // span any number of reads (pipelining).
    batch_header_.assign(line);
    batch_pending_ = count;
    return;
  }
  Dispatch(line, {});
}

void Connection::Dispatch(std::string_view command_line,
                          std::string_view batch_lines) {
  ++commands_;
  if (!service_->Execute(command_line, batch_lines, &out_)) {
    done_ = true;  // QUIT: BYE is already buffered, close after flush
  }
  RecomputePause();
}

void Connection::ProtocolError(std::string_view reason) {
  out_.append("ERR protocol: ");
  out_.append(reason);
  out_.push_back('\n');
  done_ = true;
  protocol_error_ = true;
}

void Connection::RecomputePause() {
  const std::size_t pending_bytes = out_.size() - out_pos_;
  if (paused_) {
    if (pending_bytes < limits_.write_buffer_resume) paused_ = false;
  } else {
    if (pending_bytes > limits_.write_buffer_cap) paused_ = true;
  }
}

}  // namespace hobbit::serve

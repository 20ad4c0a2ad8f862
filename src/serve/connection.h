// connection.h — per-connection protocol state for the line protocol.
//
// The reactor (reactor.h) owns sockets and readiness; everything that can
// be reasoned about without a socket lives here, so the framing and the
// pipelined-command driver are plain functions of byte sequences — unit
// tested with strings and fuzzed with random byte streams, no loopback
// required.  hobbit_serve's stdio mode feeds stdin through a Connection
// too (LineService::Run), so both transports share every rule below.
//
// Two layers, composed bottom-up:
//
//  * `LineFramer` — splits an arbitrary byte stream into protocol lines.
//    Lines end in '\n' (an optional preceding '\r' is stripped, so CRLF
//    clients work); a line longer than `max_line_bytes` or containing a
//    NUL byte is a protocol violation that *poisons* the framer — once
//    hostile bytes have been seen there is no way to know where the next
//    line boundary was meant to be, so the only safe answer is to stop
//    parsing and hang up.  A partial line at EOF is dropped.
//  * `Connection` — the protocol driver: skips blank and '#' lines, holds
//    back a pipelined `BATCH n` command until its n query lines have
//    arrived (they may trickle in over any number of reads), has
//    `LineService::Execute` append each reply straight into the write
//    buffer, and exposes the backpressure state the reactor acts on:
//    when the write buffer exceeds `write_buffer_cap` the connection
//    reports `paused()` and the reactor stops reading from the socket
//    until the peer drains it below `write_buffer_resume`.
//
// Ownership: Connection borrows the LineService (and through it the
// SnapshotStore / metrics / thread pool); it owns only its buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/service.h"

namespace hobbit::serve {

/// Protocol-level limits shared by every connection of a reactor.
struct ConnectionLimits {
  /// Longest accepted protocol line, terminator excluded.
  std::size_t max_line_bytes = 1u << 16;
  /// Backpressure high-water mark: when the pending write buffer
  /// exceeds this, the connection pauses reading.
  std::size_t write_buffer_cap = 4u << 20;
  /// Backpressure low-water mark: reading resumes once the pending
  /// write buffer drains below this.
  std::size_t write_buffer_resume = 1u << 20;
  /// Largest total query payload a single BATCH may accumulate while
  /// its lines trickle in (bounds in-buffer growth; kMaxBatch bounds the
  /// line count, this bounds the bytes).
  std::size_t max_batch_bytes = 16u << 20;
};

/// Splits a byte stream into lines.  See the file comment for the exact
/// grammar; errors are sticky.
class LineFramer {
 public:
  enum class Status {
    kLine,      ///< *line holds the next complete line
    kNeedMore,  ///< no complete line buffered yet
    kTooLong,   ///< line exceeded max_line_bytes (sticky)
    kBadByte,   ///< NUL byte inside a line (sticky)
  };

  explicit LineFramer(std::size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Appends raw bytes from the wire.
  void Append(std::string_view bytes);

  /// Extracts the next complete line into *line (terminator stripped).
  Status Next(std::string* line);

  /// Bytes buffered but not yet returned as lines.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  bool poisoned() const { return poisoned_; }

 private:
  std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t consumed_ = 0;  ///< prefix of buffer_ already returned
  bool poisoned_ = false;
  Status poison_status_ = Status::kNeedMore;  ///< sticky error, once set
};

/// One client conversation: framing + pipelined command dispatch + write
/// buffering.  Transport-free; the reactor (or a test) moves the bytes.
class Connection {
 public:
  Connection(LineService* service, const ConnectionLimits& limits)
      : service_(service), limits_(limits), framer_(limits.max_line_bytes) {}

  /// Feeds bytes read from the wire, dispatching every command that
  /// completes.  Returns false once the connection should accept no more
  /// input — protocol violation, QUIT, or a batch overflow; the caller
  /// should flush the remaining output and then close.
  bool Ingest(std::string_view bytes);

  /// Peer half-closed its sending side: no further input will arrive.
  /// An unfinished pipelined BATCH gets its truncation error emitted.
  void OnEof();

  /// Pending reply bytes, starting at the unwritten position.
  std::string_view pending() const {
    return std::string_view(out_).substr(out_pos_);
  }
  /// Marks `n` pending bytes as written to the wire.
  void Consume(std::size_t n);

  /// True when the write buffer exceeds the cap — the reactor must stop
  /// reading until drained (hysteresis via write_buffer_resume).
  bool paused() const { return paused_; }

  /// True when the conversation is over (QUIT / error / EOF): flush
  /// `pending()` and close.
  bool done() const { return done_; }

  /// True when the session ended because of a protocol violation
  /// (oversized line, NUL byte, batch overflow) rather than QUIT/EOF.
  bool protocol_error() const { return protocol_error_; }

  std::uint64_t commands() const { return commands_; }

 private:
  /// Routes one complete line (skips blanks/comments, manages the
  /// batch-collection state machine, dispatches to the service).
  void HandleLine(std::string_view line);
  void Dispatch(std::string_view command_line, std::string_view batch_lines);
  void ProtocolError(std::string_view reason);
  void RecomputePause();

  LineService* service_;
  ConnectionLimits limits_;
  LineFramer framer_;

  // Pipelined-BATCH collection state: after "BATCH n" arrives, the next
  // n lines are queries, gathered here before the command dispatches as
  // one unit.
  std::string batch_header_;
  std::string batch_lines_;
  std::size_t batch_pending_ = 0;

  std::string out_;
  std::size_t out_pos_ = 0;
  bool paused_ = false;
  bool done_ = false;
  bool protocol_error_ = false;
  std::uint64_t commands_ = 0;
};

}  // namespace hobbit::serve

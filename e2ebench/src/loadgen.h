// loadgen.h — open-loop load over loopback, with every reply checked.
//
// One generator thread drives a fixed set of TCP connections.  Request i of
// a window is due at start + i / rate whatever the server is doing, and
// its latency runs from that due time to the arrival of its last reply
// byte, so a stall is charged to every request that was due during it.
// RELOAD commands go out on a connection of their own, alternating between
// two snapshot files.
//
// Checking: every reply is compared with the reply an in-process
// LookupEngine gives on a snapshot that may be in force.  After k RELOAD
// OKs the second file is in force when k is odd.  A request sent after the
// k-th OK must see a generation >= k; one whose reply arrived before the
// (k+1)-th RELOAD was sent must see a generation <= k.  A refused,
// truncated, wrong or late-past-the-window reply counts as failed.
#pragma once

#include <pthread.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "census.h"

namespace e2ebench {

enum class Traffic { kLookup, kBatch };

struct ReloadTarget {
  std::string path;
  std::uint64_t epoch = 0;
};

struct LoadgenOptions {
  Traffic traffic = Traffic::kLookup;
  int batch = 64;        ///< queries per BATCH command
  int connections = 4;   ///< query connections (RELOAD adds one more)
  /// Test hook: corrupt the reply with this ordinal before checking it.
  std::int64_t corrupt_reply = -1;
};

struct WindowSpec {
  double rate = 0.0;             ///< commands per second
  double seconds = 0.0;          ///< schedule length
  /// Length of the sub-windows whose quantiles are reduced to their
  /// median; 0 makes the whole window one sub-window.
  double window_ms = 0.0;
  double reload_period_s = 0.0;  ///< 0: no RELOAD in this window
  double grace_s = 5.0;          ///< how long to wait for late replies
};

struct WindowResult {
  std::uint64_t attempted = 0;  ///< commands sent, RELOADs included
  std::uint64_t failed = 0;
  double p50_us = 0.0;          ///< 10th percentile of the sub-windows' p50s
  double p99_us = 0.0;          ///< median over the sub-windows' p99s
  double p99_quiet_us = 0.0;    ///< 10th percentile of the sub-windows' p99s
  double p99_whole_us = 0.0;    ///< p99 over the whole window
  double late_p99_us = 0.0;     ///< how late the generator sent, p99 (as p99_us)
  std::size_t backlog_at_end = 0;  ///< unanswered when the last was due
  double reactor_busy = 0.0;    ///< reactor-thread CPU / window wall
  double wall_s = 0.0;
  std::vector<double> reload_s;         ///< RELOAD round trips
  std::vector<double> reload_stall_ms;  ///< worst latency due in each
};

class LoadGenerator {
 public:
  /// `expected[f]` holds the replies for file f (f = 0 is served first);
  /// `reloads` are the two files a RELOAD alternates between (may be empty
  /// when no window reloads).  Borrows the tape and expectations.
  LoadGenerator(std::uint16_t port, pthread_t reactor_thread,
                const QueryTape* tape, const ExpectedReplies* expected0,
                const ExpectedReplies* expected1,
                std::vector<ReloadTarget> reloads, LoadgenOptions options);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  bool Connect(std::string* error);
  WindowResult Run(const WindowSpec& spec);

 private:
  enum class Kind : std::uint8_t { kQuery, kReload };
  struct Pending {
    std::int64_t due_ns = 0;
    std::uint32_t ordinal = 0;      ///< index within the window
    std::uint32_t tape_index = 0;
    std::uint32_t oks_at_send = 0;
    Kind kind = Kind::kQuery;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_sent = 0;
    std::string in;
    std::size_t in_scan = 0;   ///< bytes of `in` already scanned
    int lines_seen = 0;        ///< newlines seen toward the front reply
    std::deque<Pending> pending;
  };

  void Enqueue(Conn* conn, const Pending& pending);
  bool Flush(Conn* conn);
  /// Reads what is available and completes replies; false on EOF/error.
  bool Drain(Conn* conn, std::int64_t now, WindowResult* result,
             std::vector<float>* latency_us);
  bool CheckQuery(const Pending& pending, std::string_view reply) const;
  int LinesPerReply(Kind kind) const {
    return kind == Kind::kReload || options_.traffic == Traffic::kLookup
               ? 1
               : options_.batch + 1;
  }

  std::uint16_t port_;
  pthread_t reactor_thread_;
  const QueryTape* tape_;
  const ExpectedReplies* expected_[2];
  std::vector<ReloadTarget> reloads_;
  LoadgenOptions options_;
  /// epoll token of the timer; connections use their index.
  static constexpr std::uint64_t kTimerToken = ~std::uint64_t{0};
  /// A wait shorter than this spins instead of arming the timer.
  static constexpr std::int64_t kSpinNs = 20'000;

  std::vector<Conn> conns_;  ///< query connections, then the RELOAD one
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::size_t cursor_ = 0;          ///< next tape index
  std::uint32_t oks_ = 0;           ///< RELOAD OKs received so far
  std::int64_t replies_seen_ = 0;
  std::int64_t reload_sent_ns_ = 0;
  bool reload_in_flight_ = false;
  std::vector<std::pair<std::int64_t, std::int64_t>> reload_windows_;
  std::string scratch_;
};

}  // namespace e2ebench

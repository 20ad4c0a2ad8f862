// reactor.h — the event-driven multi-client serving front-end.
//
// One thread, one readiness loop, many concurrent LineService
// conversations.  The reactor owns the listening socket and every client
// fd; per-connection protocol state (framing, pipelined-BATCH collection,
// the write buffer and its backpressure marks) lives in serve::Connection
// so it stays unit-testable without sockets.  The division of labour:
//
//   reactor  — readiness (epoll, so the server needs Linux), accept,
//              read()/write() with EINTR/EAGAIN discipline,
//              interest updates, idle/slow-client deadlines, graceful
//              shutdown draining.
//   connection — bytes -> lines -> commands -> reply bytes.
//   service  — command semantics (LOOKUP/BATCH/RELOAD/STATS/QUIT) over
//              the RCU SnapshotStore; BATCH shards over the thread pool.
//
// Commands execute on the reactor thread; a RELOAD therefore briefly
// pauses event handling while the replacement snapshot is validated off
// to the side, but in-flight lookups on other *processes* of the store
// (and every connection's already-buffered replies) are untouched — the
// store's RCU swap keeps readers lock-free and a failed reload leaves
// the serving snapshot as it was.
//
// Backpressure: when a connection's pending write buffer exceeds its cap
// the reactor drops read interest for that fd — the kernel's receive
// buffer then fills and the peer's sends stall, which is exactly the
// flow-control signal a pipelining client needs.  Reading resumes once
// the buffer drains below the resume mark.
//
// Timeouts: every connection carries one deadline, refreshed by read or
// write *progress*.  A connection that is idle (nothing to say) or
// stuck (peer not draining its replies) past `idle_timeout` is evicted.
// The loop's wait timeout is the nearest deadline, so timers cost one
// O(connections) scan per wakeup and no extra data structure.
//
// Shutdown: Stop() (thread- and signal-safe: an atomic flag plus one
// write to a self-pipe) stops accepting and reading, then drains every
// pending write buffer for at most `drain_timeout` before closing — a
// client that already sent QUIT still gets its BYE.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/connection.h"
#include "serve/service.h"

namespace hobbit::serve {

struct ReactorOptions {
  /// IPv4 address to bind (Listen() only).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 1024;
  ConnectionLimits limits;
  /// Evict a connection after this long without read or write progress;
  /// <= 0 disables.
  std::chrono::milliseconds idle_timeout{60000};
  /// Shutdown grace: how long Stop() keeps flushing pending replies.
  std::chrono::milliseconds drain_timeout{5000};
};

/// Loop counters.  Relaxed atomics: written by the reactor thread,
/// readable from anywhere (tests poll them while the loop runs).
struct ReactorStats {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> adopted{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> rejected_over_capacity{0};
  std::atomic<std::uint64_t> idle_closes{0};
  std::atomic<std::uint64_t> protocol_closes{0};
  std::atomic<std::uint64_t> backpressure_pauses{0};
  std::atomic<std::uint64_t> commands{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> open{0};  ///< currently open connections
};

class Reactor {
 public:
  /// Borrows store/metrics/pool (pool may be null: serial batches).
  Reactor(SnapshotStore* store, ServeMetrics* metrics,
          common::ThreadPool* pool, ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds and listens per the options.  False (with *error) on any
  /// socket failure — including environments with no loopback network,
  /// which callers surface as a skip, not a crash.
  bool Listen(std::string* error);

  /// Port actually bound (after Listen with port 0).
  std::uint16_t port() const { return port_; }

  /// Hands an already-connected socket (e.g. one end of a socketpair)
  /// to the reactor, which takes ownership and makes it non-blocking.
  /// Thread-safe; may be called before or while Run() is looping.
  bool Adopt(int fd, std::string* error = nullptr);

  /// Serves until Stop().  Returns 0 on a clean (drained) shutdown, 1
  /// when the drain deadline expired with replies still unsent.
  int Run();

  /// Requests shutdown; safe from other threads and signal handlers.
  void Stop();

  /// Number of currently open connections (approximate while running).
  std::size_t open_connections() const {
    return static_cast<std::size_t>(
        stats_.open.load(std::memory_order_relaxed));
  }

  const ReactorStats& stats() const { return stats_; }

  /// The shared protocol driver, e.g. to set RELOAD load options before
  /// Run().  Not safe to reconfigure while the loop is running.
  LineService* service() { return &service_; }

 private:
  struct Channel;
  class EpollPoller;

  void Wake();
  void AcceptReady(std::chrono::steady_clock::time_point now);
  void DrainAdopted(std::chrono::steady_clock::time_point now);
  void AddChannel(int fd, std::chrono::steady_clock::time_point now,
                  std::atomic<std::uint64_t>* counter);
  void HandleReadable(Channel* channel,
                      std::chrono::steady_clock::time_point now);
  void FlushWrites(Channel* channel,
                   std::chrono::steady_clock::time_point now);
  /// Re-registers interest from the channel's protocol state; marks
  /// channels that are done and drained as dead (reaped end-of-wave).
  void SyncChannel(Channel* channel);
  void BeginDrain(std::chrono::steady_clock::time_point now);
  void EvictExpired(std::chrono::steady_clock::time_point now);
  void ReapDead();
  void CloseAll();
  int NextTimeoutMs(std::chrono::steady_clock::time_point now) const;

  ReactorOptions options_;
  LineService service_;

  std::unique_ptr<EpollPoller> poller_;
  std::vector<char> read_scratch_;
  std::unordered_map<int, std::unique_ptr<Channel>> channels_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_{};

  std::mutex adopt_mutex_;
  std::vector<int> adopted_fds_;
  std::atomic<bool> adopt_pending_{false};

  ReactorStats stats_;
};

}  // namespace hobbit::serve

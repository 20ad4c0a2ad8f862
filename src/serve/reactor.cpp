#include "serve/reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace hobbit::serve {

namespace {

constexpr int kListenBacklog = 128;
/// Bytes read per read() call.
constexpr std::size_t kReadChunkBytes = 64u * 1024;
/// read() calls per readiness event, so one firehose connection cannot
/// starve the rest (level-triggered readiness re-fires).
constexpr int kReadsPerEvent = 4;

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

// ---------------------------------------------------------------------------
// Readiness: one level-triggered epoll set.  A fd with unread input or
// unwritten output space keeps firing, which lets the per-event read
// budget simply stop mid-stream and rely on the next wave.

class Reactor::EpollPoller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
  };

  EpollPoller() : epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)) {}
  ~EpollPoller() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }
  EpollPoller(const EpollPoller&) = delete;
  EpollPoller& operator=(const EpollPoller&) = delete;

  bool Add(int fd, bool read, bool write) {
    return Ctl(EPOLL_CTL_ADD, fd, read, write);
  }
  bool Update(int fd, bool read, bool write) {
    return Ctl(EPOLL_CTL_MOD, fd, read, write);
  }
  void Remove(int fd) {
    epoll_event unused{};
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &unused);
  }

  /// Fills *out; returns false only on an unrecoverable error (EINTR is
  /// an empty wave the loop retries).
  bool Wait(int timeout_ms, std::vector<Event>* out) {
    out->clear();
    epoll_event events[kMaxEvents];
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) return errno == EINTR;
    for (int i = 0; i < n; ++i) {
      Event event;
      event.fd = events[i].data.fd;
      // Errors and hangups surface as readability so the read path can
      // collect the real errno / EOF.
      event.readable =
          (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
      event.writable = (events[i].events & EPOLLOUT) != 0;
      out->push_back(event);
    }
    return true;
  }

 private:
  static constexpr int kMaxEvents = 128;

  bool Ctl(int op, int fd, bool read, bool write) {
    epoll_event event{};
    event.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    event.data.fd = fd;
    return ::epoll_ctl(epoll_fd_, op, fd, &event) == 0;
  }

  int epoll_fd_;
};

// ---------------------------------------------------------------------------

/// One socket + its protocol state + its registered interest.
struct Reactor::Channel {
  Channel(int fd, LineService* service, const ConnectionLimits& limits)
      : fd(fd), conn(service, limits) {}

  int fd;
  Connection conn;
  std::chrono::steady_clock::time_point deadline{};
  std::uint64_t counted_commands = 0;  ///< already added to stats
  bool registered_read = true;
  bool registered_write = false;
  bool saw_eof = false;
  bool io_error = false;
  bool dead = false;
};

Reactor::Reactor(SnapshotStore* store, ServeMetrics* metrics,
                 common::ThreadPool* pool, ReactorOptions options)
    : options_(std::move(options)),
      service_(store, metrics, pool),
      poller_(std::make_unique<EpollPoller>()),
      read_scratch_(kReadChunkBytes) {
  // The self-pipe lets Stop() (any thread, or a signal handler) wake a
  // blocked Wait with one write().
  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) == 0) {
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
    poller_->Add(wake_read_fd_, /*read=*/true, /*write=*/false);
  }
}

Reactor::~Reactor() {
  CloseAll();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  std::lock_guard<std::mutex> lock(adopt_mutex_);
  for (int fd : adopted_fds_) ::close(fd);
}

bool Reactor::Listen(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = Errno("socket");
    return false;
  }
  if (!SetNonBlocking(listen_fd_)) {
    if (error != nullptr) *error = Errno("fcntl");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &address.sin_addr) != 1) {
    if (error != nullptr) {
      *error = "bad bind address: " + options_.bind_address;
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    if (error != nullptr) *error = Errno("bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t length = sizeof(address);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) == 0) {
    port_ = ntohs(address.sin_port);
  }
  if (!poller_->Add(listen_fd_, /*read=*/true, /*write=*/false)) {
    if (error != nullptr) *error = Errno("epoll_ctl");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

bool Reactor::Adopt(int fd, std::string* error) {
  if (fd < 0) {
    if (error != nullptr) *error = "bad fd";
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(adopt_mutex_);
    adopted_fds_.push_back(fd);
  }
  adopt_pending_.store(true, std::memory_order_release);
  Wake();
  return true;
}

void Reactor::Stop() {
  stop_requested_.store(true, std::memory_order_release);
  Wake();
}

void Reactor::Wake() {
  // One byte down the self-pipe; write(2) is async-signal-safe, so a
  // signal handler may call Stop() directly.
  if (wake_write_fd_ >= 0) {
    char byte = 0;
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

int Reactor::Run() {
  std::vector<EpollPoller::Event> events;
  for (;;) {
    auto now = std::chrono::steady_clock::now();
    if (!poller_->Wait(NextTimeoutMs(now), &events)) return 2;
    now = std::chrono::steady_clock::now();

    bool accept_ready = false;
    for (const EpollPoller::Event& event : events) {
      if (event.fd == wake_read_fd_) {
        char sink[64];
        while (::read(wake_read_fd_, sink, sizeof(sink)) > 0) {
        }
        continue;
      }
      if (event.fd == listen_fd_) {
        accept_ready = true;
        continue;
      }
      auto it = channels_.find(event.fd);
      if (it == channels_.end()) continue;  // closed earlier this wave
      Channel* channel = it->second.get();
      if (event.readable) HandleReadable(channel, now);
      if (event.writable) FlushWrites(channel, now);
      SyncChannel(channel);
    }

    // New fds enter only after every channel event was handled, so a fd
    // number freed this wave cannot be confused with a fresh connection.
    if (accept_ready && !draining_) AcceptReady(now);
    if (adopt_pending_.load(std::memory_order_acquire)) DrainAdopted(now);
    if (stop_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain(now);
    }
    EvictExpired(now);
    ReapDead();
    if (draining_) {
      if (channels_.empty()) return 0;
      if (now >= drain_deadline_) {
        CloseAll();
        return 1;
      }
    }
  }
}

void Reactor::AcceptReady(std::chrono::steady_clock::time_point now) {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN/EWOULDBLOCK or a transient accept failure
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    AddChannel(fd, now, &stats_.accepted);
  }
}

void Reactor::DrainAdopted(std::chrono::steady_clock::time_point now) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(adopt_mutex_);
    fds.swap(adopted_fds_);
    adopt_pending_.store(false, std::memory_order_release);
  }
  for (int fd : fds) {
    if (draining_) {
      ::close(fd);
      continue;
    }
    AddChannel(fd, now, &stats_.adopted);
  }
}

void Reactor::AddChannel(int fd, std::chrono::steady_clock::time_point now,
                         std::atomic<std::uint64_t>* counter) {
  if (channels_.size() >= options_.max_connections || !SetNonBlocking(fd)) {
    ::close(fd);
    stats_.rejected_over_capacity.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto channel = std::make_unique<Channel>(fd, &service_, options_.limits);
  channel->deadline = now + options_.idle_timeout;
  if (!poller_->Add(fd, /*read=*/true, /*write=*/false)) {
    ::close(fd);
    stats_.rejected_over_capacity.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  counter->fetch_add(1, std::memory_order_relaxed);
  stats_.open.fetch_add(1, std::memory_order_relaxed);
  channels_.emplace(fd, std::move(channel));
}

void Reactor::HandleReadable(Channel* channel,
                             std::chrono::steady_clock::time_point now) {
  if (channel->dead || channel->saw_eof || channel->conn.done()) return;
  for (int round = 0; round < kReadsPerEvent; ++round) {
    ssize_t n =
        ::read(channel->fd, read_scratch_.data(), read_scratch_.size());
    if (n > 0) {
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      channel->deadline = now + options_.idle_timeout;
      bool more = channel->conn.Ingest(
          std::string_view(read_scratch_.data(),
                           static_cast<std::size_t>(n)));
      std::uint64_t total = channel->conn.commands();
      stats_.commands.fetch_add(total - channel->counted_commands,
                                std::memory_order_relaxed);
      channel->counted_commands = total;
      if (!more) {
        if (channel->conn.protocol_error()) {
          stats_.protocol_closes.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      if (channel->conn.paused()) {
        stats_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (static_cast<std::size_t>(n) < read_scratch_.size()) break;
    } else if (n == 0) {
      channel->saw_eof = true;
      channel->conn.OnEof();
      break;
    } else {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      channel->io_error = true;
      break;
    }
  }
  // Replies usually fit the socket buffer: try the cheap immediate
  // flush before asking the poller for writability.
  FlushWrites(channel, now);
}

void Reactor::FlushWrites(Channel* channel,
                          std::chrono::steady_clock::time_point now) {
  if (channel->dead || channel->io_error) return;
  for (;;) {
    std::string_view pending = channel->conn.pending();
    if (pending.empty()) return;
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE here instead of
    // killing the process, whatever the SIGPIPE disposition is.
    ssize_t n =
        ::send(channel->fd, pending.data(), pending.size(), MSG_NOSIGNAL);
    if (n > 0) {
      stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
      channel->deadline = now + options_.idle_timeout;
      channel->conn.Consume(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    channel->io_error = true;  // EPIPE/ECONNRESET: peer is gone
    return;
  }
}

void Reactor::SyncChannel(Channel* channel) {
  if (channel->dead) return;
  const bool drained = channel->conn.pending().empty();
  const bool finished =
      channel->conn.done() || channel->saw_eof || draining_;
  if (channel->io_error || (finished && drained)) {
    channel->dead = true;
    return;
  }
  const bool want_read =
      !finished && !channel->conn.paused() && !channel->saw_eof;
  const bool want_write = !drained;
  if (want_read != channel->registered_read ||
      want_write != channel->registered_write) {
    poller_->Update(channel->fd, want_read, want_write);
    channel->registered_read = want_read;
    channel->registered_write = want_write;
  }
}

void Reactor::BeginDrain(std::chrono::steady_clock::time_point now) {
  draining_ = true;
  drain_deadline_ = now + options_.drain_timeout;
  if (listen_fd_ >= 0) {
    poller_->Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [fd, channel] : channels_) {
    // No more input; finish writing what is already owed.
    ::shutdown(fd, SHUT_RD);
    SyncChannel(channel.get());
  }
}

void Reactor::EvictExpired(std::chrono::steady_clock::time_point now) {
  if (options_.idle_timeout.count() <= 0) return;
  for (auto& [fd, channel] : channels_) {
    if (!channel->dead && now >= channel->deadline) {
      stats_.idle_closes.fetch_add(1, std::memory_order_relaxed);
      channel->dead = true;
    }
  }
}

void Reactor::ReapDead() {
  for (auto it = channels_.begin(); it != channels_.end();) {
    if (it->second->dead) {
      poller_->Remove(it->first);
      ::close(it->first);
      stats_.closed.fetch_add(1, std::memory_order_relaxed);
      stats_.open.fetch_sub(1, std::memory_order_relaxed);
      it = channels_.erase(it);
    } else {
      ++it;
    }
  }
}

void Reactor::CloseAll() {
  for (auto& [fd, channel] : channels_) {
    poller_->Remove(fd);
    ::close(fd);
    stats_.closed.fetch_add(1, std::memory_order_relaxed);
    stats_.open.fetch_sub(1, std::memory_order_relaxed);
  }
  channels_.clear();
}

int Reactor::NextTimeoutMs(
    std::chrono::steady_clock::time_point now) const {
  std::chrono::steady_clock::time_point nearest{};
  bool have = false;
  if (options_.idle_timeout.count() > 0) {
    for (const auto& [fd, channel] : channels_) {
      if (!have || channel->deadline < nearest) {
        nearest = channel->deadline;
        have = true;
      }
    }
  }
  if (draining_ && (!have || drain_deadline_ < nearest)) {
    nearest = drain_deadline_;
    have = true;
  }
  if (!have) return -1;  // block until a fd fires or Stop() wakes us
  auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(
      nearest - now);
  if (delta.count() <= 0) return 0;
  // +1 rounds up so a deadline 0.4ms away does not busy-spin at 0ms.
  return static_cast<int>(std::min<long long>(delta.count() + 1, 60'000));
}

}  // namespace hobbit::serve

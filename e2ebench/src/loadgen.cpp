#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "util.h"

namespace e2ebench {

LoadGenerator::LoadGenerator(std::uint16_t port, pthread_t reactor_thread,
                             const QueryTape* tape,
                             const ExpectedReplies* expected0,
                             const ExpectedReplies* expected1,
                             std::vector<ReloadTarget> reloads,
                             LoadgenOptions options)
    : port_(port),
      reactor_thread_(reactor_thread),
      tape_(tape),
      expected_{expected0, expected1 != nullptr ? expected1 : expected0},
      reloads_(std::move(reloads)),
      options_(options) {}

LoadGenerator::~LoadGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool LoadGenerator::Connect(std::string* error) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    *error = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  // The generator sleeps until the next request is due or a reply comes
  // in; a 1 ns timer slack keeps those wake-ups on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) {
    *error = std::string("timerfd_create: ") + std::strerror(errno);
    return false;
  }
  epoll_event timer_event{};
  timer_event.events = EPOLLIN;
  timer_event.data.u64 = kTimerToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &timer_event);
  conns_.resize(static_cast<std::size_t>(options_.connections) + 1);
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    conns_[c].fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  }
  return true;
}

void LoadGenerator::Enqueue(Conn* conn, const Pending& pending) {
  if (pending.kind == Kind::kReload) {
    conn->out += "RELOAD " + reloads_[pending.tape_index].path + "\n";
  } else if (options_.traffic == Traffic::kLookup) {
    conn->out += "LOOKUP ";
    conn->out += tape_->text[pending.tape_index];
    conn->out += '\n';
  } else {
    conn->out += "BATCH " + std::to_string(options_.batch) + "\n";
    const std::size_t size = tape_->text.size();
    for (int j = 0; j < options_.batch; ++j) {
      conn->out += tape_->text[(pending.tape_index + static_cast<std::size_t>(j)) % size];
      conn->out += '\n';
    }
  }
  conn->pending.push_back(pending);
}

bool LoadGenerator::Flush(Conn* conn) {
  while (conn->out_sent < conn->out.size()) {
    const ssize_t sent =
        ::send(conn->fd, conn->out.data() + conn->out_sent,
               conn->out.size() - conn->out_sent, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (sent > 0) {
      conn->out_sent += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (conn->out_sent == conn->out.size()) {
    conn->out.clear();
    conn->out_sent = 0;
  } else if (conn->out_sent > (1u << 20)) {
    conn->out.erase(0, conn->out_sent);
    conn->out_sent = 0;
  }
  return true;
}

bool LoadGenerator::CheckQuery(const Pending& pending,
                               std::string_view reply) const {
  // Files that may have been in force while the server ran the command.
  const std::uint32_t low = pending.oks_at_send;
  const std::uint32_t high = oks_ + (reload_in_flight_ ? 1u : 0u);
  const int first = static_cast<int>(low % 2);
  const int files = high > low ? 2 : 1;
  const std::size_t tape_size = tape_->text.size();
  for (int k = 0; k < files; ++k) {
    const ExpectedReplies& expected = *expected_[(first + k) % 2];
    if (options_.traffic == Traffic::kLookup) {
      if (reply == expected.Line(pending.tape_index)) return true;
      continue;
    }
    std::string_view rest = reply;
    bool match = true;
    for (int j = 0; j < options_.batch && match; ++j) {
      const std::string_view line =
          expected.Line((pending.tape_index + static_cast<std::size_t>(j)) % tape_size);
      match = rest.substr(0, line.size()) == line;
      rest.remove_prefix(std::min(rest.size(), line.size()));
    }
    if (match && rest == "OK " + std::to_string(options_.batch) + "\n") return true;
  }
  return false;
}

bool LoadGenerator::Drain(Conn* conn, std::int64_t now, WindowResult* result,
                          std::vector<float>* latency_us) {
  char buffer[1 << 16];
  bool open = true;
  for (;;) {
    const ssize_t got = ::recv(conn->fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (got > 0) {
      conn->in.append(buffer, static_cast<std::size_t>(got));
      if (static_cast<std::size_t>(got) < sizeof(buffer)) break;
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    open = false;  // EOF or error: the server dropped us
    break;
  }
  std::size_t begin = 0;
  while (!conn->pending.empty()) {
    const Pending& front = conn->pending.front();
    const int need = LinesPerReply(front.kind);
    std::size_t end = std::string::npos;
    while (conn->in_scan < conn->in.size()) {
      const std::size_t nl = conn->in.find('\n', conn->in_scan);
      if (nl == std::string::npos) {
        conn->in_scan = conn->in.size();
        break;
      }
      conn->in_scan = nl + 1;
      ++conn->lines_seen;
      // An ERR answer is one line whatever the command was.
      if (conn->lines_seen == need ||
          (conn->lines_seen == 1 && conn->in.compare(begin, 4, "ERR ") == 0)) {
        end = nl + 1;
        break;
      }
    }
    if (end == std::string::npos) break;
    std::string_view reply(conn->in.data() + begin, end - begin);
    ++replies_seen_;
    if (replies_seen_ == options_.corrupt_reply) {
      scratch_.assign(reply);
      scratch_[0] = static_cast<char>(scratch_[0] ^ 0x20);
      reply = scratch_;
    }
    if (front.kind == Kind::kReload) {
      const std::string tail =
          " epoch=" + std::to_string(reloads_[front.tape_index].epoch) + "\n";
      const bool ok = reply.substr(0, 3) == "OK " && reply.size() > tail.size() &&
                      reply.substr(reply.size() - tail.size()) == tail;
      if (ok) {
        ++oks_;
        reload_windows_.emplace_back(reload_sent_ns_, now);
        result->reload_s.push_back(static_cast<double>(now - reload_sent_ns_) * 1e-9);
      } else {
        ++result->failed;
      }
      reload_in_flight_ = false;
    } else {
      if (!CheckQuery(front, reply)) ++result->failed;
      (*latency_us)[front.ordinal] =
          static_cast<float>(static_cast<double>(now - front.due_ns) * 1e-3);
    }
    conn->pending.pop_front();
    conn->lines_seen = 0;
    begin = end;
  }
  if (begin > 0) {
    conn->in.erase(0, begin);
    conn->in_scan -= begin;
  }
  return open;
}

WindowResult LoadGenerator::Run(const WindowSpec& spec) {
  WindowResult result;
  const std::size_t queries = conns_.size() - 1;
  Conn& reload_conn = conns_.back();
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(spec.rate * spec.seconds)));
  const double period_ns = 1e9 / spec.rate;
  const std::size_t step =
      options_.traffic == Traffic::kLookup ? 1 : static_cast<std::size_t>(options_.batch);
  std::vector<float> latency_us(n, -1.0f);
  std::vector<float> late_us(n, 0.0f);
  reload_windows_.clear();

  const double cpu0 = ThreadCpuSeconds(reactor_thread_);
  const std::int64_t start = NowNs() + 1'000'000;
  const std::int64_t reload_period =
      static_cast<std::int64_t>(spec.reload_period_s * 1e9);
  std::int64_t next_reload = reload_period > 0 && !reloads_.empty()
                                 ? start + reload_period
                                 : INT64_MAX;
  const std::int64_t deadline =
      start + static_cast<std::int64_t>((spec.seconds + spec.grace_s) * 1e9);
  std::size_t i = 0;
  bool backlog_taken = false;
  bool healthy = true;
  epoll_event events[16];
  for (;;) {
    const std::int64_t now = NowNs();
    while (i < n) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      if (due > now) break;
      Pending pending;
      pending.due_ns = due;
      pending.ordinal = static_cast<std::uint32_t>(i);
      pending.tape_index = static_cast<std::uint32_t>(cursor_);
      pending.oks_at_send = oks_;
      Enqueue(&conns_[i % queries], pending);
      late_us[i] = static_cast<float>(static_cast<double>(now - due) * 1e-3);
      cursor_ = (cursor_ + step) % tape_->text.size();
      ++i;
    }
    if (i == n && !backlog_taken) {
      for (std::size_t c = 0; c < queries; ++c) {
        result.backlog_at_end += conns_[c].pending.size();
      }
      backlog_taken = true;
    }
    if (i < n && !reload_in_flight_ && now >= next_reload) {
      Pending pending;
      pending.due_ns = now;
      pending.tape_index = (oks_ + 1) % 2;
      pending.kind = Kind::kReload;
      Enqueue(&reload_conn, pending);
      reload_in_flight_ = true;
      reload_sent_ns_ = now;
      ++result.attempted;
      next_reload += reload_period;
    }
    for (Conn& conn : conns_) {
      if (conn.out_sent < conn.out.size()) healthy = Flush(&conn) && healthy;
    }
    bool idle = i == n;
    for (const Conn& conn : conns_) idle = idle && conn.pending.empty();
    if (idle || !healthy || now > deadline) break;
    // Sleep until the next request or RELOAD is due (or the deadline),
    // unless that is too close to be worth a timer.
    std::int64_t wake = deadline;
    if (i < n) {
      wake = std::min(wake, start + static_cast<std::int64_t>(
                                        static_cast<double>(i) * period_ns));
      if (!reload_in_flight_) wake = std::min(wake, next_reload);
    }
    int timeout_ms = 0;
    if (wake - NowNs() > kSpinNs) {
      itimerspec spec_time{};
      spec_time.it_value.tv_sec = wake / 1'000'000'000;
      spec_time.it_value.tv_nsec = wake % 1'000'000'000;
      ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec_time, nullptr);
      timeout_ms = -1;
    }
    const int ready = ::epoll_wait(epoll_fd_, events, 16, timeout_ms);
    const std::int64_t received = NowNs();
    for (int e = 0; e < ready; ++e) {
      if (events[e].data.u64 == kTimerToken) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] ssize_t r = ::read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      healthy = Drain(&conns_[events[e].data.u64], received, &result,
                      &latency_us) && healthy;
    }
  }
  result.wall_s = SecondsSince(start);
  result.reactor_busy =
      (ThreadCpuSeconds(reactor_thread_) - cpu0) / std::max(1e-9, result.wall_s);
  result.attempted += i;
  // Whatever is still unanswered failed; the stream is out of step now.
  for (Conn& conn : conns_) {
    result.failed += conn.pending.size();
    conn.pending.clear();
  }
  result.failed += n - i;
  reload_in_flight_ = false;

  std::vector<float> answered;
  answered.reserve(n);
  for (float v : latency_us) {
    if (v >= 0.0f) answered.push_back(v);
  }
  result.p99_whole_us = Quantile(answered, 0.99);
  // Sub-windows by due time.  Reduced across sub-windows, their quantiles
  // read the server: a hypervisor preemption or a RELOAD that hits a
  // minority of them drops out, while overload or a slower path in every
  // sub-window does not.  The p50 takes the quietest tenth, because on a
  // shared VM busy spells of the host can cover most sub-windows for
  // minutes; the p99 takes the median, and for ladder steps also the
  // quietest tenth.
  const std::size_t windows = std::max<std::size_t>(
      1, spec.window_ms > 0.0 ? static_cast<std::size_t>(spec.seconds * 1e3 / spec.window_ms)
                              : 1);
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<double> window_late_p99;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<float> part;
    std::vector<float> late(late_us.begin() + static_cast<std::ptrdiff_t>(n * w / windows),
                            late_us.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows));
    for (std::size_t k = n * w / windows; k < n * (w + 1) / windows; ++k) {
      if (latency_us[k] >= 0.0f) part.push_back(latency_us[k]);
    }
    if (!part.empty()) {
      window_p50.push_back(Quantile(part, 0.50));
      window_p99.push_back(Quantile(part, 0.99));
    }
    if (!late.empty()) window_late_p99.push_back(Quantile(late, 0.99));
  }
  result.p50_us = Quantile(window_p50, 0.10);
  result.p99_us = Median(window_p99);
  result.p99_quiet_us = Quantile(window_p99, 0.10);
  result.late_p99_us = Median(window_late_p99);
  for (const auto& [sent, ok] : reload_windows_) {
    const auto first = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(sent - start) / period_ns));
    const auto last = static_cast<std::int64_t>(
        std::floor(static_cast<double>(ok - start) / period_ns));
    float worst = 0.0f;
    for (std::int64_t k = std::max<std::int64_t>(0, first);
         k <= std::min<std::int64_t>(static_cast<std::int64_t>(n) - 1, last); ++k) {
      worst = std::max(worst, latency_us[static_cast<std::size_t>(k)]);
    }
    result.reload_stall_ms.push_back(worst * 1e-3);
  }
  return result;
}

}  // namespace e2ebench

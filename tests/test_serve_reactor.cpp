// Reactor correctness over real sockets — built into the serve
// concurrency test binary (labels: serve + concurrency), so the
// tsan-serve preset runs all of it under ThreadSanitizer.
//
// Every test drives a live reactor thread through socketpair(2)
// connections (no network required; the one TCP test skips itself where
// loopback is unavailable).  Synchronization is deadline-based waiting
// on observable state (reactor stats, socket EOF), never a fixed sleep:
// a loaded CI machine makes the waits longer, not the answers different.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/reactor.h"
#include "serve/snapshot.h"
#include "test_util.h"

namespace hobbit::serve {
namespace {

using test::Addr;
using namespace std::chrono_literals;

// Same two-epoch fixture as test_serve_store.cpp: epoch 1 gives every
// 20.0.i.0/24 its own block i; epoch 2 keeps only even i, all in block 0.
std::vector<std::byte> EpochOne(int n) {
  std::vector<cluster::AggregateBlock> blocks;
  for (int i = 0; i < n; ++i) {
    cluster::AggregateBlock b;
    b.member_24s = {netsim::Prefix::Of(
        netsim::Ipv4Address(0x14000000u + 256u * static_cast<unsigned>(i)),
        24)};
    b.last_hops = {Addr("10.0.0.1")};
    blocks.push_back(std::move(b));
  }
  return CompileSnapshotV2(blocks, {}, 1);
}

std::vector<std::byte> EpochTwo(int n) {
  cluster::AggregateBlock big;
  big.last_hops = {Addr("10.0.0.2")};
  for (int i = 0; i < n; i += 2) {
    big.member_24s.push_back(netsim::Prefix::Of(
        netsim::Ipv4Address(0x14000000u + 256u * static_cast<unsigned>(i)),
        24));
  }
  return CompileSnapshotV2(std::vector<cluster::AggregateBlock>{big}, {}, 2);
}

std::string WriteTempSnapshot(const std::string& name,
                              const std::vector<std::byte>& bytes) {
  std::string path = ::testing::TempDir() + name;
  EXPECT_TRUE(WriteSnapshotFile(path, bytes));
  return path;
}

/// Bounded wait on observable state; never a fixed sleep.
template <typename Predicate>
bool WaitFor(Predicate&& predicate,
             std::chrono::milliseconds timeout = 10000ms) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!predicate()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

void WriteAll(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      FAIL() << "write: " << std::strerror(errno);
    }
    written += static_cast<std::size_t>(n);
  }
}

/// Reads until EOF (with an overall deadline); returns everything seen.
std::string ReadUntilEof(int fd, std::chrono::milliseconds timeout = 10000ms) {
  std::string out;
  auto deadline = std::chrono::steady_clock::now() + timeout;
  char buffer[4096];
  for (;;) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd p{fd, POLLIN, 0};
    int ready = ::poll(&p, 1, static_cast<int>(std::min<long long>(
                                  left.count(), 200)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n == 0) return out;  // clean EOF
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    out.append(buffer, static_cast<std::size_t>(n));
  }
  ADD_FAILURE() << "ReadUntilEof timed out with " << out.size() << " bytes";
  return out;
}

/// Reads exactly one '\n'-terminated line (blocking fd).
std::string ReadLine(int fd) {
  std::string line;
  char ch;
  for (;;) {
    ssize_t n = ::read(fd, &ch, 1);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return line;  // EOF mid-line: caller's assertions will notice
    }
    if (ch == '\n') return line;
    line.push_back(ch);
  }
}

std::size_t CountLines(const std::string& text) {
  std::size_t lines = 0;
  for (char c : text) lines += (c == '\n') ? 1 : 0;
  return lines;
}

/// A reactor on its own thread plus socketpair plumbing.
class Harness {
 public:
  explicit Harness(ReactorOptions options,
                   std::vector<std::byte> snapshot_bytes) {
    std::string error;
    auto snapshot =
        Snapshot::FromBuffer(std::move(snapshot_bytes), &error);
    EXPECT_TRUE(snapshot.has_value()) << error;
    store_.Swap(std::make_shared<const Snapshot>(*std::move(snapshot)));
    reactor_ = std::make_unique<Reactor>(&store_, &metrics_, nullptr,
                                         std::move(options));
    thread_ = std::thread([this] { run_result_ = reactor_->Run(); });
  }

  ~Harness() { Shutdown(); }

  /// Stops the loop (if still running) and returns Run()'s result.
  int Shutdown() {
    if (thread_.joinable()) {
      reactor_->Stop();
      thread_.join();
    }
    return run_result_;
  }

  /// New client connection over a socketpair; returns the client fd
  /// (blocking).  `socket_buffer_bytes` > 0 shrinks both directions of
  /// both ends first, to make kernel buffering small and predictable.
  int Connect(int socket_buffer_bytes = 0) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    if (socket_buffer_bytes > 0) {
      for (int fd : {fds[0], fds[1]}) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &socket_buffer_bytes,
                     sizeof(socket_buffer_bytes));
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &socket_buffer_bytes,
                     sizeof(socket_buffer_bytes));
      }
    }
    EXPECT_TRUE(reactor_->Adopt(fds[0]));
    return fds[1];
  }

  Reactor& reactor() { return *reactor_; }
  SnapshotStore& store() { return store_; }

 private:
  SnapshotStore store_;
  ServeMetrics metrics_;
  std::unique_ptr<Reactor> reactor_;
  std::thread thread_;
  int run_result_ = -1;
};

ReactorOptions TestOptions() {
  ReactorOptions options;
  options.idle_timeout = 30000ms;  // generous: tests end via QUIT/Stop
  return options;
}

TEST(Reactor, PipelinedSessionOverOneByteDribble) {
  Harness harness(TestOptions(), EpochOne(8));
  int client = harness.Connect();
  // CRLF on some lines, pipelined BATCH whose queries trickle in, a
  // comment, and a QUIT — sent one byte at a time to exercise every
  // partial-read path in the framer and the batch collector.
  const std::string session =
      "LOOKUP 20.0.1.9\r\n"
      "# a comment the server must skip\n"
      "BATCH 3\n"
      "20.0.2.1\n"
      "8.8.8.8\r\n"
      "20.0.7.200\n"
      "QUIT\n";
  for (char c : session) {
    WriteAll(client, std::string_view(&c, 1));
  }
  const std::string reply = ReadUntilEof(client);
  EXPECT_EQ(reply,
            "HIT 20.0.1.0/24 block=1 class=- members=1 hops=1\n"
            "HIT 20.0.2.0/24 block=2 class=- members=1 hops=1\n"
            "MISS 8.8.8.8\n"
            "HIT 20.0.7.0/24 block=7 class=- members=1 hops=1\n"
            "OK 3\n"
            "BYE\n");
  ::close(client);
}

TEST(Reactor, ManyConcurrentClientsEachGetTheirOwnAnswers) {
  Harness harness(TestOptions(), EpochOne(64));
  constexpr int kClients = 24;
  std::vector<int> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) clients.push_back(harness.Connect());
  // All sessions in flight at once; each asks for its own /24 so a
  // cross-connection mixup would change an answer, not just reorder it.
  for (int i = 0; i < kClients; ++i) {
    WriteAll(clients[i],
             "LOOKUP 20.0." + std::to_string(i) + ".5\nQUIT\n");
  }
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(ReadUntilEof(clients[i]),
              "HIT 20.0." + std::to_string(i) + ".0/24 block=" +
                  std::to_string(i) + " class=- members=1 hops=1\nBYE\n");
    ::close(clients[i]);
  }
}

TEST(Reactor, BackpressurePausesReadingUntilTheClientDrains) {
  ReactorOptions options = TestOptions();
  options.limits.write_buffer_cap = 1024;
  options.limits.write_buffer_resume = 256;
  Harness harness(options, EpochOne(8));
  // Small kernel buffers make the pending reply bytes accumulate in the
  // connection's write buffer (and trip the cap) early; the kernel may
  // round the request up, so the test does not rely on the size.
  int client = harness.Connect(/*socket_buffer_bytes=*/4096);

  // At least 2000 pipelined lookups (~100KB of replies), and more until
  // the pause is seen: the client writes without reading, so whatever
  // the kernel buffers hold, the reply path eventually fills and the
  // reactor must hit the cap and pause this connection.  QUIT is held
  // back until then, so the session cannot end before the pause.
  constexpr int kMinLookups = 2000;
  int lookups = 0;
  std::string burst;
  std::string expected;
  auto add_lookups = [&](int count) {
    for (int i = 0; i < count; ++i, ++lookups) {
      const std::string octet = std::to_string(lookups % 8);
      burst += "LOOKUP 20.0." + octet + ".1\n";
      expected += "HIT 20.0." + octet + ".0/24 block=" + octet +
                  " class=- members=1 hops=1\n";
    }
  };
  add_lookups(kMinLookups);

  // Nonblocking writes: push as much as the kernel takes, then hold
  // while verifying the pause engaged.
  int flags = ::fcntl(client, F_GETFL, 0);
  ASSERT_EQ(::fcntl(client, F_SETFL, flags | O_NONBLOCK), 0);
  std::size_t written = 0;
  auto push = [&] {
    while (written < burst.size()) {
      ssize_t n = ::write(client, burst.data() + written,
                          burst.size() - written);
      if (n > 0) {
        written += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN: kernel full (server paused or busy)
    }
  };
  push();
  ASSERT_TRUE(WaitFor([&] {
    if (harness.reactor().stats().backpressure_pauses.load() >= 1) {
      return true;
    }
    if (written == burst.size()) add_lookups(64);
    push();
    return false;
  })) << "reactor never paused under an unread reply backlog";
  burst += "QUIT\n";
  expected += "BYE\n";

  // Now drain: keep writing the remainder while consuming replies.
  std::string reply;
  char buffer[4096];
  auto deadline = std::chrono::steady_clock::now() + 20000ms;
  bool eof = false;
  while (!eof && std::chrono::steady_clock::now() < deadline) {
    push();
    pollfd p{client, POLLIN, 0};
    int ready = ::poll(&p, 1, 100);
    if (ready <= 0) continue;
    ssize_t n = ::read(client, buffer, sizeof(buffer));
    if (n == 0) {
      eof = true;
    } else if (n > 0) {
      reply.append(buffer, static_cast<std::size_t>(n));
    } else if (errno != EINTR && errno != EAGAIN) {
      break;
    }
  }
  ASSERT_TRUE(eof) << "session did not finish after draining";
  EXPECT_EQ(written, burst.size());
  // Every lookup answered, in order, nothing lost under the pauses.
  EXPECT_EQ(CountLines(reply), static_cast<std::size_t>(lookups) + 1);
  EXPECT_EQ(reply.find("MISS"), std::string::npos);
  EXPECT_NE(reply.rfind("BYE\n"), std::string::npos);
  EXPECT_EQ(reply, expected);
  ::close(client);
}

TEST(Reactor, IdleConnectionsAreEvicted) {
  ReactorOptions options = TestOptions();
  options.idle_timeout = 100ms;
  Harness harness(options, EpochOne(4));
  int idle_client = harness.Connect();
  // Says nothing; the reactor must evict it and close the socket.
  char byte;
  pollfd p{idle_client, POLLIN, 0};
  auto deadline = std::chrono::steady_clock::now() + 10000ms;
  ssize_t n = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    int ready = ::poll(&p, 1, 200);
    if (ready > 0) {
      n = ::read(idle_client, &byte, 1);
      break;
    }
  }
  EXPECT_EQ(n, 0) << "expected EOF from an idle-evicted connection";
  EXPECT_GE(harness.reactor().stats().idle_closes.load(), 1u);
  ::close(idle_client);
}

TEST(Reactor, ReloadMidTrafficKeepsAnswersEpochConsistent) {
  const std::string one_path =
      WriteTempSnapshot("reactor_epoch1.snap", EpochOne(16));
  const std::string two_path =
      WriteTempSnapshot("reactor_epoch2.snap", EpochTwo(16));
  Harness harness(TestOptions(), EpochOne(16));

  // 20.0.2.0/24 exists in both epochs with different answers; either is
  // valid at any instant, a blend of the two never is.
  const std::string epoch1_reply =
      "HIT 20.0.2.0/24 block=2 class=- members=1 hops=1";
  const std::string epoch2_reply =
      "HIT 20.0.2.0/24 block=0 class=- members=8 hops=1";

  std::atomic<bool> stop{false};
  std::atomic<int> bad_replies{0};
  std::atomic<std::uint64_t> lookups{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&] {
      int fd = harness.Connect();
      // do-while plus the final QUIT: at least one lookup always runs,
      // even if the reloader finishes before this thread is scheduled.
      do {
        WriteAll(fd, "LOOKUP 20.0.2.1\n");
        std::string line = ReadLine(fd);
        if (line != epoch1_reply && line != epoch2_reply) {
          bad_replies.fetch_add(1);
        }
        lookups.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
      WriteAll(fd, "QUIT\n");
      ::close(fd);
    });
  }

  int control = harness.Connect();
  // Rendezvous: reloads begin only once both traffic connections have a
  // lookup loop running, so every swap lands on live sessions.
  ASSERT_TRUE(WaitFor([&] { return lookups.load() >= 2; }));
  for (int s = 0; s < 40; ++s) {
    WriteAll(control,
             "RELOAD " + (s % 2 == 0 ? two_path : one_path) + "\n");
    std::string line = ReadLine(control);
    EXPECT_EQ(line.rfind("OK generation=", 0), 0u) << line;
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : traffic) thread.join();
  WriteAll(control, "QUIT\n");
  EXPECT_NE(ReadUntilEof(control).rfind("BYE\n"), std::string::npos);
  ::close(control);

  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_GE(lookups.load(), 2u);
  std::remove(one_path.c_str());
  std::remove(two_path.c_str());
}

TEST(Reactor, StopFlushesPendingWritesBeforeClosing) {
  ReactorOptions options = TestOptions();
  options.drain_timeout = 10000ms;
  Harness harness(options, EpochOne(64));
  int client = harness.Connect(/*socket_buffer_bytes=*/4096);

  // One big batch whose reply cannot fit the kernel buffers, so bytes
  // are still owed when Stop() lands.
  constexpr int kQueries = 4000;
  std::string request = "BATCH " + std::to_string(kQueries) + "\n";
  for (int i = 0; i < kQueries; ++i) {
    request += "20.0." + std::to_string(i % 64) + ".9\n";
  }
  WriteAll(client, request);
  // The batch has dispatched once the command counter ticks; its reply
  // is now buffered (and mostly unsendable).
  ASSERT_TRUE(WaitFor(
      [&] { return harness.reactor().stats().commands.load() >= 1; }));
  harness.reactor().Stop();

  // A graceful drain must deliver the complete reply, then EOF.
  std::string reply = ReadUntilEof(client, 20000ms);
  EXPECT_EQ(CountLines(reply), static_cast<std::size_t>(kQueries) + 1);
  EXPECT_NE(reply.rfind("OK " + std::to_string(kQueries) + "\n"),
            std::string::npos);
  EXPECT_EQ(harness.Shutdown(), 0) << "drain deadline expired";
  ::close(client);
}

TEST(Reactor, ProtocolGarbageClosesOnlyTheOffendingConnection) {
  Harness harness(TestOptions(), EpochOne(8));
  int victim = harness.Connect();
  int offender = harness.Connect();

  // NUL bytes poison the offender's framing; it gets one protocol error
  // and EOF.
  WriteAll(offender, std::string("LOOK\0UP x\n\0\0garbage\n", 20));
  std::string offender_reply = ReadUntilEof(offender);
  EXPECT_EQ(offender_reply, "ERR protocol: NUL byte in input\n");
  ::close(offender);

  // An oversized line (no newline in sight) is the other framing kill.
  int offender2 = harness.Connect();
  WriteAll(offender2, std::string(70000, 'a'));
  EXPECT_EQ(ReadUntilEof(offender2), "ERR protocol: line too long\n");
  ::close(offender2);

  // The neighbor never notices.
  WriteAll(victim, "LOOKUP 20.0.3.3\nQUIT\n");
  EXPECT_EQ(ReadUntilEof(victim),
            "HIT 20.0.3.0/24 block=3 class=- members=1 hops=1\nBYE\n");
  ::close(victim);
  EXPECT_GE(harness.reactor().stats().protocol_closes.load(), 2u);
}

TEST(Reactor, TcpListenAcceptLoopbackSession) {
  ReactorOptions options = TestOptions();
  Harness harness(options, EpochOne(8));
  // Harness already started Run(); Listen after start is not supported
  // by this harness, so build a standalone reactor for the TCP path.
  harness.Shutdown();

  SnapshotStore store;
  ServeMetrics metrics;
  std::string error;
  auto snapshot = Snapshot::FromBuffer(EpochOne(8), &error);
  ASSERT_TRUE(snapshot.has_value()) << error;
  store.Swap(std::make_shared<const Snapshot>(*std::move(snapshot)));
  Reactor reactor(&store, &metrics, nullptr, TestOptions());
  if (!reactor.Listen(&error)) {
    GTEST_SKIP() << "loopback unavailable in this sandbox: " << error;
  }
  std::thread server([&] { reactor.Run(); });

  int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(reactor.port());
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(client, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    reactor.Stop();
    server.join();
    ::close(client);
    GTEST_SKIP() << "loopback connect failed: " << std::strerror(errno);
  }
  WriteAll(client, "LOOKUP 20.0.6.1\nQUIT\n");
  EXPECT_EQ(ReadUntilEof(client),
            "HIT 20.0.6.0/24 block=6 class=- members=1 hops=1\nBYE\n");
  ::close(client);
  reactor.Stop();
  server.join();
  EXPECT_EQ(reactor.stats().accepted.load(), 1u);
}

}  // namespace
}  // namespace hobbit::serve

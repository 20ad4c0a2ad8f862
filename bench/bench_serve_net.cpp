// bench_serve_net — multi-client serving front-end under load.
//
// Compiles the shared world's final block list into a snapshot, hosts it
// behind the epoll reactor (src/serve/reactor.h) on an ephemeral
// loopback port, then hammers it with N concurrent client threads, each
// keeping a pipeline of BATCH requests in flight.  Reported: aggregate
// lookup/request throughput and request latency percentiles (p50, p99,
// p999), measured per request from the moment its bytes are written to
// the moment its full reply (batch lines + "OK n") has arrived.
//
// Every reply line is validated, so the bench doubles as an end-to-end
// correctness check of the reactor's framing and backpressure under real
// concurrency.  Exit codes: 0 ok, 1 reply error/client failure, 2
// throughput-gate failure, 77 skip (sandbox without loopback — matched
// by the ctest SKIP_RETURN_CODE so `ctest -L serve-net` skips cleanly).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/reactor.h"
#include "serve/snapshot.h"

namespace {

using namespace hobbit;
using Clock = std::chrono::steady_clock;

struct ClientResult {
  std::vector<double> latencies_us;
  std::uint64_t lookups = 0;
  std::uint64_t errors = 0;
  bool completed = false;
};

bool SendAll(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::send(fd, data.data() + written, data.size() - written,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// One client conversation: `requests` pipelined BATCH commands with up
/// to `depth` in flight, every reply line checked.
void RunClient(std::uint16_t port, const std::string& request,
               int requests, int batch, int depth, ClientResult* out) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ++out->errors;
    return;
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    ++out->errors;
    ::close(fd);
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  const std::string ok_line = "OK " + std::to_string(batch);
  std::deque<Clock::time_point> inflight;
  int sent = 0;
  int completed = 0;
  auto send_one = [&] {
    if (!SendAll(fd, request)) {
      ++out->errors;
      return false;
    }
    inflight.push_back(Clock::now());
    ++sent;
    return true;
  };
  for (int i = 0; i < depth && sent < requests; ++i) {
    if (!send_one()) break;
  }

  std::string carry;  // partial line across reads
  int lines_in_reply = 0;
  char chunk[65536];
  while (completed < requests && out->errors == 0) {
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ++out->errors;  // server hung up with replies still owed
      break;
    }
    const char* base = chunk;
    const char* end = chunk + n;
    while (base < end) {
      const char* nl =
          static_cast<const char*>(std::memchr(base, '\n', end - base));
      if (nl == nullptr) {
        carry.append(base, end);
        break;
      }
      carry.append(base, nl);
      base = nl + 1;
      // A reply is `batch` answer lines then the OK line.
      if (lines_in_reply < batch) {
        if (carry.empty() || (carry[0] != 'H' && carry[0] != 'M')) {
          ++out->errors;
        } else {
          ++out->lookups;
        }
        ++lines_in_reply;
      } else {
        if (carry != ok_line) ++out->errors;
        lines_in_reply = 0;
        ++completed;
        auto now = Clock::now();
        out->latencies_us.push_back(
            std::chrono::duration<double, std::micro>(now -
                                                      inflight.front())
                .count());
        inflight.pop_front();
        if (sent < requests && !send_one()) break;
      }
      carry.clear();
    }
  }
  if (completed == requests && out->errors == 0) {
    SendAll(fd, "QUIT\n");
    // Drain BYE + EOF so the server sees a clean close.
    while (::read(fd, chunk, sizeof(chunk)) > 0) {
    }
    out->completed = true;
  }
  ::close(fd);
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int clients = 64;
  int requests = -1;
  int batch = -1;
  int depth = -1;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--quick") {
      quick = true;
    } else if (flag == "--clients" && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
    } else if (flag == "--requests" && i + 1 < argc) {
      requests = std::atoi(argv[++i]);
    } else if (flag == "--batch" && i + 1 < argc) {
      batch = std::atoi(argv[++i]);
    } else if (flag == "--depth" && i + 1 < argc) {
      depth = std::atoi(argv[++i]);
    } else {
      std::printf("usage: bench_serve_net [--quick] [--clients N]\n"
                  "       [--requests N] [--batch N] [--depth N]\n");
      return 1;
    }
  }
  if (requests < 0) requests = quick ? 20 : 200;
  if (batch < 0) batch = quick ? 32 : 256;
  if (depth < 0) depth = quick ? 4 : 8;
  if (quick) ::setenv("HOBBIT_SCALE", "0.05", /*overwrite=*/0);
  std::signal(SIGPIPE, SIG_IGN);

  bench::PrintHeader("serve-net multi-client throughput",
                     "serving layer (no paper figure)");
  const bench::World& world = bench::GetWorld();

  auto buffer = serve::CompileSnapshotV2(
      world.final_blocks,
      serve::ClassifiedFrom(
          std::span<const core::BlockResult>(world.pipeline.results)),
      world.seed);
  std::string error;
  auto snapshot = serve::Snapshot::FromBuffer(std::move(buffer), &error);
  if (!snapshot) {
    std::printf("snapshot compile failed: %s\n", error.c_str());
    return 1;
  }
  const std::size_t entries = snapshot->entry_count();
  std::printf("snapshot: %zu entries, %zu blocks; %d clients x %d "
              "requests x BATCH %d (pipeline depth %d)\n",
              entries, snapshot->block_count(), clients, requests, batch,
              depth);

  serve::SnapshotStore store;
  serve::ServeMetrics metrics;
  store.Swap(std::make_shared<const serve::Snapshot>(*std::move(snapshot)));
  serve::ReactorOptions options;
  options.max_connections = static_cast<std::size_t>(clients) + 8;
  serve::Reactor reactor(&store, &metrics, nullptr, options);
  if (!reactor.Listen(&error)) {
    std::printf("SKIP: cannot listen on loopback: %s\n", error.c_str());
    return 77;
  }
  std::thread server([&] { reactor.Run(); });

  // Per-client request payloads: each client cycles through a different
  // slice of the key space, half hits and half shifted misses.
  std::vector<std::string> payloads(static_cast<std::size_t>(clients));
  {
    auto current = store.Current();
    for (int c = 0; c < clients; ++c) {
      std::string& request = payloads[static_cast<std::size_t>(c)];
      request = "BATCH " + std::to_string(batch) + "\n";
      for (int q = 0; q < batch; ++q) {
        std::uint32_t key = current->EntryKey(
            (static_cast<std::size_t>(c) * 131 +
             static_cast<std::size_t>(q)) %
            std::max<std::size_t>(entries, 1));
        if (q % 2 == 1) key ^= 0x00800000u;  // miss half the time
        request += netsim::Ipv4Address(key).ToString() + "\n";
      }
    }
  }

  std::vector<ClientResult> results(static_cast<std::size_t>(clients));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  auto t0 = Clock::now();
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back(RunClient, reactor.port(),
                         std::cref(payloads[static_cast<std::size_t>(c)]),
                         requests, batch, depth,
                         &results[static_cast<std::size_t>(c)]);
  }
  for (auto& worker : workers) worker.join();
  double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  reactor.Stop();
  server.join();

  std::vector<double> latencies;
  std::uint64_t lookups = 0;
  std::uint64_t errors = 0;
  int incomplete = 0;
  for (const auto& result : results) {
    latencies.insert(latencies.end(), result.latencies_us.begin(),
                     result.latencies_us.end());
    lookups += result.lookups;
    errors += result.errors;
    incomplete += result.completed ? 0 : 1;
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  const double p999 = Percentile(latencies, 0.999);
  const double lookups_per_s = static_cast<double>(lookups) / elapsed;

  std::printf("wall %.3fs: %8.0f klookups/s, %8.0f requests/s\n", elapsed,
              lookups_per_s / 1e3, latencies.size() / elapsed);
  std::printf("request latency: p50 %.0fus  p99 %.0fus  p999 %.0fus\n",
              p50, p99, p999);
  std::printf("errors %llu, incomplete clients %d; server: %llu "
              "connections, %llu commands, %llu pauses\n",
              static_cast<unsigned long long>(errors), incomplete,
              static_cast<unsigned long long>(
                  reactor.stats().accepted.load()),
              static_cast<unsigned long long>(
                  reactor.stats().commands.load()),
              static_cast<unsigned long long>(
                  reactor.stats().backpressure_pauses.load()));

  bench::JsonReporter report("serve_net");
  report.Config("scale", world.scale);
  report.Config("seed", static_cast<double>(world.seed));
  report.Config("mode", quick ? "quick" : "full");
  if (quick) report.MarkPartial("--quick");
  report.Config("clients", clients);
  report.Config("requests_per_client", requests);
  report.Config("batch", batch);
  report.Config("pipeline_depth", depth);
  report.Metric("entries", static_cast<double>(entries));
  report.Metric("lookups", static_cast<double>(lookups));
  report.Metric("lookups_per_s", lookups_per_s);
  report.Metric("requests_per_s", latencies.size() / elapsed);
  report.Metric("p50_us", p50);
  report.Metric("p99_us", p99);
  report.Metric("p999_us", p999);
  report.Metric("errors", static_cast<double>(errors));
  report.Metric("incomplete_clients", static_cast<double>(incomplete));
  report.Write();

  if (errors > 0 || incomplete > 0) {
    std::printf("FAIL: reply errors or incomplete clients\n");
    return 1;
  }
  // Throughput floor: intentionally conservative (any hardware that can
  // build the repo clears it by an order of magnitude); its job is to
  // catch an event-loop pathology (e.g. a busy-wait or a lost wakeup
  // turning throughput to a trickle), not to benchmark the machine.
  const double floor = 10e3;
  if (lookups_per_s < floor) {
    std::printf("GATE FAILED: %.0f lookups/s < %.0f floor\n",
                lookups_per_s, floor);
    return 2;
  }
  std::printf("ok: %d clients served, gates passed\n", clients);
  return 0;
}

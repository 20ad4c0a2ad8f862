// hobbit_serve — the block lookup service.
//
// Speaks the LineService protocol (see src/serve/service.h) either over
// stdin/stdout (the default, and `--stdio` explicitly) or, with
// `--listen`/`--port`, as an event-driven multi-client TCP server (see
// src/serve/reactor.h) hosting many concurrent conversations:
//
//   hobbit_sim export-snapshot --scale 0.05 --out epoch1.snap
//   # one conversation over a pipe:
//   printf 'LOOKUP 20.0.1.7\nSTATS\nQUIT\n' |
//       hobbit_serve --snapshot epoch1.snap --threads 4
//   # many concurrent clients over TCP:
//   hobbit_serve --snapshot epoch1.snap --threads 4 --port 7424 &
//   printf 'LOOKUP 20.0.1.7\nQUIT\n' | nc 127.0.0.1 7424
//
// Diagnostics go to stderr; stdout carries only protocol replies (stdio
// mode), so the binary pipes cleanly.  SIGINT/SIGTERM trigger a graceful
// drain: pending replies are flushed before the server exits.

#include <csignal>
#include <cstdint>
#include <iostream>
#include <string>

#include "common/parallel.h"
#include "parse_number.h"
#include "serve/reactor.h"
#include "serve/service.h"

namespace {

using hobbit::tools::ParseNumber;

hobbit::serve::Reactor* g_reactor = nullptr;

void HandleSignal(int) {
  if (g_reactor != nullptr) g_reactor->Stop();  // async-signal-safe
}

int Usage() {
  std::cerr <<
      "usage: hobbit_serve [--snapshot FILE] [--threads N] [--stdio]\n"
      "                    [--mmap] [--mmap-verify]\n"
      "                    [--prefault [populate|willneed]]\n"
      "                    [--listen ADDR] [--port P]\n"
      "                    [--max-connections N] [--idle-timeout-ms T]\n"
      "  serves LOOKUP/BATCH/RELOAD/STATS/QUIT; without --snapshot,\n"
      "  start empty and load via RELOAD.  --mmap serves snapshots\n"
      "  zero-copy straight from the page cache with per-section\n"
      "  checksums deferred (structural checks still run at load);\n"
      "  --mmap-verify maps but verifies checksums up front.\n"
      "  --prefault faults the mapped snapshot in at load time instead\n"
      "  of on first query: 'populate' (the default) blocks until every\n"
      "  page is resident (MAP_POPULATE), 'willneed' kicks off async\n"
      "  readahead (madvise).  Only meaningful with --mmap/--mmap-verify\n"
      "  and applies to RELOADs too.  Default transport is\n"
      "  stdin/stdout; --listen/--port starts the multi-client TCP\n"
      "  server (--port 0 picks an ephemeral port, printed to stderr).\n"
      "  Numeric flags take a plain decimal in range: --threads 1-1024,\n"
      "  --port 0-65535, --max-connections 1-1000000, --idle-timeout-ms\n"
      "  0-86400000 (0 disables idle eviction).\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path;
  int threads = 1;
  bool stdio = true;
  hobbit::serve::ReactorOptions options;
  hobbit::serve::SnapshotLoadOptions load_options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--snapshot" && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (flag == "--threads" && i + 1 < argc) {
      if (!ParseNumber(argv[++i], 1, 1024, &threads)) return Usage();
    } else if (flag == "--mmap") {
      load_options.use_mmap = true;
      load_options.defer_verification = true;
    } else if (flag == "--mmap-verify") {
      load_options.use_mmap = true;
      load_options.defer_verification = false;
    } else if (flag == "--prefault") {
      load_options.prefault = hobbit::serve::PrefaultMode::kPopulate;
      // Optional mode argument; anything else is the next flag.
      if (i + 1 < argc) {
        const std::string mode = argv[i + 1];
        if (mode == "populate") {
          ++i;
        } else if (mode == "willneed") {
          load_options.prefault = hobbit::serve::PrefaultMode::kWillNeed;
          ++i;
        }
      }
    } else if (flag == "--stdio") {
      stdio = true;
    } else if (flag == "--listen" && i + 1 < argc) {
      options.bind_address = argv[++i];
      stdio = false;
    } else if (flag == "--port" && i + 1 < argc) {
      if (!ParseNumber<std::uint16_t>(argv[++i], 0, 65535, &options.port)) {
        return Usage();
      }
      stdio = false;
    } else if (flag == "--max-connections" && i + 1 < argc) {
      if (!ParseNumber<std::size_t>(argv[++i], 1, 1'000'000,
                                    &options.max_connections)) {
        return Usage();
      }
    } else if (flag == "--idle-timeout-ms" && i + 1 < argc) {
      long long milliseconds = 0;
      if (!ParseNumber(argv[++i], 0LL, 86'400'000LL, &milliseconds)) {
        return Usage();
      }
      options.idle_timeout = std::chrono::milliseconds(milliseconds);
    } else {
      return Usage();
    }
  }

  hobbit::common::ThreadPool pool(threads);
  hobbit::serve::SnapshotStore store;
  hobbit::serve::ServeMetrics metrics;
  if (!snapshot_path.empty()) {
    std::string error;
    if (!store.ReloadFromFile(snapshot_path, &error, load_options)) {
      std::cerr << "cannot load snapshot: " << error << "\n";
      return 1;
    }
    metrics.reloads.fetch_add(1, std::memory_order_relaxed);
    auto snapshot = store.Current();
    std::cerr << "serving " << snapshot_path << ": "
              << snapshot->entry_count() << " /24s, "
              << snapshot->block_count() << " blocks, epoch "
              << snapshot->epoch()
              << (snapshot->is_mapped() ? " (mmap)" : "")
              << (snapshot->fully_verified() ? "" : " (deferred verify)")
              << "\n";
  } else {
    std::cerr << "no snapshot loaded; waiting for RELOAD\n";
  }

  if (stdio) {
    hobbit::serve::LineService service(&store, &metrics, &pool);
    service.set_reload_options(load_options);
    std::size_t commands = service.Run(std::cin, std::cout);
    std::cerr << "session end: " << commands << " command(s)\n";
    return 0;
  }

  hobbit::serve::Reactor reactor(&store, &metrics, &pool, options);
  reactor.service()->set_reload_options(load_options);
  std::string error;
  if (!reactor.Listen(&error)) {
    std::cerr << "cannot listen on " << options.bind_address << ":"
              << options.port << ": " << error << "\n";
    return 1;
  }
  std::cerr << "listening on " << options.bind_address << ":"
            << reactor.port() << "\n";
  g_reactor = &reactor;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);  // broken pipes surface as write errors
  int rc = reactor.Run();
  g_reactor = nullptr;
  const auto& stats = reactor.stats();
  std::cerr << "server end: " << stats.accepted.load() << " accepted, "
            << stats.commands.load() << " command(s), "
            << stats.bytes_out.load() << " bytes out"
            << (rc == 0 ? "" : " (drain timeout)") << "\n";
  return rc;
}

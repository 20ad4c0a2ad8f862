// service.h — the hobbit_serve line protocol, as a library.
//
// One command per line, one reply (or a reply block) per command:
//
//   LOOKUP <ip|prefix>   exact /24 membership (address or a.b.c.0/24), or
//                        a covering summary for shorter prefixes
//                          HIT 20.0.1.0/24 block=3 class=same-last-hop
//                              members=4 hops=2
//                          MISS 9.9.9.0/24
//                          COVER 20.0.0.0/16 entries=12 blocks=5
//   BATCH <n>            the next n lines are queries (ip or /24); n reply
//                        lines in input order, then "OK <n>".  n is plain
//                        decimal, at most kMaxBatch.  Batches shard over
//                        the service's thread pool.
//   RELOAD <path>        validate + RCU-swap a new snapshot
//                          OK generation=2 entries=128 blocks=17 epoch=7
//                          ERR reload failed: payload checksum mismatch
//   STATS                counters + latency percentiles (two lines)
//   QUIT                 "BYE", end of session
//
// Anything else answers "ERR ..." and the session continues; blank lines
// and '#' comments are ignored (so a command file can be annotated).
// Queries against an empty store answer "ERR no snapshot loaded".
// Lookups run on the store's published snapshot and index (store.h), so
// the service itself holds no per-snapshot state and no lock.  An entry
// whose block id is past the block table — possible only in a snapshot
// loaded with deferred verification — answers "ERR corrupt entry: ...".
//
// `LineService::Execute` is the protocol core: one command line plus its
// gathered BATCH lines in, the reply appended to a string.  Framing, the
// skip rule, BATCH collection and the input limits live in `Connection`
// (connection.h), which drives sockets and, through `Run`, stdin.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/parallel.h"
#include "serve/metrics.h"
#include "serve/store.h"

namespace hobbit::serve {

/// Largest accepted BATCH size — bounds per-command allocation.
inline constexpr std::size_t kMaxBatch = 1u << 20;

/// Parses a BATCH argument: decimal digits only (no sign, no spaces, no
/// trailing characters).  *count is valid only for kOk; a well-formed
/// number above kMaxBatch, however long, is kTooLarge.
enum class BatchSizeParse { kOk, kBadSyntax, kTooLarge };
BatchSizeParse ParseBatchSize(std::string_view arg, std::size_t* count);

/// The number of query lines that must follow `line` before it can run:
/// n for a well-formed "BATCH n", 0 for anything else.
std::size_t BatchLinesAfter(std::string_view line);

class LineService {
 public:
  /// Borrows all three; `pool` may be null (serial batches).
  LineService(SnapshotStore* store, ServeMetrics* metrics,
              common::ThreadPool* pool = nullptr)
      : store_(store), metrics_(metrics), pool_(pool) {}

  /// Runs one command line and appends its reply to *out.  For BATCH,
  /// `batch_lines` holds the query lines gathered after it, each ending
  /// in '\n'; fewer than n means the input ended mid-batch.  Records one
  /// latency sample.  Returns false when the session should end (QUIT).
  bool Execute(std::string_view line, std::string_view batch_lines,
               std::string* out);

  /// Serves a stream session as a Connection until EOF, QUIT or a
  /// protocol violation.  Returns the number of commands handled.
  std::size_t Run(std::istream& in, std::ostream& out);

  /// Executes one command line; BATCH reads its query lines from `in`.
  /// Returns false when the session should end (QUIT).
  bool HandleCommand(const std::string& line, std::istream& in,
                     std::ostream& out);

  /// Options RELOAD passes to SnapshotStore::ReloadFromFile — set once
  /// at startup (hobbit_serve --mmap) so reloads keep the serving mode.
  void set_reload_options(const SnapshotLoadOptions& options) {
    reload_options_ = options;
  }

 private:
  void CmdLookup(std::string_view arg, std::string* out);
  void CmdBatch(std::string_view arg, std::string_view lines,
                std::string* out);
  void CmdReload(std::string_view arg, std::string* out);
  void CmdStats(std::string* out);

  SnapshotStore* store_;
  ServeMetrics* metrics_;
  common::ThreadPool* pool_;
  SnapshotLoadOptions reload_options_;
};

}  // namespace hobbit::serve

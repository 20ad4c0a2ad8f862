#include "serve/service.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "hobbit/resultio.h"
#include "serve/connection.h"
#include "serve/lookup.h"

namespace hobbit::serve {
namespace {

std::string_view ClassName(std::uint8_t token) {
  if (token == kNoClass) return "-";
  return core::ClassificationToken(static_cast<core::Classification>(token));
}

/// Splits "CMD arg" on the first space; arg may itself contain spaces
/// (RELOAD paths), so no further splitting.
std::pair<std::string_view, std::string_view> SplitCommand(
    std::string_view line) {
  std::size_t space = line.find(' ');
  if (space == std::string_view::npos) return {line, {}};
  std::size_t arg_start = line.find_first_not_of(' ', space);
  if (arg_start == std::string_view::npos) return {line.substr(0, space), {}};
  return {line.substr(0, space), line.substr(arg_start)};
}

/// A query is an address ("1.2.3.4") or a /24 ("1.2.3.0/24"); either way
/// the exact-lookup key is the covering /24's base.  Returns false on
/// syntax errors or non-/24 prefixes.
bool ParseExactQuery(std::string_view text, std::uint32_t* key) {
  if (auto address = netsim::Ipv4Address::Parse(text)) {
    *key = address->value() & 0xFFFFFF00u;
    return true;
  }
  if (auto prefix = netsim::Prefix::Parse(text)) {
    if (prefix->length() != 24) return false;
    *key = prefix->base().value();
    return true;
  }
  return false;
}

// A reply line is built by appending its parts straight onto the output.
void Put(std::string* out, std::string_view text) { out->append(text); }
void Put(std::string* out, std::uint64_t value) {
  char text[20];
  out->append(text, std::to_chars(text, text + sizeof(text), value).ptr);
}
void Put(std::string* out, const netsim::Prefix& prefix) {
  prefix.AppendTo(out);
}

template <typename... Parts>
void Reply(std::string* out, const Parts&... parts) {
  (Put(out, parts), ...);
  out->push_back('\n');
}

void PrintExact(std::string* out, const Snapshot& snapshot,
                const LookupResult& result, std::string_view shown) {
  if (!result.found) return Reply(out, "MISS ", shown);
  const auto slash24 =
      netsim::Prefix::Of(netsim::Ipv4Address(result.key), 24);
  const std::string_view class_name = ClassName(result.class_token);
  if (result.block == kNoBlock) {
    return Reply(out, "HIT ", slash24, " block=- class=", class_name,
                 " members=- hops=-");
  }
  // Verification rules this out; a deferred-verification load has not
  // run it yet, and the block table must not be read past its end.
  if (result.block >= snapshot.block_count()) {
    return Reply(out, "ERR corrupt entry: ", slash24, " block=", result.block,
                 " blocks=", snapshot.block_count());
  }
  Reply(out, "HIT ", slash24, " block=", result.block, " class=", class_name,
        " members=", snapshot.BlockMemberCount(result.block),
        " hops=", snapshot.BlockHopCount(result.block));
}

}  // namespace

BatchSizeParse ParseBatchSize(std::string_view arg, std::size_t* count) {
  std::size_t parsed = 0;
  const char* end = arg.data() + arg.size();
  const auto [stop, error] = std::from_chars(arg.data(), end, parsed);
  if (error == std::errc::invalid_argument || stop != end) {
    return BatchSizeParse::kBadSyntax;
  }
  if (error == std::errc::result_out_of_range || parsed > kMaxBatch) {
    return BatchSizeParse::kTooLarge;
  }
  *count = parsed;
  return BatchSizeParse::kOk;
}

std::size_t BatchLinesAfter(std::string_view line) {
  auto [command, arg] = SplitCommand(line);
  std::size_t count = 0;
  if (command != "BATCH" ||
      ParseBatchSize(arg, &count) != BatchSizeParse::kOk) {
    return 0;
  }
  return count;
}

bool LineService::Execute(std::string_view line, std::string_view batch_lines,
                          std::string* out) {
  auto start = std::chrono::steady_clock::now();
  auto [command, arg] = SplitCommand(line);
  bool keep_going = true;
  if (command == "LOOKUP") {
    CmdLookup(arg, out);
  } else if (command == "BATCH") {
    CmdBatch(arg, batch_lines, out);
  } else if (command == "RELOAD") {
    CmdReload(arg, out);
  } else if (command == "STATS") {
    CmdStats(out);
  } else if (command == "QUIT") {
    Reply(out, "BYE");
    keep_going = false;
  } else {
    Reply(out, "ERR unknown command: ", command);
  }
  auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  metrics_->latency.Record(static_cast<std::uint64_t>(nanos));
  return keep_going;
}

void LineService::CmdLookup(std::string_view arg, std::string* out) {
  std::shared_ptr<const PublishedSnapshot> published = store_->Published();
  if (published == nullptr) return Reply(out, "ERR no snapshot loaded");
  const Snapshot& snapshot = *published->snapshot;
  LookupEngine engine(snapshot, &published->index);
  std::uint32_t key = 0;
  if (ParseExactQuery(arg, &key)) {
    metrics_->lookups.fetch_add(1, std::memory_order_relaxed);
    LookupResult result = engine.Lookup(netsim::Ipv4Address(key));
    (result.found ? metrics_->hits : metrics_->misses)
        .fetch_add(1, std::memory_order_relaxed);
    return PrintExact(out, snapshot, result, arg);
  }
  if (auto prefix = netsim::Prefix::Parse(arg);
      prefix && prefix->length() < 24) {
    metrics_->covering_queries.fetch_add(1, std::memory_order_relaxed);
    EntryRange range = engine.Covering(*prefix);
    return Reply(out, "COVER ", *prefix, " entries=", range.size(),
                 " blocks=", engine.DistinctBlocks(range));
  }
  Reply(out, "ERR bad query: ", arg);
}

void LineService::CmdBatch(std::string_view arg, std::string_view lines,
                           std::string* out) {
  std::size_t count = 0;
  switch (ParseBatchSize(arg, &count)) {
    case BatchSizeParse::kOk:
      break;
    case BatchSizeParse::kBadSyntax:
      return Reply(out, "ERR bad batch size: ", arg);
    case BatchSizeParse::kTooLarge:
      return Reply(out, "ERR batch too large: ", arg);
  }
  // The n query lines are consumed even when no snapshot is loaded, so
  // the session stays in protocol sync; fewer than n means the input
  // ended mid-batch.
  const auto received =
      static_cast<std::size_t>(std::count(lines.begin(), lines.end(), '\n'));
  if (received < count) {
    return Reply(out, "ERR batch truncated at query ", received);
  }
  std::vector<std::string_view> queries(count);
  for (std::string_view& query : queries) {
    const std::size_t newline = lines.find('\n');
    query = lines.substr(0, newline);
    lines.remove_prefix(newline + 1);
  }
  std::shared_ptr<const PublishedSnapshot> published = store_->Published();
  if (published == nullptr) return Reply(out, "ERR no snapshot loaded");
  const Snapshot& snapshot = *published->snapshot;
  LookupEngine engine(snapshot, &published->index);
  // Parse up front; only well-formed queries enter the sharded batch.
  std::vector<std::uint32_t> keys(count, 0);
  std::vector<bool> valid(count, false);
  for (std::size_t i = 0; i < count; ++i) {
    valid[i] = ParseExactQuery(queries[i], &keys[i]);
  }
  std::vector<LookupResult> answers(count);
  engine.LookupBatch(keys, answers, pool_);
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!valid[i]) {
      Reply(out, "ERR bad query: ", queries[i]);
      continue;
    }
    (answers[i].found ? hits : misses) += 1;
    PrintExact(out, snapshot, answers[i], queries[i]);
  }
  metrics_->batches.fetch_add(1, std::memory_order_relaxed);
  metrics_->lookups.fetch_add(hits + misses, std::memory_order_relaxed);
  metrics_->hits.fetch_add(hits, std::memory_order_relaxed);
  metrics_->misses.fetch_add(misses, std::memory_order_relaxed);
  Reply(out, "OK ", count);
}

void LineService::CmdReload(std::string_view arg, std::string* out) {
  if (arg.empty()) return Reply(out, "ERR reload needs a path");
  std::string error;
  if (!store_->ReloadFromFile(std::string(arg), &error, reload_options_)) {
    metrics_->failed_reloads.fetch_add(1, std::memory_order_relaxed);
    return Reply(out, "ERR reload failed: ", error);
  }
  metrics_->reloads.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const Snapshot> snapshot = store_->Current();
  Reply(out, "OK generation=", store_->generation(),
        " entries=", snapshot->entry_count(),
        " blocks=", snapshot->block_count(), " epoch=", snapshot->epoch());
}

void LineService::CmdStats(std::string* out) {
  std::shared_ptr<const Snapshot> snapshot = store_->Current();
  const ServeMetrics& m = *metrics_;
  constexpr auto kRelaxed = std::memory_order_relaxed;
  Reply(out, "lookups=", m.lookups.load(kRelaxed),
        " hits=", m.hits.load(kRelaxed), " misses=", m.misses.load(kRelaxed),
        " batches=", m.batches.load(kRelaxed),
        " covering=", m.covering_queries.load(kRelaxed),
        " reloads=", m.reloads.load(kRelaxed),
        " failed_reloads=", m.failed_reloads.load(kRelaxed),
        " generation=", store_->generation(),
        " epoch=", snapshot ? snapshot->epoch() : 0);
  Reply(out, "latency_ns p50=", m.latency.Quantile(0.50),
        " p90=", m.latency.Quantile(0.90), " p99=", m.latency.Quantile(0.99),
        " samples=", m.latency.TotalCount());
}

// The stream adapters.  Stdin is served as one more Connection, so it
// shares the socket path's framer, skip rule, BATCH collector and limits.

std::size_t LineService::Run(std::istream& in, std::ostream& out) {
  const ConnectionLimits limits;
  Connection connection(this, limits);
  std::string piece;
  while (!connection.done()) {
    // Feed one line at a time so interactive sessions are answered as
    // they type, in pieces no longer than a line may be: an endless line
    // is refused by the framer without being held here first.
    piece.clear();
    while (piece.size() <= limits.max_line_bytes) {
      const auto ch = in.rdbuf()->sbumpc();
      if (ch == std::istream::traits_type::eof()) break;
      piece.push_back(static_cast<char>(ch));
      if (ch == '\n') break;
    }
    if (piece.empty()) connection.OnEof();
    else connection.Ingest(piece);
    out << connection.pending() << std::flush;
    connection.Consume(connection.pending().size());
  }
  return connection.commands();
}

bool LineService::HandleCommand(const std::string& line, std::istream& in,
                                std::ostream& out) {
  std::string batch_lines;
  std::string query;
  for (std::size_t n = BatchLinesAfter(line); n > 0 && std::getline(in, query);
       --n) {
    batch_lines.append(query).push_back('\n');
  }
  std::string reply;
  const bool keep_going = Execute(line, batch_lines, &reply);
  out << reply << std::flush;
  return keep_going;
}

}  // namespace hobbit::serve

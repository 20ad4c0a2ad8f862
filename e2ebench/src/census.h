// census.h — the block maps the serve phases load, the query tape they
// send, and the replies a correct server must give.
//
// A block map is the input of serve::CompileSnapshotV2: aggregated blocks
// plus per-/24 classifications.  It comes either from a campaign (its final
// blocks and verdicts) or from SynthesizeCensus, which draws a
// paper-scale map (Table 1 has ~3.37 M /24s) from the seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/aggregate.h"
#include "hobbit/pipeline.h"
#include "serve/snapshot.h"

namespace e2ebench {

struct BlockMap {
  std::vector<hobbit::cluster::AggregateBlock> blocks;
  std::vector<hobbit::serve::ClassifiedPrefix> classified;
};

/// A map of exactly `entries` /24s in blocks of 1-8 contiguous /24s, with
/// a share of classified-only (heterogeneous) /24s between them.
BlockMap SynthesizeCensus(std::size_t entries, std::uint64_t seed);

/// A campaign's output as a block map.
BlockMap CampaignMap(const hobbit::core::PipelineResult& pipeline,
                     const std::vector<hobbit::cluster::AggregateBlock>& blocks);

/// The next epoch of `base`: about `fraction` of its entries change.  Half
/// of the touched blocks gain a last hop, the other half lose their last
/// member (which stays classified, so it answers with no block).  Block ids
/// and keys are unchanged, so one query tape serves both maps.
BlockMap NextEpoch(const BlockMap& base, double fraction, std::uint64_t seed);

/// Compiles `map` as a v2 snapshot and writes it to `path`.
bool WriteSnapshot(const BlockMap& map, std::uint64_t epoch,
                   const std::string& path, std::string* error);

/// Query addresses.  Every tenth query (index % 10 == 9) falls in a /24
/// none of `snapshots` holds; the rest fall in entries of the first.
struct QueryTape {
  std::vector<std::uint32_t> addresses;
  std::vector<std::string> text;  ///< dotted-quad form of each address
};
QueryTape MakeQueryTape(const std::vector<const hobbit::serve::Snapshot*>& snapshots,
                        std::size_t count, std::uint64_t seed);

/// The reply line (newline included) LOOKUP must give for every tape query,
/// computed with an in-process LookupEngine over `snapshot`.
class ExpectedReplies {
 public:
  ExpectedReplies(const hobbit::serve::Snapshot& snapshot, const QueryTape& tape);

  std::string_view Line(std::size_t i) const {
    return std::string_view(bytes_).substr(offsets_[i],
                                           offsets_[i + 1] - offsets_[i]);
  }

 private:
  std::string bytes_;
  std::vector<std::size_t> offsets_;
};

}  // namespace e2ebench

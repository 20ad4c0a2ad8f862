// zmap.h — Internet-wide ICMP echo scanning.
//
// Stand-in for the scans.io "Full IPv4 ICMP Echo Request" dataset the paper
// bootstraps from (§2.1): an exhaustive sweep recording which addresses
// answered.  The snapshot is taken at *snapshot time*, one availability
// epoch before probing, so an address that is "active" here may already be
// gone when the Hobbit prober reaches it — exactly the paper's §3.3
// caveat.
//
// A scanned /24 is a 256-bit bitmap (bit o of word o / 64 is final octet
// o), so a block is 40 bytes with no heap, the /26 criterion is four word
// tests, and iterating the set bits yields the octets in ascending order.
// The scan is one pass over the target /24s on the caller's pool; every
// draw is a pure function of the address, so the snapshot does not depend
// on the thread count (DESIGN.md §16).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/popcount.h"
#include "netsim/internet.h"
#include "netsim/ipv4.h"

namespace hobbit::probing {

/// The final octets of a /24 that answered, as a 256-bit bitmap.
using OctetBitmap = std::array<std::uint64_t, 4>;

/// Ascending iteration over the set bits of an OctetBitmap.
class OctetIterator {
 public:
  OctetIterator() = default;  // the end iterator
  explicit OctetIterator(const OctetBitmap& bits)
      : bits_(&bits), word_(0), rest_(bits[0]) {
    Settle();
  }

  std::uint8_t operator*() const {
    return static_cast<std::uint8_t>(word_ * 64 + std::countr_zero(rest_));
  }
  OctetIterator& operator++() {
    rest_ &= rest_ - 1;
    Settle();
    return *this;
  }
  bool operator==(const OctetIterator& other) const {
    return word_ == other.word_ && rest_ == other.rest_;
  }

 private:
  // Advances to the next non-empty word; the end state is (4, 0).
  void Settle() {
    while (rest_ == 0 && word_ < 4) {
      if (++word_ < 4) rest_ = (*bits_)[word_];
    }
  }

  const OctetBitmap* bits_ = nullptr;
  int word_ = 4;
  std::uint64_t rest_ = 0;
};

/// Scan result for one /24: which final octets answered.
struct ZmapBlock {
  netsim::Prefix prefix;  // a /24
  OctetBitmap active{};

  bool IsActive(std::uint8_t octet) const {
    return (active[octet >> 6] >> (octet & 63)) & 1;
  }
  void SetActive(std::uint8_t octet) {
    active[octet >> 6] |= std::uint64_t{1} << (octet & 63);
  }
  bool empty() const {
    return (active[0] | active[1] | active[2] | active[3]) == 0;
  }
  /// Number of responsive octets.
  int ActiveCount() const {
    return common::Popcount(active[0]) + common::Popcount(active[1]) +
           common::Popcount(active[2]) + common::Popcount(active[3]);
  }

  /// The responsive octets in ascending order:
  /// `for (std::uint8_t octet : block.ActiveOctets())`.  The range holds
  /// its own copy of the bitmap, so it is safe on a temporary block.
  struct OctetRange {
    OctetBitmap bits;
    OctetIterator begin() const { return OctetIterator(bits); }
    OctetIterator end() const { return OctetIterator(); }
  };
  OctetRange ActiveOctets() const { return {active}; }
};

/// The snapshot: one entry per scanned /24 that had at least one
/// responsive address, in target order (so sorted by prefix for the
/// sorted `Internet::study_24s`).
struct ZmapSnapshot {
  std::vector<ZmapBlock> blocks;

  /// Total responsive addresses across all blocks.
  std::uint64_t ActiveCount() const {
    std::uint64_t n = 0;
    for (const ZmapBlock& b : blocks) n += b.ActiveCount();
    return n;
  }
};

/// Sweeps every address of every target /24 and records responders.
/// Deterministic; reads the snapshot-epoch liveness model.  `simulator`
/// selects whose epoch/liveness view is scanned (nullptr = the
/// internet's primary simulator).  The /24s are scanned in contiguous
/// chunks on `pool` (nullptr = serially); the result is the same for
/// any thread count.
ZmapSnapshot RunZmapScan(const netsim::Internet& internet,
                         std::span<const netsim::Prefix> target_24s,
                         const netsim::Simulator* simulator = nullptr,
                         common::ThreadPool* pool = nullptr);

/// The paper's destination-selection criterion (§3.3): a /24 qualifies for
/// the study when every /26 inside it has at least one active address
/// (which also implies >= 4 active addresses).
inline bool MeetsSlash26Criterion(const ZmapBlock& block) {
  return block.active[0] != 0 && block.active[1] != 0 &&
         block.active[2] != 0 && block.active[3] != 0;
}

/// Filters a snapshot down to the study universe.
std::vector<ZmapBlock> SelectStudyBlocks(const ZmapSnapshot& snapshot);

}  // namespace hobbit::probing

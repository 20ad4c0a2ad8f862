// store.h — RCU-style hot-swap of the serving snapshot.
//
// The serving loop must keep answering while an epoch rolls over.  The
// read-copy-update shape: a reader grabs one refcounted handle to the
// current immutable PublishedSnapshot — the Snapshot together with the
// EytzingerIndex built over it — and then works on it for as long as it
// likes; a reloader validates the *entire* new file off to the side
// (Snapshot::FromFile re-checks magic, version, checksum, sortedness,
// and fills the index in the same pass), and only then publishes the
// pair.  A reader that grabbed the old pair just before a swap finishes
// its queries on the old data, and the old buffer and index are released
// by shared_ptr refcounting when the last such reader drops them — no
// quiescence tracking needed, no reader ever waits on a reload or an
// index build.
//
// Released, not freed: a pair the store loaded itself (ReloadFromFile)
// has deleters that hand its owned file buffer and its index key array
// to a one-slot spare, on whichever thread drops the last reference, and
// the next load reads the file into that buffer and writes its index
// into that array.  A steady-state RELOAD therefore allocates nothing
// and takes no page faults.  Between reloads the spare holds one buffer
// and one index: the memory a reload holds at its peak anyway.  A pair
// still pinned by a reader is never recycled, because nothing is handed
// over before its last reference drops.  Mapped loads leave the spare
// buffer alone, and snapshots passed to Swap (a stream publish, say)
// are simply freed.
//
// Implementation note: the publish point is a shared_ptr guarded by a
// std::shared_mutex rather than std::atomic<std::shared_ptr>.  The
// libstdc++ (12) _Sp_atomic unlocks its reader-side spinlock with a
// relaxed fetch_sub, so a reader's unprotected read of the stored
// pointer has no happens-before edge to the next store's write of it —
// ThreadSanitizer reports that (correctly, by the letter of the memory
// model) as a data race.  The shared lock is held only for the pointer
// copy (two uncontended atomic RMWs); all query work, and every index
// build, happens outside it.
//
// Failed reloads leave the current snapshot untouched (and are counted),
// so a corrupt or half-written file can never take the service down.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "serve/lookup.h"
#include "serve/snapshot.h"

namespace hobbit::serve {

/// One published state: a snapshot and the index built over its keys,
/// immutable once published.
struct PublishedSnapshot {
  std::shared_ptr<const Snapshot> snapshot;
  EytzingerIndex index;
};

class SnapshotStore {
 public:
  SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// The currently served snapshot and its index; null until the first
  /// Swap/Reload.  Readers only ever contend on the refcount and
  /// (briefly) a reloading writer — never on each other's queries.
  std::shared_ptr<const PublishedSnapshot> Published() const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return current_;
  }

  /// The currently served snapshot; null until the first Swap/Reload.
  std::shared_ptr<const Snapshot> Current() const {
    std::shared_ptr<const PublishedSnapshot> published = Published();
    return published == nullptr ? nullptr : published->snapshot;
  }

  /// Publishes `snapshot` (may be null to take the store offline) with
  /// its index and returns the new generation number.  Generation 0 ==
  /// never loaded.
  std::uint64_t Swap(std::shared_ptr<const Snapshot> snapshot);

  /// Validates `path` as a snapshot and swaps it in on success.
  /// `options` selects mmap zero-copy and/or deferred payload
  /// verification (see SnapshotLoadOptions); the default is the owned,
  /// fully-verified read.  On failure returns false, stores a message in
  /// *error (when non-null) and leaves the served snapshot untouched.
  bool ReloadFromFile(const std::string& path, std::string* error = nullptr,
                      const SnapshotLoadOptions& options = {});

  /// Monotonic count of successful swaps.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Count of rejected reloads (validation failures).
  std::uint64_t failed_reloads() const {
    return failed_reloads_.load(std::memory_order_relaxed);
  }

 private:
  struct Spare;

  /// Publishes a pair this store loaded, whose memory goes to the spare
  /// when the last reference to it drops.
  std::uint64_t PublishBuilt(Snapshot snapshot, EytzingerIndex index);
  /// Makes `published` current; every publish path ends here.
  std::uint64_t Publish(std::shared_ptr<const PublishedSnapshot> published);

  /// Shared with the deleters of the pairs this store built, which may
  /// run on any thread and after the store is gone.
  std::shared_ptr<Spare> spare_;
  mutable std::shared_mutex mutex_;
  std::shared_ptr<const PublishedSnapshot> current_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> failed_reloads_{0};
};

}  // namespace hobbit::serve

#include "serve/store.h"

#include "serve/delta.h"
#include "serve/wire.h"

namespace hobbit::serve {

const char* ToString(PublishKind kind) {
  switch (kind) {
    case PublishKind::kNone: return "none";
    case PublishKind::kFull: return "full";
    case PublishKind::kDelta: return "delta";
  }
  return "?";
}

std::uint64_t SnapshotStore::SwapWithKind(
    std::shared_ptr<const Snapshot> snapshot, PublishKind kind,
    std::uint64_t delta_entries) {
  // The index is built before the lock is taken, and the old pair's
  // release (possibly the last reference) runs after it is dropped.
  std::shared_ptr<const PublishedSnapshot> published;
  if (snapshot != nullptr) {
    EytzingerIndex index = EytzingerIndex::Build(*snapshot);
    published = std::make_shared<const PublishedSnapshot>(
        PublishedSnapshot{std::move(snapshot), std::move(index)});
  }
  std::shared_ptr<const PublishedSnapshot> retired;
  std::uint64_t generation;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    retired = std::move(current_);
    current_ = std::move(published);
    generation = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
    last_kind_.store(kind, std::memory_order_release);
    last_delta_entries_.store(delta_entries, std::memory_order_release);
  }
  return generation;
}

bool SnapshotStore::ReloadFromFile(const std::string& path, std::string* error,
                                   const SnapshotLoadOptions& options) {
  std::optional<Snapshot> loaded = Snapshot::FromFile(path, error, options);
  if (!loaded) {
    failed_reloads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Swap(std::make_shared<const Snapshot>(*std::move(loaded)));
  return true;
}

bool SnapshotStore::PublishPatch(std::span<const std::byte> patch,
                                 std::string* error) {
  // Pin the base once: concurrent full swaps between here and the
  // publish would change the base out from under the patch, but the
  // patch's base_checksum check already rejects that case explicitly.
  std::shared_ptr<const Snapshot> base = Current();
  if (base == nullptr) {
    if (error != nullptr) *error = "no base snapshot published yet";
    failed_reloads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::optional<std::vector<std::byte>> patched =
      ApplyPatch(*base, patch, error);
  if (!patched) {
    failed_reloads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::optional<Snapshot> loaded =
      Snapshot::FromBuffer(*std::move(patched), error);
  if (!loaded) {
    failed_reloads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // upsert_count + remove_count, straight from the validated header.
  const std::uint64_t delta_entries =
      std::uint64_t{wire::ReadU32(patch.data() + 12)} +
      wire::ReadU32(patch.data() + 16);
  SwapWithKind(std::make_shared<const Snapshot>(*std::move(loaded)),
               PublishKind::kDelta, delta_entries);
  return true;
}

}  // namespace hobbit::serve

#include "serve/store.h"

#include <mutex>
#include <utility>
#include <vector>

namespace hobbit::serve {

/// The retired memory the next load reuses: one owned file buffer and
/// one index key array.  An empty slot takes the first one released;
/// anything that finds its slot full is freed by its caller, outside the
/// lock.
struct SnapshotStore::Spare {
  std::mutex mutex;
  std::vector<std::byte> buffer;
  EytzingerIndex index;

  std::vector<std::byte> TakeBuffer() {
    std::lock_guard<std::mutex> lock(mutex);
    return std::move(buffer);
  }
  EytzingerIndex TakeIndex() {
    std::lock_guard<std::mutex> lock(mutex);
    return std::move(index);
  }
  void Keep(std::vector<std::byte>& retired) {
    std::lock_guard<std::mutex> lock(mutex);
    if (buffer.capacity() == 0) std::swap(buffer, retired);
  }
  void Keep(EytzingerIndex& retired) {
    std::lock_guard<std::mutex> lock(mutex);
    if (index.capacity() == 0) std::swap(index, retired);
  }
};

SnapshotStore::SnapshotStore() : spare_(std::make_shared<Spare>()) {}

std::uint64_t SnapshotStore::Swap(std::shared_ptr<const Snapshot> snapshot) {
  if (snapshot == nullptr) return Publish(nullptr);
  // The index is built before the lock is taken.
  EytzingerIndex index = EytzingerIndex::Build(*snapshot);
  return Publish(std::make_shared<const PublishedSnapshot>(
      PublishedSnapshot{std::move(snapshot), std::move(index)}));
}

std::uint64_t SnapshotStore::PublishBuilt(Snapshot snapshot,
                                          EytzingerIndex index) {
  // Whichever thread drops the last reference hands the memory to the
  // spare; the snapshot and the pair can retire separately, since a
  // reader may hold Current() past the pair.
  std::shared_ptr<Spare> spare = spare_;
  std::shared_ptr<const Snapshot> shared(
      new Snapshot(std::move(snapshot)), [spare](Snapshot* retired) {
        std::vector<std::byte> buffer = std::move(*retired).TakeBuffer();
        delete retired;
        spare->Keep(buffer);
      });
  std::shared_ptr<const PublishedSnapshot> published(
      new PublishedSnapshot{std::move(shared), std::move(index)},
      [spare](PublishedSnapshot* retired) {
        EytzingerIndex index = std::move(retired->index);
        delete retired;
        spare->Keep(index);
      });
  return Publish(std::move(published));
}

std::uint64_t SnapshotStore::Publish(
    std::shared_ptr<const PublishedSnapshot> published) {
  // The old pair's release (possibly the last reference) runs after the
  // lock is dropped.
  std::shared_ptr<const PublishedSnapshot> retired;
  std::uint64_t generation;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    retired = std::move(current_);
    current_ = std::move(published);
    generation = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  return generation;
}

bool SnapshotStore::ReloadFromFile(const std::string& path, std::string* error,
                                   const SnapshotLoadOptions& options) {
  std::vector<std::byte> buffer = spare_->TakeBuffer();
  EytzingerIndex index = spare_->TakeIndex();
  std::optional<Snapshot> loaded =
      Snapshot::FromFile(path, error, options, &buffer, &index);
  spare_->Keep(buffer);  // a failed or mapped load left it unused
  if (!loaded) {
    failed_reloads_.fetch_add(1, std::memory_order_relaxed);
    spare_->Keep(index);
    return false;
  }
  PublishBuilt(*std::move(loaded), std::move(index));
  return true;
}

}  // namespace hobbit::serve

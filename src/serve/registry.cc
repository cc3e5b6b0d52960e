#include "serve/registry.h"

#include <utility>

#include "store/graph_file.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace locs::serve {

std::shared_ptr<const ServedGraph> GraphRegistry::Load(
    const std::string& name, const std::string& path, IoError* error,
    bool* full, LoadSource source, bool* image_attempted) {
  if (full != nullptr) *full = false;
  if (image_attempted != nullptr) *image_attempted = false;
  // Chaos hook: a registry-load fault surfaces as an ordinary IO error
  // on this LOAD; graphs already registered keep serving untouched.
  if (LOCS_FAILPOINT("serve.registry.load_error")) {
    if (error != nullptr) {
      error->kind = IoErrorKind::kOpen;
      error->message = "injected registry load fault";
    }
    return nullptr;
  }
  {
    // Capacity pre-check: refuse before paying the parse when the name is
    // new and the registry is full. Rechecked at insert (another session
    // may fill the last slot while we parse); the pre-check only makes
    // the common rejection cheap.
    MutexLock lock(mutex_);
    if (graphs_.size() >= max_graphs_ && graphs_.count(name) == 0) {
      if (full != nullptr) *full = true;
      return nullptr;
    }
  }
  // File IO and index building run outside the registry lock: concurrent
  // LOADs of different graphs overlap, and lookups never wait on a load.
  // The store decides the file's format (a compiled image is picked up
  // under any name); LOADIMG forces the image reader, which rejects
  // non-images with a typed error.
  WallTimer timer;
  const store::GraphFormat format =
      source == LoadSource::kImage ? store::GraphFormat::kImage
                                   : store::DetectGraphFormat(path);
  if (image_attempted != nullptr) {
    *image_attempted = format == store::GraphFormat::kImage;
  }
  auto file = store::LoadGraphFile(path, error, format);
  if (!file.has_value()) return nullptr;
  const double load_ms = timer.Millis();
  std::shared_ptr<ServedGraph> entry;
  if (file->image.has_value()) {
    // Nothing to build: the image holds every precomputation.
    entry = std::make_shared<ServedGraph>(name, path,
                                          std::move(*file->image));
  } else {
    timer.Restart();
    entry = std::make_shared<ServedGraph>(name, path,
                                          std::move(file->graph));
    entry->build_ms = timer.Millis();
  }
  entry->load_ms = load_ms;
  entry->epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(mutex_);
  auto [it, inserted] = graphs_.try_emplace(name, entry);
  if (!inserted) {
    it->second = entry;  // replacing LOAD: last writer wins
  } else if (graphs_.size() > max_graphs_) {
    graphs_.erase(it);  // lost the race for the final slot
    if (full != nullptr) *full = true;
    return nullptr;
  }
  return entry;
}

std::shared_ptr<const ServedGraph> GraphRegistry::Get(
    const std::string& name) const {
  MutexLock lock(mutex_);
  const auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second;
}

bool GraphRegistry::Evict(const std::string& name) {
  std::shared_ptr<const ServedGraph> doomed;
  MutexLock lock(mutex_);
  const auto it = graphs_.find(name);
  if (it == graphs_.end()) return false;
  // Move the reference out so the (potentially large) graph destruction
  // runs after the map update; if sessions still hold the entry it simply
  // outlives the registry reference.
  doomed = std::move(it->second);
  graphs_.erase(it);
  return true;
}

std::vector<GraphRegistry::GraphInfo> GraphRegistry::List() const {
  std::vector<GraphInfo> infos;
  MutexLock lock(mutex_);
  infos.reserve(graphs_.size());
  for (const auto& [name, entry] : graphs_) {
    GraphInfo info;
    info.name = name;
    info.vertices = entry->graph.NumVertices();
    info.edges = entry->graph.NumEdges();
    infos.push_back(std::move(info));
  }
  return infos;
}

size_t GraphRegistry::size() const {
  MutexLock lock(mutex_);
  return graphs_.size();
}

}  // namespace locs::serve

#include "mec/edge_cache.h"

#include <limits>

#include "common/error.h"

namespace ice::mec {

EdgeCache::EdgeCache(std::size_t capacity, EvictionPolicy policy)
    : capacity_(capacity), policy_(policy) {
  if (capacity == 0) throw ParamError("EdgeCache: capacity must be >= 1");
}

void EdgeCache::touch(Entry& e) {
  ++clock_;
  e.freq++;
  e.last_use = clock_;
}

std::optional<Bytes> EdgeCache::get(std::size_t index) {
  auto it = entries_.find(index);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  touch(it->second);
  return it->second.data;
}

std::size_t EdgeCache::pick_victim() const {
  // Dirty blocks are not eviction candidates (they hold the only copy).
  const Entry* best = nullptr;
  std::size_t best_index = 0;
  for (const auto& [index, e] : entries_) {
    if (e.dirty) continue;
    bool better = false;
    if (best == nullptr) {
      better = true;
    } else {
      switch (policy_) {
        case EvictionPolicy::kLru:
          better = e.last_use < best->last_use;
          break;
        case EvictionPolicy::kLfu:
          better = e.freq < best->freq ||
                   (e.freq == best->freq && e.last_use < best->last_use);
          break;
        case EvictionPolicy::kFifo:
          better = e.admitted < best->admitted;
          break;
      }
    }
    if (better) {
      best = &e;
      best_index = index;
    }
  }
  if (best == nullptr) {
    throw ProtocolError(
        "EdgeCache: all blocks dirty — flush write-backs before admitting");
  }
  return best_index;
}

std::optional<std::size_t> EdgeCache::admit(std::size_t index, Bytes data) {
  auto it = entries_.find(index);
  if (it != entries_.end()) {
    // Re-admission refreshes a clean copy; never clobber a dirty block.
    if (it->second.dirty) {
      throw ProtocolError("EdgeCache::admit: block is dirty");
    }
    it->second.data = std::move(data);
    touch(it->second);
    return std::nullopt;
  }
  std::optional<std::size_t> evicted;
  if (entries_.size() == capacity_) {
    evicted = pick_victim();
    entries_.erase(*evicted);
  }
  ++clock_;
  Entry e;
  e.data = std::move(data);
  e.freq = 1;
  e.last_use = clock_;
  e.admitted = clock_;
  entries_.emplace(index, std::move(e));
  return evicted;
}

void EdgeCache::write(std::size_t index, Bytes data) {
  auto it = entries_.find(index);
  if (it == entries_.end()) {
    throw ParamError("EdgeCache::write: block not cached");
  }
  it->second.data = std::move(data);
  it->second.dirty = true;
  touch(it->second);
}

std::vector<std::pair<std::size_t, Bytes>> EdgeCache::flush() {
  std::vector<std::pair<std::size_t, Bytes>> out;
  for (auto& [index, e] : entries_) {
    if (e.dirty) {
      out.emplace_back(index, e.data);
      e.dirty = false;
    }
  }
  return out;
}

bool EdgeCache::contains(std::size_t index) const {
  return entries_.contains(index);
}

std::optional<std::size_t> EdgeCache::block_size(std::size_t index) const {
  const auto it = entries_.find(index);
  if (it == entries_.end()) return std::nullopt;
  return it->second.data.size();
}

void EdgeCache::mark_clean(std::size_t index) {
  auto it = entries_.find(index);
  if (it == entries_.end()) {
    throw ParamError("EdgeCache::mark_clean: block not cached");
  }
  it->second.dirty = false;
}

bool EdgeCache::dirty(std::size_t index) const {
  auto it = entries_.find(index);
  return it != entries_.end() && it->second.dirty;
}

std::vector<std::size_t> EdgeCache::cached_indices() const {
  std::vector<std::size_t> out;
  out.reserve(entries_.size());
  for (const auto& [index, _] : entries_) out.push_back(index);
  return out;  // std::map iteration is already sorted
}

Bytes& EdgeCache::raw_block(std::size_t index) {
  auto it = entries_.find(index);
  if (it == entries_.end()) {
    throw ParamError("EdgeCache::raw_block: block not cached");
  }
  return it->second.data;
}

}  // namespace ice::mec

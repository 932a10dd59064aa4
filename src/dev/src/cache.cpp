#include "stash/dev/cache.hpp"

#include <algorithm>
#include <utility>

namespace stash::dev {

ReadCache::ReadCache(std::size_t capacity_pages, std::uint32_t shards)
    : capacity_(capacity_pages), shards_(std::max<std::uint32_t>(1, shards)) {
  // Exact distribution: flooring capacity/shards would silently shrink the
  // cache (100/16 -> 96) and rounding every shard up to one page would
  // inflate tiny ones (4/16 -> 16); hand the remainder out one page at a
  // time instead so the shard budgets sum to capacity_pages exactly.
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) {
    shards_[i].capacity =
        capacity_pages / n + (i < capacity_pages % n ? 1 : 0);
  }
}

std::optional<PageRef> ReadCache::lookup(std::uint64_t lpn) {
  if (!enabled()) return std::nullopt;
  Shard& s = shard_of(lpn);
  const std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(lpn);
  if (it == s.index.end()) return std::nullopt;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
  return it->second->second;
}

void ReadCache::insert(std::uint64_t lpn, PageRef bits) {
  if (!enabled()) return;
  Shard& s = shard_of(lpn);
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.capacity == 0) return;  // this shard got no pages
  if (const auto it = s.index.find(lpn); it != s.index.end()) {
    it->second->second = std::move(bits);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.emplace_front(lpn, std::move(bits));
  s.index.emplace(lpn, s.lru.begin());
  while (s.lru.size() > s.capacity) {
    s.index.erase(s.lru.back().first);
    s.lru.pop_back();
  }
}

void ReadCache::invalidate(std::uint64_t lpn) {
  if (!enabled()) return;
  Shard& s = shard_of(lpn);
  const std::lock_guard<std::mutex> lock(s.mu);
  if (const auto it = s.index.find(lpn); it != s.index.end()) {
    s.lru.erase(it->second);
    s.index.erase(it);
  }
}

void ReadCache::clear() {
  for (Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    s.lru.clear();
    s.index.clear();
  }
}

std::size_t ReadCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    const std::lock_guard<std::mutex> lock(s.mu);
    n += s.lru.size();
  }
  return n;
}

WriteBackBuffer::WriteBackBuffer(std::size_t half_pages)
    : half_pages_(std::max<std::size_t>(1, half_pages)) {
  open_.reserve(half_pages_);
  destaging_.reserve(half_pages_);
}

bool WriteBackBuffer::put(std::uint64_t lpn, PageRef bits) {
  if (const auto it = open_index_.find(lpn); it != open_index_.end()) {
    Entry& entry = open_[it->second];
    entry.bits = std::move(bits);
    entry.trim = false;
    return true;
  }
  open_index_.emplace(lpn, open_.size());
  open_.push_back(Entry{lpn, std::move(bits), false, false});
  return false;
}

bool WriteBackBuffer::put_trim(std::uint64_t lpn) {
  if (const auto it = open_index_.find(lpn); it != open_index_.end()) {
    Entry& entry = open_[it->second];
    entry.bits = PageRef{};
    entry.trim = true;
    return true;
  }
  open_index_.emplace(lpn, open_.size());
  open_.push_back(Entry{lpn, {}, true, false});
  return false;
}

const WriteBackBuffer::Entry* WriteBackBuffer::find(std::uint64_t lpn) const {
  if (const auto it = open_index_.find(lpn); it != open_index_.end()) {
    return &open_[it->second];
  }
  const auto it = destaging_index_.find(lpn);
  return it == destaging_index_.end() ? nullptr : &destaging_[it->second];
}

const std::vector<WriteBackBuffer::Entry>& WriteBackBuffer::hand_off() {
  std::vector<Entry> next;
  next.reserve(half_pages_);
  for (Entry& entry : destaging_) {
    if (!entry.programmed && !open_index_.contains(entry.lpn)) {
      next.push_back(std::move(entry));
    }
  }
  for (Entry& entry : open_) next.push_back(std::move(entry));
  destaging_ = std::move(next);
  destaging_index_.clear();
  for (std::size_t i = 0; i < destaging_.size(); ++i) {
    destaging_index_.emplace(destaging_[i].lpn, i);
  }
  open_.clear();
  open_index_.clear();
  return destaging_;
}

void WriteBackBuffer::retire() {
  std::erase_if(destaging_, [](const Entry& e) { return e.programmed; });
  destaging_index_.clear();
  for (std::size_t i = 0; i < destaging_.size(); ++i) {
    destaging_index_.emplace(destaging_[i].lpn, i);
  }
}

bool WriteBackBuffer::needs_destage() const {
  return !open_.empty() ||
         std::any_of(destaging_.begin(), destaging_.end(),
                     [](const Entry& e) { return !e.programmed; });
}

std::size_t WriteBackBuffer::pending_writes() const {
  const auto unflushed = [](const Entry& e) { return !e.trim && !e.programmed; };
  return static_cast<std::size_t>(
      std::count_if(open_.begin(), open_.end(), unflushed) +
      std::count_if(destaging_.begin(), destaging_.end(), unflushed));
}

std::vector<std::uint64_t> WriteBackBuffer::drop_all() {
  std::vector<std::uint64_t> lost;
  for (const Entry& entry : destaging_) {
    if (!entry.trim && !entry.programmed &&
        !open_index_.contains(entry.lpn)) {
      lost.push_back(entry.lpn);
    }
  }
  for (const Entry& entry : open_) {
    if (!entry.trim) lost.push_back(entry.lpn);
  }
  open_.clear();
  open_index_.clear();
  destaging_.clear();
  destaging_index_.clear();
  return lost;
}

}  // namespace stash::dev

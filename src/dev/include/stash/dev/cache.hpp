#pragma once
// Caching building blocks of the StashDevice frontend.
//
// ReadCache — a sharded LRU over logical pages.  Shard = lpn % shards, each
// shard its own mutex + LRU list, so concurrent lookups on different shards
// never contend.  Capacity is distributed exactly: base capacity/shards
// pages per shard plus one of the remainder to the first capacity%shards
// shards, so the per-shard budgets always sum to the configured total (a
// shard can have zero pages when capacity < shards; its lookups simply
// always miss).
//
// WriteBackBuffer — the volatile staging area of acknowledged writes,
// double-buffered.  Writes land in the *open* half: one entry per lpn in
// first-touch order; rewriting a buffered lpn coalesces in place (the flash
// never sees the overwritten version), and trim buffers a tombstone the
// same way.  An open half holding half_pages entries is *sealed*;
// hand_off() turns it into the *destaging* half, which StashDevice programs
// in the background while the next open half fills.  A destaged half stays
// readable until the next hand_off() or retire(), so what a read finds is a
// function of the submission sequence alone.  The two halves together ARE
// the acked-but-not-durable set: a power cut wipes them, and the writes
// among them that never reached flash are exactly the data the device must
// then report lost (see StashDevice::power_cycle).

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "stash/dev/arena.hpp"

namespace stash::dev {

class ReadCache {
 public:
  /// capacity_pages == 0 disables the cache (lookups miss, inserts drop).
  ReadCache(std::size_t capacity_pages, std::uint32_t shards);

  /// A hit is a refcount bump on the cached PageRef — the page bits are
  /// shared with whoever inserted them, never copied out.
  [[nodiscard]] std::optional<PageRef> lookup(std::uint64_t lpn);
  void insert(std::uint64_t lpn, PageRef bits);
  void invalidate(std::uint64_t lpn);
  void clear();

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  /// Total configured capacity (the exact sum of the per-shard budgets).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Capacity assigned to one shard (test introspection).
  [[nodiscard]] std::size_t shard_capacity(std::size_t shard) const {
    return shards_.at(shard).capacity;
  }
  [[nodiscard]] std::size_t size() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<std::uint64_t, PageRef>> lru;
    std::unordered_map<std::uint64_t, decltype(lru)::iterator> index;
    std::size_t capacity = 0;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t lpn) {
    return shards_[lpn % shards_.size()];
  }

  std::size_t capacity_;
  std::vector<Shard> shards_;
};

class WriteBackBuffer {
 public:
  struct Entry {
    std::uint64_t lpn = 0;
    PageRef bits;  // empty for a trim tombstone
    bool trim = false;
    /// Destaging half only: the entry reached flash.
    bool programmed = false;
  };

  /// Each half holds at most max(1, half_pages) entries.
  explicit WriteBackBuffer(std::size_t half_pages);

  /// Stage a write in the open half; returns true when it coalesced into
  /// an existing open entry.  The staged PageRef is shared with buffer-hit
  /// readers until retired.
  bool put(std::uint64_t lpn, PageRef bits);
  /// Stage a trim tombstone for `lpn` in the open half.
  bool put_trim(std::uint64_t lpn);

  /// Newest staged entry for `lpn` (open half, then destaging half), or
  /// nullptr when the lpn is not buffered.
  [[nodiscard]] const Entry* find(std::uint64_t lpn) const;

  [[nodiscard]] std::size_t half_pages() const noexcept { return half_pages_; }
  /// The open half is full: it must be handed off before it takes more.
  [[nodiscard]] bool sealed() const noexcept {
    return open_.size() >= half_pages_;
  }
  /// Start a destage: retire the destaging half — programmed entries drop;
  /// unprogrammed ones (a failed destage) carry over unless the open half
  /// rewrote them — and move the open half in behind the carried entries.
  /// Returns the new destaging half, in staging order.
  const std::vector<Entry>& hand_off();
  /// Record that destaging entry `i` reached flash.
  void mark_programmed(std::size_t i) { destaging_.at(i).programmed = true; }
  /// Drop the programmed entries of the destaging half (the end of a
  /// flush); unprogrammed ones stay staged.
  void retire();
  /// True when a hand_off() would destage anything.
  [[nodiscard]] bool needs_destage() const;

  [[nodiscard]] const std::vector<Entry>& destaging() const noexcept {
    return destaging_;
  }
  [[nodiscard]] std::size_t open_size() const noexcept { return open_.size(); }
  /// Staged entries over both halves.
  [[nodiscard]] std::size_t size() const noexcept {
    return open_.size() + destaging_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Staged writes not yet in flash (trim tombstones excluded): the data a
  /// power cut would lose.
  [[nodiscard]] std::size_t pending_writes() const;

  /// Drop everything (power loss).  Returns the lpns the drop loses, in
  /// staging order: each lpn whose newest entry is a write that never
  /// reached flash.
  std::vector<std::uint64_t> drop_all();

 private:
  using Index = std::unordered_map<std::uint64_t, std::size_t>;

  std::size_t half_pages_;
  std::vector<Entry> open_;
  Index open_index_;
  std::vector<Entry> destaging_;
  Index destaging_index_;
};

}  // namespace stash::dev

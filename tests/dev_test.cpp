// StashDevice tests: the async frontend's request scheduler (QoS ordering,
// deadline dispatch, batching/coalescing), read cache and write-back buffer
// semantics, the uniform config-validation contract, batch-API convention,
// thread-count determinism, device-level hidden-volume sharding, and the
// power-cut durability battery (flush-acknowledged data survives a cut at
// every operation index; unflushed data is reported lost, never corrupted),
// and the background destage contract.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "stash/dev/cache.hpp"
#include "stash/dev/device.hpp"
#include "stash/fault/plan.hpp"
#include "stash/util/rng.hpp"
#include "stash/util/wire.hpp"

namespace stash::dev {
namespace {

using crypto::HidingKey;
using util::ErrorCode;

HidingKey test_key(std::uint8_t fill = 0x3d) {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(fill);
  return HidingKey(raw);
}

DeviceConfig tiny_config() {
  DeviceConfig config;  // tiny geometry, 1 chip, inline pool
  config.seed = 2024;
  return config;
}

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

std::size_t hamming(std::span<const std::uint8_t> a,
                    std::span<const std::uint8_t> b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    d += (a[i] ^ b[i]) & 1;
  }
  return d;
}

/// True when `read` is unambiguously the (noisy) readback of `wrote`:
/// within a quarter of the page of it, since random patterns differ in
/// about half their bits.
bool matches(std::span<const std::uint8_t> read,
             const std::vector<std::uint8_t>& wrote) {
  return hamming(read, wrote) < wrote.size() / 4;
}

// ---- Uniform config-validation contract (satellite: Status validate()) ----

TEST(DevConfig, ValidateRejectsBadSchedulerKnobs) {
  DeviceConfig config = tiny_config();
  EXPECT_TRUE(config.validate().is_ok());

  config.chips = 0;
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
  config = tiny_config();
  config.queue_depth = 0;
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
  config = tiny_config();
  config.batch_pages = config.queue_depth + 1;
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
  config = tiny_config();
  config.deadline_ticks = 0;
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
  config = tiny_config();
  config.read_cache_shards = 0;
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
}

TEST(DevConfig, ValidatePropagatesNestedLayerConfigs) {
  DeviceConfig config = tiny_config();
  config.ftl.overprovision = 1.5;  // invalid FtlConfig
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);

  config = tiny_config();
  config.vthi.channel.vth = 0;  // invalid VthiConfig
  EXPECT_EQ(config.validate().code(), ErrorCode::kInvalidArgument);
}

TEST(DevConfig, ConstructorThrowsOnInvalidConfig) {
  DeviceConfig config = tiny_config();
  config.queue_depth = 0;
  EXPECT_THROW(StashDevice(config, test_key()), std::invalid_argument);
}

TEST(DevConfig, SiblingLayerConfigsShareTheContract) {
  ftl::FtlConfig ftl;
  ftl.gc_low_watermark = 0;
  EXPECT_EQ(ftl.validate().code(), ErrorCode::kInvalidArgument);

  vthi::VthiConfig vthi;
  vthi.channel.select_guard = vthi.channel.vth;  // guard must exceed the threshold
  EXPECT_EQ(vthi.validate().code(), ErrorCode::kInvalidArgument);

  stego::StegoConfig stego;
  stego.ftl.max_program_retries = 0;
  EXPECT_EQ(stego.validate().code(), ErrorCode::kInvalidArgument);
}

// ---- Basic I/O, write-back semantics, bounds ------------------------------

TEST(DevIo, ReadYourWritesThroughBufferThenFlash) {
  StashDevice dev(tiny_config(), test_key());
  const auto page = page_pattern(dev.page_bits(), 7);
  ASSERT_TRUE(dev.write(3, page).is_ok());

  // Before any flush, the read is served verbatim from the write-back
  // buffer — exact bytes, no flash noise, no flash read op.
  const auto before = dev.ledger().reads;
  auto staged = dev.read(3);
  ASSERT_TRUE(staged.is_ok());
  EXPECT_EQ(staged.value(), page);
  EXPECT_EQ(dev.ledger().reads, before);
  EXPECT_GE(dev.stats_snapshot().buffer_hits, 1u);

  ASSERT_TRUE(dev.flush().is_ok());
  auto durable = dev.read(3);
  ASSERT_TRUE(durable.is_ok());
  EXPECT_TRUE(matches(durable.value(), page));
}

TEST(DevIo, TrimTombstonesThroughBufferAndFlash) {
  StashDevice dev(tiny_config(), test_key());
  const auto page = page_pattern(dev.page_bits(), 11);
  ASSERT_TRUE(dev.write(0, page).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  ASSERT_TRUE(dev.trim(0).is_ok());
  // Buffered tombstone answers before flush...
  EXPECT_EQ(dev.read(0).status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(dev.flush().is_ok());
  // ...and the FTL answers after.
  EXPECT_EQ(dev.read(0).status().code(), ErrorCode::kNotFound);
}

TEST(DevIo, BoundsAndSizeErrorsAreStatuses) {
  StashDevice dev(tiny_config(), test_key());
  EXPECT_EQ(dev.read(dev.logical_pages()).status().code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(dev.write(dev.logical_pages(), page_pattern(dev.page_bits(), 1))
                .code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(dev.trim(dev.logical_pages()).code(), ErrorCode::kOutOfBounds);
  EXPECT_EQ(dev.write(0, std::vector<std::uint8_t>(3)).code(),
            ErrorCode::kInvalidArgument);
}

// A read the chip fails (an interrupting fault returns no cells) is a
// failed request, not an OK empty page — and it must not be cached, or the
// next clean read of the page would serve the empty result.
TEST(DevIo, FailedFlashReadIsAnErrorAndIsNeverCached) {
  StashDevice dev(tiny_config(), test_key());
  const auto page = page_pattern(dev.page_bits(), 13);
  ASSERT_TRUE(dev.write(0, page).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  fault::FaultPlan plan(3);
  plan.fail_read_at(0);
  dev.set_fault_injector(&plan);
  auto failed = dev.read(0);
  dev.set_fault_injector(nullptr);
  ASSERT_EQ(plan.stats().read_fails, 1u);
  EXPECT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), ErrorCode::kUncorrectable);

  const auto reads_before = dev.ledger().reads;
  auto clean = dev.read(0);
  ASSERT_TRUE(clean.is_ok());
  EXPECT_EQ(clean.value().size(), dev.page_bits());
  EXPECT_TRUE(matches(clean.value(), page));
  EXPECT_GT(dev.ledger().reads, reads_before);  // served from flash
  EXPECT_EQ(dev.stats_snapshot().cache_hits, 0u);
}

TEST(DevIo, WriteThroughModeIsDurableOnAck) {
  DeviceConfig config = tiny_config();
  config.write_back_pages = 0;  // write-through
  StashDevice dev(config, test_key());
  const auto page = page_pattern(dev.page_bits(), 21);
  const auto programs_before = dev.ledger().programs;
  ASSERT_TRUE(dev.write(5, page).is_ok());
  EXPECT_GT(dev.ledger().programs, programs_before);
  auto r = dev.read(5);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(matches(r.value(), page));
}

TEST(DevIo, RewritesCoalesceInTheBuffer) {
  StashDevice dev(tiny_config(), test_key());
  const auto v1 = page_pattern(dev.page_bits(), 31);
  const auto v2 = page_pattern(dev.page_bits(), 32);
  ASSERT_TRUE(dev.write(2, v1).is_ok());
  ASSERT_TRUE(dev.write(2, v2).is_ok());
  EXPECT_EQ(dev.stats_snapshot().coalesced_writes, 1u);

  const auto programs_before = dev.ledger().programs;
  ASSERT_TRUE(dev.flush().is_ok());
  // Only the surviving version reaches flash.
  EXPECT_EQ(dev.ledger().programs, programs_before + 1);
  auto r = dev.read(2);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(matches(r.value(), v2));
}

TEST(DevIo, BufferCapacityTriggersBackpressureFlush) {
  // write_back_pages = 4 is two halves of 2: the second write seals the
  // open half and, nothing being in flight, hands it to the background
  // destage before the write returns.
  DeviceConfig config = tiny_config();
  config.write_back_pages = 4;
  StashDevice dev(config, test_key());
  const auto programs_before = dev.ledger().programs;
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
    ASSERT_TRUE(dev.write(lpn, page_pattern(dev.page_bits(), 40 + lpn))
                    .is_ok());
    if (lpn == 1) {
      EXPECT_EQ(dev.stats_snapshot().flushes, 1u);
    }
  }
  ASSERT_TRUE(dev.flush().is_ok());
  const auto stats = dev.stats_snapshot();
  // Both halves destaged (the second sealed at the bound too), each page
  // programmed exactly once.
  EXPECT_EQ(stats.flushes, 2u);
  EXPECT_GE(stats.flushed_pages, 4u);
  EXPECT_EQ(dev.ledger().programs, programs_before + 4);
  for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(matches(r.value(), page_pattern(dev.page_bits(), 40 + lpn)));
  }
}

// ---- Read cache -----------------------------------------------------------

TEST(DevCache, RepeatReadsServeFromCacheWithoutFlashReads) {
  StashDevice dev(tiny_config(), test_key());
  const auto page = page_pattern(dev.page_bits(), 51);
  ASSERT_TRUE(dev.write(1, page).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  auto first = dev.read(1);
  ASSERT_TRUE(first.is_ok());
  const auto reads_after_miss = dev.ledger().reads;
  auto second = dev.read(1);
  ASSERT_TRUE(second.is_ok());
  // The cached copy is the first read's exact snapshot and costs no op.
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(dev.ledger().reads, reads_after_miss);
  const auto stats = dev.stats_snapshot();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GT(stats.cache_hit_ratio(), 0.0);
}

TEST(DevCache, WritesInvalidateTheCachedPage) {
  StashDevice dev(tiny_config(), test_key());
  const auto v1 = page_pattern(dev.page_bits(), 61);
  const auto v2 = page_pattern(dev.page_bits(), 62);
  ASSERT_TRUE(dev.write(4, v1).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_TRUE(dev.read(4).is_ok());  // populate cache with v1

  ASSERT_TRUE(dev.write(4, v2).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  auto r = dev.read(4);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(matches(r.value(), v2));
}

TEST(DevCache, ZeroCapacityDisablesTheCache) {
  DeviceConfig config = tiny_config();
  config.read_cache_pages = 0;
  StashDevice dev(config, test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 71)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  ASSERT_TRUE(dev.read(0).is_ok());
  const auto reads_before = dev.ledger().reads;
  ASSERT_TRUE(dev.read(0).is_ok());
  EXPECT_GT(dev.ledger().reads, reads_before);  // every read hits flash
  EXPECT_EQ(dev.stats_snapshot().cache_hits, 0u);
}

TEST(DevCache, ShardCapacitiesSumToConfiguredTotal) {
  // The per-shard budgets must always sum to the configured capacity,
  // divisible or not.
  for (const auto& [capacity, shards] :
       {std::pair<std::size_t, std::uint32_t>{64, 4},
        {100, 16},
        {4, 16},
        {7, 3},
        {1, 8}}) {
    ReadCache cache(capacity, shards);
    std::size_t sum = 0;
    for (std::uint32_t s = 0; s < shards; ++s) sum += cache.shard_capacity(s);
    EXPECT_EQ(sum, capacity) << capacity << " pages over " << shards;
    EXPECT_EQ(cache.capacity(), capacity);
  }
}

TEST(DevCache, NonDivisibleCapacityIsExactNotRounded) {
  // 100 pages over 16 shards used to floor to 6 per shard (96 total);
  // 4 pages over 16 shards used to inflate to 1 per shard (16 total).
  // The remainder now goes one page at a time to the leading shards.
  ReadCache floored(100, 16);
  for (std::uint32_t s = 0; s < 16; ++s) {
    EXPECT_EQ(floored.shard_capacity(s), s < 4 ? 7u : 6u) << "shard " << s;
  }

  ReadCache inflated(4, 16);
  std::size_t populated = 0;
  for (std::uint32_t s = 0; s < 16; ++s) {
    EXPECT_LE(inflated.shard_capacity(s), 1u);
    populated += inflated.shard_capacity(s);
    // Zero-capacity shards must drop inserts instead of keeping one
    // uncapped resident entry.
    if (inflated.shard_capacity(s) == 0) {
      inflated.insert(
          s, dev::PageRef::adopt(std::vector<std::uint8_t>(8, 0xee)));
      EXPECT_FALSE(inflated.lookup(s).has_value()) << "shard " << s;
    }
  }
  EXPECT_EQ(populated, 4u);
}

TEST(DevCache, CoalescedReadsCountOneMissPerUniqueLpn) {
  // A batch of duplicate lpns performs one physical read; the telemetry
  // must agree.  Before the fix every duplicate probed its shard and
  // counted a miss of its own, inflating dev.cache_misses 4x here.
  StashDevice dev(tiny_config(), test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 900)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  const std::uint64_t lpns[] = {0, 0, 0, 0};
  auto results = dev.read_batch(lpns);
  ASSERT_EQ(results.size(), 4u);
  for (auto& r : results) ASSERT_TRUE(r.is_ok());

  const auto stats = dev.stats_snapshot();
  EXPECT_EQ(stats.cache_misses, 1u);  // one probe for the one unique lpn
  EXPECT_EQ(stats.cache_hits, 0u);    // duplicates coalesce, they don't hit
  EXPECT_EQ(stats.coalesced_reads, 3u);

  // The next round really does hit the cache — the accounting above is
  // coalescing, not a disabled cache.
  ASSERT_TRUE(dev.read(0).is_ok());
  EXPECT_EQ(dev.stats_snapshot().cache_hits, 1u);
}

// ---- Batch convention (satellite: one BatchResult shape) ------------------

TEST(DevBatch, ResultSlotsAlignWithRequestsAndFailuresAreIndependent) {
  StashDevice dev(tiny_config(), test_key());
  const auto p0 = page_pattern(dev.page_bits(), 81);
  const auto p1 = page_pattern(dev.page_bits(), 82);
  ASSERT_TRUE(dev.write(0, p0).is_ok());
  ASSERT_TRUE(dev.write(1, p1).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  const std::uint64_t lpns[] = {1, dev.logical_pages(), 0, 1};
  auto results = dev.read_batch(lpns);
  ASSERT_EQ(results.size(), 4u);
  ASSERT_TRUE(results[0].is_ok());
  EXPECT_TRUE(matches(results[0].value(), p1));
  EXPECT_EQ(results[1].status().code(), ErrorCode::kOutOfBounds);
  ASSERT_TRUE(results[2].is_ok());
  EXPECT_TRUE(matches(results[2].value(), p0));
  ASSERT_TRUE(results[3].is_ok());
  // Duplicate lpns in one round coalesce onto one physical read.
  EXPECT_EQ(results[3].value(), results[0].value());
  EXPECT_GE(dev.stats_snapshot().coalesced_reads, 1u);
}

TEST(DevBatch, WriteBatchReportsPerItemStatus) {
  StashDevice dev(tiny_config(), test_key());
  std::vector<ftl::PageMappedFtl::WriteRequest> reqs(3);
  reqs[0] = {0, page_pattern(dev.page_bits(), 91)};
  reqs[1] = {dev.logical_pages(), page_pattern(dev.page_bits(), 92)};
  reqs[2] = {1, page_pattern(dev.page_bits(), 93)};
  auto statuses = dev.write_batch(reqs);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].is_ok());
  EXPECT_EQ(statuses[1].code(), ErrorCode::kOutOfBounds);
  EXPECT_TRUE(statuses[2].is_ok());
  EXPECT_FALSE(util::all_ok(statuses));
  EXPECT_EQ(util::first_error(statuses).code(), ErrorCode::kOutOfBounds);
}

// ---- Scheduler: QoS ordering and deadline dispatch ------------------------

TEST(DevScheduler, ForegroundReadsOvertakeBackgroundWork) {
  DeviceConfig config = tiny_config();
  config.batch_pages = 16;  // keep everything queued until drain
  StashDevice dev(config, test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 101)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  auto gc = dev.submit_gc();                      // background, submitted first
  auto read = dev.submit_read(0);                 // foreground
  dev.drain();
  ASSERT_TRUE(read.get().is_ok());
  (void)gc.get();

  const auto& order = dev.last_dispatch_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].kind, StashDevice::OpKind::kRead);
  EXPECT_EQ(order[0].priority, Priority::kForeground);
  EXPECT_EQ(order[1].kind, StashDevice::OpKind::kGc);
  EXPECT_EQ(order[1].priority, Priority::kBackground);
  EXPECT_GE(dev.stats_snapshot().gc_runs, 1u);
}

TEST(DevScheduler, QueueDepthForcesInlineDispatch) {
  DeviceConfig config = tiny_config();
  config.queue_depth = 4;
  config.batch_pages = 4;
  StashDevice dev(config, test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 111)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  std::vector<std::future<util::Result<dev::PageRef>>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(dev.submit_read(0));
  // Filling the queue dispatched inline: all futures are already ready.
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(f.get().is_ok());
  }
  EXPECT_GE(dev.stats_snapshot().dispatches, 1u);
}

TEST(DevScheduler, DeadlineTicksBoundQueueingWithoutDrain) {
  DeviceConfig config = tiny_config();
  config.queue_depth = 64;
  config.batch_pages = 64;    // batch size alone would never trigger
  config.deadline_ticks = 3;  // ...but age does
  StashDevice dev(config, test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 121)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  auto read = dev.submit_read(0);
  // Each write advances the tick; the queued read ages past its deadline
  // and is dispatched by a later submission, with no explicit drain().
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        dev.write(1 + i, page_pattern(dev.page_bits(), 130 + i)).is_ok());
  }
  ASSERT_EQ(read.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(read.get().is_ok());
  EXPECT_GE(dev.stats_snapshot().deadline_dispatches, 1u);
}

TEST(DevScheduler, IdleTicksCompleteAStarvedReadWithoutNewSubmissions) {
  // Deadline ticks only advanced on submissions, so a lone queued request
  // with no follow-up traffic waited forever — exactly the shape a network
  // client produces when it sends one read and blocks on the response.
  // idle_tick() lets an idle poll loop age the queue instead.
  DeviceConfig config = tiny_config();
  config.queue_depth = 64;
  config.batch_pages = 64;    // never dispatches on queue depth
  config.deadline_ticks = 3;  // ages out after three idle ticks
  StashDevice dev(config, test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 141)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  auto read = dev.submit_read(0);
  ASSERT_EQ(read.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);  // genuinely starved

  std::size_t depth = 1;
  for (int tick = 0; tick < 8 && depth > 0; ++tick) depth = dev.idle_tick();
  EXPECT_EQ(depth, 0u);
  ASSERT_EQ(read.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(read.get().is_ok());
  EXPECT_GE(dev.stats_snapshot().deadline_dispatches, 1u);
  EXPECT_EQ(dev.idle_tick(), 0u);  // empty queue: a cheap no-op
}

// ---- Determinism ----------------------------------------------------------

TEST(DevDeterminism, ThreadCountNeverChangesResultsOrCosts) {
  auto run = [](unsigned threads) {
    DeviceConfig config = tiny_config();
    config.chips = 2;
    config.threads = threads;
    StashDevice dev(config, test_key());
    const std::uint64_t pages = dev.logical_pages();
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
      EXPECT_TRUE(
          dev.write(lpn, page_pattern(dev.page_bits(), 1000 + lpn)).is_ok());
    }
    EXPECT_TRUE(dev.flush().is_ok());
    std::vector<std::uint64_t> lpns;
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) lpns.push_back(lpn);
    auto results = dev.read_batch(lpns);
    std::vector<std::vector<std::uint8_t>> bytes;
    for (auto& r : results) {
      bytes.push_back(r.is_ok() ? r.value().to_vector()
                                : std::vector<std::uint8_t>{});
    }
    return std::make_tuple(bytes, dev.ledger(), dev.state_checksum());
  };

  const auto [serial_bytes, serial_ledger, serial_sum] = run(1);
  const auto [parallel_bytes, parallel_ledger, parallel_sum] = run(8);
  EXPECT_EQ(serial_bytes, parallel_bytes);
  EXPECT_EQ(serial_sum, parallel_sum);
  EXPECT_EQ(serial_ledger.reads, parallel_ledger.reads);
  EXPECT_EQ(serial_ledger.programs, parallel_ledger.programs);
  EXPECT_EQ(serial_ledger.erases, parallel_ledger.erases);
  EXPECT_EQ(serial_ledger.time_us, parallel_ledger.time_us);
  EXPECT_EQ(serial_ledger.energy_uj, parallel_ledger.energy_uj);
}

// Chip i is seeded from (DeviceConfig::seed, i) by one fixed derivation:
// every chip's noise — and so state_checksum — is a function of the root
// seed alone.
TEST(DevDeterminism, ChipsDeriveDistinctSeeds) {
  DeviceConfig config = tiny_config();
  config.seed = 7;
  config.chips = 3;
  StashDevice dev(config, test_key());
  EXPECT_NE(dev.chip(0).serial(), dev.chip(1).serial());
  EXPECT_NE(dev.chip(1).serial(), dev.chip(2).serial());
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_EQ(dev.chip(c).serial(), util::hash_words(7, 0xC417A55AULL, c));
  }
  EXPECT_THROW((void)dev.chip(3), std::out_of_range);
}

// ---- Hidden volume across chips -------------------------------------------

DeviceConfig hidden_config(std::uint32_t chips) {
  DeviceConfig config;
  config.geometry.blocks = 12;
  config.geometry.pages_per_block = 8;
  config.geometry.cells_per_page = 8192;  // production VT-HI needs real pages
  config.seed = 77;
  config.chips = chips;
  return config;
}

void fill_public(StashDevice& dev, std::uint64_t seed) {
  for (std::uint64_t lpn = 0; lpn < dev.logical_pages(); ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), seed + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
}

TEST(DevHidden, PayloadShardsAcrossChipsAndRoundTrips) {
  StashDevice dev(hidden_config(2), test_key());
  fill_public(dev, 5000);

  // Larger than chip 0 alone can hold, so the payload must span chips.
  const std::size_t chip0_capacity = dev.volume(0).hidden_capacity_bytes();
  ASSERT_GT(chip0_capacity, 0u);
  std::vector<std::uint8_t> secret(chip0_capacity + 64);
  util::Xoshiro256 rng(99);
  for (auto& b : secret) b = static_cast<std::uint8_t>(rng());

  ASSERT_TRUE(dev.store_hidden(secret).is_ok());
  auto loaded = dev.load_hidden();
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value(), secret);
}

TEST(DevHidden, MissingSegmentIsCorruptionNotSilence) {
  // Raw framing mechanics under test: packing off, so the constant-fill
  // payload keeps its size and must span both chips.
  DeviceConfig config = hidden_config(2);
  config.pack.enabled = false;
  StashDevice dev(config, test_key());
  fill_public(dev, 6000);
  const std::size_t chip0_capacity = dev.volume(0).hidden_capacity_bytes();
  std::vector<std::uint8_t> secret(chip0_capacity + 64, 0xa5);
  ASSERT_TRUE(dev.store_hidden(secret).is_ok());

  // Destroy chip 1's segment; the device-level framing must flag the
  // incomplete reassembly instead of splicing what remains.
  ASSERT_TRUE(dev.volume(1).panic_erase().is_ok());
  EXPECT_EQ(dev.load_hidden().status().code(), ErrorCode::kCorrupted);
}

TEST(DevHidden, NoHiddenVolumeIsNotFound) {
  StashDevice dev(hidden_config(1), test_key());
  fill_public(dev, 7000);
  EXPECT_EQ(dev.load_hidden().status().code(), ErrorCode::kNotFound);
}

TEST(DevHidden, OversizedPayloadIsRejectedBeforeTouchingFlash) {
  DeviceConfig config = hidden_config(1);
  config.pack.enabled = false;  // constant fill would pack down and fit
  StashDevice dev(config, test_key());
  fill_public(dev, 8000);
  std::size_t capacity = 0;
  for (std::uint32_t c = 0; c < dev.chips(); ++c) {
    capacity += dev.volume(c).hidden_capacity_bytes();
  }
  std::vector<std::uint8_t> too_big(capacity + 4096, 0x11);
  EXPECT_EQ(dev.store_hidden(too_big).code(), ErrorCode::kNoSpace);
}

TEST(DevHidden, FailedSpanningStoreKeepsPreviousPayloadLoadable) {
  // A multi-chip store that dies partway through must not leave a
  // Frankenstein hidden volume.  Chip 1's programs are forced to fail, so
  // the replacement's second segment can never land; the two-phase store
  // has to abort chip 0's already-prepared segment and leave the previous
  // generation fully loadable.  Before the fix chip 0 had already been
  // overwritten by the time chip 1 failed.
  DeviceConfig config = hidden_config(2);
  config.pack.enabled = false;  // constant-fill payloads must span chips
  StashDevice dev(config, test_key());
  fill_public(dev, 9000);

  const std::size_t cap0 = dev.volume(0).hidden_capacity_bytes();
  ASSERT_GT(cap0, 0u);
  std::vector<std::uint8_t> first(cap0 + 64);
  util::Xoshiro256 rng(41);
  for (auto& b : first) b = static_cast<std::uint8_t>(rng());
  ASSERT_TRUE(dev.store_hidden(first).is_ok());

  fault::FaultPlan plan(9);
  plan.fail_programs(1.0);
  dev.chip(1).set_fault_injector(&plan);
  // Sized to span again (capacities may have shrunk since the first
  // store), so chip 1 must carry a segment — and fail.
  std::vector<std::uint8_t> second(dev.volume(0).hidden_capacity_bytes() + 64,
                                   0x2e);
  EXPECT_FALSE(dev.store_hidden(second).is_ok());
  dev.chip(1).set_fault_injector(nullptr);

  const auto loaded = dev.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), first);
}

TEST(DevHidden, DuplicateHiddenSegmentIndexIsCorruption) {
  // Two chips answering with the same segment index is an inconsistent
  // chip set (a stale generation, a replayed image).  The reassembly used
  // to let the later chip silently overwrite the earlier one's slot and
  // report success; it must refuse instead.
  StashDevice dev(hidden_config(2), test_key());
  fill_public(dev, 9500);

  // Hand-pack a device-framed segment claiming index 0 of a 1-segment
  // payload and plant the identical frame on BOTH chips, bypassing the
  // device-level store path.
  const std::vector<std::uint8_t> payload(48, 0x77);
  std::vector<std::uint8_t> segment;
  util::ByteWriter w(segment);
  w.u16(0);                                          // index
  w.u16(1);                                          // used_chips
  w.u16(0);                                          // format (raw)
  w.u32(static_cast<std::uint32_t>(payload.size()));  // payload_len
  w.u64(util::fnv1a(payload));                       // digest
  w.raw(payload);
  ASSERT_TRUE(dev.volume(0).store_hidden(segment).is_ok());
  ASSERT_TRUE(dev.volume(1).store_hidden(segment).is_ok());

  const auto loaded = dev.load_hidden();
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorrupted);
}

// ---- Per-instance stats are the only source -------------------------------

/// stats_json() as it must read for `s`: every DeviceStats field under its
/// canonical key, in declaration order, at the snapshot's value.
std::string expected_stats_json(const DeviceStats& s) {
  const std::pair<const char*, std::uint64_t> fields[] = {
      {"reads", s.reads},
      {"writes", s.writes},
      {"trims", s.trims},
      {"cache_hits", s.cache_hits},
      {"cache_misses", s.cache_misses},
      {"buffer_hits", s.buffer_hits},
      {"coalesced_writes", s.coalesced_writes},
      {"coalesced_reads", s.coalesced_reads},
      {"dispatches", s.dispatches},
      {"deadline_dispatches", s.deadline_dispatches},
      {"flushes", s.flushes},
      {"flushed_pages", s.flushed_pages},
      {"lost_writes", s.lost_writes},
      {"gc_runs", s.gc_runs},
      {"hidden_stores", s.hidden_stores},
      {"hidden_loads", s.hidden_loads},
      {"pack_logical_bytes", s.pack_logical_bytes},
      {"pack_packed_bytes", s.pack_packed_bytes},
      {"bytes_copied", s.bytes_copied},
  };
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ',';
    out += std::string("\"") + key + "\":" + std::to_string(value);
  }
  return out + "}";
}

TEST(DevStats, TwoDevicesInOneProcessCountOnlyTheirOwnTraffic) {
  // Device A carries a hidden volume and a full public cover; device B
  // sees a little public traffic and no hidden ops.  Each one's stats must
  // reflect only its own requests, and traffic on one must leave the
  // other's snapshot untouched.
  StashDevice a(hidden_config(1), test_key());
  StashDevice b(tiny_config(), test_key(0x51));

  constexpr std::uint64_t kBWrites = 6;
  for (std::uint64_t lpn = 0; lpn < kBWrites; ++lpn) {
    ASSERT_TRUE(b.write(lpn, page_pattern(b.page_bits(), 300 + lpn)).is_ok());
  }
  ASSERT_TRUE(b.trim(kBWrites - 1).is_ok());
  ASSERT_TRUE(b.flush().is_ok());
  for (std::uint64_t lpn = 0; lpn < 3; ++lpn) ASSERT_TRUE(b.read(lpn).is_ok());
  const DeviceStats b_before = b.stats_snapshot();
  const std::string b_json = b.stats_json();

  fill_public(a, 11000);
  std::vector<std::uint8_t> secret(256);
  util::Xoshiro256 rng(5);
  for (auto& byte : secret) byte = static_cast<std::uint8_t>(rng());
  ASSERT_TRUE(a.store_hidden(secret).is_ok());
  const auto loaded = a.load_hidden();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), secret);
  ASSERT_TRUE(a.read(0).is_ok());

  const DeviceStats sa = a.stats_snapshot();
  EXPECT_EQ(sa.writes, a.logical_pages());
  EXPECT_EQ(sa.trims, 0u);
  EXPECT_EQ(sa.reads, 1u);
  EXPECT_GE(sa.flushes, 1u);
  EXPECT_EQ(sa.hidden_stores, 1u);
  EXPECT_EQ(sa.hidden_loads, 1u);
  EXPECT_EQ(a.stats_json(), expected_stats_json(sa));

  // A's traffic left B's counts exactly where B's own traffic put them.
  EXPECT_EQ(b.stats_json(), b_json);
  EXPECT_EQ(b_before.writes, kBWrites);
  EXPECT_EQ(b_before.trims, 1u);
  EXPECT_EQ(b_before.reads, 3u);
  EXPECT_GE(b_before.flushes, 1u);
  EXPECT_EQ(b_before.hidden_stores, 0u);
  EXPECT_EQ(b_before.hidden_loads, 0u);
  EXPECT_EQ(b_json, expected_stats_json(b_before));

  // And the other way round: more B traffic leaves A's snapshot alone.
  const std::string a_json = a.stats_json();
  ASSERT_TRUE(b.write(0, page_pattern(b.page_bits(), 400)).is_ok());
  ASSERT_TRUE(b.flush().is_ok());
  ASSERT_TRUE(b.read(0).is_ok());
  const DeviceStats b_after = b.stats_snapshot();
  EXPECT_EQ(b_after.writes, kBWrites + 1);
  EXPECT_EQ(b_after.reads, 4u);
  EXPECT_EQ(b_after.flushes, b_before.flushes + 1);
  EXPECT_EQ(b.stats_json(), expected_stats_json(b_after));
  EXPECT_EQ(a.stats_json(), a_json);
}

// ---- Power-cut battery (satellite: write-back cache under stash::fault) ---

struct CutOutcome {
  util::Status flush1;
  util::Status flush2;
  std::set<std::uint64_t> lost;
};

constexpr std::uint64_t kCutLpns = 4;

/// The canonical write-back workload: v1 everywhere, flush, v2 everywhere,
/// flush.  Returns the two flush verdicts.
CutOutcome run_cut_workload(StashDevice& dev) {
  CutOutcome out;
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    (void)dev.write(lpn, page_pattern(dev.page_bits(), 200 + lpn));
  }
  out.flush1 = dev.flush();
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    (void)dev.write(lpn, page_pattern(dev.page_bits(), 300 + lpn));
  }
  out.flush2 = dev.flush();
  return out;
}

TEST(DevPowerCut, FlushAckedDataSurvivesACutAtEveryOpIndex) {
  // Count the workload's chip operations once, fault-free.
  std::uint64_t total_ops = 0;
  {
    StashDevice dev(tiny_config(), test_key());
    fault::FaultPlan probe(1);
    dev.set_fault_injector(&probe);
    (void)run_cut_workload(dev);
    dev.set_fault_injector(nullptr);
    total_ops = probe.ops_seen();
  }
  ASSERT_GT(total_ops, 0u);

  for (std::uint64_t cut = 0; cut <= total_ops; ++cut) {
    StashDevice dev(tiny_config(), test_key());
    fault::FaultPlan plan(1);
    plan.power_cut_at(cut, 0.0);
    dev.set_fault_injector(&plan);
    const CutOutcome outcome = run_cut_workload(dev);

    plan.restore_power();
    ASSERT_TRUE(dev.power_cycle().is_ok());
    // Recovery inspection must not itself trip the (replayed) schedule.
    dev.set_fault_injector(nullptr);
    std::set<std::uint64_t> lost(dev.lost_writes().begin(),
                                 dev.lost_writes().end());

    for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
      const auto v1 = page_pattern(dev.page_bits(), 200 + lpn);
      const auto v2 = page_pattern(dev.page_bits(), 300 + lpn);
      auto r = dev.read(lpn);
      const bool is_v2 = r.is_ok() && matches(r.value(), v2);
      if (r.is_ok()) {
        // Never corrupted: whatever comes back is a version that was
        // actually acknowledged, not a splice or garbage.
        EXPECT_TRUE(matches(r.value(), v1) || is_v2)
            << "cut=" << cut << " lpn=" << lpn << " returned garbage";
      } else {
        EXPECT_EQ(r.status().code(), ErrorCode::kNotFound)
            << "cut=" << cut << " lpn=" << lpn;
      }
      if (outcome.flush2.is_ok()) {
        // Acknowledged flush => durable, cut or no cut.
        EXPECT_TRUE(is_v2) << "cut=" << cut << " lpn=" << lpn
                           << " lost data flush() acknowledged";
      }
      if (outcome.flush1.is_ok() && !lost.count(lpn)) {
        EXPECT_TRUE(r.is_ok())
            << "cut=" << cut << " lpn=" << lpn
            << " flushed data vanished entirely";
      }
      if (lost.count(lpn)) {
        // Reported lost => the staged (v2) version must NOT be readable;
        // the device never pretends a lost write survived.
        EXPECT_FALSE(is_v2) << "cut=" << cut << " lpn=" << lpn
                            << " reported lost but v2 is durable";
      }
    }
  }
}

TEST(DevPowerCut, UnflushedWritesAreReportedLostNeverCorrupted) {
  StashDevice dev(tiny_config(), test_key());
  fault::FaultPlan plan(2);
  dev.set_fault_injector(&plan);

  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 200 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 300 + lpn)).is_ok());
  }

  plan.cut_power();
  EXPECT_FALSE(dev.flush().is_ok());  // the drain must not pretend success
  plan.restore_power();
  ASSERT_TRUE(dev.power_cycle().is_ok());

  std::set<std::uint64_t> lost(dev.lost_writes().begin(),
                               dev.lost_writes().end());
  EXPECT_EQ(lost.size(), kCutLpns);
  EXPECT_EQ(dev.stats_snapshot().lost_writes, kCutLpns);
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    EXPECT_TRUE(lost.count(lpn));
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok());
    // The durable (v1) version is intact — lost means "rolled back",
    // never "mangled".
    EXPECT_TRUE(matches(r.value(), page_pattern(dev.page_bits(), 200 + lpn)));
  }
}

TEST(DevPowerCut, QueuedRequestsResolveWithPowerLoss) {
  DeviceConfig config = tiny_config();
  config.batch_pages = 16;  // keep the read queued
  StashDevice dev(config, test_key());
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 401)).is_ok());
  ASSERT_TRUE(dev.flush().is_ok());

  auto pending = dev.submit_read(0);
  ASSERT_TRUE(dev.power_cycle().is_ok());
  EXPECT_EQ(pending.get().status().code(), ErrorCode::kPowerLoss);
}

TEST(DevPowerCut, CutWithNonEmptyQueueResolvesEveryKindAndKeepsDurableData) {
  // Power cut with a *mixed* non-empty submission queue: every queued
  // request kind resolves kPowerLoss (no hung futures, no spurious
  // success), acked-unflushed buffered writes land in lost_writes(), and
  // flush-acknowledged data is still readable afterward.
  DeviceConfig config = tiny_config();
  config.batch_pages = 16;  // below this nothing dispatches on its own
  config.queue_depth = 64;
  StashDevice dev(config, test_key());

  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    ASSERT_TRUE(
        dev.write(lpn, page_pattern(dev.page_bits(), 200 + lpn)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  // Stage (ack) two more writes but do not flush: candidates for loss.
  ASSERT_TRUE(dev.write(0, page_pattern(dev.page_bits(), 300)).is_ok());
  ASSERT_TRUE(dev.write(1, page_pattern(dev.page_bits(), 301)).is_ok());

  // Fill the queue with every async kind, none dispatched yet.
  std::vector<std::future<util::Result<dev::PageRef>>> reads;
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    reads.push_back(dev.submit_read(lpn));
  }
  auto hidden = dev.submit_load_hidden();
  auto gc = dev.submit_gc();

  ASSERT_TRUE(dev.power_cycle().is_ok());

  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    ASSERT_EQ(reads[lpn].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "queued read " << lpn << " left hanging by the cut";
    EXPECT_EQ(reads[lpn].get().status().code(), ErrorCode::kPowerLoss);
  }
  EXPECT_EQ(hidden.get().status().code(), ErrorCode::kPowerLoss);
  EXPECT_EQ(gc.get().code(), ErrorCode::kPowerLoss);

  // The two unflushed writes are reported lost; the flushed versions
  // survive byte-for-byte.
  std::set<std::uint64_t> lost(dev.lost_writes().begin(),
                               dev.lost_writes().end());
  EXPECT_EQ(lost, (std::set<std::uint64_t>{0, 1}));
  for (std::uint64_t lpn = 0; lpn < kCutLpns; ++lpn) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok()) << "lpn=" << lpn;
    EXPECT_TRUE(matches(r.value(), page_pattern(dev.page_bits(), 200 + lpn)))
        << "lpn=" << lpn;
    EXPECT_FALSE(matches(r.value(), page_pattern(dev.page_bits(), 300 + lpn)))
        << "lpn=" << lpn << " lost write became durable";
  }
}

// ---- Background destage ---------------------------------------------------

/// Holds every page program at the chip until open() — a destage that
/// stays in flight for as long as a test needs it to.
class ProgramGate final : public nand::FaultInjector {
 public:
  nand::FaultDecision on_operation(nand::FaultOp op, std::uint32_t,
                                   std::uint32_t) override {
    if (op == nand::FaultOp::kProgram) {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return {};
  }
  /// Block until a program is being held.
  void wait_until_holding() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_ > 0; });
  }
  void open() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t held_ = 0;
  bool open_ = false;
};

/// write_back_pages 4 = halves of 2.
DeviceConfig destage_config() {
  DeviceConfig config = tiny_config();
  config.write_back_pages = 4;
  return config;
}

std::vector<std::uint8_t> version(const StashDevice& dev, std::uint64_t lpn,
                                  std::uint64_t v) {
  return page_pattern(dev.page_bits(), 5000 + 100 * v + lpn);
}

/// A destage_config() device behind a ProgramGate.  The gate opens before
/// the device's destructor flushes, also when a failed assertion returned
/// early with a destage still held.
struct GatedDevice {
  ProgramGate gate;
  StashDevice dev{destage_config(), test_key()};
  GatedDevice() { dev.set_fault_injector(&gate); }
  ~GatedDevice() { gate.open(); }
};

/// Writes 0 and 1 seal the first half; its destage holds at its first
/// program.
void start_held_destage(StashDevice& dev, ProgramGate& gate) {
  for (std::uint64_t lpn = 0; lpn < 2; ++lpn) {
    // Returns while the destage it started runs.
    ASSERT_TRUE(dev.write(lpn, version(dev, lpn, 1)).is_ok());
  }
  gate.wait_until_holding();
}

bool ready(const std::future<util::Status>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

TEST(DevDestage, WritePastTheBoundStaysPendingUntilTheDestageCompletes) {
  GatedDevice gated;
  StashDevice& dev = gated.dev;
  ProgramGate& gate = gated.gate;
  start_held_destage(dev, gate);
  EXPECT_EQ(dev.stats_snapshot().flushes, 1u);

  // The next half fills and seals without waiting...
  auto w2 = dev.submit_write(2, version(dev, 2, 1));
  auto w3 = dev.submit_write(3, version(dev, 3, 1));
  ASSERT_TRUE(ready(w2) && ready(w3));
  EXPECT_TRUE(w2.get().is_ok());
  EXPECT_TRUE(w3.get().is_ok());
  // ...and a write or trim past the bound returns at once, pending.
  auto w4 = dev.submit_write(4, version(dev, 4, 1));
  auto t5 = dev.submit_trim(5);
  EXPECT_FALSE(ready(w4));
  EXPECT_FALSE(ready(t5));
  EXPECT_EQ(dev.stats_snapshot().flushed_pages, 0u);

  gate.open();
  EXPECT_TRUE(w4.get().is_ok());
  EXPECT_TRUE(t5.get().is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  EXPECT_EQ(dev.ledger().programs, 5u);
  for (std::uint64_t lpn = 0; lpn < 5; ++lpn) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok()) << "lpn=" << lpn;
    EXPECT_TRUE(matches(r.value(), version(dev, lpn, 1))) << "lpn=" << lpn;
  }
  EXPECT_EQ(dev.read(5).status().code(), ErrorCode::kNotFound);
}

TEST(DevDestage, SubmitterWaitsOncePendingWritesFillAHalf) {
  GatedDevice gated;
  StashDevice& dev = gated.dev;
  start_held_destage(dev, gated.gate);
  // 2 staged in the destaging half, 2 in the sealed open half, and one
  // half (2) of pending writes: 3 x write_back_pages / 2 in total.
  std::vector<std::future<util::Status>> acks;
  for (std::uint64_t lpn = 2; lpn < 6; ++lpn) {
    acks.push_back(dev.submit_write(lpn, version(dev, lpn, 1)));
  }
  ASSERT_FALSE(ready(acks.back()));
  // Past 2 x write_back_pages without waiting on any ack: the submitter
  // itself now waits for the destage to admit the pending half.
  auto more = std::async(std::launch::async, [&] {
    std::vector<std::future<util::Status>> out;
    for (std::uint64_t lpn = 6; lpn < 10; ++lpn) {
      out.push_back(dev.submit_write(lpn, version(dev, lpn, 1)));
    }
    return out;
  });
  EXPECT_EQ(more.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  gated.gate.open();
  for (auto& f : more.get()) acks.push_back(std::move(f));
  for (auto& f : acks) EXPECT_TRUE(f.get().is_ok());
  ASSERT_TRUE(dev.flush().is_ok());
  EXPECT_EQ(dev.ledger().programs, 10u);
  for (std::uint64_t lpn = 0; lpn < 10; ++lpn) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok()) << "lpn=" << lpn;
    EXPECT_TRUE(matches(r.value(), version(dev, lpn, 1))) << "lpn=" << lpn;
  }
}

TEST(DevDestage, ReadsServeTheDestagingHalfAndPendingWrites) {
  GatedDevice gated;
  StashDevice& dev = gated.dev;
  ProgramGate& gate = gated.gate;
  start_held_destage(dev, gate);
  ASSERT_TRUE(dev.write(2, version(dev, 2, 1)).is_ok());
  ASSERT_TRUE(dev.write(3, version(dev, 3, 1)).is_ok());  // seals
  auto w1 = dev.submit_write(1, version(dev, 1, 2));      // pending rewrite
  auto w4 = dev.submit_write(4, version(dev, 4, 1));      // pending
  ASSERT_FALSE(ready(w1));

  const auto flash_reads = dev.ledger().reads;
  const std::uint64_t hits_before = dev.stats_snapshot().buffer_hits;
  const auto exact = [&](std::uint64_t lpn, std::uint64_t v) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok()) << "lpn=" << lpn;
    EXPECT_EQ(r.value().to_vector(), version(dev, lpn, v)) << "lpn=" << lpn;
  };
  exact(0, 1);  // destaging half
  exact(1, 2);  // a pending write is newer than the destaging half
  exact(2, 1);  // sealed open half
  exact(4, 1);  // pending write
  EXPECT_EQ(dev.ledger().reads, flash_reads);  // never touched flash
  EXPECT_EQ(dev.stats_snapshot().buffer_hits, hits_before + 4);

  gate.open();
  EXPECT_TRUE(w1.get().is_ok());
  EXPECT_TRUE(w4.get().is_ok());
  exact(1, 2);  // admitted into the open half
  ASSERT_TRUE(dev.flush().is_ok());
  auto r = dev.read(1);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(matches(r.value(), version(dev, 1, 2)));
}

TEST(DevDestage, FlushWaitsForTheInFlightDestage) {
  GatedDevice gated;
  StashDevice& dev = gated.dev;
  ProgramGate& gate = gated.gate;
  start_held_destage(dev, gate);
  auto flushed = std::async(std::launch::async, [&] { return dev.flush(); });
  EXPECT_EQ(flushed.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  gate.open();
  EXPECT_TRUE(flushed.get().is_ok());
  EXPECT_EQ(dev.stats_snapshot().flushed_pages, 2u);
  const auto flash_reads = dev.ledger().reads;
  for (std::uint64_t lpn = 0; lpn < 2; ++lpn) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(matches(r.value(), version(dev, lpn, 1)));
  }
  // The flush retired the half: both reads went to flash.
  EXPECT_EQ(dev.ledger().reads, flash_reads + 2);
}

TEST(DevDestage, PowerCutMidDestageReportsOnlyUnprogrammedWritesLost) {
  DeviceConfig config = tiny_config();
  config.write_back_pages = 8;  // halves of 4
  StashDevice dev(config, test_key());
  for (std::uint64_t lpn = 0; lpn < 6; ++lpn) {
    ASSERT_TRUE(dev.write(lpn, version(dev, lpn, 1)).is_ok());
  }
  ASSERT_TRUE(dev.flush().is_ok());

  // The cut lands on the third chip op after attaching: the background
  // destage of the half 0..3 programs lpns 0 and 1, then goes dark.
  fault::FaultPlan plan(4);
  plan.power_cut_at(2, 0.5);
  dev.set_fault_injector(&plan);
  for (std::uint64_t lpn = 0; lpn < 6; ++lpn) {
    ASSERT_TRUE(dev.write(lpn, version(dev, lpn, 2)).is_ok());
  }
  EXPECT_FALSE(dev.flush().is_ok());  // the destage error surfaces here
  plan.restore_power();
  ASSERT_TRUE(dev.power_cycle().is_ok());
  dev.set_fault_injector(nullptr);

  const std::set<std::uint64_t> lost(dev.lost_writes().begin(),
                                     dev.lost_writes().end());
  EXPECT_EQ(lost, (std::set<std::uint64_t>{2, 3, 4, 5}));
  for (std::uint64_t lpn = 0; lpn < 6; ++lpn) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok()) << "lpn=" << lpn;
    // Programmed => durable and not reported lost; reported lost => the
    // previous durable version, intact.
    const std::uint64_t expect = lost.count(lpn) ? 1 : 2;
    EXPECT_TRUE(matches(r.value(), version(dev, lpn, expect)))
        << "lpn=" << lpn;
  }
}

TEST(DevDestage, ConcurrentSubmittersReadTheirWritesDuringDestage) {
  DeviceConfig config = tiny_config();
  config.chips = 2;
  config.write_back_pages = 8;
  StashDevice dev(config, test_key());
  const std::uint64_t span = dev.logical_pages() / 4;  // per submitter
  constexpr std::uint64_t kRounds = 6;
  std::atomic<std::uint64_t> mismatches{0};
  const auto submitter = [&](std::uint64_t base) {
    util::Xoshiro256 rng(base + 1);
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
      for (std::uint64_t i = 0; i < span; ++i) {
        const std::uint64_t lpn = base + i;
        if (!dev.write(lpn, version(dev, lpn, round)).is_ok()) {
          mismatches.fetch_add(1);
        }
        // Read back one of this submitter's pages: its latest version,
        // staged or already destaged.
        const std::uint64_t probe = base + rng() % (i + 1);
        auto r = dev.read(probe);
        if (!r.is_ok() || !matches(r.value(), version(dev, probe, round))) {
          mismatches.fetch_add(1);
        }
      }
    }
  };
  std::thread a(submitter, 0);
  std::thread b(submitter, span);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0u);
  ASSERT_TRUE(dev.flush().is_ok());
  for (std::uint64_t lpn = 0; lpn < 2 * span; ++lpn) {
    auto r = dev.read(lpn);
    ASSERT_TRUE(r.is_ok());
    EXPECT_TRUE(matches(r.value(), version(dev, lpn, kRounds)));
  }
}

}  // namespace
}  // namespace stash::dev

// FTL tests: mapping correctness against a reference model, GC invariants,
// trim, wear leveling, relocation hook, no-space behaviour, the batch read,
// and reads that overlap a writer's programs and GC.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <span>
#include <thread>

#include "stash/fault/plan.hpp"
#include "stash/ftl/ftl.hpp"
#include "stash/par/pool.hpp"
#include "stash/util/rng.hpp"

namespace stash::ftl {
namespace {

using nand::FlashChip;
using nand::Geometry;
using nand::NoiseModel;
using util::ErrorCode;

std::vector<std::uint8_t> pattern_page(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

/// Count mismatched bits; FTL reads can carry the chip's tiny raw BER.
std::size_t diff_bits(const std::vector<std::uint8_t>& a,
                      const std::vector<std::uint8_t>& b) {
  std::size_t d = a.size() == b.size() ? 0 : SIZE_MAX;
  for (std::size_t i = 0; i < a.size() && d != SIZE_MAX; ++i) d += a[i] != b[i];
  return d;
}

TEST(Ftl, WriteReadRoundTrip) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 41);
  PageMappedFtl ftl(chip);
  const auto page = pattern_page(ftl.page_bits(), 1);
  ASSERT_TRUE(ftl.write(0, page).is_ok());
  const auto readback = ftl.read(0);
  ASSERT_TRUE(readback.is_ok());
  EXPECT_LE(diff_bits(readback.value(), page), 2u);
}

TEST(Ftl, UnwrittenPageIsNotFound) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 42);
  PageMappedFtl ftl(chip);
  EXPECT_EQ(ftl.read(5).status().code(), ErrorCode::kNotFound);
}

TEST(Ftl, OverwriteReturnsLatestVersion) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 43);
  PageMappedFtl ftl(chip);
  const auto v1 = pattern_page(ftl.page_bits(), 10);
  const auto v2 = pattern_page(ftl.page_bits(), 20);
  ASSERT_TRUE(ftl.write(7, v1).is_ok());
  const auto first = ftl.locate(7);
  ASSERT_TRUE(ftl.write(7, v2).is_ok());
  const auto second = ftl.locate(7);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_NE(*first, *second);  // out-of-place update
  const auto readback = ftl.read(7);
  ASSERT_TRUE(readback.is_ok());
  EXPECT_LE(diff_bits(readback.value(), v2), 2u);
}

TEST(Ftl, BoundsChecking) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 44);
  PageMappedFtl ftl(chip);
  const auto page = pattern_page(ftl.page_bits(), 30);
  EXPECT_EQ(ftl.write(ftl.logical_pages(), page).code(),
            ErrorCode::kOutOfBounds);
  EXPECT_EQ(ftl.read(ftl.logical_pages()).status().code(),
            ErrorCode::kOutOfBounds);
  std::vector<std::uint8_t> short_page(3, 1);
  EXPECT_EQ(ftl.write(0, short_page).code(), ErrorCode::kInvalidArgument);
}

TEST(Ftl, TrimInvalidatesMapping) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 45);
  PageMappedFtl ftl(chip);
  const auto page = pattern_page(ftl.page_bits(), 40);
  ASSERT_TRUE(ftl.write(3, page).is_ok());
  ASSERT_TRUE(ftl.trim(3).is_ok());
  EXPECT_EQ(ftl.read(3).status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(ftl.locate(3).has_value());
}

TEST(Ftl, RandomWorkloadMatchesReferenceModel) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 46);
  PageMappedFtl ftl(chip);
  std::map<std::uint64_t, std::uint64_t> reference;  // lpn -> tag
  util::Xoshiro256 rng(46);
  const std::uint64_t lpns = ftl.logical_pages() / 2;  // keep utilization sane
  for (int op = 0; op < 400; ++op) {
    const std::uint64_t lpn = rng.below(lpns);
    if (rng.uniform() < 0.85 || !reference.count(lpn)) {
      const std::uint64_t tag = rng();
      ASSERT_TRUE(ftl.write(lpn, pattern_page(ftl.page_bits(), tag)).is_ok())
          << "op " << op;
      reference[lpn] = tag;
    } else {
      ASSERT_TRUE(ftl.trim(lpn).is_ok());
      reference.erase(lpn);
    }
  }
  for (const auto& [lpn, tag] : reference) {
    const auto readback = ftl.read(lpn);
    ASSERT_TRUE(readback.is_ok()) << "lpn " << lpn;
    EXPECT_LE(diff_bits(readback.value(), pattern_page(ftl.page_bits(), tag)),
              4u)
        << "lpn " << lpn;
  }
}

TEST(Ftl, GarbageCollectionReclaimsSpace) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 47);
  PageMappedFtl ftl(chip);
  // Hammer one logical page far beyond a block's worth of writes; without
  // GC the device would run out of blocks.
  const std::uint64_t writes =
      static_cast<std::uint64_t>(chip.geometry().blocks) *
      chip.geometry().pages_per_block * 2;
  for (std::uint64_t i = 0; i < writes; ++i) {
    ASSERT_TRUE(ftl.write(0, pattern_page(ftl.page_bits(), i)).is_ok())
        << "write " << i;
  }
  EXPECT_GT(ftl.stats_snapshot().gc_runs, 0u);
  EXPECT_GE(ftl.stats_snapshot().write_amplification(), 1.0);
}

TEST(Ftl, WriteAmplificationNearOneForSequentialOverwrite) {
  // Overwriting the same small working set invalidates whole blocks, so GC
  // rarely needs to move valid data.
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 48);
  PageMappedFtl ftl(chip);
  const std::uint64_t working_set = 8;
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t lpn = 0; lpn < working_set; ++lpn) {
      ASSERT_TRUE(
          ftl.write(lpn, pattern_page(ftl.page_bits(),
                                      static_cast<std::uint64_t>(round) * 100 +
                                          lpn))
              .is_ok());
    }
  }
  EXPECT_LT(ftl.stats_snapshot().write_amplification(), 1.6);
}

TEST(Ftl, RelocationHookFiresWithValidData) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 49);
  PageMappedFtl ftl(chip);
  std::uint64_t hook_calls = 0;
  ftl.set_relocation_hook([&](nand::PageAddr from, nand::PageAddr to,
                              const std::vector<std::uint8_t>& data) {
    ++hook_calls;
    EXPECT_NE(from, to);
    EXPECT_EQ(data.size(), ftl.page_bits());
  });
  // Interleave cold pages (written once) with hot pages so every block
  // holds a mix: GC victims then always carry valid data to relocate.
  std::uint64_t cold = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t lpn = (i % 2 == 0 && cold < 20) ? 10 + cold++ : i % 4;
    ASSERT_TRUE(ftl.write(lpn, pattern_page(ftl.page_bits(), 900 + lpn)).is_ok());
  }
  const std::uint64_t writes =
      static_cast<std::uint64_t>(chip.geometry().blocks) *
      chip.geometry().pages_per_block * 3;
  for (std::uint64_t i = 0; i < writes; ++i) {
    ASSERT_TRUE(ftl.write(i % 4, pattern_page(ftl.page_bits(), i)).is_ok());
  }
  EXPECT_EQ(hook_calls, ftl.stats_snapshot().relocations);
  EXPECT_GT(hook_calls, 0u);
  // Every cold page survived the relocations.
  for (std::uint64_t lpn = 10; lpn < 10 + cold; ++lpn) {
    EXPECT_TRUE(ftl.read(lpn).is_ok()) << "lpn " << lpn;
  }
}

TEST(Ftl, LogicalCapacityReflectsOverprovisioning) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 50);
  FtlConfig config;
  config.overprovision = 0.25;
  PageMappedFtl ftl(chip, config);
  const std::uint64_t physical_pages =
      static_cast<std::uint64_t>(chip.geometry().blocks) *
      chip.geometry().pages_per_block;
  EXPECT_LT(ftl.logical_pages(), physical_pages);
  EXPECT_GE(ftl.logical_pages(), physical_pages / 2);
}

std::unique_ptr<PageMappedFtl> ftl_with_pages(FlashChip& chip,
                                              std::uint64_t pages) {
  auto ftl = std::make_unique<PageMappedFtl>(chip);
  for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
    EXPECT_TRUE(ftl->write(lpn, pattern_page(ftl->page_bits(), lpn)).is_ok());
  }
  return ftl;
}

// read_batch is read() per slot under the batch schedule: a twin FTL read
// serially in request order yields the same bits (same-block reads keep
// their order, so read-disturb draws line up) and the same error statuses.
TEST(Ftl, ReadBatchMatchesSerialReads) {
  FlashChip batch_chip(Geometry::tiny(), NoiseModel::vendor_a(), 61);
  FlashChip serial_chip(Geometry::tiny(), NoiseModel::vendor_a(), 61);
  auto batch_ftl = ftl_with_pages(batch_chip, 24);
  auto serial_ftl = ftl_with_pages(serial_chip, 24);
  // lpn 30 is unwritten and the last one is out of range.
  const std::vector<std::uint64_t> lpns{3, 0, 3, 17, 30, 9, 0,
                                        batch_ftl->logical_pages()};
  par::ThreadPool pool(4);
  const auto batch = batch_ftl->read_batch(lpns, pool);
  ASSERT_EQ(batch.size(), lpns.size());
  for (std::size_t i = 0; i < lpns.size(); ++i) {
    const auto serial = serial_ftl->read(lpns[i]);
    ASSERT_EQ(batch[i].is_ok(), serial.is_ok()) << "slot " << i;
    if (serial.is_ok()) {
      EXPECT_EQ(batch[i].value(), serial.value()) << "slot " << i;
    } else {
      EXPECT_EQ(batch[i].status().code(), serial.status().code());
    }
  }
  EXPECT_EQ(batch[4].status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(batch[7].status().code(), ErrorCode::kOutOfBounds);
}

// A read the chip failed keeps read()'s observable in the batch: an OK
// slot holding an empty page.
TEST(Ftl, ReadBatchKeepsTheEmptyPageOfAFailedRead) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 63);
  auto ftl = ftl_with_pages(chip, 4);
  fault::FaultPlan plan(5);
  plan.fail_read_at(0);
  chip.set_fault_injector(&plan);
  const std::vector<std::uint64_t> lpns{2, 2};
  par::ThreadPool pool(1);
  const auto batch = ftl->read_batch(lpns, pool);
  chip.set_fault_injector(nullptr);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].is_ok());
  EXPECT_TRUE(batch[0].value().empty());
  ASSERT_TRUE(batch[1].is_ok());
  EXPECT_EQ(batch[1].value().size(), ftl->page_bits());
}

TEST(Ftl, ReadBatchIntoRejectsDestinationCountMismatch) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 62);
  PageMappedFtl ftl(chip);
  ASSERT_TRUE(ftl.write(0, pattern_page(ftl.page_bits(), 1)).is_ok());
  ASSERT_TRUE(ftl.write(1, pattern_page(ftl.page_bits(), 2)).is_ok());
  std::vector<std::uint8_t> page(ftl.page_bits());
  const std::vector<std::span<std::uint8_t>> one_dest{page};
  const std::vector<std::uint64_t> lpns{0, 1};
  par::ThreadPool pool(1);
  const auto reads_before = chip.ledger().reads;
  const auto results = ftl.read_batch_into(lpns, pool, one_dest);
  ASSERT_EQ(results.size(), lpns.size());
  for (const auto& r : results) {
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  }
  EXPECT_EQ(chip.ledger().reads, reads_before);  // nothing was read
}

// One mutator beside a concurrent reader (the StashDevice destage shape):
// every read is a version some write produced, never an erased or
// half-relocated page, while the writer rewrites the same lpns through
// enough GC to recycle every block.
TEST(Ftl, ReadsOverlapWritesAndGc) {
  FlashChip chip(Geometry::tiny(), NoiseModel::vendor_a(), 77);
  PageMappedFtl ftl(chip);
  const std::uint64_t lpns = ftl.logical_pages() / 2;  // slack for GC
  constexpr std::uint64_t kRounds = 12;
  const auto version = [&](std::uint64_t lpn, std::uint64_t round) {
    return pattern_page(ftl.page_bits(), lpn * 1000 + round);
  };
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, version(lpn, 0)).is_ok());
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> bad{0};
  std::thread reader([&] {
    while (!done.load()) {
      for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
        const auto r = ftl.read(lpn);
        bool known = false;
        for (std::uint64_t round = 0; r.is_ok() && round <= kRounds && !known;
             ++round) {
          known = diff_bits(r.value(), version(lpn, round)) <
                  ftl.page_bits() / 4;
        }
        if (!known) bad.fetch_add(1);
        reads.fetch_add(1);
        std::this_thread::yield();  // let the writer take the map lock
      }
    }
  });
  for (std::uint64_t round = 1; round <= kRounds; ++round) {
    for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
      ASSERT_TRUE(ftl.write(lpn, version(lpn, round)).is_ok());
    }
  }
  done.store(true);
  reader.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(ftl.stats_snapshot().gc_runs, 0u);
  for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
    const auto r = ftl.read(lpn);
    ASSERT_TRUE(r.is_ok());
    EXPECT_LT(diff_bits(r.value(), version(lpn, kRounds)), ftl.page_bits() / 4);
  }
}

}  // namespace
}  // namespace stash::ftl

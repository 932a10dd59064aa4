// stash::par tests: thread-pool semantics (inline mode, full coverage,
// slot-ordered map, exception propagation), concurrency safety of the
// telemetry primitives under multi-threaded hammering, chip batches fanned
// out from many workers, and the tentpole guarantee: a multi-threaded
// batch produces bit-identical voltages, reads and ledger totals to a
// serial one.
//
// The hammering tests are the ThreadSanitizer targets: they pass trivially
// single-threaded and exist to give TSan real concurrent traffic.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stash/nand/chip.hpp"
#include "stash/par/pool.hpp"
#include "stash/telemetry/metrics.hpp"
#include "stash/telemetry/trace.hpp"
#include "stash/util/rng.hpp"

namespace stash::par {
namespace {

nand::Geometry small_geometry() {
  nand::Geometry geom;
  geom.blocks = 16;
  geom.pages_per_block = 4;
  geom.cells_per_page = 256;
  return geom;
}

std::vector<std::uint8_t> page_bits(std::uint32_t chip, std::uint32_t block,
                                    std::uint32_t page, std::uint32_t cells) {
  util::Xoshiro256 rng(util::hash_words(chip, block, page));
  std::vector<std::uint8_t> bits(cells);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

using Chips = std::vector<std::unique_ptr<nand::FlashChip>>;

/// N chips seeded the way StashDevice seeds its own.
Chips make_chips(const nand::Geometry& geom, std::uint64_t root,
                 std::uint32_t n) {
  Chips chips;
  for (std::uint32_t c = 0; c < n; ++c) {
    chips.push_back(std::make_unique<nand::FlashChip>(
        geom, nand::NoiseModel::vendor_a(),
        util::hash_words(root, 0xC417A55AULL, c)));
  }
  return chips;
}

/// One chip operation of a batch; the outcome lands in the field its kind
/// fills.
struct ChipOp {
  enum Kind { kErase, kProgram, kRead, kProbe };
  ChipOp(Kind k, std::uint32_t c, std::uint32_t b, std::uint32_t p = 0,
         std::vector<std::uint8_t> in = {})
      : kind(k), chip(c), block(b), page(p), bits(std::move(in)) {}

  Kind kind;
  std::uint32_t chip;
  std::uint32_t block;
  std::uint32_t page;
  std::vector<std::uint8_t> bits;  // kProgram input, kRead output
  std::vector<int> volts;          // kProbe output
  std::optional<util::Status> status;
};

/// The device's fan-out shape (PageMappedFtl::read_batch_into, the flush):
/// ops grouped by (chip, block) in first-appearance order, one
/// parallel_for iteration per group, same-block ops in submission order.
void run_batch(ThreadPool& pool, Chips& chips, std::vector<ChipOp>& ops) {
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> group_key;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::pair key{ops[i].chip, ops[i].block};
    std::size_t g = 0;
    while (g < group_key.size() && group_key[g] != key) ++g;
    if (g == group_key.size()) {
      groups.emplace_back();
      group_key.push_back(key);
    }
    groups[g].push_back(i);
  }
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    for (const std::size_t i : groups[g]) {
      ChipOp& op = ops[i];
      nand::FlashChip& chip = *chips.at(op.chip);
      switch (op.kind) {
        case ChipOp::kErase:
          op.status = chip.erase_block(op.block);
          break;
        case ChipOp::kProgram:
          op.status = chip.program_page(op.block, op.page, op.bits);
          break;
        case ChipOp::kRead:
          op.bits = chip.read_page(op.block, op.page);
          break;
        case ChipOp::kProbe:
          op.volts = chip.probe_voltages(op.block, op.page);
          break;
      }
    }
  });
}

// ---------------- ThreadPool ----------------

TEST(ThreadPool, InlineModeRunsOnCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);  // submit() returned only after running
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, MapPutsResultIInSlotI) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    const auto out = pool.map<std::size_t>(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, AsyncDeliversResultThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.async([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ManySmallSubmissionsAllExecute) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::promise<void> done;
  constexpr int kTasks = 2000;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      if (ran.fetch_add(1, std::memory_order_relaxed) + 1 == kTasks) {
        done.set_value();
      }
    });
  }
  done.get_future().wait();
  EXPECT_EQ(ran.load(), kTasks);
}

// ---------------- Telemetry under concurrency ----------------

TEST(Concurrency, MetricsRegistryHammeredFromManyThreads) {
  telemetry::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Mix registry lookups (map mutation under its mutex) with
      // instrument updates (atomics) — the production access pattern.
      auto& shared = reg.counter("par.shared");
      auto& mine = reg.counter("par.thread." + std::to_string(t));
      auto& gauge = reg.gauge("par.gauge");
      auto& hist = reg.histogram("par.lat");
      for (int i = 0; i < kPerThread; ++i) {
        shared.inc();
        mine.inc();
        gauge.set(static_cast<double>(i));
        hist.record(static_cast<std::uint64_t>(i));
        if (i % 1000 == 0) {
          (void)reg.counter("par.shared");  // concurrent re-lookup
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // The hammering itself is the TSan payload; no increment may be lost.
  EXPECT_EQ(reg.counter("par.shared").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("par.thread." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kPerThread));
  }
  // Every thread's last store is kPerThread - 1, whatever the interleaving.
  EXPECT_DOUBLE_EQ(reg.gauge("par.gauge").value(),
                   static_cast<double>(kPerThread - 1));
  EXPECT_EQ(reg.histogram("par.lat").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Concurrency, TraceSinkHammeredFromManyThreads) {
  telemetry::TraceSink sink(1024);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sink.record(0x80, static_cast<std::uint32_t>(t),
                    static_cast<std::uint32_t>(i), 1.0, 0x40);
        if (i % 16 == 0) sink.amend_last(2.0, 0x41);
        if (i % 512 == 0) {
          (void)sink.events();  // concurrent reader
          (void)sink.size();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sink.total_recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(sink.size(), sink.capacity());
  // The retained window is a consistent ring: seq values are unique.
  const auto events = sink.events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_NE(events[i].seq, events[i - 1].seq);
  }
}

// ---------------- Chip batches on the pool ----------------

TEST(ChipBatch, BatchProgramAndReadFromManyWorkers) {
  ThreadPool pool(4);
  const auto geom = small_geometry();
  Chips chips = make_chips(geom, 0xA11CE, 2);

  // Program every page of every block on both chips in one batch, then
  // read everything back in another.  Every program must succeed and every
  // read must round-trip the programmed bits (public reads are
  // near-noiseless at vendor_a defaults on fresh blocks).
  std::vector<ChipOp> programs;
  for (std::uint32_t c = 0; c < chips.size(); ++c) {
    for (std::uint32_t b = 0; b < geom.blocks; ++b) {
      for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
        programs.push_back({ChipOp::kProgram, c, b, p,
                            page_bits(c, b, p, geom.cells_per_page)});
      }
    }
  }
  run_batch(pool, chips, programs);
  for (const auto& op : programs) EXPECT_TRUE(op.status->is_ok());

  std::vector<ChipOp> reads;
  for (std::uint32_t c = 0; c < chips.size(); ++c) {
    for (std::uint32_t b = 0; b < geom.blocks; ++b) {
      for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
        reads.push_back({ChipOp::kRead, c, b, p});
      }
    }
  }
  run_batch(pool, chips, reads);
  std::size_t idx = 0;
  std::size_t bit_errors = 0;
  for (std::uint32_t c = 0; c < chips.size(); ++c) {
    for (std::uint32_t b = 0; b < geom.blocks; ++b) {
      for (std::uint32_t p = 0; p < geom.pages_per_block; ++p, ++idx) {
        const auto& readback = reads[idx].bits;
        const auto expected = page_bits(c, b, p, geom.cells_per_page);
        ASSERT_EQ(readback.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          bit_errors += (readback[i] ^ expected[i]) & 1;
        }
      }
    }
  }
  // ~1e-5 public BER: allow a small handful across 32k cells.
  EXPECT_LE(bit_errors, 8u);

  nand::CostLedger ledger{};
  for (const auto& chip : chips) {
    ledger.programs += chip->ledger().programs;
    ledger.reads += chip->ledger().reads;
  }
  EXPECT_EQ(ledger.programs,
            static_cast<std::uint64_t>(chips.size()) * geom.blocks *
                geom.pages_per_block);
  EXPECT_EQ(ledger.reads, ledger.programs);
}

// ---------------- The determinism guarantee ----------------

// Run the same mixed batch (erase, program, read, probe, interleaved across
// chips and blocks, including same-block sequences) against two chip
// vectors built from the same root seed — one on an inline pool, one on
// eight workers — and require bit-identical probe snapshots, read results
// and ledger totals.
TEST(Determinism, EightThreadBatchMatchesSerialBitForBit) {
  const auto geom = small_geometry();
  constexpr std::uint64_t kRoot = 0xD373C7;
  constexpr std::uint32_t kChips = 2;

  struct Snapshot {
    std::vector<std::vector<std::uint8_t>> reads;
    std::vector<std::vector<int>> probes;
    std::vector<nand::CostLedger> ledgers;
  };

  auto run = [&](unsigned threads) {
    ThreadPool pool(threads);
    Chips chips = make_chips(geom, kRoot, kChips);

    // Mixed deterministic workload.  Same-block operations are submitted
    // in a fixed order; the (chip, block) groups preserve it on any thread
    // count.
    std::vector<ChipOp> ops;
    for (std::uint32_t c = 0; c < kChips; ++c) {
      for (std::uint32_t b = 0; b < geom.blocks; ++b) {
        for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
          ops.push_back({ChipOp::kProgram, c, b, p,
                         page_bits(c, b, p, geom.cells_per_page)});
        }
      }
    }
    // Re-erase and re-program a few blocks: exercises erase->program
    // ordering inside one group while other groups still run.
    for (std::uint32_t c = 0; c < kChips; ++c) {
      for (std::uint32_t b = 0; b < 4; ++b) {
        ops.push_back({ChipOp::kErase, c, b});
        ops.push_back({ChipOp::kProgram, c, b, 0,
                       page_bits(c, b ^ 1, 0, geom.cells_per_page)});
      }
    }
    for (std::uint32_t c = 0; c < kChips; ++c) {
      for (std::uint32_t b = 0; b < geom.blocks; ++b) {
        ops.push_back({ChipOp::kRead, c, b, 0});
        ops.push_back({ChipOp::kProbe, c, b, geom.pages_per_block - 1});
      }
    }
    run_batch(pool, chips, ops);
    Snapshot snap;
    for (const auto& op : ops) {
      if (op.status) {
        EXPECT_TRUE(op.status->is_ok());
      }
      if (op.kind == ChipOp::kRead) snap.reads.push_back(op.bits);
      if (op.kind == ChipOp::kProbe) snap.probes.push_back(op.volts);
    }
    for (std::uint32_t c = 0; c < kChips; ++c) {
      snap.ledgers.push_back(chips[c]->ledger());
    }
    return snap;
  };

  const Snapshot serial = run(1);
  const Snapshot parallel = run(8);

  ASSERT_EQ(serial.reads.size(), parallel.reads.size());
  for (std::size_t i = 0; i < serial.reads.size(); ++i) {
    EXPECT_EQ(serial.reads[i], parallel.reads[i]) << "read " << i;
  }
  ASSERT_EQ(serial.probes.size(), parallel.probes.size());
  for (std::size_t i = 0; i < serial.probes.size(); ++i) {
    EXPECT_EQ(serial.probes[i], parallel.probes[i])
        << "probe snapshot " << i;
  }
  ASSERT_EQ(serial.ledgers.size(), parallel.ledgers.size());
  for (std::size_t i = 0; i < serial.ledgers.size(); ++i) {
    EXPECT_EQ(serial.ledgers[i].reads, parallel.ledgers[i].reads);
    EXPECT_EQ(serial.ledgers[i].programs, parallel.ledgers[i].programs);
    EXPECT_EQ(serial.ledgers[i].erases, parallel.ledgers[i].erases);
    EXPECT_DOUBLE_EQ(serial.ledgers[i].time_us, parallel.ledgers[i].time_us);
    EXPECT_DOUBLE_EQ(serial.ledgers[i].energy_uj,
                     parallel.ledgers[i].energy_uj);
  }
}

// Direct FlashChip concurrency: operations on DISTINCT blocks from many
// threads must land bit-identically to a serial run in any interleaving
// (per-block RNG streams), and the fixed-point ledger must agree exactly.
TEST(Determinism, DistinctBlockOpsAreOrderFree) {
  const auto geom = small_geometry();
  auto run = [&](bool threaded) {
    nand::FlashChip chip(geom, nand::NoiseModel::vendor_a(), 4242);
    auto work = [&](std::uint32_t b) {
      for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
        (void)chip.program_page(b, p, page_bits(0, b, p,
                                                geom.cells_per_page));
      }
      (void)chip.erase_block(b);
      (void)chip.program_page(b, 0, page_bits(1, b, 0,
                                              geom.cells_per_page));
      chip.bake_block(b, 24.0);
    };
    if (threaded) {
      std::vector<std::thread> threads;
      for (std::uint32_t b = 0; b < geom.blocks; ++b) {
        threads.emplace_back(work, b);
      }
      for (auto& t : threads) t.join();
    } else {
      for (std::uint32_t b = 0; b < geom.blocks; ++b) work(b);
    }
    std::vector<std::vector<int>> volts;
    for (std::uint32_t b = 0; b < geom.blocks; ++b) {
      volts.push_back(chip.probe_voltages(b, 0));
    }
    return std::make_pair(std::move(volts), chip.ledger());
  };

  const auto [serial_volts, serial_ledger] = run(false);
  const auto [threaded_volts, threaded_ledger] = run(true);
  ASSERT_EQ(serial_volts.size(), threaded_volts.size());
  for (std::size_t b = 0; b < serial_volts.size(); ++b) {
    EXPECT_EQ(serial_volts[b], threaded_volts[b]) << "block " << b;
  }
  EXPECT_EQ(serial_ledger.programs, threaded_ledger.programs);
  EXPECT_EQ(serial_ledger.erases, threaded_ledger.erases);
  EXPECT_DOUBLE_EQ(serial_ledger.time_us, threaded_ledger.time_us);
  EXPECT_DOUBLE_EQ(serial_ledger.energy_uj, threaded_ledger.energy_uj);
}

}  // namespace
}  // namespace stash::par

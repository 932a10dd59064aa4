#pragma once
// stash::dev::StashDevice — the asynchronous serving frontend of the stack.
//
// Callers used to juggle FlashChip, PageMappedFtl, VthiCodec and
// StegoVolume directly; StashDevice is the one block-device-shaped surface
// over all of them (the role PEARL's deniable FTL and Copycat's request
// frontend play in their systems).  It owns N FlashChips (chip i seeded
// from (DeviceConfig::seed, i)), one StegoVolume (public FTL + hidden
// VT-HI channel) per chip, and a deterministic request scheduler in front:
//
//   * Asynchronous submission: submit_read / submit_write / submit_trim /
//     submit_store_hidden / submit_load_hidden / submit_gc return futures.
//     The submission queue is bounded (DeviceConfig::queue_depth); filling
//     it dispatches inline on the submitting caller — backpressure where
//     the producer pays for the drain.
//   * QoS priority classes (Priority): within a dispatch round requests
//     execute sorted by (priority, submission sequence) — foreground reads
//     overtake queued background GC/hidden maintenance, and the tie-break
//     keeps the schedule a pure function of the submission order.
//   * Deadline-aware batching: dispatch normally waits for batch_pages
//     requests so same-block reads coalesce into PageMappedFtl::read_batch
//     (duplicate-lpn reads collapse to one physical read); a request older
//     than deadline_ticks submissions forces dispatch.  Ticks, not wall
//     clock, so the schedule is reproducible.
//   * Sharded read LRU (ReadCache) and a double-buffered write-back buffer
//     (WriteBackBuffer) with an explicit flush().  A write is acknowledged
//     when staged and durable when flush() returns OK.  A full open half is
//     sealed and handed to one destage worker per chip, which program it
//     in the background while the next half fills; a write that finds the
//     open half sealed behind a still-running destage gets a pending
//     future, admitted in FIFO order when that destage completes
//     (backpressure that does not block the submitting thread until one
//     half of writes is pending; a submitter past that waits for the
//     admission).  Under a stash::fault power cut, everything a successful
//     flush() covered survives, and power_cycle() reports the acked writes
//     that never reached flash as lost (never corrupted — the FTL remaps
//     only after a program completes, so torn writes leave the old version
//     readable).
//
// Determinism: the schedule — dispatch rounds, QoS order, where each
// write-back half seals, what it holds, and so which versions each chip
// programs in which order — is a function of the submission sequence
// alone.  Results, device state and cost-ledger totals are a pure function
// of it, byte-identical for any DeviceConfig::threads, whenever no NAND
// read overlaps a destage: such a read interleaves with the destage's page
// ops by wall clock, and whether it still finds a just-destaged half is
// timing too.  Every determinism gate (fill, flush, then read) has that
// shape.
//
// Concurrency: the public API is thread-safe.  One mutex (mu_) guards the
// queue and the write-back buffer; dispatch rounds run under it on the
// submitting thread, one at a time.  The destage workers take mu_ only to
// pick up, retire, hand off and admit — never across FTL or NAND work —
// and their page programs overlap read misses through the FTL's shared
// map lock.  Everything else that touches a chip's FTL or StegoVolume
// (hidden store/load/info, GC, flush, power_cycle, snapshots,
// state_checksum, volume(), chip(), set_fault_injector) first waits for
// the destage to go idle.  Addressing stripes the device LPN space across
// chips: lpn -> (chip = lpn % chips, local = lpn / chips).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "stash/dev/arena.hpp"
#include "stash/dev/cache.hpp"
#include "stash/dev/config.hpp"
#include "stash/crypto/drbg.hpp"
#include "stash/nand/chip.hpp"
#include "stash/nand/fault_injector.hpp"
#include "stash/par/pool.hpp"
#include "stash/stego/volume.hpp"
#include "stash/store/snapshot.hpp"
#include "stash/telemetry/metrics.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/batch.hpp"
#include "stash/util/status.hpp"

namespace stash::dev {

using util::BatchResult;
using util::BatchStatus;
using util::Result;
using util::Status;

/// The hidden object, described: what the versioned hidden-object API
/// (hidden_info) reports instead of the old anonymous-blob view.  All
/// byte counts are exact; ratios are derived.
struct HiddenInfo {
  /// Payload bytes the hiding user stored (after unpacking).
  std::uint64_t logical_bytes = 0;
  /// Container bytes actually embedded in the voltage channel.
  std::uint64_t packed_bytes = 0;
  /// CDC chunks in the payload / distinct chunks after dedup (equal to
  /// each other and meaningless when the generation was stored raw).
  std::uint64_t chunks = 0;
  std::uint64_t unique_chunks = 0;
  /// Segment format of the stored generation: 0 = raw bytes, otherwise
  /// the pack container format version.
  std::uint16_t format = 0;
  /// Logical bytes per deduped byte (1.0 when stored raw).
  double dedup_ratio = 1.0;
  /// Hidden bytes the device could still accept right now (headroom on
  /// blocks not already carrying this generation).
  std::uint64_t remaining_capacity_bytes = 0;

  /// Effective hidden-capacity multiplier of the stored generation.
  [[nodiscard]] double multiplier() const noexcept {
    return packed_bytes ? static_cast<double>(logical_bytes) /
                              static_cast<double>(packed_bytes)
                        : 1.0;
  }
};

/// Point-in-time device statistics, sourced from the per-instance counters
/// (same convention as ftl::PageMappedFtl::stats_snapshot).
struct DeviceStats {
  std::uint64_t reads = 0;            // read requests completed
  std::uint64_t writes = 0;           // write requests acknowledged
  std::uint64_t trims = 0;
  std::uint64_t cache_hits = 0;       // reads served from the LRU
  std::uint64_t cache_misses = 0;
  std::uint64_t buffer_hits = 0;      // reads served from the write-back buffer
  std::uint64_t coalesced_writes = 0; // buffered lpn overwritten before flush
  std::uint64_t coalesced_reads = 0;  // duplicate lpns collapsed in a batch
  std::uint64_t dispatches = 0;       // dispatch rounds executed
  std::uint64_t deadline_dispatches = 0;  // rounds forced by deadline_ticks
  std::uint64_t flushes = 0;          // write-back halves handed to destage
  std::uint64_t flushed_pages = 0;    // buffer entries made durable
  std::uint64_t lost_writes = 0;      // acked writes lost to a cut
  std::uint64_t gc_runs = 0;          // background GC rounds executed
  std::uint64_t hidden_stores = 0;    // store_hidden requests that succeeded
  std::uint64_t hidden_loads = 0;     // load_hidden requests that succeeded
  // Cumulative pack pipeline totals over all successful hidden stores:
  // payload bytes in vs container bytes embedded (equal when packing is
  // disabled — a raw store counts as multiplier 1).
  std::uint64_t pack_logical_bytes = 0;
  std::uint64_t pack_packed_bytes = 0;
  // Page-payload bytes the device memcpy'd while serving requests.  The
  // zero-copy read path (BufferArena slabs + PageRef sharing) keeps this
  // at 0 for steady-state reads; the residual copies still charged here
  // are the hidden-object segment reassembly on load_hidden.
  std::uint64_t bytes_copied = 0;

  [[nodiscard]] double cache_hit_ratio() const noexcept {
    const std::uint64_t total = cache_hits + cache_misses;
    return total ? static_cast<double>(cache_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

class StashDevice {
 public:
  /// Kind of a queued (asynchronous) request; exposed for the dispatch
  /// introspection hook below.
  enum class OpKind : std::uint8_t { kRead, kStoreHidden, kLoadHidden, kGc };

  /// One executed queue entry, in execution order (test/debug
  /// introspection of the QoS schedule).
  struct ExecutedOp {
    OpKind kind;
    std::uint64_t seq;
    Priority priority;
  };

  StashDevice(const DeviceConfig& config, const crypto::HidingKey& key);
  StashDevice(const StashDevice&) = delete;
  StashDevice& operator=(const StashDevice&) = delete;
  /// Drains the queue, flushes the write-back buffer (best effort; a dark
  /// device simply keeps its volatile state lost) and joins the destage
  /// workers.
  ~StashDevice();

  // ---- Geometry -----------------------------------------------------------
  [[nodiscard]] std::uint64_t logical_pages() const noexcept;
  [[nodiscard]] std::uint32_t page_bits() const noexcept;
  [[nodiscard]] std::uint32_t chips() const noexcept {
    return static_cast<std::uint32_t>(chips_.size());
  }
  [[nodiscard]] const DeviceConfig& config() const noexcept { return config_; }

  // ---- Asynchronous frontend ---------------------------------------------
  /// Queue a read; the future resolves at dispatch with a shared,
  /// zero-copy reference to the page data (the same buffer the read LRU
  /// holds).
  std::future<Result<PageRef>> submit_read(
      std::uint64_t lpn, Priority priority = Priority::kForeground);
  /// Stage a write.  Write-back mode acknowledges as soon as the data is
  /// buffered (durable only after flush()); a write that arrives while the
  /// open half is sealed behind a running destage resolves when that
  /// destage completes; while one half of such writes is already pending,
  /// the call itself waits for that admission.  Write-through mode
  /// (write_back_pages == 0) is durable before the future resolves.
  std::future<Status> submit_write(std::uint64_t lpn,
                                   std::vector<std::uint8_t> bits);
  /// Stage a trim tombstone, exactly like a write.
  std::future<Status> submit_trim(std::uint64_t lpn);
  /// Queue hidden-volume ops and GC at background priority.
  std::future<Status> submit_store_hidden(std::vector<std::uint8_t> data);
  std::future<Result<PageRef>> submit_load_hidden();
  /// One GC pass on every chip's FTL.
  std::future<Status> submit_gc();

  // ---- Synchronous convenience -------------------------------------------
  Result<PageRef> read(std::uint64_t lpn);
  Status write(std::uint64_t lpn, std::span<const std::uint8_t> bits);
  Status trim(std::uint64_t lpn);
  /// Store (replace) the hidden object.  With DeviceConfig::pack enabled
  /// the payload goes through the dedup + compression pipeline first; load
  /// transparently reverses it.  Both remain thin wrappers over the
  /// versioned hidden-object surface below.
  Status store_hidden(std::span<const std::uint8_t> data);
  Result<PageRef> load_hidden();

  // ---- Hidden-object introspection ---------------------------------------
  /// Describe the stored hidden object: logical vs embedded bytes, dedup
  /// ratio, segment format, and remaining hidden headroom.  Queries the
  /// voltage channel like load_hidden (dispatching anything queued first),
  /// so it reflects the committed generation; kNotFound when no hidden
  /// object exists under this key.
  Result<HiddenInfo> hidden_info();

  // ---- Batch entry points (util::BatchResult convention) ------------------
  /// Read many pages in one dispatch round; result i <-> lpns[i].
  BatchResult<PageRef> read_batch(std::span<const std::uint64_t> lpns);
  /// Stage many writes; slot i <-> requests[i] (acknowledge status).
  BatchStatus write_batch(
      std::span<const ftl::PageMappedFtl::WriteRequest> requests);

  // ---- Durability ---------------------------------------------------------
  /// Wait for any running destage, destage the rest of the write-back
  /// buffer, and retire it.  On OK, every write acknowledged before this
  /// call is durable.  On failure (e.g. a power cut mid-drain, or an error
  /// of a background destage since the last flush) the un-persisted
  /// entries stay buffered.
  Status flush();
  /// Dispatch everything queued (does not flush).
  void drain();
  /// Advance the deadline clock without submitting: the tick clock
  /// otherwise only moves with submissions, so when clients go quiet a
  /// sub-batch queue would wait forever.  Idle callers (the stash::net
  /// poll loop, a timer thread) call this periodically; a request older
  /// than deadline_ticks dispatches exactly as a submission-driven
  /// deadline would.  Returns the queue depth after any dispatch.
  std::size_t idle_tick();
  /// Called (from a destage worker, under the device lock: keep it short
  /// and never call back into the device) whenever a completed destage
  /// admitted pending writes, i.e. made their futures ready.  An event
  /// loop installs a wake-up here; nullptr uninstalls, and once the call
  /// returns the old hook is never invoked again.
  void set_completion_hook(std::function<void()> hook);

  // ---- Fault integration --------------------------------------------------
  /// Attach `injector` to every chip of the array (nullptr detaches),
  /// once any running destage is idle.
  void set_fault_injector(nand::FaultInjector* injector) noexcept;
  /// Simulated reboot after a power cut: volatile state (write-back
  /// buffer, read cache, queued requests) is gone.  A running destage
  /// finishes first; queued requests resolve with kPowerLoss; acked writes
  /// that never reached flash are recorded in lost_writes() — reported
  /// lost, never silently dropped.  Call after restoring power on the
  /// fault plan.
  Status power_cycle();
  /// LPNs of acknowledged writes lost to power cuts, in staging order.
  [[nodiscard]] const std::vector<std::uint64_t>& lost_writes()
      const noexcept {
    return lost_writes_;
  }

  // ---- Persistence (stash::store) -----------------------------------------
  /// Quiesce the queue, flush the write-back buffer, and atomically commit
  /// the device's full persistent state — every chip's cells/epochs/ledger,
  /// each FTL's maps, and each hidden volume's framing — as a new snapshot
  /// generation under `dir`.  A crash at any syscall of the save (torn
  /// write, failed fsync/rename; injectable via `injector`) leaves the
  /// previous generation loadable.  Returns what was committed (path,
  /// generation, commit_seq, byte size).
  Result<store::SaveInfo> save_snapshot(
      const std::string& dir, store::FileFaultInjector* injector = nullptr);
  /// Restore the device from the newest loadable generation under `dir`.
  /// Resolves anything still queued against the pre-restore state first,
  /// then replaces chips/FTLs/hidden framing wholesale.  Volatile state is
  /// rolled back with everything else: the read cache is invalidated and
  /// the write-back buffer discarded (post-snapshot writes are undone by
  /// the restore, so they are not counted as lost).  kNotFound when `dir`
  /// holds no snapshot; kCorrupted when no generation validates; on a
  /// config-mismatched snapshot, kInvalidArgument.  The device is
  /// unchanged on any pre-apply failure.
  Status load_snapshot(const std::string& dir);
  /// FNV-1a digest of the canonical serialization of the device's full
  /// persistent state (exactly what save_snapshot writes: chips + FTL maps
  /// + hidden framing + lost-write ledger; the volatile queue/cache/buffer
  /// are not state).  Bit-exact restore <=> equal checksums — the gate the
  /// snapshot tests, the soak harness, and CI's determinism diff assert.
  [[nodiscard]] std::uint64_t state_checksum() const;

  // ---- Introspection ------------------------------------------------------
  [[nodiscard]] DeviceStats stats_snapshot() const noexcept;
  /// Canonical JSON of stats_snapshot(): fixed key order, integers only —
  /// byte-identical across runs whenever the event counts are.
  [[nodiscard]] std::string stats_json() const;
  /// Aggregate cost ledger across all chips (exact fixed-point totals).
  [[nodiscard]] nand::CostLedger ledger() const;
  /// Execution order of the most recent dispatch round.
  [[nodiscard]] const std::vector<ExecutedOp>& last_dispatch_order()
      const noexcept {
    return last_dispatch_;
  }
  /// Direct access to a chip's volume / the pool (expert escape hatches;
  /// do not interleave with queued traffic).  Waits for the destage to go
  /// idle first.
  [[nodiscard]] stego::StegoVolume& volume(std::uint32_t chip);
  /// Direct access to one chip (per-chip fault injection in tests); waits
  /// for the destage to go idle first.
  [[nodiscard]] nand::FlashChip& chip(std::uint32_t index);
  [[nodiscard]] par::ThreadPool& pool() noexcept { return pool_; }

 private:
  struct Request {
    OpKind kind = OpKind::kRead;
    Priority priority = Priority::kForeground;
    std::uint64_t seq = 0;
    std::uint64_t enqueue_tick = 0;
    std::uint64_t lpn = 0;
    std::vector<std::uint8_t> data;  // store_hidden payload
    std::promise<Result<PageRef>> value_promise;
    std::promise<Status> status_promise;
    std::chrono::steady_clock::time_point start;
    /// Root span of this request's trace (inactive when tracing is off or
    /// the request was not sampled).
    trace::TraceContext trace{};
    /// Device clock (trace_now) at enqueue; queue-wait = service start
    /// minus this.
    std::uint64_t enqueue_now = 0;
  };

  [[nodiscard]] std::uint32_t chip_of(std::uint64_t lpn) const noexcept {
    return static_cast<std::uint32_t>(lpn % chips_.size());
  }
  [[nodiscard]] std::uint64_t local_lpn(std::uint64_t lpn) const noexcept {
    return lpn / chips_.size();
  }

  /// A write or trim that found the open half sealed: staged data plus
  /// the future it owes, admitted when the running destage completes.
  struct PendingWrite {
    std::uint64_t lpn = 0;
    PageRef bits;  // empty for a trim
    bool trim = false;
    std::promise<Status> promise;
    std::chrono::steady_clock::time_point start;
    trace::TraceContext trace{};
    std::uint64_t enqueue_now = 0;  // staging clock at submission
  };

  /// One destage: the per-chip shares of the destaging half (indices into
  /// WriteBackBuffer::destaging(), staging order) and their outcomes.
  struct Destage {
    std::uint64_t gen = 0;  // bumped per hand-off; workers wait on it
    std::vector<std::vector<std::size_t>> items;
    std::vector<std::vector<Status>> results;
    std::uint32_t chips_left = 0;
    std::chrono::steady_clock::time_point start;
    trace::TraceContext trace{};
    std::uint64_t trace_t0 = 0;
  };

  /// Enqueue under lock, then run any dispatch the queue state demands.
  void enqueue(Request req, std::unique_lock<std::mutex>& lock);
  /// submit_write / submit_trim body.
  std::future<Status> submit_update(trace::Op op, std::uint64_t lpn,
                                    std::vector<std::uint8_t> bits);
  /// Execute every queued request in (priority, seq) order.  Called with
  /// the lock held; the lock stays held throughout (dispatch is the
  /// single-threaded heart of the deterministic schedule).
  void dispatch(std::unique_lock<std::mutex>& lock);
  void execute_reads(std::vector<Request>& reads);
  Status execute_store_hidden(std::span<const std::uint8_t> data);
  /// The reassembled device payload exactly as embedded (pack container or
  /// raw bytes) plus the segment format that tags it.
  struct RawHidden {
    std::uint16_t format = 0;
    std::vector<std::uint8_t> bytes;
  };
  Result<RawHidden> load_hidden_raw();
  Result<std::vector<std::uint8_t>> execute_load_hidden();
  Status execute_gc();

  // ---- Write-back destage (all *_locked helpers run under mu_) -----------
  /// Stage one write/trim in the open half and resolve its future.
  void admit_locked(PendingWrite& write);
  /// Hand the open half (plus any entries a failed destage left) to the
  /// chip workers; requires an idle destage.
  void hand_off_locked();
  /// Run by the last chip worker to finish: record the outcome, hand off a
  /// sealed half, admit pending writes, wake idle waiters.
  void finish_destage_locked();
  void wait_destage_idle(std::unique_lock<std::mutex>& lock) const;
  void destage_worker(std::uint32_t chip);
  void stop_workers() noexcept;
  void set_buffer_gauges() const;
  /// Flush body; requires the lock.
  Status flush_locked(std::unique_lock<std::mutex>& lock);

  // ---- Persistence helpers (all called under mu_) -------------------------
  /// Identity of the substrate a snapshot is only valid against: geometry,
  /// chip count, seed, and the noise model (the per-cell RNG is keyed on
  /// all of them, so restoring into a different one would silently break
  /// the determinism contract).
  [[nodiscard]] std::uint64_t snapshot_config_hash() const noexcept;
  /// The device's persistent state as named snapshot chunks, in canonical
  /// order (dev/meta, then per chip: meta, blocks ascending, ftl, stego).
  [[nodiscard]] std::vector<store::Chunk> snapshot_chunks() const;
  Status apply_snapshot(const store::SnapshotData& snap);

  // ---- Tracing helpers (all called under mu_) -----------------------------
  /// Simulated device clock: the summed per-chip cost-ledger time.  Exact
  /// and thread-count independent, so deterministic traces read it instead
  /// of the wall clock.
  [[nodiscard]] std::uint64_t sim_now() const noexcept;
  /// Wall or simulated nanoseconds depending on the tracer's clock mode.
  [[nodiscard]] std::uint64_t trace_now() const noexcept;
  /// Clock of write-back staging spans: the wall clock in wall mode; 0 in
  /// virtual mode, where staging does no chip work and the summed chip
  /// clock would fold in whatever a background destage did meanwhile.
  [[nodiscard]] std::uint64_t staging_now() const noexcept;
  /// Allocate a (possibly inactive) root context for a new request.
  [[nodiscard]] trace::TraceContext new_request_trace(trace::Op op,
                                                      std::uint64_t key);
  /// Emit the request skeleton: dev.request root with dev.queue_wait and
  /// ftl.service children, from three clock reads (enqueue, service start,
  /// service end) — so root duration == queue_wait + service exactly.
  void emit_request_trace(const trace::TraceContext& root, std::uint64_t enq,
                          trace::Op op, std::uint64_t key, std::uint64_t t0,
                          std::uint64_t t1, std::uint8_t status);

  DeviceConfig config_;
  par::ThreadPool pool_;
  std::vector<std::unique_ptr<nand::FlashChip>> chips_;
  std::vector<std::unique_ptr<stego::StegoVolume>> volumes_;

  mutable std::mutex mu_;
  std::list<Request> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t trace_seq_ = 0;     // requests considered for sampling
  std::uint64_t dispatch_seq_ = 0;  // dispatch-round trace ids
  /// Slab pool behind every read result: misses threshold straight into
  /// an arena lease, and the sealed PageRef is shared by the LRU, the
  /// futures, and net responses.
  BufferArena arena_;
  WriteBackBuffer buffer_;
  ReadCache cache_;
  std::vector<std::uint64_t> lost_writes_;
  std::vector<ExecutedOp> last_dispatch_;

  // ---- Write-back destage state (guarded by mu_) --------------------------
  std::deque<PendingWrite> pending_writes_;  // FIFO admission order
  Destage destage_;
  bool destage_active_ = false;
  bool stopping_ = false;
  std::uint64_t destage_seq_ = 0;     // destage trace ids
  Status destage_error_;              // first error since the last flush()
  std::function<void()> completion_hook_;
  std::condition_variable work_cv_;   // workers: a new destage
  std::condition_variable admission_cv_;  // submitters: pending writes fell
  mutable std::condition_variable idle_cv_;   // waiters: destage idle

  // Per-instance counters behind stats_snapshot() and stats_json(): the
  // only count of each event (gtest runs many devices in one process).
  struct Counters {
    telemetry::Counter reads;
    telemetry::Counter writes;
    telemetry::Counter trims;
    telemetry::Counter buffer_hits;
    telemetry::Counter coalesced_writes;
    telemetry::Counter coalesced_reads;
    telemetry::Counter dispatches;
    telemetry::Counter deadline_dispatches;
    telemetry::Counter flushes;
    telemetry::Counter flushed_pages;
    telemetry::Counter lost;
    telemetry::Counter gc_runs;
    telemetry::Counter hidden_stores;
    telemetry::Counter hidden_loads;
    telemetry::Counter pack_logical_bytes;
    telemetry::Counter pack_packed_bytes;
    telemetry::Counter bytes_copied;
  };
  Counters counters_;
  /// One destage worker per chip (none in write-through mode); declared
  /// last so everything they touch outlives them.
  std::vector<std::thread> workers_;
};

}  // namespace stash::dev

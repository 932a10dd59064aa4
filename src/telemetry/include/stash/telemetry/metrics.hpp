#pragma once
// stash::telemetry — the unified observability surface for the whole stack.
//
// Every layer (FlashChip, OnfiDevice, BchCode, VthiChannel, PthiCodec,
// PageMappedFtl, StegoVolume, SvmModel, Sha256Drbg) reports named counters,
// gauges, and log-bucketed latency histograms into a MetricsRegistry.  The
// registry hands out stable references at setup time, so the hot path is a
// single relaxed atomic add — cheap enough that every build keeps it on
// while reproducing the paper's figures (bench/micro.cpp quantifies the
// cost: a counter increment is a few nanoseconds against the ~microsecond
// NAND-simulator operations it annotates, far below the 2% budget).
//
// One count per event: an event that a per-instance stats API already
// counts (FtlStats, DeviceStats, NetStats, StegoStats, FaultStats) lives
// there only, in a Counter owned by that instance.  The global registry
// carries what has no per-instance home: latency histograms, queue and
// buffer gauges, and the counters of layers without a stats struct.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stash::telemetry {

/// Monotonic event count, in a registry or behind a per-instance stats
/// API.  Increment is one relaxed atomic add.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written point-in-time value (free blocks, wear spread, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }

  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram of non-negative integer samples.  Bucket i holds
/// samples whose bit width is i (i.e. values in [2^(i-1), 2^i)), so 64
/// buckets cover the full uint64 range with ~2x resolution — the classic
/// latency-histogram shape (units are nanoseconds when fed by ScopedTimer,
/// but any magnitude works: FlashChip records per-block PEC at erase time
/// into one of these).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t sample) noexcept {
    const std::size_t bucket =
        sample == 0 ? 0 : static_cast<std::size_t>(64 - __builtin_clzll(sample));
    buckets_[bucket < kBuckets ? bucket : kBuckets - 1].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] double mean() const noexcept {
    const auto n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }

  [[nodiscard]] std::uint64_t bucket_count(std::size_t bucket) const noexcept {
    return bucket < kBuckets ? buckets_[bucket].load(std::memory_order_relaxed)
                             : 0;
  }

  /// Approximate q-th quantile (0 <= q <= 1): walks the buckets to the one
  /// holding the q-th sample and interpolates linearly within it by the
  /// sample's rank, so a heavily-populated bucket reads as a gradient
  /// instead of a single fixed point.  Resolution is still bounded by the
  /// power-of-two bucket width.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// RAII wall-clock timer: records the scope's elapsed nanoseconds into a
/// LatencyHistogram on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& hist) noexcept
      : hist_(&hist), start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    hist_->record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }

 private:
  LatencyHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

/// Point-in-time export of a registry, suitable for machine consumption.
struct Snapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramSummary {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramSummary> histograms;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;

  /// Compact JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {name:{count,sum,mean,p50,p99,p999},...}}.
  [[nodiscard]] std::string to_json() const;
};

/// Named instrument directory.  Lookup takes a mutex (do it at setup and
/// cache the reference); the returned references stay valid for the
/// registry's lifetime.  Most code uses the process-wide global() registry;
/// tests may instantiate private ones.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every instrument; names stay registered and references valid.
  void reset();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace stash::telemetry

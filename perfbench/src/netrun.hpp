#pragma once
// Closed-loop stash::net windows: one thread per connection, each keeping
// its connection's depth of requests in flight over the seeded op stream,
// timing each request at the client from send to response and checking
// every response.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "workload.hpp"

namespace perfbench {

/// The measured window is cut into this many equal slices; throughput and
/// median latency are reported as medians over slices, so a burst of
/// outside load during one slice moves them less than it moves
/// whole-window figures.  Tails are read off the whole window, where they
/// have the most samples beyond them.
constexpr int kSlices = 5;

struct KindStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Samples latency_us;
  /// The same latencies by the slice the request was sent in.
  std::array<Samples, kSlices> slice_latency_us;

  /// Median over slices of each slice's q-quantile.
  [[nodiscard]] double sliced_quantile(double q) const;
};

/// Correctness state shared by every window of a run.
class Checker {
 public:
  /// Highest write sequence + 1 each writer has sent (read tags must name
  /// a write that was sent before the read completed).
  std::array<std::atomic<std::uint64_t>, 256> sent_writes{};

  void fail(const std::string& what);
  [[nodiscard]] std::uint64_t errors() const { return errors_.load(); }
  [[nodiscard]] std::vector<std::string> messages() const;
  /// Check one public read of `lpn` against the versions written to it.
  void check_read(const PageCodec& codec, std::uint64_t lpn,
                  std::span<const std::uint8_t> page);
  /// Check a loaded hidden object against the last acknowledged store.
  void check_hidden(std::span<const std::uint8_t> loaded,
                    const std::vector<std::uint8_t>& stored, const char* where);

 private:
  std::atomic<std::uint64_t> errors_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

struct WindowSpec {
  /// Distinguishes windows of one run (stream seeds and writer ids).
  std::uint32_t window = 0;
  double warmup_s = 0.0;
  double measure_s = 1.0;
  /// Record a span per request (the traced run).
  SpanLog* spans = nullptr;
};

struct WindowResult {
  /// Ops sent inside the measured window, by kind.
  std::array<KindStats, kOpKinds> kinds;
  /// Ops sent in warm-up and window alike, by kind.
  std::array<std::uint64_t, kOpKinds> attempted_all{};
  std::array<std::uint64_t, kOpKinds> failed_all{};
  /// The first error message of each kind (empty when none failed).
  std::array<std::string, kOpKinds> first_error;
  /// Responses received inside the measured window, in all and by slice.
  std::uint64_t completed = 0;
  std::array<std::uint64_t, kSlices> slice_completed{};
  double measure_s = 0.0;
  /// Longest span inside the window with no response on any connection.
  double max_response_gap_ms = 0.0;

  [[nodiscard]] double ops_per_s() const {
    return measure_s > 0 ? static_cast<double>(completed) / measure_s : 0.0;
  }
  /// Median over slices of each slice's completions per second.
  [[nodiscard]] double sliced_ops_per_s() const;
};

WindowResult run_window(Host& host, const Workload& w, std::uint64_t seed,
                        const PageCodec& codec, const WindowSpec& spec,
                        Checker& checker);

/// Stop the server and check that `requests == responses + dropped`.
void stop_server(Host& host, Checker& checker);

}  // namespace perfbench

#pragma once
// Shared pieces of the perfbench driver: clocks, sample statistics, the
// self-describing public page format the correctness checks read back, the
// seeded hidden payloads, the in-memory span log, and the result printer.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// A set of timings (or any values) summarised by quantiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// Median of a small vector (copied).
double median(std::vector<double> v);

// ---- Public page content ---------------------------------------------------
//
// Every public page the benchmark writes carries a 64-bit tag naming the
// version: the target LPN, the writer (a connection of a window, or the
// cover fill) and the writer's sequence number.  The tag's bits are tiled
// over the page under a fixed pseudo-random mask, so any read-back can be
// checked by majority vote against the versions written to that LPN, and
// raw bit errors of the public channel do not break the check.

constexpr std::uint32_t kCoverWriter = 0xff;

inline std::uint64_t make_tag(std::uint64_t lpn, std::uint32_t writer,
                              std::uint64_t seq) {
  return (lpn & 0xffffffULL) | (static_cast<std::uint64_t>(writer & 0xff) << 24) |
         ((seq & 0xffffffffULL) << 32);
}
inline std::uint64_t tag_lpn(std::uint64_t tag) { return tag & 0xffffffULL; }
inline std::uint32_t tag_writer(std::uint64_t tag) {
  return static_cast<std::uint32_t>((tag >> 24) & 0xff);
}
inline std::uint64_t tag_seq(std::uint64_t tag) { return tag >> 32; }

class PageCodec {
 public:
  /// The mask is fixed, so the cover written at set-up is one device image
  /// for every seed (the seed varies the traffic, not the drive).
  explicit PageCodec(std::uint32_t page_bits);
  [[nodiscard]] std::uint32_t page_bits() const noexcept { return bits_; }
  /// The page (one 0/1 byte per cell) carrying `tag`.
  [[nodiscard]] std::vector<std::uint8_t> encode(std::uint64_t tag) const;
  struct Decoded {
    std::uint64_t tag = 0;
    /// Checked cells that disagree with the re-encoded tag.
    std::uint32_t mismatches = 0;
    std::uint32_t checked = 0;
  };
  /// Majority-decode the tag from the first and last kCheckCells cells.
  [[nodiscard]] Decoded decode(std::span<const std::uint8_t> page) const;

  static constexpr std::uint32_t kCheckCells = 1024;

 private:
  std::uint32_t bits_;
  std::vector<std::uint8_t> mask_;
};

// ---- Hidden payloads -------------------------------------------------------

/// Seeded text-like payload (words from a small vocabulary, so it
/// compresses and dedups like prose does) of `size` bytes, or of a seeded
/// size from 256 B to 1 KiB when `size` is 0.
std::vector<std::uint8_t> text_payload(std::uint64_t seed, std::size_t size = 0);

// ---- Spans -----------------------------------------------------------------

/// One timed call at a layer boundary.  `id` is shared by every span of one
/// request; `parent` names the operation (or request) that caused it.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory for the whole run and written when it ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  void add(const char* name, std::uint64_t id, const char* parent,
           Clock::time_point start, Clock::time_point end);
  /// Merge a thread-local batch in one lock.
  void add_all(const std::vector<Span>& spans);
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  /// Span count by name, for the run summary.
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> names() const;
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- Result ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The final stdout line the benchmark contract reads.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// JSON string escaping for the provenance and detail lines.
std::string json_escape(const std::string& s);

}  // namespace perfbench

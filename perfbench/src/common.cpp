#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>

#include "stash/util/rng.hpp"

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

PageCodec::PageCodec(std::uint32_t page_bits)
    : bits_(page_bits), mask_(page_bits) {
  stash::util::Xoshiro256 rng(0x9a6e5eedULL);
  for (std::uint32_t i = 0; i < page_bits; i += 64) {
    const std::uint64_t word = rng();
    for (std::uint32_t b = 0; b < 64 && i + b < page_bits; ++b) {
      mask_[i + b] = static_cast<std::uint8_t>((word >> b) & 1);
    }
  }
}

std::vector<std::uint8_t> PageCodec::encode(std::uint64_t tag) const {
  std::vector<std::uint8_t> page(bits_);
  for (std::uint32_t i = 0; i < bits_; ++i) {
    page[i] = static_cast<std::uint8_t>(((tag >> (i & 63)) & 1) ^ mask_[i]);
  }
  return page;
}

PageCodec::Decoded PageCodec::decode(std::span<const std::uint8_t> page) const {
  Decoded out;
  if (page.size() != bits_) {
    out.checked = 1;
    out.mismatches = 1;
    return out;
  }
  std::uint32_t ones[64] = {};
  std::uint32_t seen[64] = {};
  const auto vote = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t i = from; i < to; ++i) {
      ones[i & 63] += (page[i] ^ mask_[i]) & 1;
      ++seen[i & 63];
    }
  };
  const std::uint32_t head = std::min(kCheckCells, bits_);
  vote(0, head);
  vote(std::max(head, bits_ - std::min(kCheckCells, bits_)), bits_);
  for (std::uint32_t b = 0; b < 64; ++b) {
    if (2 * ones[b] > seen[b]) out.tag |= 1ULL << b;
    out.mismatches += std::min(ones[b], seen[b] - ones[b]);
    out.checked += seen[b];
  }
  return out;
}

std::vector<std::uint8_t> text_payload(std::uint64_t seed, std::size_t size) {
  static const char* const kWords[] = {
      "flash",  "voltage", "hidden", "page",  "block", "cell",   "the",
      "of",     "and",     "public", "level", "store", "noise",  "device",
      "volume", "key",     "erase",  "read",  "write", "signal", "a",
      "to",     "in",      "data",   "chip",  "steg",  "host",   "user"};
  constexpr std::size_t kVocab = sizeof(kWords) / sizeof(kWords[0]);
  stash::util::Xoshiro256 rng(seed ^ 0x7e47ULL);
  if (size == 0) size = 256 + rng.below(769);
  std::vector<std::uint8_t> out;
  out.reserve(size + 16);
  while (out.size() < size) {
    const char* w = kWords[rng.below(kVocab)];
    while (*w != '\0') out.push_back(static_cast<std::uint8_t>(*w++));
    out.push_back(rng.below(12) == 0 ? '\n' : ' ');
  }
  out.resize(size);
  return out;
}

void SpanLog::add(const char* name, std::uint64_t id, const char* parent,
                  Clock::time_point start, Clock::time_point end) {
  const Span s{name, id, parent, ns(start), ns(end)};
  std::lock_guard lock(mu_);
  spans_.push_back(s);
}

void SpanLog::add_all(const std::vector<Span>& spans) {
  std::lock_guard lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<std::pair<std::string, std::size_t>> SpanLog::names() const {
  std::map<std::string, std::size_t> counts;
  std::lock_guard lock(mu_);
  for (const auto& s : spans_) ++counts[s.name];
  return {counts.begin(), counts.end()};
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mu_);
  for (const auto& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%" PRIu64
                 ",\"parent\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 s.name, s.id, s.parent, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

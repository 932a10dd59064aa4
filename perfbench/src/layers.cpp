#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <future>

#include "stash/ecc/bch.hpp"
#include "stash/ftl/ftl.hpp"
#include "stash/nand/chip.hpp"
#include "stash/pack/pack.hpp"
#include "stash/par/pool.hpp"
#include "stash/vthi/codec.hpp"

namespace perfbench {

namespace {

using stash::dev::DeviceStats;
using stash::dev::PageRef;
using stash::util::Result;
using stash::util::Status;

/// Writer ids of the in-process calls (page tags), clear of the windows'.
constexpr std::uint32_t kReplayWriter = 240;
constexpr std::uint32_t kProbeWriter = 254;

/// Times one call and records its span.
class Timer {
 public:
  Timer(SpanLog& log, const char* name, std::uint64_t id, const char* parent)
      : log_(log), name_(name), id_(id), parent_(parent), t0_(Clock::now()) {}
  /// Ends the span; returns its duration in microseconds.
  double stop() {
    const auto t1 = Clock::now();
    log_.add(name_, id_, parent_, t0_, t1);
    return us_between(t0_, t1);
  }

 private:
  SpanLog& log_;
  const char* name_;
  std::uint64_t id_;
  const char* parent_;
  Clock::time_point t0_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- net: alternating untraced / traced closed-loop windows ---------------

struct NetLayer {
  double read_p50_us = 0.0;  // wire read p50 of window 0
  double rx_bytes_per_op = 0.0;
  double tx_bytes_per_op = 0.0;
  double max_response_gap_ms = 0.0;
  double pipeline_stalls = 0.0;
  double overhead_frac = 0.0;
  /// (max - min) / median of the untraced windows' ops_per_s: how far
  /// windows with no tracing at all differ from each other.
  double untraced_spread_frac = 0.0;
  stash::nand::CostLedger ledger_delta;
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

stash::nand::CostLedger ledger_minus(const stash::nand::CostLedger& a,
                                     const stash::nand::CostLedger& b) {
  stash::nand::CostLedger d;
  d.reads = a.reads - b.reads;
  d.programs = a.programs - b.programs;
  d.erases = a.erases - b.erases;
  d.partial_programs = a.partial_programs - b.partial_programs;
  return d;
}

/// Closed-loop windows of the traced run, untraced and traced alternately
/// so drift in device state (wear, write amplification) does not read as
/// tracing overhead.
constexpr std::uint32_t kNetWindows = 8;

NetLayer net_layer(Host& host, const Workload& w, std::uint64_t seed,
                   double seconds, const PageCodec& codec, Checker& checker,
                   SpanLog& spans) {
  NetLayer out;
  std::vector<double> plain_slices;
  std::vector<double> traced_slices;
  std::vector<double> plain_windows;
  for (std::uint32_t window = 0; window < kNetWindows; ++window) {
    const bool traced = window % 2 == 1;
    WindowSpec spec;
    spec.window = window;
    spec.warmup_s = window == 0 ? w.warmup_s : 0.0;
    spec.measure_s = seconds / kNetWindows;
    spec.spans = traced ? &spans : nullptr;
    const auto stats0 = host.server->stats_snapshot();
    const auto ledger0 = host.device->ledger();
    const WindowResult r = run_window(host, w, seed, codec, spec, checker);
    const auto stats1 = host.server->stats_snapshot();
    const auto ledger1 = host.device->ledger();
    for (int k = 0; k < kOpKinds; ++k) {
      out.attempted += r.attempted_all[k];
      out.failed += r.failed_all[k];
    }
    for (const auto n : r.slice_completed) {
      (traced ? traced_slices : plain_slices)
          .push_back(static_cast<double>(n) * kSlices / r.measure_s);
    }
    // Window 0 runs the op stream the dev replay replays, untraced.
    if (window == 0) {
      out.read_p50_us = r.kinds[static_cast<int>(OpKind::kRead)].latency_us.quantile(0.5);
    }
    if (!traced) {
      plain_windows.push_back(r.sliced_ops_per_s());
      continue;
    }
    const std::uint64_t ops = stats1.responses - stats0.responses;
    out.ops += ops;
    out.rx_bytes_per_op += static_cast<double>(stats1.rx_bytes - stats0.rx_bytes);
    out.tx_bytes_per_op += static_cast<double>(stats1.tx_bytes - stats0.tx_bytes);
    out.pipeline_stalls +=
        static_cast<double>(stats1.pipeline_stalls - stats0.pipeline_stalls);
    out.max_response_gap_ms =
        std::max(out.max_response_gap_ms, r.max_response_gap_ms);
    const auto d = ledger_minus(ledger1, ledger0);
    out.ledger_delta.reads += d.reads;
    out.ledger_delta.programs += d.programs;
    out.ledger_delta.erases += d.erases;
    out.ledger_delta.partial_programs += d.partial_programs;
  }
  out.rx_bytes_per_op = ratio(out.rx_bytes_per_op, static_cast<double>(out.ops));
  out.tx_bytes_per_op = ratio(out.tx_bytes_per_op, static_cast<double>(out.ops));
  out.overhead_frac = 1.0 - ratio(median(traced_slices), median(plain_slices));
  const auto [lo, hi] = std::minmax_element(plain_windows.begin(), plain_windows.end());
  out.untraced_spread_frac = ratio(*hi - *lo, median(plain_windows));
  return out;
}

// ---- dev: in-process replay of the same op stream -------------------------

struct DevLayer {
  Samples read_us;
  Samples write_us;
  Samples flush_ms;
  Samples load_hidden_ms;
  Samples store_hidden_ms;
  double flushes = 0;
  double flushed_pages_per_flush = 0;
  double cache_hit_ratio = 0;
  double reads_per_dispatch = 0;
  double bytes_copied_per_op = 0;
  double store_nospace = 0;
  double remaining_capacity = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Submit one write, timing the call; a call that raised the flush count
/// is also a flush sample.
void timed_write(stash::dev::StashDevice& dev, SpanLog& spans,
                 const PageCodec& codec, Checker& checker, std::uint32_t writer,
                 const Op& op, const char* parent, DevLayer& out) {
  auto bits = codec.encode(make_tag(op.lpn, writer, op.seq));
  checker.sent_writes[writer].store(op.seq + 1);
  const std::uint64_t flushes0 = dev.stats_snapshot().flushes;
  Timer t(spans, "dev.write", (std::uint64_t{writer} << 40) | op.seq, parent);
  auto fut = dev.submit_write(op.lpn, std::move(bits));
  const double us = t.stop();
  ++out.attempted;
  if (!fut.get().is_ok()) ++out.failed;
  out.write_us.add(us);
  if (dev.stats_snapshot().flushes > flushes0) out.flush_ms.add(us / 1e3);
}

DevLayer dev_layer(Host& host, const Workload& w, std::uint64_t seed,
                   double seconds, const PageCodec& codec, Checker& checker,
                   SpanLog& spans) {
  DevLayer out;
  auto& dev = *host.device;
  std::vector<OpStream> streams;
  for (std::uint32_t c = 0; c < w.conns.size(); ++c) {
    streams.emplace_back(w, w.conns[c], host.hot, stream_seed(seed, 0, c));
  }
  const DeviceStats s0 = dev.stats_snapshot();
  std::uint64_t ops = 0;
  struct Queued {
    Op op;
    std::uint32_t conn = 0;
    Clock::time_point t0;
    Clock::time_point ready;  // first seen ready; zero until then
    std::future<Result<PageRef>> value;
  };
  // Dispatch runs inline in whichever call fills a batch, so a read's
  // future may be ready before drain(): look after every call.
  const auto stamp_ready = [](std::vector<Queued>& qs) {
    const auto now = Clock::now();
    for (auto& q : qs) {
      if (q.ready == Clock::time_point{} && q.value.valid() &&
          q.value.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        q.ready = now;
      }
    }
  };
  // One round per poll of the server's reactor: every connection's depth
  // of requests.  The round's reads are submitted and dispatched first,
  // then its writes and hidden loads, so a read's time holds only read
  // dispatch and never a flush or a load of its round.
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    std::vector<Queued> reads;
    std::vector<Queued> loads;
    std::vector<std::pair<Op, std::uint32_t>> writes;
    for (std::uint32_t c = 0; c < w.conns.size(); ++c) {
      for (std::uint32_t d = 0; d < w.conns[c].depth; ++d) {
        const Op op = streams[c].next();
        ++ops;
        if (op.kind == OpKind::kWrite) {
          writes.emplace_back(op, c);
        } else {
          (op.kind == OpKind::kRead ? reads : loads).push_back({op, c, {}, {}, {}});
        }
      }
    }
    for (auto& q : reads) {
      q.t0 = Clock::now();
      q.value = dev.submit_read(q.op.lpn);
      stamp_ready(reads);
    }
    const auto t_drain = Clock::now();
    dev.drain();
    stamp_ready(reads);
    spans.add("dev.drain", ops, "replay", t_drain, Clock::now());
    for (const auto& [op, c] : writes) {
      timed_write(dev, spans, codec, checker, kReplayWriter + c, op, "replay", out);
    }
    for (auto& q : loads) {
      q.t0 = Clock::now();
      q.value = dev.submit_load_hidden();
    }
    if (!loads.empty()) {
      dev.drain();
      stamp_ready(loads);
    }
    for (auto* round : {&reads, &loads}) {
      for (auto& q : *round) {
        const std::uint64_t id = (std::uint64_t{kReplayWriter + q.conn} << 40) | q.op.seq;
        if (q.ready == Clock::time_point{}) {
          checker.fail("dev replay: future not ready after drain");
          continue;
        }
        auto r = q.value.get();
        ++out.attempted;
        const bool read = q.op.kind == OpKind::kRead;
        const double us = us_between(q.t0, q.ready);
        spans.add(read ? "dev.read" : "dev.load_hidden", id, "replay", q.t0, q.ready);
        if (read) {
          out.read_us.add(us);
        } else {
          out.load_hidden_ms.add(us / 1e3);
        }
        if (!r.is_ok()) {
          ++out.failed;
          continue;
        }
        const std::span<const std::uint8_t> bytes{r.value().data(), r.value().size()};
        if (read) {
          checker.check_read(codec, q.op.lpn, bytes);
        } else {
          checker.check_hidden(bytes, host.hidden, "dev replay");
        }
      }
    }
  }
  // A stream too light on writes to flush in the replay still gets its
  // flush cost measured: writes after the replay until two flushes ran.
  if (out.flush_ms.size() == 0) {
    stash::util::Xoshiro256 rng(seed ^ 0x9b0beULL);
    const std::size_t n = 4 * std::max<std::size_t>(1, dev.config().write_back_pages);
    for (std::size_t i = 0; i < n && out.flush_ms.size() < 2; ++i) {
      const Op op{OpKind::kWrite, rng.below(w.shape.cover_pages), i};
      timed_write(dev, spans, codec, checker, kProbeWriter, op, "write_probe", out);
    }
  }
  const DeviceStats s1 = dev.stats_snapshot();
  out.flushes = static_cast<double>(s1.flushes - s0.flushes);
  out.flushed_pages_per_flush =
      ratio(static_cast<double>(s1.flushed_pages - s0.flushed_pages), out.flushes);
  out.cache_hit_ratio =
      ratio(static_cast<double>(s1.cache_hits - s0.cache_hits),
            static_cast<double>(s1.cache_hits - s0.cache_hits + s1.cache_misses -
                                s0.cache_misses));
  out.reads_per_dispatch = ratio(static_cast<double>(s1.reads - s0.reads),
                                 static_cast<double>(s1.dispatches - s0.dispatches));
  out.bytes_copied_per_op =
      ratio(static_cast<double>(s1.bytes_copied - s0.bytes_copied),
            static_cast<double>(ops));

  // The hiding user's calls, synchronously: loads of the stored object and
  // replacing stores.  In the seed most replacing stores end in kNoSpace;
  // that count is a metric of this layer, not a benchmark failure.
  for (int i = 0; i < 2; ++i) {
    Timer t(spans, "dev.load_hidden", i, "hidden_probe");
    auto r = dev.load_hidden();
    out.load_hidden_ms.add(t.stop() / 1e3);
    if (!r.is_ok()) {
      checker.fail("dev: load_hidden failed: " + r.status().to_string());
    } else {
      checker.check_hidden({r.value().data(), r.value().size()}, host.hidden, "dev");
    }
  }
  for (std::uint64_t i = 0; i < 2; ++i) {
    auto payload = text_payload(payload_seed(seed, kProbeWriter, i));
    Timer t(spans, "dev.store_hidden", i, "hidden_probe");
    const Status st = dev.store_hidden(payload);
    out.store_hidden_ms.add(t.stop() / 1e3);
    if (st.is_ok()) {
      host.hidden = std::move(payload);
    } else if (st.code() == stash::util::ErrorCode::kNoSpace) {
      ++out.store_nospace;
    } else {
      checker.fail("dev: store_hidden failed: " + st.to_string());
    }
  }
  auto info = dev.hidden_info();
  if (!info.is_ok()) {
    checker.fail("dev: hidden_info failed: " + info.status().to_string());
  } else {
    out.remaining_capacity = static_cast<double>(info.value().remaining_capacity_bytes);
  }
  return out;
}

// ---- stego: a chip holding a segment against one holding none ------------

struct StegoLayer {
  double with_segment_ms = 0;
  double without_segment_ms = 0;
  double failed_embeds = 0;
  double rescues = 0;
};

StegoLayer stego_layer(Host& host, SpanLog& spans) {
  StegoLayer out;
  auto& dev = *host.device;
  std::int64_t with = -1;
  std::int64_t without = -1;
  for (std::uint32_t c = 0; c < dev.chips(); ++c) {
    auto& vol = dev.volume(c);
    (vol.hidden_blocks().empty() ? without : with) = c;
    out.failed_embeds += static_cast<double>(vol.stats().failed_embeds);
    out.rescues += static_cast<double>(vol.stats().rescues);
  }
  // A payload spread over every chip leaves no empty chip; both figures
  // then time a chip that holds a segment.
  if (with < 0) with = 0;
  if (without < 0) without = with;
  const auto time_loads = [&](std::int64_t chip, const char* parent) {
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i) {
      Timer t(spans, "stego.load_hidden", static_cast<std::uint64_t>(i), parent);
      (void)dev.volume(static_cast<std::uint32_t>(chip)).load_hidden();
      ms.push_back(t.stop() / 1e3);
    }
    return median(ms);
  };
  out.with_segment_ms = time_loads(with, "with_segment");
  out.without_segment_ms = time_loads(without, "without_segment");
  return out;
}

// ---- vthi / ecc / pack / nand / ftl: the layer's calls on their own -------

stash::nand::Geometry chip_geometry(const Workload& w, std::uint32_t blocks) {
  stash::nand::Geometry g;
  g.blocks = blocks;
  g.pages_per_block = w.shape.pages_per_block;
  g.cells_per_page = w.shape.cells_per_page;
  return g;
}

struct VthiLayer {
  double hide_ms = 0;
  double reveal_ms = 0;
};

VthiLayer vthi_layer(const Workload& w, std::uint64_t seed, Checker& checker,
                     SpanLog& spans) {
  constexpr std::uint32_t kBlocks = 6;
  stash::nand::FlashChip chip(chip_geometry(w, kBlocks), stash::nand::NoiseModel{},
                              seed ^ 0x7781ULL);
  stash::vthi::VthiCodec codec(chip, bench_key());
  stash::par::ThreadPool pool(1);
  stash::util::Xoshiro256 rng(seed ^ 0x7782ULL);
  std::vector<double> hide;
  std::vector<double> reveal;
  for (std::uint32_t b = 0; b < kBlocks; ++b) {
    (void)chip.program_block_random(b, seed + b);
    std::vector<std::uint8_t> payload(codec.capacity_bytes());
    for (auto& x : payload) x = static_cast<std::uint8_t>(rng());
    Timer th(spans, "vthi.hide", b, "vthi");
    const auto hidden = codec.hide(b, payload);
    hide.push_back(th.stop() / 1e3);
    const std::uint32_t blocks[] = {b};
    Timer tr(spans, "vthi.reveal_batch", b, "vthi");
    auto revealed = codec.reveal_batch(blocks, pool);
    reveal.push_back(tr.stop() / 1e3);
    if (!hidden.is_ok() || !revealed[0].is_ok() ||
        revealed[0].value() != payload) {
      checker.fail("vthi: hide/reveal round trip failed on block " +
                   std::to_string(b));
    }
  }
  return {median(hide), median(reveal)};
}

/// BCH decode throughput at the production code for this page layout
/// (the t VthiCodec derives), with t/2 errors per codeword.
double ecc_layer(const Workload& w, std::uint64_t seed, Checker& checker,
                 SpanLog& spans) {
  // VthiCodec keeps its code private, so the code is derived here by the
  // codec's rule and checked against the codec's public parity share.
  const auto config = stash::vthi::VthiConfig::production();
  const std::size_t n = (std::size_t{1} << config.bch_m) - 1;
  const std::uint32_t stride = config.page_interval + 1;
  const std::size_t total_bits =
      std::size_t{(w.shape.pages_per_block + stride - 1) / stride} *
      config.hidden_bits_per_page;
  const std::size_t codewords = (total_bits + n - 1) / n;
  const std::size_t per_cw = (total_bits + codewords - 1) / codewords;
  const int t = std::max(1, stash::ecc::BchCode::pick_t_for_codeword(
                                config.bch_m, per_cw, config.raw_ber_estimate));
  const stash::ecc::BchCode code(config.bch_m, t);
  const std::size_t data_bits = per_cw - code.parity_bits();
  stash::nand::FlashChip chip(chip_geometry(w, 1), stash::nand::NoiseModel{}, seed);
  const stash::vthi::VthiCodec production(chip, bench_key(), config);
  const double parity_share = static_cast<double>(codewords * code.parity_bits()) /
                              static_cast<double>(total_bits);
  if (production.ecc_overhead() != parity_share) {
    checker.fail("ecc: the timed code (t = " + std::to_string(t) +
                 ") is not the one VthiCodec uses at this layout");
  }
  stash::util::Xoshiro256 rng(seed ^ 0xECCULL);
  std::vector<std::vector<std::uint8_t>> words(64);
  for (auto& cw : words) {
    std::vector<std::uint8_t> data(data_bits);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng() & 1);
    cw = code.encode(data);
    for (int e = 0; e < t / 2; ++e) cw[rng.below(cw.size())] ^= 1;
  }
  const std::vector<std::span<const std::uint8_t>> batch(words.begin(), words.end());
  std::vector<double> pass_s;
  for (int pass = 0; pass < 15; ++pass) {
    Timer timer(spans, "ecc.decode_batch", static_cast<std::uint64_t>(pass), "ecc");
    const auto decoded = code.decode_batch(batch);
    pass_s.push_back(timer.stop() / 1e6);
    for (const auto& d : decoded) {
      if (!d.ok) checker.fail("ecc: a codeword with t/2 errors did not decode");
    }
  }
  return static_cast<double>(words.size() * data_bits) / 8.0 / 1e6 /
         median(pass_s);
}

struct PackLayer {
  double pack_mbps = 0;
  double unpack_mbps = 0;
  double multiplier = 0;
};

PackLayer pack_layer(std::uint64_t seed, Checker& checker, SpanLog& spans) {
  PackLayer out;
  const stash::pack::PackConfig config;
  double logical = 0;
  double packed_bytes = 0;
  double pack_s = 0;
  double unpack_s = 0;
  // Enough payloads that each figure sums several milliseconds of work.
  for (std::uint64_t i = 0; i < 64; ++i) {
    const auto payload = text_payload(payload_seed(seed, 0x9ac, i));
    Timer tp(spans, "pack.pack", i, "pack");
    auto packed = stash::pack::pack(payload, config);
    pack_s += tp.stop() / 1e6;
    if (!packed.is_ok()) {
      checker.fail("pack: pack failed: " + packed.status().to_string());
      continue;
    }
    Timer tu(spans, "pack.unpack", i, "pack");
    auto unpacked = stash::pack::unpack(packed.value());
    unpack_s += tu.stop() / 1e6;
    if (!unpacked.is_ok() || unpacked.value() != payload) {
      checker.fail("pack: round trip did not return the payload");
    }
    logical += static_cast<double>(payload.size());
    packed_bytes += static_cast<double>(packed.value().size());
  }
  out.pack_mbps = ratio(logical / 1e6, pack_s);
  out.unpack_mbps = ratio(logical / 1e6, unpack_s);
  out.multiplier = ratio(logical, packed_bytes);
  return out;
}

struct NandLayer {
  double program_ns_per_cell = 0;
  double read_ns_per_cell = 0;
  double probe_ns_per_cell = 0;
  double erase_us = 0;
};

NandLayer nand_layer(const Workload& w, std::uint64_t seed, Checker& checker,
                     SpanLog& spans) {
  constexpr std::uint32_t kBlocks = 8;
  const auto geom = chip_geometry(w, kBlocks);
  stash::nand::FlashChip chip(geom, stash::nand::NoiseModel{}, seed ^ 0x4a4dULL);
  stash::util::Xoshiro256 rng(seed ^ 0x4a4eULL);
  std::vector<std::uint8_t> pattern(geom.cells_per_page);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(rng() & 1);
  std::vector<int> volts(geom.cells_per_page);
  std::vector<double> program;
  std::vector<double> read;
  std::vector<double> probe;
  std::vector<double> erase;
  const double cells = geom.cells_per_page;
  std::uint64_t bad_bits = 0;
  for (std::uint32_t b = 0; b < kBlocks; ++b) (void)chip.erase_block(b);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t b = 0; b < kBlocks; ++b) {
      for (std::uint32_t p = 0; p < geom.pages_per_block; ++p) {
        const std::uint64_t id = (std::uint64_t{b} << 16) | p;
        Timer tp(spans, "nand.program", id, "nand");
        if (!chip.program_page(b, p, pattern).is_ok()) {
          checker.fail("nand: program_page failed");
        }
        program.push_back(tp.stop() * 1e3 / cells);
        Timer tr(spans, "nand.read", id, "nand");
        const auto bits = chip.read_page(b, p);
        read.push_back(tr.stop() * 1e3 / cells);
        for (std::size_t i = 0; i < bits.size(); ++i) bad_bits += bits[i] != pattern[i];
        Timer tv(spans, "nand.probe", id, "nand");
        (void)chip.probe_voltages_into(b, p, volts);
        probe.push_back(tv.stop() * 1e3 / cells);
      }
      Timer te(spans, "nand.erase", b, "nand");
      if (!chip.erase_block(b).is_ok()) checker.fail("nand: erase_block failed");
      erase.push_back(te.stop());
    }
  }
  // Public pages are read raw; more than 1% flipped cells is a broken chip.
  if (bad_bits * 100 > program.size() * geom.cells_per_page) {
    checker.fail("nand: read-back disagrees with the programmed pattern");
  }
  return {median(program), median(read), median(probe), median(erase)};
}

struct FtlLayer {
  Samples write_us;
  Samples gc_ms;
  double read_batch_us_per_page = 0;
  double write_amplification = 0;
  double relocations_per_write = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// A PageMappedFtl on one chip, filled to the device's cover share and then
/// driven with the workload's write share (10% when it has none, so write
/// and GC cost are still measured) until `seconds` pass.
FtlLayer ftl_layer(const Workload& w, std::uint64_t seed, double seconds,
                   const PageCodec& codec, SpanLog& spans) {
  FtlLayer out;
  constexpr std::uint32_t kBlocks = 64;
  stash::nand::FlashChip chip(chip_geometry(w, kBlocks), stash::nand::NoiseModel{},
                              seed ^ 0xf71ULL);
  stash::ftl::PageMappedFtl ftl(chip);
  stash::par::ThreadPool pool(1);
  const auto dev_logical = static_cast<double>(
      w.shape.blocks) * w.shape.pages_per_block *
      w.shape.chips * (1.0 - stash::ftl::FtlConfig{}.overprovision);
  const auto cover = static_cast<std::uint64_t>(
      static_cast<double>(ftl.logical_pages()) *
      std::min(1.0, static_cast<double>(w.shape.cover_pages) / dev_logical));
  for (std::uint64_t lpn = 0; lpn < cover; ++lpn) {
    (void)ftl.write(lpn, codec.encode(make_tag(lpn, kCoverWriter, 0)));
  }
  std::uint32_t write_pct = 0;
  for (const auto& c : w.conns) write_pct += 100 - c.read_pct;
  write_pct /= static_cast<std::uint32_t>(w.conns.size());
  if (write_pct == 0) write_pct = 10;

  stash::util::Xoshiro256 rng(seed ^ 0xf72ULL);
  const auto s0 = ftl.stats_snapshot();
  double read_us = 0;
  std::uint64_t pages_read = 0;
  std::vector<std::uint64_t> batch;
  std::uint64_t seq = 0;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    ++seq;
    const std::uint64_t lpn = rng.below(cover);
    if (rng.below(100) < write_pct) {
      const auto bits = codec.encode(make_tag(lpn, kProbeWriter, seq));
      const std::uint64_t gc0 = ftl.stats_snapshot().gc_runs;
      Timer t(spans, "ftl.write", seq, "ftl");
      const Status st = ftl.write(lpn, bits);
      const double us = t.stop();
      ++out.attempted;
      if (!st.is_ok()) ++out.failed;
      out.write_us.add(us);
      if (ftl.stats_snapshot().gc_runs > gc0) out.gc_ms.add(us / 1e3);
      continue;
    }
    batch.push_back(lpn);
    if (batch.size() < 16) continue;
    Timer t(spans, "ftl.read_batch", seq, "ftl");
    const auto r = ftl.read_batch(batch, pool);
    read_us += t.stop();
    pages_read += batch.size();
    out.attempted += batch.size();
    for (const auto& page : r) out.failed += page.is_ok() ? 0 : 1;
    batch.clear();
  }
  const auto s1 = ftl.stats_snapshot();
  const double host_writes = static_cast<double>(s1.host_writes - s0.host_writes);
  out.read_batch_us_per_page = ratio(read_us, static_cast<double>(pages_read));
  out.write_amplification =
      ratio(static_cast<double>(s1.nand_writes - s0.nand_writes), host_writes);
  out.relocations_per_write =
      ratio(static_cast<double>(s1.relocations - s0.relocations), host_writes);
  return out;
}

}  // namespace

LayerRun run_layers(Host& host, const Workload& w, std::uint64_t seed,
                    double seconds, const PageCodec& codec, Checker& checker,
                    const std::string& out_dir) {
  SpanLog spans(Clock::now());
  const NetLayer net = net_layer(host, w, seed, seconds, codec, checker, spans);
  stop_server(host, checker);
  const DevLayer dev = dev_layer(host, w, seed, seconds / 4, codec, checker, spans);
  const StegoLayer stego = stego_layer(host, spans);
  const VthiLayer vthi = vthi_layer(w, seed, checker, spans);
  const double ecc_mbps = ecc_layer(w, seed, checker, spans);
  const PackLayer pack = pack_layer(seed, checker, spans);
  const NandLayer nand = nand_layer(w, seed, checker, spans);
  const FtlLayer ftl = ftl_layer(w, seed, seconds / 8, codec, spans);

  const double ops = static_cast<double>(net.ops);
  LayerRun out;
  out.attempted = net.attempted + dev.attempted + ftl.attempted;
  out.failed = net.failed + dev.failed + ftl.failed;
  out.metrics = {
      {"net.rtt_overhead_us", net.read_p50_us - dev.read_us.quantile(0.5), "us"},
      {"net.rx_bytes_per_op", net.rx_bytes_per_op, "B"},
      {"net.tx_bytes_per_op", net.tx_bytes_per_op, "B"},
      {"net.max_response_gap_ms", net.max_response_gap_ms, "ms"},
      {"net.pipeline_stalls", net.pipeline_stalls, "count"},
      {"dev.read_p50_us", dev.read_us.quantile(0.5), "us"},
      {"dev.read_p99_us", dev.read_us.quantile(0.99), "us"},
      {"dev.write_p50_us", dev.write_us.quantile(0.5), "us"},
      {"dev.write_p99_us", dev.write_us.quantile(0.99), "us"},
      {"dev.flush_ms", dev.flush_ms.quantile(0.5), "ms"},
      {"dev.flushes", dev.flushes, "count"},
      {"dev.flushed_pages_per_flush", dev.flushed_pages_per_flush, "count"},
      {"dev.cache_hit_ratio", dev.cache_hit_ratio, "1"},
      {"dev.reads_per_dispatch", dev.reads_per_dispatch, "count"},
      {"dev.bytes_copied_per_op", dev.bytes_copied_per_op, "B"},
      {"dev.load_hidden_ms", dev.load_hidden_ms.quantile(0.5), "ms"},
      {"dev.store_hidden_ms", dev.store_hidden_ms.quantile(0.5), "ms"},
      {"dev.store_hidden_nospace", dev.store_nospace, "count"},
      {"dev.hidden_remaining_capacity_bytes", dev.remaining_capacity, "B"},
      {"ftl.write_us", ftl.write_us.quantile(0.5), "us"},
      {"ftl.read_batch_us_per_page", ftl.read_batch_us_per_page, "us"},
      {"ftl.gc_ms", ftl.gc_ms.quantile(0.5), "ms"},
      {"ftl.write_amplification", ftl.write_amplification, "1"},
      {"ftl.relocations_per_write", ftl.relocations_per_write, "1"},
      {"stego.load_hidden_ms.with_segment", stego.with_segment_ms, "ms"},
      {"stego.load_hidden_ms.without_segment", stego.without_segment_ms, "ms"},
      {"stego.failed_embeds", stego.failed_embeds, "count"},
      {"stego.rescues", stego.rescues, "count"},
      {"vthi.hide_ms", vthi.hide_ms, "ms"},
      {"vthi.reveal_ms", vthi.reveal_ms, "ms"},
      {"ecc.decode_mbps", ecc_mbps, "MB/s"},
      {"pack.pack_mbps", pack.pack_mbps, "MB/s"},
      {"pack.unpack_mbps", pack.unpack_mbps, "MB/s"},
      {"pack.multiplier", pack.multiplier, "1"},
      {"nand.program_ns_per_cell", nand.program_ns_per_cell, "ns/cell"},
      {"nand.read_ns_per_cell", nand.read_ns_per_cell, "ns/cell"},
      {"nand.probe_ns_per_cell", nand.probe_ns_per_cell, "ns/cell"},
      {"nand.erase_us", nand.erase_us, "us"},
      {"nand.reads_per_op", ratio(static_cast<double>(net.ledger_delta.reads), ops),
       "count"},
      {"nand.programs_per_op",
       ratio(static_cast<double>(net.ledger_delta.programs), ops), "count"},
      {"nand.erases_per_op", ratio(static_cast<double>(net.ledger_delta.erases), ops),
       "count"},
      {"nand.partial_programs_per_op",
       ratio(static_cast<double>(net.ledger_delta.partial_programs), ops), "count"},
      {"trace.overhead_frac", net.overhead_frac, "1"},
  };

  // Tracing overhead smaller than the spread of untraced windows is noise.
  char trace_detail[160];
  std::snprintf(trace_detail, sizeof trace_detail,
                ",\"trace\":{\"overhead_frac\":%.6g,\"untraced_spread_frac\":%.6g,"
                "\"resolved\":%s}",
                net.overhead_frac, net.untraced_spread_frac,
                std::abs(net.overhead_frac) > net.untraced_spread_frac ? "true" : "false");

  // Sample counts behind the quantiles, and the spans by name.
  std::string detail = "{\"samples\":{";
  detail += "\"dev.read\":" + std::to_string(dev.read_us.size());
  detail += ",\"dev.write\":" + std::to_string(dev.write_us.size());
  detail += ",\"dev.flush\":" + std::to_string(dev.flush_ms.size());
  detail += ",\"dev.load_hidden\":" + std::to_string(dev.load_hidden_ms.size());
  detail += ",\"dev.store_hidden\":" + std::to_string(dev.store_hidden_ms.size());
  detail += ",\"ftl.write\":" + std::to_string(ftl.write_us.size());
  detail += ",\"ftl.gc\":" + std::to_string(ftl.gc_ms.size());
  detail += ",\"net.traced_ops\":" + std::to_string(net.ops);
  detail += "},\"spans\":{";
  bool first = true;
  for (const auto& [name, count] : spans.names()) {
    detail += (first ? "\"" : ",\"") + name + "\":" + std::to_string(count);
    first = false;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string path = out_dir + "/spans-" + w.name + "-" +
                           std::to_string(seed) + ".jsonl";
  const bool written = spans.write_jsonl(path);
  if (!written) checker.fail("could not write spans to " + path);
  detail += "},\"spans_file\":\"" + json_escape(path) + "\"" + trace_detail + "}";
  std::printf("%s\n", detail.c_str());
  return out;
}

}  // namespace perfbench

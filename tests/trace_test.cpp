// stash::trace tests: span context propagation across thread-pool handoff,
// the disabled-path zero-allocation guarantee, deterministic (virtual-clock)
// export byte-identity at 1 vs 8 threads through the full StashDevice stack,
// exporter schema round-trips, the LatencyBreakdown attribution-consistency
// invariant, and the 1-in-N sampling knob.
//
// This binary also runs under TSan in CI: the parallel tests hammer the
// per-thread lock-free span buffers (emit from 8 threads, collect from the
// main thread) to certify the release/acquire publication protocol.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "stash/dev/device.hpp"
#include "stash/par/pool.hpp"
#include "stash/trace/breakdown.hpp"
#include "stash/trace/export.hpp"
#include "stash/trace/trace.hpp"
#include "stash/util/rng.hpp"

// ---- Global allocation counter (kill-switch zero-allocation check) --------

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stash::trace {
namespace {

/// Quiesce the global tracer between tests.
void reset_tracer() {
  Tracer::global().disable();
  Tracer::global().clear();
}

// ---- Context propagation across thread handoff ----------------------------

TEST(TraceContext, ParallelForCarriesContextAcrossWorkers) {
  reset_tracer();
  Tracer::global().enable(ClockMode::kVirtual);
  const TraceContext root =
      make_root(42, Stage::kDevRequest, Op::kRead, 0);
  {
    par::ThreadPool pool(8);
    const ContextGuard guard(root);
    pool.parallel_for(64, [&](std::size_t i) {
      ScopedSpan span(Stage::kNandRead, Op::kRead, i);
      span.set_cost_ns(100);
    });
  }
  Tracer::global().disable();

  const auto spans = Tracer::global().collect();
  ASSERT_EQ(spans.size(), 64u);
  std::set<std::uint64_t> ids;
  std::set<std::uint64_t> keys;
  for (const SpanRecord& rec : spans) {
    EXPECT_EQ(rec.trace_id, 42u);
    EXPECT_EQ(rec.parent_id, root.span_id);  // causal parent survives handoff
    EXPECT_EQ(rec.dur_ns, 100u);
    ids.insert(rec.span_id);
    keys.insert(rec.key);
  }
  EXPECT_EQ(ids.size(), 64u);   // content-derived ids stay distinct
  EXPECT_EQ(keys.size(), 64u);  // one span per iteration
}

TEST(TraceContext, SubmitCarriesContextToWorker) {
  reset_tracer();
  Tracer::global().enable(ClockMode::kVirtual);
  const TraceContext root = make_root(7, Stage::kDevRequest, Op::kWrite, 9);
  {
    par::ThreadPool pool(2);
    const ContextGuard guard(root);
    auto done = pool.async([] {
      ScopedSpan span(Stage::kNandProgram, Op::kWrite, 5);
      span.set_cost_ns(10);
    });
    done.get();
  }
  Tracer::global().disable();
  const auto spans = Tracer::global().collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 7u);
  EXPECT_EQ(spans[0].parent_id, root.span_id);
}

TEST(TraceContext, NestedSpansFormParentChain) {
  reset_tracer();
  Tracer::global().enable(ClockMode::kVirtual);
  const TraceContext root = make_root(3, Stage::kDevRequest, Op::kRead, 1);
  {
    const ContextGuard guard(root);
    ScopedSpan outer(Stage::kFtlReadBatch, Op::kRead, 1);
    ScopedSpan inner(Stage::kNandRead, Op::kRead, 1);
    inner.set_cost_ns(90);
  }
  Tracer::global().disable();
  auto spans = Tracer::global().collect();
  ASSERT_EQ(spans.size(), 2u);
  // Destruction order: inner emits first.
  EXPECT_EQ(spans[0].stage, Stage::kNandRead);
  EXPECT_EQ(spans[1].stage, Stage::kFtlReadBatch);
  EXPECT_EQ(spans[1].parent_id, root.span_id);
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
}

// ---- Kill switch: no work, no allocation when disabled --------------------

TEST(TraceKillSwitch, DisabledSpansAllocateNothingAndEmitNothing) {
  reset_tracer();
  ASSERT_FALSE(enabled());
  const std::size_t spans_before = Tracer::global().span_count();

  const std::size_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    ScopedSpan span(Stage::kNandRead, Op::kRead, i, 128);
    span.set_cost_ns(90);
    span.set_status(1);
  }
  const std::size_t allocs_after =
      g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after - allocs_before, 0u);
  EXPECT_EQ(Tracer::global().span_count(), spans_before);
}

TEST(TraceKillSwitch, SpansWithoutContextAreInert) {
  reset_tracer();
  Tracer::global().enable(ClockMode::kVirtual);
  {
    // Enabled, but no root context installed on this thread: spans only
    // exist beneath a sampled root.
    ScopedSpan span(Stage::kNandRead, Op::kRead, 1);
    EXPECT_FALSE(span.active());
  }
  Tracer::global().disable();
  EXPECT_EQ(Tracer::global().span_count(), 0u);
}

// ---- Deterministic export through the device stack ------------------------

std::array<std::uint8_t, 32> raw_key() {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(0x3d);
  return raw;
}

std::vector<std::uint8_t> page_pattern(std::uint32_t bits, std::uint64_t tag) {
  util::Xoshiro256 rng(tag);
  std::vector<std::uint8_t> page(bits);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng() & 1);
  return page;
}

/// One full device workload with the tracer on the virtual clock; returns
/// both exports.
struct Exports {
  std::string jsonl;
  std::string perfetto;
  std::size_t spans = 0;
};

Exports traced_device_run(std::uint32_t threads) {
  auto& tracer = Tracer::global();
  tracer.clear();
  tracer.enable(ClockMode::kVirtual);
  {
    dev::DeviceConfig config;
    config.seed = 2024;
    config.threads = threads;
    config.read_cache_pages = 16;
    dev::StashDevice device(config, crypto::HidingKey(raw_key()));
    const std::uint64_t pages = device.logical_pages();
    for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
      (void)device.write(lpn, page_pattern(device.page_bits(), 77 + lpn));
    }
    (void)device.flush();
    util::Xoshiro256 rng(99);
    std::vector<std::uint64_t> lpns;
    for (int i = 0; i < 48; ++i) lpns.push_back(rng() % pages);
    (void)device.read_batch(lpns);
    (void)device.trim(0);
  }
  tracer.disable();
  const auto spans = tracer.collect();
  Exports out;
  out.spans = spans.size();
  out.jsonl = to_jsonl(spans, ClockMode::kVirtual);
  out.perfetto = to_perfetto_json(spans, ClockMode::kVirtual);
  tracer.clear();
  return out;
}

TEST(TraceDeterminism, ExportsByteIdenticalAcrossThreadCounts) {
  const Exports one = traced_device_run(1);
  const Exports eight = traced_device_run(8);
  EXPECT_GT(one.spans, 0u);
  EXPECT_EQ(one.spans, eight.spans);
  EXPECT_EQ(one.jsonl, eight.jsonl);        // byte-identical, 1 vs 8 threads
  EXPECT_EQ(one.perfetto, eight.perfetto);
}

// ---- Exporter schema round-trips ------------------------------------------

/// A hand-built request trace: root with queue-wait + service children and
/// one NAND grandchild, plus explicit virtual costs.
std::vector<SpanRecord> sample_trace() {
  std::vector<SpanRecord> spans;
  const std::uint64_t trace_id = (1ull << 56) | 5;
  const TraceContext root =
      make_root(trace_id, Stage::kDevRequest, Op::kRead, 11);

  SpanRecord wait;
  wait.trace_id = trace_id;
  wait.parent_id = root.span_id;
  wait.stage = Stage::kDevQueueWait;
  wait.op = Op::kRead;
  wait.key = 11;
  wait.span_id = detail::derive_span_id(trace_id, root.span_id,
                                        wait.stage, wait.op, 11, 0);
  wait.dur_ns = 1500;

  SpanRecord service = wait;
  service.stage = Stage::kFtlService;
  service.span_id = detail::derive_span_id(trace_id, root.span_id,
                                           service.stage, service.op, 11, 0);
  service.dur_ns = 90500;

  SpanRecord nand;
  nand.trace_id = trace_id;
  nand.parent_id = service.span_id;
  nand.stage = Stage::kNandRead;
  nand.op = Op::kRead;
  nand.key = (7ull << 32) | 3;
  nand.bytes = 1024;
  nand.status = 5;
  nand.span_id = detail::derive_span_id(trace_id, service.span_id,
                                        nand.stage, nand.op, nand.key, 0);
  nand.dur_ns = 90000;

  SpanRecord top;
  top.trace_id = trace_id;
  top.span_id = root.span_id;
  top.parent_id = 0;
  top.stage = Stage::kDevRequest;
  top.op = Op::kRead;
  top.key = 11;
  top.dur_ns = 92000;

  spans.push_back(nand);
  spans.push_back(top);
  spans.push_back(wait);
  spans.push_back(service);
  return spans;
}

void expect_same_canonical(const std::vector<SpanRecord>& parsed,
                           const std::vector<LaidSpan>& laid) {
  ASSERT_EQ(parsed.size(), laid.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].trace_id, laid[i].rec.trace_id) << i;
    EXPECT_EQ(parsed[i].span_id, laid[i].rec.span_id) << i;
    EXPECT_EQ(parsed[i].parent_id, laid[i].rec.parent_id) << i;
    EXPECT_EQ(parsed[i].stage, laid[i].rec.stage) << i;
    EXPECT_EQ(parsed[i].op, laid[i].rec.op) << i;
    EXPECT_EQ(parsed[i].key, laid[i].rec.key) << i;
    EXPECT_EQ(parsed[i].bytes, laid[i].rec.bytes) << i;
    EXPECT_EQ(parsed[i].status, laid[i].rec.status) << i;
    EXPECT_EQ(parsed[i].begin_ns, laid[i].begin_ns) << i;
    EXPECT_EQ(parsed[i].dur_ns, laid[i].dur_ns) << i;
  }
}

TEST(TraceExport, JsonlRoundTripsCanonicalSpans) {
  const auto spans = sample_trace();
  const auto laid = canonicalize(spans, ClockMode::kVirtual);
  const auto parsed = parse_jsonl(to_jsonl(spans, ClockMode::kVirtual));
  expect_same_canonical(parsed, laid);
}

TEST(TraceExport, PerfettoJsonRoundTripsCanonicalSpans) {
  const auto spans = sample_trace();
  const auto laid = canonicalize(spans, ClockMode::kVirtual);
  const std::string json = to_perfetto_json(spans, ClockMode::kVirtual);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  expect_same_canonical(parse_perfetto_json(json), laid);
}

TEST(TraceExport, CanonicalLayoutIsSumOfChildrenAndOrdered) {
  const auto laid = canonicalize(sample_trace(), ClockMode::kVirtual);
  ASSERT_EQ(laid.size(), 4u);
  // Pre-order: root first, then queue-wait (Stage order), then service,
  // then the NAND leaf under service.
  EXPECT_EQ(laid[0].rec.stage, Stage::kDevRequest);
  EXPECT_EQ(laid[1].rec.stage, Stage::kDevQueueWait);
  EXPECT_EQ(laid[2].rec.stage, Stage::kFtlService);
  EXPECT_EQ(laid[3].rec.stage, Stage::kNandRead);
  EXPECT_EQ(laid[0].dur_ns, 92000u);
  EXPECT_EQ(laid[0].begin_ns, 0u);
  EXPECT_EQ(laid[1].begin_ns, 0u);            // children laid from parent start
  EXPECT_EQ(laid[2].begin_ns, 1500u);         // after queue-wait
  EXPECT_EQ(laid[3].begin_ns, laid[2].begin_ns);
  EXPECT_EQ(laid[3].depth, 2u);
}

// ---- LatencyBreakdown ------------------------------------------------------

TEST(TraceBreakdown, RequestAttributionIsConsistent) {
  LatencyBreakdown breakdown(nullptr);
  breakdown.fold(sample_trace(), ClockMode::kVirtual);

  ASSERT_EQ(breakdown.requests().size(), 1u);
  const auto& req = breakdown.requests()[0];
  EXPECT_EQ(req.total_ns, 92000u);
  EXPECT_EQ(req.child_sum_ns, 92000u);  // queue-wait + service == total
  EXPECT_EQ(req.gap_ns, 0u);
  EXPECT_EQ(breakdown.max_request_gap_ns(), 0u);
  EXPECT_EQ(req.dominant, Stage::kFtlService);
  EXPECT_EQ(req.dominant_ns, 90500u);
  EXPECT_EQ(breakdown.request_total_quantile(0.99), 92000u);

  const auto stats = breakdown.stage_stats();
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats.front().stage, Stage::kDevRequest);
  const std::string table = breakdown.attribution_table();
  EXPECT_NE(table.find("ftl.service"), std::string::npos);
  EXPECT_NE(table.find("nand.read"), std::string::npos);
}

TEST(TraceBreakdown, GapSurfacesWhenChildrenDoNotCoverRoot) {
  auto spans = sample_trace();
  for (auto& rec : spans) {
    if (rec.stage == Stage::kDevQueueWait) rec.dur_ns = 1000;  // 500 short
  }
  LatencyBreakdown breakdown(nullptr);
  breakdown.fold(spans, ClockMode::kVirtual);
  EXPECT_EQ(breakdown.max_request_gap_ns(), 500u);
}

// ---- Sampling --------------------------------------------------------------

TEST(TraceSampling, OneInNIsDeterministic) {
  reset_tracer();
  auto& tracer = Tracer::global();
  tracer.enable(ClockMode::kVirtual, 4);
  EXPECT_EQ(tracer.sample_every(), 4u);
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_EQ(tracer.should_sample(seq), seq % 4 == 0) << seq;
  }
  tracer.disable();
  tracer.enable(ClockMode::kVirtual, 1);
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    EXPECT_TRUE(tracer.should_sample(seq));
  }
  tracer.disable();
  tracer.clear();
}

TEST(TraceSampling, DeviceSamplesOneRequestInN) {
  auto& tracer = Tracer::global();
  tracer.clear();
  tracer.enable(ClockMode::kVirtual, 8);
  {
    dev::DeviceConfig config;
    config.seed = 11;
    dev::StashDevice device(config, crypto::HidingKey(raw_key()));
    const std::uint64_t pages = device.logical_pages();
    std::vector<std::uint64_t> lpns;
    for (std::uint64_t i = 0; i < 64; ++i) lpns.push_back(i % pages);
    (void)device.read_batch(lpns);
  }
  tracer.disable();
  std::size_t roots = 0;
  for (const SpanRecord& rec : tracer.collect()) {
    if (rec.stage == Stage::kDevRequest) ++roots;
  }
  EXPECT_EQ(roots, 8u);  // 64 reads, 1-in-8 sampling
  tracer.clear();
}

// ---- Span-id derivation ----------------------------------------------------

TEST(TraceSpanId, DerivationIsStableAndContentSensitive) {
  constexpr std::uint64_t a =
      detail::derive_span_id(1, 0, Stage::kDevRequest, Op::kRead, 7, 0);
  constexpr std::uint64_t b =
      detail::derive_span_id(1, 0, Stage::kDevRequest, Op::kRead, 7, 0);
  static_assert(a == b, "span ids are a pure function of content");
  EXPECT_NE(a, 0u);
  // Any field change moves the id.
  EXPECT_NE(a, detail::derive_span_id(2, 0, Stage::kDevRequest, Op::kRead, 7, 0));
  EXPECT_NE(a, detail::derive_span_id(1, 9, Stage::kDevRequest, Op::kRead, 7, 0));
  EXPECT_NE(a, detail::derive_span_id(1, 0, Stage::kFtlService, Op::kRead, 7, 0));
  EXPECT_NE(a, detail::derive_span_id(1, 0, Stage::kDevRequest, Op::kWrite, 7, 0));
  EXPECT_NE(a, detail::derive_span_id(1, 0, Stage::kDevRequest, Op::kRead, 8, 0));
  EXPECT_NE(a, detail::derive_span_id(1, 0, Stage::kDevRequest, Op::kRead, 7, 1));
}

}  // namespace
}  // namespace stash::trace

// Tests for stash::telemetry: the metrics registry (counters, gauges,
// log-bucketed histograms, snapshots/JSON export) and the ONFI command
// tracer (ring wraparound, the PROGRAM -> RESET partial-programming
// sequence of §5, JSONL round-trip).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "stash/nand/onfi.hpp"
#include "stash/telemetry/metrics.hpp"
#include "stash/telemetry/trace.hpp"

namespace stash::telemetry {
namespace {

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(LatencyHistogram, LogBucketing) {
  LatencyHistogram h;
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1: [1, 2)
  h.record(2);    // bucket 2: [2, 4)
  h.record(3);    // bucket 2
  h.record(4);    // bucket 3: [4, 8)
  h.record(1024);  // bucket 11
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1034u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(11), 1u);
  // p50 lands in bucket 2 -> geometric midpoint of [2, 4).
  EXPECT_GE(h.quantile(0.5), 2u);
  EXPECT_LT(h.quantile(0.5), 4u);
  // p99 is the largest sample's bucket [1024, 2048); the last rank in a
  // bucket interpolates to the bucket's (inclusive) upper edge.
  EXPECT_GE(h.quantile(0.99), 1024u);
  EXPECT_LE(h.quantile(0.99), 2048u);
}

TEST(LatencyHistogram, HugeSamplesClampToLastBucket) {
  LatencyHistogram h;
  h.record(~0ull);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_count(LatencyHistogram::kBuckets - 1), 1u);
}

TEST(LatencyHistogram, QuantileInterpolatesWithinBucket) {
  LatencyHistogram h;
  // Four samples, all in bucket 11 ([1024, 2048)).  The quantile should
  // read as a gradient across the bucket by rank, not one fixed point.
  for (int i = 0; i < 4; ++i) h.record(1500);
  EXPECT_EQ(h.quantile(0.25), 1280u);  // rank 1 of 4: lo + lo * 1/4
  EXPECT_EQ(h.quantile(0.50), 1536u);
  EXPECT_EQ(h.quantile(0.75), 1792u);
  EXPECT_EQ(h.quantile(1.00), 2048u);  // rank 4 of 4: bucket upper edge
  // q == 0 clamps to the first sample's rank, never a zero target.
  EXPECT_EQ(h.quantile(0.0), 1280u);
}

TEST(LatencyHistogram, P999ResolvesBeyondP99) {
  LatencyHistogram h;
  for (int i = 0; i < 98; ++i) h.record(4);  // bucket 3: [4, 8)
  h.record(1000);    // bucket 10: [512, 1024)
  h.record(100000);  // bucket 17: [65536, 131072)
  const std::uint64_t p99 = h.quantile(0.99);    // rank 99 -> bucket 10
  const std::uint64_t p999 = h.quantile(0.999);  // rank 100 -> bucket 17
  EXPECT_EQ(p99, 1024u);
  EXPECT_EQ(p999, 131072u);
  EXPECT_GT(p999, p99);
}

TEST(LatencyHistogram, SnapshotCarriesP999) {
  MetricsRegistry reg;
  LatencyHistogram& h = reg.histogram("lat");
  for (int i = 0; i < 98; ++i) h.record(4);
  h.record(1000);
  h.record(100000);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].p999, h.quantile(0.999));
  EXPECT_GT(snap.histograms[0].p999, snap.histograms[0].p99);
  EXPECT_NE(snap.to_json().find("\"p999\":"), std::string::npos);
}

TEST(ScopedTimer, RecordsElapsedTime) {
  LatencyHistogram h;
  {
    ScopedTimer t(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 1'000'000u);  // at least 1 ms in ns
}

TEST(MetricsRegistry, HandsOutStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  // A burst of other registrations must not invalidate `a`.
  for (int i = 0; i < 100; ++i) {
    reg.counter("c" + std::to_string(i));
  }
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistry, SnapshotAndJson) {
  MetricsRegistry reg;
  reg.counter("ops").inc(7);
  reg.gauge("level").set(0.5);
  reg.histogram("lat").record(100);

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("ops"), 7u);
  EXPECT_EQ(snap.counter("missing"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 100u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"ops\":7"), std::string::npos);
  EXPECT_NE(json.find("\"level\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
}

TEST(MetricsRegistry, ResetZeroesButKeepsReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("n");
  c.inc(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(reg.snapshot().counter("n"), 1u);
}

// ---- ONFI command tracer ---------------------------------------------------

nand::Geometry trace_geometry() {
  nand::Geometry geom = nand::Geometry::tiny();
  geom.cells_per_page = 2048;  // divisible by 8: 256 bus bytes per page
  return geom;
}

TEST(TraceSink, RingWraparoundKeepsNewest) {
  TraceSink sink(4);
  for (std::uint8_t i = 0; i < 6; ++i) {
    sink.record(i, i, i, 1.0, 0);
  }
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_recorded(), 6u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: sequences 2..5 survive, 0 and 1 were dropped.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, i + 2);
    EXPECT_EQ(events[i].opcode, static_cast<std::uint8_t>(i + 2));
  }
}

TEST(TraceSink, AmendLastFoldsCompletionIntoNewestEvent) {
  TraceSink sink(8);
  sink.record(0x10, 1, 2, 0.0, 0x00);
  sink.amend_last(200.0, 0x40);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].busy_us, 200.0);
  EXPECT_EQ(events[0].status, 0x40);
}

TEST(TraceSink, PartialProgramEmitsProgramThenReset) {
  // §5: hiding with partial programming uses only PROGRAM (80h..10h)
  // aborted by RESET (FFh).  The trace must show exactly that order, with
  // the armed row address on the confirm and the RESET.
  nand::FlashChip chip(trace_geometry(), nand::NoiseModel::vendor_a(), 7);
  nand::OnfiDevice dev(chip);
  TraceSink sink;
  dev.set_trace_sink(&sink);

  const std::vector<std::uint8_t> bytes(dev.page_bytes(), 0x00);
  ASSERT_TRUE(dev.partial_program_page(2, 3, bytes, 0.5).is_ok());
  dev.set_trace_sink(nullptr);

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].opcode, nand::onfi::kProgram);         // 80h
  EXPECT_EQ(events[0].block, TraceEvent::kNoAddr);
  EXPECT_EQ(events[1].opcode, nand::onfi::kProgramConfirm);  // 10h
  EXPECT_EQ(events[1].block, 2u);
  EXPECT_EQ(events[1].page, 3u);
  EXPECT_EQ(events[2].opcode, nand::onfi::kReset);           // FFh
  EXPECT_EQ(events[2].block, 2u);
  EXPECT_EQ(events[2].page, 3u);
  // The abort happened mid-tPROG: the partial program costs chip time.
  EXPECT_GT(events[2].busy_us, 0.0);
}

TEST(TraceSink, FullProgramTraceCarriesBusyTimeAndStatus) {
  nand::FlashChip chip(trace_geometry(), nand::NoiseModel::vendor_a(), 8);
  nand::OnfiDevice dev(chip);
  TraceSink sink;
  dev.set_trace_sink(&sink);

  const std::vector<std::uint8_t> bytes(dev.page_bytes(), 0xA5);
  ASSERT_TRUE(dev.program_page(0, 0, bytes).is_ok());
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  // wait_ready() amends the confirm event with tPROG and the final status.
  EXPECT_EQ(events[1].opcode, nand::onfi::kProgramConfirm);
  EXPECT_GT(events[1].busy_us, 0.0);
  EXPECT_TRUE(events[1].status & nand::onfi::kStatusReady);
  EXPECT_FALSE(events[1].status & nand::onfi::kStatusFail);
}

TEST(TraceSink, EraseReadAndReferenceShiftAreTraced) {
  // Full command coverage: READ (00h..30h), SET FEATURES (EFh, amended
  // with the new reference in aux), and ERASE (60h..D0h) all land in the
  // trace with row addresses and busy time.
  nand::FlashChip chip(trace_geometry(), nand::NoiseModel::vendor_a(), 9);
  nand::OnfiDevice dev(chip);
  TraceSink sink;
  dev.set_trace_sink(&sink);

  const std::vector<std::uint8_t> bytes(dev.page_bytes(), 0x00);
  ASSERT_TRUE(dev.program_page(1, 0, bytes).is_ok());
  (void)dev.read_page(1, 0);
  dev.set_read_reference(34.0);
  (void)dev.read_page(1, 0);
  ASSERT_TRUE(dev.erase_block(1).is_ok());
  dev.set_trace_sink(nullptr);

  const auto events = sink.events();
  ASSERT_EQ(events.size(), 9u);
  EXPECT_EQ(events[2].opcode, nand::onfi::kRead);
  EXPECT_EQ(events[3].opcode, nand::onfi::kReadConfirm);
  EXPECT_EQ(events[3].block, 1u);
  EXPECT_EQ(events[3].page, 0u);
  EXPECT_GT(events[3].busy_us, 0.0);
  EXPECT_EQ(events[4].opcode, nand::onfi::kSetFeatures);
  EXPECT_DOUBLE_EQ(events[4].aux, 34.0);  // amended when the parameter arrived
  EXPECT_EQ(events[5].opcode, nand::onfi::kRead);
  EXPECT_EQ(events[7].opcode, nand::onfi::kErase);
  EXPECT_EQ(events[8].opcode, nand::onfi::kEraseConfirm);
  EXPECT_EQ(events[8].block, 1u);
  EXPECT_GT(events[8].busy_us, 0.0);
  EXPECT_FALSE(events[8].status & nand::onfi::kStatusFail);
}

TEST(TraceSink, ResetEventCarriesAbortFraction) {
  nand::FlashChip chip(trace_geometry(), nand::NoiseModel::vendor_a(), 10);
  nand::OnfiDevice dev(chip);
  TraceSink sink;
  dev.set_trace_sink(&sink);
  const std::vector<std::uint8_t> bytes(dev.page_bytes(), 0x00);
  ASSERT_TRUE(dev.partial_program_page(2, 3, bytes, 0.35).is_ok());
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].opcode, nand::onfi::kReset);
  EXPECT_DOUBLE_EQ(events[2].aux, 0.35);  // how far tPROG got before abort
}

TEST(TraceSink, AuxFieldRoundTripsThroughJsonl) {
  TraceSink sink(4);
  sink.record(0xEF, TraceEvent::kNoAddr, TraceEvent::kNoAddr, 0.0, 0xC0, 34.0);
  sink.record(0xFF, 2, 3, 12.5, 0x40, 0.5);
  const auto parsed = TraceSink::parse_jsonl(sink.to_jsonl());
  const auto original = sink.events();
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed[0].aux, 34.0);
  EXPECT_DOUBLE_EQ(parsed[1].aux, 0.5);
  EXPECT_EQ(parsed[0], original[0]);
  EXPECT_EQ(parsed[1], original[1]);
  // Traces written before the aux field existed still parse (aux -> 0).
  const auto legacy = TraceSink::parse_jsonl(
      "{\"seq\":1,\"op\":16,\"block\":0,\"page\":0,\"busy_us\":1.0,"
      "\"status\":64}\n");
  ASSERT_EQ(legacy.size(), 1u);
  EXPECT_DOUBLE_EQ(legacy[0].aux, 0.0);
}

TEST(TraceSink, JsonlRoundTrip) {
  TraceSink sink(8);
  sink.record(0x80, TraceEvent::kNoAddr, TraceEvent::kNoAddr, 0.0, 0xC0);
  sink.record(0x10, 5, 17, 200.0, 0xC0);
  sink.record(0xFF, 5, 17, 100.125, 0x40);

  const std::string text = sink.to_jsonl();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);

  const auto parsed = TraceSink::parse_jsonl(text);
  const auto original = sink.events();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], original[i]) << "event " << i;
  }
}

TEST(TraceSink, ParseSkipsGarbageLines) {
  const auto parsed = TraceSink::parse_jsonl(
      "not json\n"
      "{\"seq\":3,\"op\":16,\"block\":1,\"page\":2,\"busy_us\":4.5,"
      "\"status\":64}\n"
      "{\"seq\":broken\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].seq, 3u);
  EXPECT_EQ(parsed[0].opcode, 0x10);
  EXPECT_EQ(parsed[0].block, 1u);
  EXPECT_EQ(parsed[0].page, 2u);
  EXPECT_DOUBLE_EQ(parsed[0].busy_us, 4.5);
  EXPECT_EQ(parsed[0].status, 0x40);
}

TEST(TraceSink, DumpJsonlStreamsOldestFirst) {
  TraceSink sink(2);
  sink.record(0x60, 1, 0, 0.0, 0xC0);
  sink.record(0xD0, 1, 0, 500.0, 0xC0);
  sink.record(0x70, TraceEvent::kNoAddr, TraceEvent::kNoAddr, 0.0, 0xC0);
  std::ostringstream os;
  sink.dump_jsonl(os);
  const auto parsed = TraceSink::parse_jsonl(os.str());
  ASSERT_EQ(parsed.size(), 2u);  // capacity 2: the erase-confirm + status
  EXPECT_EQ(parsed[0].opcode, 0xD0);
  EXPECT_EQ(parsed[1].opcode, 0x70);
}

}  // namespace
}  // namespace stash::telemetry

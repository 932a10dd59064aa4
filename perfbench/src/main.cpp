// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--commit ID] [--out-dir DIR] [--stream-digest N]
//
// Self-hosts a StashDevice behind a stash::net::Server in this process and
// drives one seeded closed-loop workload against it (see workload.cpp and
// README.md).  --trace 0 measures the end-to-end metrics with no tracing;
// --trace 1 measures the per-layer metrics, recording spans around the
// calls into each layer and writing them to OUT_DIR at exit.  The last
// stdout line is the result object; the lines before it carry provenance
// and details.  --tiny shrinks the device for the smoke test, and
// --stream-digest N prints a digest of the first N ops of every
// connection's stream and exits.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "netrun.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_out";
  std::uint64_t stream_digest = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--commit ID] "
               "[--out-dir DIR] [--stream-digest N]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--commit") {
      a.commit = value();
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--stream-digest") {
      a.stream_digest = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_provenance(const Args& a, const Workload& w) {
  std::string conns;
  for (const auto& c : w.conns) {
    if (!conns.empty()) conns += ",";
    conns += "{\"depth\":" + std::to_string(c.depth) +
             ",\"hidden\":" + std::string(c.hidden ? "true" : "false") +
             ",\"read_pct\":" + std::to_string(c.read_pct) +
             ",\"write_pct\":" + std::to_string(100 - c.read_pct) +
             ",\"hot_read_pct\":" + std::to_string(c.hot_pct) + "}";
  }
  const auto& s = w.shape;
  std::printf(
      "{\"provenance\":{\"cpu\":\"%s\",\"nproc\":%u,\"compiler\":\"%s\","
      "\"flags\":\"%s\",\"build_type\":\"%s\",\"commit\":\"%s\","
      "\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"seconds\":%g,\"trace\":%d,"
      "\"tiny\":%s,\"device\":{\"chips\":%u,\"blocks\":%u,"
      "\"pages_per_block\":%u,\"cells_per_page\":%u,\"cover_pages\":%" PRIu64
      ",\"hot_lpns\":%" PRIu64 ",\"threads\":1},\"connections\":[%s],"
      "\"warmup_s\":%g,\"setups\":%d}}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_escape(__VERSION__).c_str(), json_escape(PERFBENCH_CXX_FLAGS).c_str(),
      PERFBENCH_BUILD_TYPE, json_escape(a.commit).c_str(), w.name.c_str(),
      a.seed, a.seconds, a.trace, a.tiny ? "true" : "false", s.chips, s.blocks,
      s.pages_per_block, s.cells_per_page, s.cover_pages, w.hot_lpns,
      conns.c_str(), w.warmup_s, w.setups);
}

/// FNV-1a over the first `n` ops of every connection's window-0 stream:
/// the smoke test's same-seed-same-stream check.
void print_stream_digest(const Workload& w, std::uint64_t seed,
                         std::uint64_t n) {
  const std::vector<std::uint64_t> hot = hot_set(w, seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) h = (h ^ ((v >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
  };
  for (std::uint32_t c = 0; c < w.conns.size(); ++c) {
    OpStream stream(w, w.conns[c], hot, stream_seed(seed, 0, c));
    for (std::uint64_t i = 0; i < n; ++i) {
      const Op op = stream.next();
      fold(static_cast<std::uint64_t>(op.kind));
      fold(op.lpn);
    }
  }
  std::printf("{\"stream_digest\":\"%016" PRIx64 "\",\"ops_per_conn\":%" PRIu64
              "}\n",
              h, n);
}

/// The details line of an untraced run: the latencies of op kinds not
/// every workload has (null where this one has none), sample counts, and
/// failures by kind.
void print_details(const WindowResult& r) {
  const auto& reads = r.kinds[static_cast<int>(OpKind::kRead)].latency_us;
  const auto& writes = r.kinds[static_cast<int>(OpKind::kWrite)].latency_us;
  const auto& loads = r.kinds[static_cast<int>(OpKind::kLoadHidden)].latency_us;
  const auto num = [](const Samples& s, double q, double scale) {
    if (s.size() == 0) return std::string("null");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", s.quantile(q) * scale);
    return std::string(buf);
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string ops;
  for (int k = 0; k < kOpKinds; ++k) {
    const auto& ks = r.kinds[k];
    attempted += ks.attempted;
    failed += ks.failed;
    ops += std::string(k ? "," : "") + "\"" +
           op_kind_name(static_cast<OpKind>(k)) + "\":{\"attempted\":" +
           std::to_string(ks.attempted) + ",\"failed\":" +
           std::to_string(ks.failed) + ",\"first_error\":\"" +
           json_escape(r.first_error[k]) + "\"}";
  }
  const double frac =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
  std::printf(
      "{\"details\":{\"write_p50_us\":%s,\"write_p99_us\":%s,"
      "\"hidden_load_p50_ms\":%s,\"hidden_load_p90_ms\":%s,"
      "\"failed_op_frac\":%.6g,\"samples\":{\"read\":%zu,\"write\":%zu,"
      "\"load_hidden\":%zu},\"ops\":{%s},\"completed\":%" PRIu64
      ",\"max_response_gap_ms\":%.2f}}\n",
      num(writes, 0.5, 1).c_str(), num(writes, 0.99, 1).c_str(),
      num(loads, 0.5, 1e-3).c_str(), num(loads, 0.9, 1e-3).c_str(), frac,
      reads.size(), writes.size(), loads.size(), ops.c_str(), r.completed,
      r.max_response_gap_ms);
}

/// Set up `setups` times (setup_s is the median) and keep the last host.
std::unique_ptr<Host> set_up_repeated(const Workload& w, std::uint64_t seed,
                                      const PageCodec& codec, int setups,
                                      double* setup_median) {
  std::vector<double> times;
  std::unique_ptr<Host> host;
  for (int i = 0; i < setups; ++i) {
    if (host) {
      host->server->stop();
      host.reset();
    }
    host = set_up(w, seed, codec);
    times.push_back(host->setup_s);
  }
  *setup_median = median(times);
  return host;
}

/// Age the device before any traffic: rewrite seeded random cover pages,
/// 1.5x the spare physical pages, so the FTL has run out of never-written
/// blocks and garbage collection is in its steady state when measuring
/// starts.  Runs in-process and is not part of setup_s.
void precondition(Host& host, const Workload& w, std::uint64_t seed,
                  const PageCodec& codec, Checker& checker) {
  constexpr std::uint32_t kWriter = 253;
  auto& dev = *host.device;
  const auto& s = w.shape;
  const std::uint64_t physical =
      std::uint64_t{s.chips} * s.blocks * s.pages_per_block;
  const std::uint64_t writes = (physical - s.cover_pages) * 3 / 2;
  stash::util::Xoshiro256 rng(seed ^ 0xa9e0ULL);
  for (std::uint64_t i = 0; i < writes; ++i) {
    const std::uint64_t lpn = rng.below(s.cover_pages);
    checker.sent_writes[kWriter].store(i + 1);
    const auto st = dev.write(lpn, codec.encode(make_tag(lpn, kWriter, i)));
    if (!st.is_ok()) checker.fail("precondition write failed: " + st.to_string());
  }
  if (const auto st = dev.flush(); !st.is_ok()) {
    checker.fail("precondition flush failed: " + st.to_string());
  }
}

/// After the traffic: the device still serves the last acknowledged hidden
/// payload.
void check_hidden_at_end(Host& host, Checker& checker) {
  auto loaded = host.device->load_hidden();
  if (!loaded.is_ok()) {
    checker.fail("final load_hidden failed: " + loaded.status().to_string());
    return;
  }
  checker.check_hidden({loaded.value().data(), loaded.value().size()},
                       host.hidden, "final");
}

int run(const Args& a) {
  const auto w = find_workload(a.workload, a.tiny);
  if (!w) usage(("unknown workload " + a.workload).c_str());
  if (a.stream_digest > 0) {
    print_stream_digest(*w, a.seed, a.stream_digest);
    return 0;
  }
  print_provenance(a, *w);
  std::fflush(stdout);

  const PageCodec codec(w->shape.cells_per_page);
  Checker checker;
  double setup_s = 0.0;
  // The traced run reports no setup_s, so it sets up once.
  auto host = set_up_repeated(*w, a.seed, codec, a.trace == 0 ? w->setups : 1,
                              &setup_s);
  if (w->precondition) precondition(*host, *w, a.seed, codec, checker);

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  if (a.trace == 0) {
    WindowSpec spec;
    spec.warmup_s = w->warmup_s;
    spec.measure_s = a.seconds;
    const WindowResult r = run_window(*host, *w, a.seed, codec, spec, checker);
    stop_server(*host, checker);
    check_hidden_at_end(*host, checker);
    print_details(r);
    for (int k = 0; k < kOpKinds; ++k) {
      attempted += r.attempted_all[k];
      failed += r.failed_all[k];
    }
    const auto& reads = r.kinds[static_cast<int>(OpKind::kRead)];
    metrics = {
        {"ops_per_s", r.sliced_ops_per_s(), "1/s"},
        {"read_p50_us", reads.sliced_quantile(0.5), "us"},
        {"read_p99_us", reads.latency_us.quantile(0.99), "us"},
        {"hidden_capacity_bytes",
         static_cast<double>(host->hidden_capacity_bytes), "B"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    LayerRun lr = run_layers(*host, *w, a.seed, a.seconds, codec, checker,
                             a.out_dir);
    attempted = lr.attempted;
    failed = lr.failed;
    metrics = std::move(lr.metrics);
  }
  host.reset();

  for (const auto& m : checker.messages()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());
  }
  const bool correct = checker.errors() == 0;
  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

#include "workload.hpp"

#include <sched.h>

#include <array>
#include <stdexcept>

namespace perfbench {

namespace {

/// hot_read's public traffic: 90% reads, 90% of them to the hot set.
ConnSpec hot_conn() { return {.depth = 4, .read_pct = 90, .hot_pct = 90}; }

/// Manufacturing seed of every benchmark device.
constexpr std::uint64_t kDeviceSeed = 0x57a5b3ce4ULL;

/// The device every run of `w` builds.  Its manufacturing seed is fixed,
/// like benchmarking one physical drive: the run seed varies the inputs (op
/// streams, page contents, hot set, hidden payload), not the hardware.
stash::dev::DeviceConfig device_config(const Workload& w) {
  stash::dev::DeviceConfig config;
  config.geometry.blocks = w.shape.blocks;
  config.geometry.pages_per_block = w.shape.pages_per_block;
  config.geometry.cells_per_page = w.shape.cells_per_page;
  config.chips = w.shape.chips;
  config.seed = kDeviceSeed;
  config.threads = 1;
  return config;
}

/// Start the server with its reactor thread on a CPU of its own.  A thread
/// inherits the affinity of the thread that creates it, so the caller pins
/// itself to the first allowed CPU around start() and then keeps itself,
/// and every thread it creates later (the client connections), off that
/// CPU: no client thread ever preempts the one thread that serves every
/// connection.  With fewer than two allowed CPUs nothing is pinned.
stash::util::Status start_pinned(stash::net::Server& server) {
  static const cpu_set_t allowed = [] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    sched_getaffinity(0, sizeof mask, &mask);
    return mask;
  }();
  if (CPU_COUNT(&allowed) < 2) return server.start();
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  cpu_set_t reactor;
  CPU_ZERO(&reactor);
  CPU_SET(first, &reactor);
  cpu_set_t rest = allowed;
  CPU_CLR(first, &rest);
  sched_setaffinity(0, sizeof reactor, &reactor);
  const auto st = server.start();
  sched_setaffinity(0, sizeof rest, &rest);
  return st;
}

}  // namespace

std::unique_ptr<Workload> find_workload(const std::string& name, bool tiny) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  if (name == "hot_read") {
    w->conns = {hot_conn(), hot_conn(), hot_conn()};
  } else if (name == "cold_read") {
    // Not in BENCHMARK.json: its sub-millisecond read_p99_us moves by half
    // or more from run to run on a shared host (see README.md).
    const ConnSpec cold{.depth = 4, .read_pct = 100, .hot_pct = 0};
    w->conns = {cold, cold, cold};
  } else if (name == "write_heavy") {
    const ConnSpec writer{.depth = 4, .read_pct = 30, .hot_pct = 0};
    w->conns = {writer, writer, writer};
  } else if (name == "hidden_user") {
    w->shape = {.chips = 2,
                .blocks = 48,
                .pages_per_block = 8,
                .cells_per_page = 8192,
                .cover_pages = 336};
    // The hiding user loads the covert object at depth 1 beside two
    // connections of hot_read traffic.  Not in BENCHMARK.json: its figures
    // flip between modes from run to run (see README.md).
    w->conns = {ConnSpec{.depth = 1, .hidden = true}, hot_conn(), hot_conn()};
    // Its public connections write about 8 pages/s, so no garbage
    // collection runs within a run; ageing the device first would instead
    // have GC relocate the hidden carriers before anything is measured.
    w->precondition = false;
  } else {
    return nullptr;
  }
  if (tiny) {
    w->shape.blocks = 24;
    w->shape.cells_per_page = std::min<std::uint32_t>(w->shape.cells_per_page,
                                                      w->conns[0].hidden ? 8192
                                                                         : 2048);
    w->shape.cover_pages = 144;
    w->hot_lpns = 32;
    w->warmup_s = 0.2;
    w->setups = 1;
  }
  return w;
}

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kRead: return "read";
    case OpKind::kWrite: return "write";
    case OpKind::kLoadHidden: return "load_hidden";
  }
  return "?";
}

OpStream::OpStream(const Workload& w, const ConnSpec& conn,
                   const std::vector<std::uint64_t>& hot, std::uint64_t seed)
    : w_(&w), conn_(&conn), hot_(&hot), rng_(seed) {}

Op OpStream::next() {
  Op op;
  op.seq = n_++;
  if (conn_->hidden) {
    op.kind = OpKind::kLoadHidden;
    return op;
  }
  if (rng_.below(100) < conn_->read_pct) {
    op.kind = OpKind::kRead;
    op.lpn = rng_.below(100) < conn_->hot_pct
                 ? (*hot_)[rng_.below(hot_->size())]
                 : rng_.below(w_->shape.cover_pages);
  } else {
    op.kind = OpKind::kWrite;
    op.lpn = rng_.below(w_->shape.cover_pages);
  }
  return op;
}

std::uint64_t stream_seed(std::uint64_t run_seed, std::uint32_t window,
                          std::uint32_t conn) {
  stash::util::Xoshiro256 mix(run_seed * 0x9E3779B97F4A7C15ULL +
                              (static_cast<std::uint64_t>(window) << 8) + conn);
  return mix();
}

std::uint64_t payload_seed(std::uint64_t run_seed, std::uint64_t stream,
                           std::uint64_t k) {
  stash::util::Xoshiro256 mix(run_seed ^ (stream * 0xA24BAED4963EE407ULL) ^
                              (k * 0x9FB21C651E98DF25ULL));
  return mix();
}

stash::crypto::HidingKey bench_key() {
  std::array<std::uint8_t, 32> raw{};
  raw.fill(0x5b);
  return stash::crypto::HidingKey(raw);
}

std::unique_ptr<Host> set_up(const Workload& w, std::uint64_t seed,
                             const PageCodec& codec) {
  const auto t0 = Clock::now();
  auto host = std::make_unique<Host>();
  host->device = std::make_unique<stash::dev::StashDevice>(
      device_config(w), bench_key());
  auto& dev = *host->device;
  if (dev.page_bits() != codec.page_bits() ||
      dev.logical_pages() < w.shape.cover_pages) {
    throw std::runtime_error("device shape does not fit the cover");
  }
  for (std::uint64_t lpn = 0; lpn < w.shape.cover_pages; ++lpn) {
    const auto st = dev.write(lpn, codec.encode(make_tag(lpn, kCoverWriter, 0)));
    if (!st.is_ok()) {
      throw std::runtime_error("cover write failed: " + st.to_string());
    }
  }
  if (const auto st = dev.flush(); !st.is_ok()) {
    throw std::runtime_error("cover flush failed: " + st.to_string());
  }
  // Capacity of the cover itself, before the first store takes carriers
  // (whose number depends on the seeded payload's size).
  for (std::uint32_t c = 0; c < dev.chips(); ++c) {
    host->hidden_capacity_bytes += dev.volume(c).hidden_capacity_bytes();
  }
  // A fixed size: the load cost grows with the chunks the object spans,
  // and the hidden user's object should not change size from seed to seed.
  host->hidden = text_payload(payload_seed(seed, 0xff, 0), 768);
  if (const auto st = dev.store_hidden(host->hidden); !st.is_ok()) {
    throw std::runtime_error("first hidden store failed: " + st.to_string());
  }
  host->server = std::make_unique<stash::net::Server>(dev);
  if (const auto st = start_pinned(*host->server); !st.is_ok()) {
    throw std::runtime_error("server start failed: " + st.to_string());
  }
  host->setup_s = seconds_between(t0, Clock::now());

  host->hot = hot_set(w, seed);
  return host;
}

std::vector<std::uint64_t> hot_set(const Workload& w, std::uint64_t seed) {
  std::vector<std::uint64_t> all(w.shape.cover_pages);
  for (std::uint64_t i = 0; i < all.size(); ++i) all[i] = i;
  stash::util::Xoshiro256 rng(seed ^ 0x407ULL);
  const std::uint64_t hot = std::min<std::uint64_t>(w.hot_lpns, all.size());
  for (std::uint64_t i = 0; i < hot; ++i) {
    std::swap(all[i], all[i + rng.below(all.size() - i)]);
  }
  all.resize(hot);
  return all;
}

}  // namespace perfbench

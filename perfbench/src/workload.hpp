#pragma once
// The benchmark's workloads: device shape, connections, op shares and the
// seeded op stream each connection replays, plus the self-hosted device +
// server every run sets up.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "stash/dev/device.hpp"
#include "stash/net/server.hpp"
#include "stash/util/rng.hpp"

namespace perfbench {

struct DeviceShape {
  std::uint32_t chips = 2;
  std::uint32_t blocks = 192;
  std::uint32_t pages_per_block = 8;
  std::uint32_t cells_per_page = 36096;
  /// LPNs [0, cover_pages) are written before the run and are the public
  /// working set; every public op targets one of them.
  std::uint64_t cover_pages = 2304;
};

/// One client connection: a closed loop of `depth` requests in flight.
struct ConnSpec {
  std::uint32_t depth = 4;
  std::uint32_t read_pct = 90;   // remainder of public ops are writes
  std::uint32_t hot_pct = 0;     // share of reads aimed at the hot set
  /// The hiding user's connection: every op is a load_hidden.
  bool hidden = false;
};

struct Workload {
  std::string name;
  DeviceShape shape;
  std::vector<ConnSpec> conns;
  /// LPNs in the hot set (a seeded subset of the cover).
  std::uint64_t hot_lpns = 128;
  /// Unmeasured closed-loop traffic before the measured window, so the
  /// read cache has filled.
  double warmup_s = 1.0;
  /// Set-ups per run (setup_s is their median).
  int setups = 3;
  /// Age the device before measuring (see precondition() in main.cpp).
  bool precondition = true;
};

/// The named workload; `tiny` shrinks the device and warm-up for the smoke
/// test.  Null for an unknown name.
std::unique_ptr<Workload> find_workload(const std::string& name, bool tiny);

enum class OpKind : std::uint8_t { kRead, kWrite, kLoadHidden };
constexpr int kOpKinds = 3;
const char* op_kind_name(OpKind kind);

struct Op {
  OpKind kind = OpKind::kRead;
  std::uint64_t lpn = 0;
  /// Per-stream sequence number (the write's page tag).
  std::uint64_t seq = 0;
};

/// The seeded op stream of one connection of one window.
class OpStream {
 public:
  OpStream(const Workload& w, const ConnSpec& conn,
           const std::vector<std::uint64_t>& hot, std::uint64_t seed);
  Op next();

 private:
  const Workload* w_;
  const ConnSpec* conn_;
  const std::vector<std::uint64_t>* hot_;
  stash::util::Xoshiro256 rng_;
  std::uint64_t n_ = 0;
};

/// Seed of connection `conn` in window `window`: the dev replay reuses
/// window 0's seeds so it replays the same op stream.
std::uint64_t stream_seed(std::uint64_t run_seed, std::uint32_t window,
                          std::uint32_t conn);
/// The hot set: a seeded sample of the cover without repeats.
std::vector<std::uint64_t> hot_set(const Workload& w, std::uint64_t seed);

/// Seed of the k-th hidden payload stored by `stream`.
std::uint64_t payload_seed(std::uint64_t run_seed, std::uint64_t stream,
                           std::uint64_t k);

/// The self-hosted system under test.
struct Host {
  std::unique_ptr<stash::dev::StashDevice> device;
  std::unique_ptr<stash::net::Server> server;
  std::vector<std::uint64_t> hot;
  /// Sum of StegoVolume::hidden_capacity_bytes() once the cover is written.
  std::uint64_t hidden_capacity_bytes = 0;
  /// The last acknowledged hidden payload (what load_hidden must return).
  std::vector<std::uint8_t> hidden;
  double setup_s = 0.0;
};
stash::crypto::HidingKey bench_key();

/// Device build, cover fill, first hidden store and server start.  Throws
/// std::runtime_error on any failure.
std::unique_ptr<Host> set_up(const Workload& w, std::uint64_t seed,
                             const PageCodec& codec);

}  // namespace perfbench

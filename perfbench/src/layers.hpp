#pragma once
// The traced run: per-layer metrics for one workload.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "netrun.hpp"
#include "workload.hpp"

namespace perfbench {

struct LayerRun {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

LayerRun run_layers(Host& host, const Workload& w, std::uint64_t seed,
                    double seconds, const PageCodec& codec, Checker& checker,
                    const std::string& out_dir);

}  // namespace perfbench

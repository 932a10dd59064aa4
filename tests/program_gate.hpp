#pragma once
// A fault injector that holds every page program at the chip until open():
// a write-back destage that stays in flight for as long as a test needs it
// to.  Shared by the device and server tests.

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "stash/nand/fault_injector.hpp"

namespace stash::test {

class ProgramGate final : public nand::FaultInjector {
 public:
  nand::FaultDecision on_operation(nand::FaultOp op, std::uint32_t,
                                   std::uint32_t) override {
    if (op == nand::FaultOp::kProgram) {
      std::unique_lock<std::mutex> lock(mu_);
      ++held_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return {};
  }
  /// Block until a program is being held.
  void wait_until_holding() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_ > 0; });
  }
  void open() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t held_ = 0;
  bool open_ = false;
};

}  // namespace stash::test

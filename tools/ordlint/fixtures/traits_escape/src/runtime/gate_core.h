// Seeded-broken fixture: raw synchronization primitives inside a
// *_core.h protocol header.
// Expected: error[ordlint:traits-escape] for the std::atomic member and
// the std::mutex member.
#pragma once

#include <atomic>
#include <mutex>

namespace fixture {

template <class Traits>
class gate_core {
 public:
  void set() { raw_.store(1, std::memory_order_release); }

 private:
  std::atomic<int> raw_{0};  // escapes the Traits:: seam
  std::mutex mu_;            // so does this
};

}  // namespace fixture

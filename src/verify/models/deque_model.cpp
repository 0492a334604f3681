// Verification model for the Chase-Lev deque core (runtime/deque_core.h):
// the owner pushes three tasks and pops until empty while a thief steals
// one task at a time until a steal comes back empty.
//
// Checked (work conservation / exactly-once): every pushed task is
// executed — by whichever side — exactly once. This is the property the
// owner's last-element top_ CAS defends: with a plain store in its place
// (deque_policy_no_last_cas) there is an interleaving where the thief
// reads top_ and the not-yet-retracted bottom_, the owner retracts bottom_
// and reads the same top_, the thief's CAS commits, and the owner's store
// then claims the same slot — the last task executes twice. The harness
// finds that interleaving within a 3-preemption bound and check_final
// reports the double execution.
//
// The owner's deque opens at capacity 2, so its third push grows the ring
// while the thief may be reading the old one (grow()'s release store of
// ring_ against steal()'s acquire load).
#include <cstdint>
#include <memory>
#include <string>

#include "runtime/deque_core.h"
#include "verify/models/models.h"
#include "verify/shim.h"

namespace hls::verify {
namespace {

// Task identities: addresses into a static cell array (never dereferenced
// through the deque; the value is the cell index).
int g_cells[4];
constexpr int kTasks = 3;

int* task_ptr(int v) { return &g_cells[v]; }
int task_val(int* p) { return static_cast<int>(p - g_cells); }

template <typename Policy>
class deque_model_t final : public model {
  using deque_t = rt::ws_deque_core<int*, verify_traits, Policy>;

  struct state {
    deque_t q{2};
    // Executions per task value; plain ints are fine under the cooperative
    // scheduler.
    std::uint32_t executed[kTasks + 1] = {};
  };

 public:
  explicit deque_model_t(const char* name) : name_(name) {}

  const char* name() const override { return name_; }
  int threads() const override { return 2; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == 0) {
      // Owner: push everything, then drain from the bottom.
      for (int v = 1; v <= kTasks; ++v) s.q.push(task_ptr(v));
      while (int* p = s.q.pop()) exec(p);
    } else {
      // Thief: one task per steal until a steal comes back empty (or
      // loses its race).
      while (int* p = s.q.steal()) exec(p);
    }
  }

  void check_final() override {
    state& s = *st_;
    for (int v = 1; v <= kTasks; ++v) {
      if (s.executed[v] != 1) {
        fail_now("exactly-once violated: task " + std::to_string(v) +
                 " executed " + std::to_string(s.executed[v]) +
                 " times (double-executed or stranded)");
      }
    }
  }

 private:
  void exec(int* p) {
    const int v = task_val(p);
    check(v >= 1 && v <= kTasks, "deque returned a pointer never pushed");
    ++st_->executed[v];
  }

  const char* name_;
  std::unique_ptr<state> st_;
};

}  // namespace

std::unique_ptr<model> make_deque_model(bool broken_no_last_cas) {
  if (broken_no_last_cas) {
    return std::make_unique<deque_model_t<rt::deque_policy_no_last_cas>>(
        "deque-broken-nolastcas");
  }
  return std::make_unique<deque_model_t<rt::deque_policy_default>>("deque");
}

}  // namespace hls::verify

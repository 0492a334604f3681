// Verification model for the range_slot's one-word claim protocol
// (runtime/range_slot_core.h): the owner consumes one span [0, 6) at
// grain 1 — so it crosses the steal midpoint while a thief can still be
// mid-probe — against a thief making two try_steal attempts.
//
// Where the reopen-focused `range_slot` model checks the close()/drain
// lifetime protocol, this one targets the claims themselves: the owner's
// reserve CAS on {split | hi} racing the thief's steal CAS on the same
// word. Checked:
//   * exactly-once: every iteration executed exactly once across owner
//     reserves and thief steals, in every interleaving — in particular
//     when a steal lands between the owner's word load and its CAS (the
//     owner's retry), and when the owner reserves through the thief's
//     midpoint first (the thief's CAS misses);
//   * a successful steal is internally consistent (range inside the span,
//     ctx/runner not torn).
//
// The broken variant selects range_slot_policy_blind_reserve: the owner
// claims its batch with a load-then-store instead of the CAS. A steal
// that lands between the two is undone by the store, which writes the
// old hi back — the owner later reserves the stolen range again, a
// double-executed iteration the harness reports with the interleaving at
// preemption bound <= 3.
//
// The floor variant (`range_word-floor`) opens the span at grain 3 and
// lowers the floor to 1 between the owner's first and second reserve
// (set_grain, the sched layer's measured split floor), while the thief
// steals. Its first batch leaves [3, 6) — under two old grains, so only a
// probe that reads the lowered floor can split it — and the thief's
// probes race the lowering itself. The same exactly-once / no-hole check
// must hold: the floor only sizes batches and the steal threshold, never
// the claim.
#include <cstdint>
#include <memory>
#include <string>

#include "runtime/range_slot_core.h"
#include "verify/models/models.h"
#include "verify/shim.h"

namespace hls::verify {
namespace {

// Grain 1 with 6 iterations: the owner needs several reserves to cross
// the first midpoint (3), giving the thief CAS a window on both sides of
// every reserve.
constexpr std::int64_t kSpanLen = 6;

// Opening floor of the floor variant: the first reserve takes
// max(3, 6/8) = 3, leaving [3, 6), which only the lowered floor splits
// (3 < 2 * 3).
constexpr std::int64_t kOpenFloor = 3;

template <typename Policy>
class range_word_model_t final : public model {
  using slot_t = rt::range_slot_core<verify_traits, int, Policy>;

  struct state {
    slot_t slot;
    std::uint32_t executed[kSpanLen] = {};
    int ctx_cell = 0;
  };

 public:
  range_word_model_t(const char* name, bool lower_floor)
      : name_(name), lower_floor_(lower_floor) {}

  const char* name() const override { return name_; }
  int threads() const override { return 2; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == 0) {
      check(s.slot.open(&s.ctx_cell, 1, 0, kSpanLen,
                        lower_floor_ ? kOpenFloor : 1),
            "open failed on a closed slot");
      std::int64_t cur = 0;
      bool lowered = !lower_floor_;
      for (;;) {
        const std::int64_t next = s.slot.reserve(cur);
        if (next == cur) break;
        check(next > cur && next <= kSpanLen, "reserve returned a bad batch");
        for (std::int64_t i = cur; i < next; ++i) ++s.executed[i];
        cur = next;
        if (!lowered) {
          s.slot.set_grain(1);
          lowered = true;
        }
      }
      s.slot.close();
    } else {
      for (int attempt = 0; attempt < 2; ++attempt) {
        const auto stolen = s.slot.try_steal();
        if (!stolen) continue;
        check(stolen.run == 1, "stolen runner id is garbage");
        check(stolen.ctx == &s.ctx_cell, "stolen ctx is torn");
        check(stolen.lo >= 0 && stolen.hi <= kSpanLen && stolen.lo < stolen.hi,
              "stolen range outside the span");
        for (std::int64_t i = stolen.lo; i < stolen.hi; ++i) ++s.executed[i];
      }
    }
  }

  void check_final() override {
    for (std::int64_t i = 0; i < kSpanLen; ++i) {
      const std::uint32_t n = st_->executed[i];
      if (n != 1) {
        fail_now("exactly-once violated: iteration " + std::to_string(i) +
                 " executed " + std::to_string(n) + " times" +
                 (n > 1 ? " (owner/thief overlap)" : " (hole at the frontier)"));
      }
    }
  }

 private:
  const char* name_;
  const bool lower_floor_;
  std::unique_ptr<state> st_;
};

}  // namespace

std::unique_ptr<model> make_range_word_model(bool broken_blind_reserve) {
  if (broken_blind_reserve) {
    return std::make_unique<
        range_word_model_t<rt::range_slot_policy_blind_reserve>>(
        "range_word-broken-blindreserve", false);
  }
  return std::make_unique<range_word_model_t<rt::range_slot_policy_default>>(
      "range_word", false);
}

std::unique_ptr<model> make_range_floor_model() {
  return std::make_unique<range_word_model_t<rt::range_slot_policy_default>>(
      "range_word-floor", true);
}

}  // namespace hls::verify

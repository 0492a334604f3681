// Verification model for the splittable-range slot
// (runtime/range_slot_core.h): the owner publishes span 1, consumes it via
// reserve(), closes, then REOPENS the same slot for span 2 with different
// context fields — while a thief probes try_steal() twice.
//
// Checked:
//   * exactly-once: every iteration of both spans is executed exactly once
//     across owner reserves and thief steals;
//   * a successful steal is internally consistent (the stolen range and
//     ctx belong to the runner it reports);
//   * and — the reason this model exists — the close() drain protocol:
//     every thief access to the plain span fields (ctx/runner/base) must
//     be ordered, by declared synchronization only, against the owner's
//     field rewrite in the next open(). The fields are Traits::var, so the
//     vector-clock checker enforces this. With range_slot_policy_no_drain
//     (close is a plain relaxed store, no reader drain) there is an
//     interleaving — the thief claims from span 1 and reads its fields,
//     then the owner finishes, closes, reopens — where nothing orders the
//     thief's field reads before the reopen's writes (the owner never
//     acquires the thief's release retreat); the harness reports the data
//     race with the interleaving. With range_slot_policy_no_reread (the
//     reader gate reads the word before its announce) the thief can read
//     span 1 open, let close()'s drain find no reader, and announce only
//     after the reopen: its field reads race with span 2's writes the same
//     way. Note span 2 deliberately packs the same initial word as span 1
//     ({0,4}); the monotonic-word argument alone does not save a reopened
//     slot, only the drain does. (The split floor `grain` is a relaxed
//     atomic, not a plain field: the owner may lower it mid-span.)
#include <cstdint>
#include <memory>
#include <string>

#include "runtime/range_slot_core.h"
#include "verify/models/models.h"
#include "verify/shim.h"

namespace hls::verify {
namespace {

// Span geometry: span 1 is [0, 4), span 2 is [100, 104), both grain 1 and
// 4 iterations so the two spans pack the identical initial word.
constexpr std::int64_t kSpanLen = 4;
constexpr std::int64_t kSpan2Base = 100;

template <typename Policy>
class range_slot_model_t final : public model {
  // Runner is an opaque value type to the protocol; the model uses the
  // span id (1 or 2) so a torn steal is detectable.
  using slot_t = rt::range_slot_core<verify_traits, int, Policy>;

  struct state {
    slot_t slot;
    std::uint32_t executed[2][kSpanLen] = {};  // [span-1][iteration offset]
    int ctx_cell[2] = {};                      // distinct ctx identities
  };

 public:
  explicit range_slot_model_t(const char* name) : name_(name) {}

  const char* name() const override { return name_; }
  int threads() const override { return 2; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == 0) {
      run_span(1, 0);
      run_span(2, kSpan2Base);
    } else {
      for (int attempt = 0; attempt < 2; ++attempt) {
        const auto stolen = s.slot.try_steal();
        if (!stolen) continue;
        check(stolen.run == 1 || stolen.run == 2,
              "stolen runner id is garbage");
        const int span = stolen.run;
        const std::int64_t base = span == 1 ? 0 : kSpan2Base;
        check(stolen.ctx == &s.ctx_cell[span - 1],
              "stolen ctx does not match its runner (torn span fields)");
        check(stolen.lo >= base && stolen.hi <= base + kSpanLen &&
                  stolen.lo < stolen.hi,
              "stolen range outside its runner's span (torn span fields)");
        for (std::int64_t i = stolen.lo; i < stolen.hi; ++i) {
          ++s.executed[span - 1][i - base];
        }
      }
    }
  }

  void check_final() override {
    for (int span = 0; span < 2; ++span) {
      for (std::int64_t i = 0; i < kSpanLen; ++i) {
        const std::uint32_t n = st_->executed[span][i];
        if (n != 1) {
          fail_now("exactly-once violated: span " + std::to_string(span + 1) +
                   " iteration " + std::to_string(i) + " executed " +
                   std::to_string(n) + " times");
        }
      }
    }
  }

 private:
  void run_span(int span, std::int64_t base) {
    state& s = *st_;
    check(s.slot.open(&s.ctx_cell[span - 1], span, base, base + kSpanLen, 1),
          "open failed on a closed slot");
    std::int64_t cur = base;
    for (;;) {
      const std::int64_t next = s.slot.reserve(cur);
      if (next == cur) break;
      for (std::int64_t i = cur; i < next; ++i) {
        ++s.executed[span - 1][i - base];
      }
      cur = next;
    }
    s.slot.close();
  }

  const char* name_;
  std::unique_ptr<state> st_;
};

}  // namespace

std::unique_ptr<model> make_range_slot_model(range_slot_variant v) {
  switch (v) {
    case range_slot_variant::broken_no_drain:
      return std::make_unique<
          range_slot_model_t<rt::range_slot_policy_no_drain>>(
          "range_slot-broken-nodrain");
    case range_slot_variant::broken_no_reread:
      return std::make_unique<
          range_slot_model_t<rt::range_slot_policy_no_reread>>(
          "range_slot-broken-noreread");
    case range_slot_variant::shipping:
      break;
  }
  return std::make_unique<
      range_slot_model_t<rt::range_slot_policy_default>>("range_slot");
}

}  // namespace hls::verify

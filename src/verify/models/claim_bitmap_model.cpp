// Verification model for the claim flags' word-at-a-time leftover sweep
// (core/claim_bitmap_core.h, instantiated with verify_traits): `workers`
// threads run the REAL run_claim_loop template over the REAL flags — one
// 64-bit word for R = 8 — then sweep their block with the REAL
// claim_block, as hybrid_record::rescue_sweep does.
//
// One partition's per-bit claims permanently lie "already claimed"
// without setting the bit: an adapter in front of the flags, the way
// sched's chaos_claim_flags puts a fired claim_fail fault in front of
// partition_set's. The claim loops therefore always leave a leftover and
// the sweep is load-bearing in every execution. Checked:
//   * Theorem 3 (exactly-once): every partition executed exactly once
//     across per-bit claim-loop wins and batched sweep wins, with full
//     coverage;
//   * Lemma 4: each worker's max_consec_failures <= lg R + 1 even with
//     the injected failures (the bound is structural — each failure
//     strictly raises lsb(i) — so it must hold no matter why a claim
//     failed);
//   * all_claimed() and claimed_count() agree with R at quiescence.
//
// The broken variant selects claim_bitmap_policy_nonatomic: claims and
// sweeps set their bits with a load-then-store. Two workers can then both
// read a bit clear and both "win" it — a double-executed partition,
// caught at preemption bound <= 3.
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/claim.h"
#include "core/claim_bitmap_core.h"
#include "verify/models/models.h"
#include "verify/shim.h"

namespace hls::verify {
namespace {

constexpr std::uint64_t kPartitions = 8;  // one bitmap word, lg R = 3
constexpr std::uint64_t kLiar = 5;        // per-bit claims on 5 always lie
constexpr std::uint32_t kWorkers = 2;

template <typename Policy>
class claim_bitmap_model_t final : public model {
  using flags_t = core::claim_bitmap_core<verify_traits, Policy>;

  struct state {
    flags_t flags{kPartitions};
    // Plain bookkeeping (cooperatively scheduled, so no real race): how
    // many times each partition was executed.
    std::vector<std::uint32_t> claim_count = std::vector<std::uint32_t>(
        kPartitions, 0);
  };

  // The permanent lie on kLiar in front of the real flags: reports
  // claimed WITHOUT setting the bit, like a fired claim_fail fault.
  struct lying_flags {
    flags_t& inner;
    bool test_and_set(std::uint64_t r) noexcept {
      return r == kLiar || inner.test_and_set(r);
    }
  };

 public:
  explicit claim_bitmap_model_t(const char* name) : name_(name) {}

  const char* name() const override { return name_; }
  int threads() const override { return kWorkers; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    lying_flags fl{s.flags};
    const auto w = static_cast<std::uint32_t>(t);
    const core::claim_stats st = core::run_claim_loop(
        w, kPartitions, fl,
        [&](std::uint64_t r, std::uint64_t /*index*/) {
          check(r < kPartitions, "claimed partition out of range");
          ++s.claim_count[r];
        },
        [](std::uint64_t, std::uint64_t, bool) {});
    if (st.max_consec_failures > 4) {  // lg R + 1 = 4
      fail_now("Lemma 4 violated: worker " + std::to_string(w) + " saw " +
               std::to_string(st.max_consec_failures) +
               " consecutive failures > lg R + 1 = 4");
    }
    // The leftover sweep: every bit this call wins is one execution.
    for (std::uint64_t won = s.flags.claim_block(0); won != 0;
         won &= won - 1) {
      ++s.claim_count[static_cast<std::uint64_t>(std::countr_zero(won))];
    }
  }

  void check_final() override {
    state& s = *st_;
    std::uint64_t executed = 0;
    for (std::uint64_t r = 0; r < kPartitions; ++r) {
      if (s.claim_count[r] > 1) {
        fail_now("Theorem 3 violated: partition " + std::to_string(r) +
                 " executed " + std::to_string(s.claim_count[r]) + " times");
      }
      executed += s.claim_count[r];
    }
    if (executed != kPartitions) {
      fail_now("coverage violated: " + std::to_string(executed) + " of " +
               std::to_string(kPartitions) + " partitions executed");
    }
    check(s.flags.all_claimed(), "a partition bit was never set");
    check(s.flags.claimed_count() == kPartitions,
          "claimed_count disagrees with R");
  }

 private:
  const char* name_;
  std::unique_ptr<state> st_;
};

}  // namespace

std::unique_ptr<model> make_claim_bitmap_model(bool broken_nonatomic) {
  if (broken_nonatomic) {
    return std::make_unique<
        claim_bitmap_model_t<core::claim_bitmap_policy_nonatomic>>(
        "claim-bitmap-broken-nonatomic");
  }
  return std::make_unique<
      claim_bitmap_model_t<core::claim_bitmap_policy_default>>(
      "claim-bitmap");
}

}  // namespace hls::verify

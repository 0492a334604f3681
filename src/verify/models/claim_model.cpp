// Verification model for the claim protocol (core/claim.h): `workers`
// threads run the REAL run_claim_loop template over the REAL claim flags,
// core::claim_bitmap_core instantiated with verify_traits — the core
// partition_set ships with sync::real_traits.
//
// Checked:
//   * Theorem 3 (exactly-once): every partition is claimed by exactly one
//     worker, and all partitions are claimed.
//   * Lemma 4: each worker's max_consec_failures <= lg R.
//   * exited_on_first implies zero successes (Alg. 3 line 14).
//   * The loop's claim_stats agree with an independent replay of the
//     index-advance rules (claim_target / advance_on_failure) observed
//     attempt by attempt.
//
// This model publishes each worker's full continuation state (next index,
// consecutive-failure counters, claimed mask, phase) from the observe
// callback — which runs between op points, so it is atomic w.r.t. the
// scheduler — and fingerprints it together with the per-partition claim
// counts. The counts stand for the flag words: a won claim's fetch_or and
// its on_claim run with no op point between them, so at every op point a
// partition's bit is set exactly when its count is nonzero. That makes
// visited-state pruning sound here: two executions that reach the same
// counts + per-worker continuation behave identically from then on,
// including every assertion check_final makes.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/claim.h"
#include "core/claim_bitmap_core.h"
#include "verify/models/models.h"
#include "verify/shim.h"
#include "verify/vclock.h"  // kMaxModelThreads

namespace hls::verify {
namespace {

std::uint64_t ilog2(std::uint64_t r) {
  std::uint64_t lg = 0;
  while ((std::uint64_t{1} << lg) < r) ++lg;
  return lg;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

class claim_model final : public model {
  // The sentinel next_i for "left the loop" in the published mirror.
  static constexpr std::uint64_t kExited = ~std::uint64_t{0};

  struct state {
    explicit state(std::uint64_t r) : flags(r), claim_count(r, 0) {}
    core::claim_bitmap_core<verify_traits> flags;
    // Plain bookkeeping (cooperatively scheduled, so no real race): how
    // many times each partition's on_claim ran.
    std::vector<std::uint32_t> claim_count;
  };

  // Per-worker continuation state, updated from observe/on_claim (between
  // op points) so fingerprint() always sees a consistent snapshot.
  struct published {
    std::uint64_t next_i = 0;
    std::uint64_t consec = 0;
    std::uint64_t max_consec = 0;
    std::uint64_t claimed_mask = 0;
    bool done = false;
    core::claim_stats stats;
  };

 public:
  claim_model(std::uint32_t workers, std::uint64_t partitions)
      : w_(workers), r_(partitions), lg_r_(ilog2(partitions)) {
    name_ = "claim-" + std::to_string(workers) + "w" +
            std::to_string(partitions) + "p";
  }

  const char* name() const override { return name_.c_str(); }
  int threads() const override { return static_cast<int>(w_); }

  void setup() override {
    st_ = std::make_unique<state>(r_);
    for (auto& p : pub_) p = published{};
  }

  void run(int t) override {
    state& s = *st_;
    published& p = pub_[t];
    const auto w = static_cast<std::uint32_t>(t);

    auto on_claim = [&](std::uint64_t partition, std::uint64_t /*index*/) {
      check(partition < r_, "claimed partition out of range");
      ++s.claim_count[partition];
      p.claimed_mask |= std::uint64_t{1} << partition;
    };
    // Mirror the loop's index arithmetic attempt by attempt; any
    // divergence from the real loop's claim_stats fails below.
    auto observe = [&](std::uint64_t partition, std::uint64_t index,
                       bool success) {
      check(core::claim_target(index, w) == partition,
            "observe partition disagrees with claim_target");
      if (success) {
        p.consec = 0;
        p.next_i = index + 1;
      } else if (index == 0) {
        p.consec = 1;
        if (p.max_consec < 1) p.max_consec = 1;
        p.next_i = kExited;
      } else {
        ++p.consec;
        if (p.consec > p.max_consec) p.max_consec = p.consec;
        p.next_i = core::advance_on_failure(index);
      }
    };

    const core::claim_stats st =
        core::run_claim_loop(w, r_, s.flags, on_claim, observe);
    check(st.max_consec_failures == p.max_consec,
          "claim_stats.max_consec_failures disagrees with the observed "
          "attempt sequence");
    p.stats = st;
    p.done = true;
  }

  void check_final() override {
    state& s = *st_;
    std::uint64_t claimed = 0;
    for (std::uint64_t r = 0; r < r_; ++r) {
      if (s.claim_count[r] > 1) {
        fail_now("Theorem 3 violated: partition " + std::to_string(r) +
                 " executed " + std::to_string(s.claim_count[r]) + " times");
      }
      claimed += s.claim_count[r];
    }
    if (claimed != r_) {
      fail_now("coverage violated: " + std::to_string(claimed) + " of " +
               std::to_string(r_) + " partitions executed");
    }
    check(s.flags.all_claimed(), "a partition flag was never set");
    check(s.flags.claimed_count() == r_, "claimed_count disagrees with R");
    for (std::uint32_t t = 0; t < w_; ++t) {
      const published& p = pub_[t];
      check(p.done, "worker did not finish");
      if (p.stats.max_consec_failures > lg_r_) {
        fail_now("Lemma 4 violated: worker " + std::to_string(t) + " saw " +
                 std::to_string(p.stats.max_consec_failures) +
                 " consecutive failures > lg R = " + std::to_string(lg_r_));
      }
      if (p.stats.exited_on_first) {
        check(p.stats.successes == 0,
              "exited_on_first with a successful claim");
      }
    }
  }

  std::uint64_t fingerprint() const override {
    if (!st_) return 0;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t r = 0; r < r_; ++r) h = mix(h, st_->claim_count[r]);
    for (std::uint32_t t = 0; t < w_; ++t) {
      const published& p = pub_[t];
      h = mix(h, p.next_i);
      h = mix(h, p.consec);
      h = mix(h, p.max_consec);
      h = mix(h, p.claimed_mask);
      h = mix(h, p.done ? 1 : 0);
    }
    return h;
  }

 private:
  std::uint32_t w_;
  std::uint64_t r_;
  std::uint64_t lg_r_;
  std::string name_;
  std::unique_ptr<state> st_;
  published pub_[kMaxModelThreads];
};

}  // namespace

std::unique_ptr<model> make_claim_model(std::uint32_t workers,
                                        std::uint64_t partitions) {
  if (workers == 0 || workers > kMaxModelThreads ||
      (partitions & (partitions - 1)) != 0 || partitions == 0 ||
      partitions > 63 || workers > partitions) {
    fail_now("claim model: need 1<=workers<=8, partitions a power of two, "
             "workers <= partitions <= 63");
  }
  return std::make_unique<claim_model>(workers, partitions);
}

}  // namespace hls::verify

// Model-checking Theorem 3 and Lemma 4: every partition is claimed exactly
// once and no worker sees more than lg R consecutive failures under EVERY
// interleaving of the claim protocol.
//
// Earlier revisions duplicated the claim loop as a hand-stepped state
// machine and DFS'd over it, which proved properties of the *copy*. The
// models here (src/verify/models/claim_model.cpp) instead run the real
// core::run_claim_loop template over the real claim flags
// (core::claim_bitmap_core instantiated with verify_traits) under the
// verify scheduler, so the exhaustive exploration covers the shipping
// code itself — including interleavings where one worker finishes before
// another starts (the arrival staggering the old model enumerated
// explicitly) and the exit-on-first-failure path (the protocol's "revert
// to ordinary stealing" arm). The model's observe callback replays the
// index-advance rules attempt by attempt and fails on any divergence from
// the loop's own claim_stats, which subsumes the old ModelFidelity test.
//
// Exhaustive for small (P, R); seeded random walks validate larger sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "verify/models/models.h"
#include "verify/sched.h"

namespace hls::verify {
namespace {

struct size_case {
  std::uint32_t workers;
  std::uint64_t partitions;
  int preemption_bound;  // -1 = unbounded (truly every interleaving)
};

class ExhaustiveInterleavings : public ::testing::TestWithParam<size_case> {};

TEST_P(ExhaustiveInterleavings, TheoremThreeAndLemmaFourHold) {
  const auto [w, r, bound] = GetParam();
  auto m = make_claim_model(w, r);
  options opt;
  opt.mode = options::run_mode::exhaustive;
  opt.preemption_bound = bound;
  const auto res = explore(*m, opt);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_TRUE(res.exhausted) << "exploration stopped before exhausting the "
                                "bounded space";
  RecordProperty("executions", std::to_string(res.executions));
  RecordProperty("states_explored", std::to_string(res.states_explored));
}

INSTANTIATE_TEST_SUITE_P(
    SmallSizes, ExhaustiveInterleavings,
    ::testing::Values(size_case{1, 1, -1}, size_case{2, 2, -1},
                      size_case{3, 4, -1}, size_case{2, 8, -1},
                      size_case{4, 4, 2}, size_case{4, 8, 2}),
    [](const auto& info) {
      // Appended, not chained operator+: GCC 12 raises a false
      // -Werror=restrict on the inlined operator+ in Release builds.
      std::string name = "P";
      name += std::to_string(info.param.workers);
      name += "_R";
      name += std::to_string(info.param.partitions);
      if (info.param.preemption_bound < 0) {
        name += "_full";
      } else {
        name += "_b";
        name += std::to_string(info.param.preemption_bound);
      }
      return name;
    });

class RandomInterleavings
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint64_t>> {
};

TEST_P(RandomInterleavings, TheoremThreeHoldsOnRandomSchedules) {
  const auto [w, r] = GetParam();
  auto m = make_claim_model(w, r);
  options opt;
  opt.mode = options::run_mode::random;
  opt.iterations = 3000;
  opt.seed = w * 1337 + r;
  const auto res = explore(*m, opt);
  EXPECT_TRUE(res.ok) << res.failure;
  EXPECT_EQ(res.executions, opt.iterations);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RandomInterleavings,
    ::testing::Values(std::pair<std::uint32_t, std::uint64_t>{5, 8},
                      std::pair<std::uint32_t, std::uint64_t>{6, 8},
                      std::pair<std::uint32_t, std::uint64_t>{8, 8},
                      std::pair<std::uint32_t, std::uint64_t>{4, 16},
                      std::pair<std::uint32_t, std::uint64_t>{8, 32}),
    [](const auto& info) {
      std::string name = "P";
      name += std::to_string(info.param.first);
      name += "_R";
      name += std::to_string(info.param.second);
      return name;
    });

}  // namespace
}  // namespace hls::verify

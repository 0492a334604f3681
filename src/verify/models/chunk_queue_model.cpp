// Verification model for the central queue of dynamic_shared and guided
// (core/chunk_queue_core.h, instantiated with verify_traits): two takers
// drain a guided queue and then a fixed-chunk queue with the REAL take(),
// while a third thread stops each queue with the REAL take_rest(), as a
// cancelled loop's queue_record does.
//
// The guided queue hands out [3, 11) at P = 2, so its chunks shrink from
// 2 to 1 and a take's read and its fetch_add leave a window for the other
// taker and the stop. The fixed queue ends at INT64_MAX with a chunk of
// INT64_MAX, the largest sizes parallel_for accepts. Checked:
//   * exactly-once: every iteration of both queues handed out exactly
//     once across takes and the stop's rest, in every interleaving;
//   * every chunk is non-empty and inside [begin, end);
//   * no guided chunk is larger than the first, max(min_chunk, N / 2P).
//
// The broken variant selects chunk_queue_policy_nonatomic: a take stores
// the cursor it read, advanced, in place of the fetch_add. Two takers
// that read the same cursor both hand out the chunk at it — an iteration
// handed out twice, caught at preemption bound <= 3.
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "core/chunk_queue_core.h"
#include "verify/models/models.h"
#include "verify/shim.h"

namespace hls::verify {
namespace {

constexpr std::uint32_t kTakers = 2;

// Guided: N = 8, P = 2, so chunks of max(1, rest / 4): 2, 1, 1, ...
constexpr std::int64_t kGuidedBegin = 3;
constexpr std::int64_t kGuidedEnd = 11;
constexpr std::int64_t kGuidedFirst = (kGuidedEnd - kGuidedBegin) / 4;

// Fixed: the last 3 iterations below INT64_MAX, one chunk of INT64_MAX.
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kFixedBegin = kMax - 3;
constexpr std::int64_t kFixedEnd = kMax;

template <typename Policy>
class chunk_queue_model_t final : public model {
  using queue_t = core::chunk_queue_core<verify_traits, Policy>;

  // One queue and how often each of its iterations was handed out (plain
  // bookkeeping: cooperatively scheduled, so no real race).
  struct tracked {
    const char* name;
    std::int64_t begin;
    std::int64_t end;
    queue_t queue;
    std::uint32_t handed[8] = {};

    tracked(const char* nm, std::int64_t b, std::int64_t e,
            std::int64_t chunk)
        : name(nm), begin(b), end(e), queue(b, e, chunk, 1, kTakers) {}

    void hand_out(core::iter_range rg) {
      check(rg.begin >= begin && rg.end <= end && rg.begin < rg.end,
            "chunk outside [begin, end)");
      for (std::int64_t i = rg.begin; i < rg.end; ++i) ++handed[i - begin];
    }
  };

  struct state {
    tracked guided{"guided", kGuidedBegin, kGuidedEnd, 0};
    tracked fixed{"fixed", kFixedBegin, kFixedEnd, kMax};
  };

 public:
  explicit chunk_queue_model_t(const char* name) : name_(name) {}

  const char* name() const override { return name_; }
  int threads() const override { return kTakers + 1; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == static_cast<int>(kTakers)) {
      // The stop: what is left of each queue, in one exchange.
      for (tracked* q : {&s.guided, &s.fixed}) {
        const core::iter_range rest = q->queue.take_rest();
        if (!rest.empty()) q->hand_out(rest);
      }
      return;
    }
    for (tracked* q : {&s.guided, &s.fixed}) {
      for (core::iter_range rg = q->queue.take(); !rg.empty();
           rg = q->queue.take()) {
        if (q == &s.guided) {
          check(rg.size() <= kGuidedFirst,
                "a guided chunk is larger than the first");
        }
        q->hand_out(rg);
      }
    }
  }

  void check_final() override {
    for (const tracked* q : {&st_->guided, &st_->fixed}) {
      for (std::int64_t i = 0; i < q->end - q->begin; ++i) {
        const std::uint32_t n = q->handed[i];
        if (n != 1) {
          fail_now(std::string("exactly-once violated: ") + q->name +
                   " iteration begin + " + std::to_string(i) +
                   " handed out " + std::to_string(n) + " times");
        }
      }
    }
  }

 private:
  const char* name_;
  std::unique_ptr<state> st_;
};

}  // namespace

std::unique_ptr<model> make_chunk_queue_model(bool broken_nonatomic) {
  if (broken_nonatomic) {
    return std::make_unique<
        chunk_queue_model_t<core::chunk_queue_policy_nonatomic>>(
        "chunk-queue-broken-nonatomic");
  }
  return std::make_unique<
      chunk_queue_model_t<core::chunk_queue_policy_default>>("chunk-queue");
}

}  // namespace hls::verify

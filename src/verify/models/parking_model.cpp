// Verification model for the parking lot (runtime/parking_core.h): one
// producer publishes an item and unparks; one consumer runs the idle
// protocol the runtime's workers use:
//
//   if (work visible) consume;            // pre-check, no announcement
//   ticket = prepare_park(w);             // announce (seq_cst handshake)
//   if (work visible) { cancel_park(w); } // re-check AFTER announcing
//   else park(w, ticket, backstop);
//
// Checked: the consumer always terminates with the item consumed — no
// lost wakeup in any interleaving, and no park() ever resolves to a
// timeout (under the harness condvar waits are untimed, so a protocol
// that silently leans on the backstop deadlocks instead; see
// verify/shim.h). The broken variant skips the re-check between
// prepare_park and park. Then the interleaving where the producer's
// publish + unpark_one both land between the consumer's pre-check and its
// prepare_park loses the wake — unpark_one scans before any waiter is
// announced, finds none, and nothing ever wakes the parked consumer. The
// harness reports it as a deadlock with the losing interleaving.
#include <chrono>
#include <cstdint>
#include <memory>

#include "runtime/parking_core.h"
#include "verify/models/models.h"
#include "verify/shim.h"

namespace hls::verify {
namespace {

class parking_model final : public model {
  using lot_t = rt::parking_lot_core<verify_traits>;

  struct state {
    lot_t lot{1};
    hls::verify::atomic<std::uint32_t> items{0};
    std::uint32_t taken = 0;  // consumer-local progress, visible to checks
    bool consumer_done = false;
  };

 public:
  explicit parking_model(bool skip_recheck) : skip_recheck_(skip_recheck) {}

  const char* name() const override {
    return skip_recheck_ ? "parking-broken-norecheck" : "parking";
  }
  int threads() const override { return 2; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == 1) {
      // Producer: publish the item, then the tracked wake edge.
      s.items.fetch_add(1, std::memory_order_seq_cst);
      s.lot.unpark_one();
      return;
    }

    // Consumer (slot 0).
    while (s.taken < 1) {
      if (s.items.load(std::memory_order_seq_cst) > s.taken) {
        ++s.taken;
        continue;
      }
      const std::uint32_t ticket = s.lot.prepare_park(0);
      if (!skip_recheck_ &&
          s.items.load(std::memory_order_seq_cst) > s.taken) {
        s.lot.cancel_park(0);
        continue;
      }
      const auto res = s.lot.park(0, ticket, std::chrono::milliseconds(1));
      check(res.reason != lot_t::wake_reason::timeout,
            "park resolved to a backstop timeout under the harness (a wake "
            "edge is missing)");
    }
    s.consumer_done = true;
  }

  void check_final() override {
    check(st_->consumer_done, "consumer did not finish");
    check(st_->taken == 1, "item not consumed exactly once");
    check(st_->lot.waiters() == 0, "waiter count leaked");
  }

 private:
  bool skip_recheck_;
  std::unique_ptr<state> st_;
};

// Verification model for the join edge of work_until: a joiner (the
// poster waiting on its loop's finished()) parked with no work visible is
// woken by one path alone, the retire broadcast. A team member publishes
// the loop's last range and races the joiner for it; whoever runs it
// retires the loop: the done edge, then unpark_all (loop_ctx::retire's
// notify_all). The publish sends no wake the joiner can rely on. The
// joiner runs idle_park's protocol: take visible work, otherwise announce
// (prepare_park) and re-check `work visible || done` before parking. A
// retire before the announcement is seen by the re-check; one after it
// finds the waiter. Under the harness's untimed condvars a join that
// leans on the backstop timeout deadlocks. The broken variant omits the
// broadcast: the interleaving where the member claims the range, the
// joiner parks, and the member then retires leaves the joiner asleep past
// completion, reported as a deadlock.
class join_model final : public model {
  using lot_t = rt::parking_lot_core<verify_traits>;

  struct state {
    lot_t lot{1};
    hls::verify::atomic<std::uint32_t> published{0};
    hls::verify::atomic<std::uint32_t> claimed{0};
    hls::verify::atomic<std::uint32_t> done{0};
    std::uint32_t runs = 0;
    bool joiner_done = false;
  };

 public:
  explicit join_model(bool no_broadcast) : no_broadcast_(no_broadcast) {}

  const char* name() const override {
    return no_broadcast_ ? "parking-join-broken-nobroadcast" : "parking-join";
  }
  int threads() const override { return 2; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == 1) {
      // The team member holding the last range.
      s.published.store(1, std::memory_order_seq_cst);
      if (take(s)) retire(s);
      return;
    }

    // Joiner (slot 0): work_until(finished) over the idle path.
    while (s.done.load(std::memory_order_seq_cst) == 0) {
      if (take(s)) {
        retire(s);
        continue;
      }
      const std::uint32_t ticket = s.lot.prepare_park(0);
      // idle_park's re-check: visible work or the completion predicate.
      if (visible(s) || s.done.load(std::memory_order_seq_cst) != 0) {
        s.lot.cancel_park(0);
        continue;
      }
      const auto res = s.lot.park(0, ticket, std::chrono::milliseconds(1));
      check(res.reason != lot_t::wake_reason::timeout,
            "join park resolved to a backstop timeout under the harness (the "
            "completion broadcast is missing)");
    }
    s.joiner_done = true;
  }

  void check_final() override {
    check(st_->joiner_done, "joiner did not finish");
    check(st_->runs == 1, "last range not run exactly once");
    check(st_->lot.waiters() == 0, "waiter count leaked");
  }

 private:
  static bool visible(state& s) {
    return s.published.load(std::memory_order_seq_cst) != 0 &&
           s.claimed.load(std::memory_order_seq_cst) == 0;
  }

  static bool take(state& s) {
    std::uint32_t expect = 0;
    if (s.published.load(std::memory_order_seq_cst) == 0 ||
        !s.claimed.compare_exchange_strong(expect, 1,
                                           std::memory_order_seq_cst)) {
      return false;
    }
    ++s.runs;
    return true;
  }

  void retire(state& s) const {
    s.done.store(1, std::memory_order_seq_cst);
    if (!no_broadcast_) s.lot.unpark_all();
  }

  bool no_broadcast_;
  std::unique_ptr<state> st_;
};

// Fan-out case of the parking model (parking_lot_core::unpark_n): a poster
// on slot 0 that never parks, and two team members on slots 1 and 2 that
// idle through the runtime's prepare/re-check/park protocol. The poster
// posts two loops back to back:
//
//   loop 1: one chunk, with unpark_n(1). The poster participates too, so
//           it may run the chunk itself and leave its wake with nothing to
//           do — still pending if the woken member has not run yet.
//   loop 2: one block per member, with a single unpark_n(2). A block runs
//           only on its owner, so BOTH members must arrive from that call.
//
// Checked: the chunk runs exactly once, both blocks run (a member that
// sleeps through its block is a deadlock under the harness's untimed
// waits), no park resolves to a backstop timeout, the waiter count ends at
// zero, and every wake unpark_n reports as delivered is received by a
// waiter — in park() or in a cancel_park() that consumed it. A wake that
// is reported sent but that no waiter receives is a lost wakeup, and it
// is what wakes_sent would overcount. Each unpark_n call carries its own
// hint (its index), and every received wake must bring its own call's
// hint: a wake with another call's hint is one the runtime's
// handoffs_consumed would credit to the wrong span.
//
// The broken variant (parking_policy_merge_pending) lets unpark_n re-bump
// a slot whose wake is still pending. In the interleaving where loop 1's
// wake lands on member 1 and member 1 has not run before loop 2 posts,
// loop 2's scan re-bumps slot 1 and counts it: three wakes are reported,
// but member 1 receives its two as one signal.
template <typename Policy>
class fanout_model final : public model {
  using lot_t = rt::parking_lot_core<verify_traits, Policy>;

  struct state {
    lot_t lot{3};
    hls::verify::atomic<std::uint32_t> chunk{0};    // loop 1 posted
    hls::verify::atomic<std::uint32_t> claimed{0};  // loop 1 chunk taken
    hls::verify::atomic<std::uint32_t> blocks{0};   // loop 2 posted
    hls::verify::atomic<std::uint32_t> blocks_run{0};
    std::uint32_t chunk_runs = 0;
    std::uint32_t sent[2] = {0, 0};      // per unpark_n call: wakes delivered
    std::uint32_t received[2] = {0, 0};  // per member: wakes consumed
    std::uint32_t hinted[2] = {0, 0};    // per call: wakes with its hint
    bool member_done[2] = {false, false};
  };

 public:
  const char* name() const override {
    return Policy::skip_pending ? "parking-fanout"
                                : "parking-fanout-broken-merge";
  }
  int threads() const override { return 3; }

  void setup() override { st_ = std::make_unique<state>(); }

  void run(int t) override {
    state& s = *st_;
    if (t == 0) {
      poster(s);
      return;
    }
    member(s, static_cast<std::uint32_t>(t));
  }

  void check_final() override {
    const state& s = *st_;
    check(s.member_done[0] && s.member_done[1], "a team member did not finish");
    check(s.chunk_runs == 1, "loop 1 chunk not run exactly once");
    check(s.blocks_run.raw() == 2, "a loop 2 block did not run");
    check(s.sent[0] + s.sent[1] == s.received[0] + s.received[1],
          "lost wakeup: unpark_n reported a wake that no waiter received (two "
          "wakes merged into one signal)");
    check(s.hinted[0] == s.sent[0] && s.hinted[1] == s.sent[1],
          "a received wake carried another unpark_n call's hint (a handoff "
          "credited to the wrong span)");
    check(s.lot.waiters() == 0, "waiter count leaked");
  }

 private:
  static void take_chunk(state& s) {
    std::uint32_t expect = 0;
    if (s.chunk.load(std::memory_order_seq_cst) != 0 &&
        s.claimed.compare_exchange_strong(expect, 1,
                                          std::memory_order_seq_cst)) {
      ++s.chunk_runs;
    }
  }

  static void poster(state& s) {
    s.chunk.store(1, std::memory_order_seq_cst);
    s.sent[0] = s.lot.unpark_n(1, 0);
    take_chunk(s);
    s.blocks.store(1, std::memory_order_seq_cst);
    s.sent[1] = s.lot.unpark_n(2, 1);
  }

  // One consumed wake, filed under the hint it brought.
  static void receive(state& s, std::uint32_t slot, std::uint32_t hint) {
    ++s.received[slot - 1];
    if (hint < 2) ++s.hinted[hint];
  }

  void member(state& s, std::uint32_t slot) {
    const auto work_visible = [&] {
      return s.blocks.load(std::memory_order_seq_cst) != 0 ||
             (s.chunk.load(std::memory_order_seq_cst) != 0 &&
              s.claimed.load(std::memory_order_seq_cst) == 0);
    };
    for (;;) {
      take_chunk(s);
      if (s.blocks.load(std::memory_order_seq_cst) != 0) break;
      const std::uint32_t ticket = s.lot.prepare_park(slot);
      if (work_visible()) {
        std::uint32_t hint = lot_t::kNoHint;
        if (s.lot.cancel_park(slot, &hint)) receive(s, slot, hint);
        continue;
      }
      const auto res = s.lot.park(slot, ticket, std::chrono::milliseconds(1));
      check(res.reason != lot_t::wake_reason::timeout,
            "park resolved to a backstop timeout under the harness (a wake "
            "edge is missing)");
      if (res.reason == lot_t::wake_reason::notified) {
        receive(s, slot, res.hint);
      }
    }
    s.blocks_run.fetch_add(1, std::memory_order_seq_cst);
    s.member_done[slot - 1] = true;
  }

  std::unique_ptr<state> st_;
};

}  // namespace

std::unique_ptr<model> make_parking_fanout_model(bool broken_merge_pending) {
  if (broken_merge_pending) {
    return std::make_unique<fanout_model<rt::parking_policy_merge_pending>>();
  }
  return std::make_unique<fanout_model<rt::parking_policy_default>>();
}

std::unique_ptr<model> make_parking_model(bool broken_skip_recheck) {
  return std::make_unique<parking_model>(broken_skip_recheck);
}

std::unique_ptr<model> make_join_model(bool broken_no_broadcast) {
  return std::make_unique<join_model>(broken_no_broadcast);
}

}  // namespace hls::verify

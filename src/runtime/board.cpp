#include "runtime/board.h"

#include "runtime/worker.h"

namespace hls::rt {

int board::post(loop_record* rec) {
  std::lock_guard<std::mutex> lk(mu_);
  for (int s = 0; s < kSlots; ++s) {
    if (!slots_[s].occupied) {
      slots_[s].occupied = true;
      // release publishes the record's fields to visitors' confirming
      // ptr re-read (for_each_open).
      slots_[s].ptr.store(rec, std::memory_order_release);
      // Posts serialize on mu_, so a plain increment suffices.
      posts_.store(posts_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
      return s;
    }
  }
  return -1;  // full: the caller runs the loop without board arrival
}

void board::clear(int s) {
  if (s < 0) return;
  // Unpublish, then wait out visitors that entered the gate before it; a
  // finished record's participate() returns promptly, so this is brief.
  // Their record use happens-before this return, after which the poster
  // frees the record.
  slot& sl = slots_[s];
  sl.gate.retract(sl.ptr, nullptr);
  std::lock_guard<std::mutex> lk(mu_);
  sl.occupied = false;
}

template <typename Fn>
void board::for_each_open(Fn&& fn) {
  // Innermost-first: later posts land in higher free slots in the common
  // nesting pattern, so scan from the top.
  for (int s = kSlots - 1; s >= 0; --s) {
    slot& sl = slots_[s];
    if (sl.ptr.load(std::memory_order_relaxed) == nullptr) continue;
    // The gate re-reads the pointer after announcing this visitor: either
    // it is still published, or clear() already retracted it (and waits
    // for this visitor's leave before the record may be freed).
    loop_record* rec = sl.gate.enter(sl.ptr);
    if (rec != nullptr && !rec->finished()) fn(*rec);
    sl.gate.leave();
  }
}

bool board::visit(worker& w) {
  bool worked = false;
  for_each_open([&](loop_record& rec) {
    telemetry::bump(w.tel().counters.loop_entries);
    worked = rec.participate(w) || worked;
  });
  return worked;
}

void board::request_rescue() noexcept {
  for_each_open([](loop_record& rec) { rec.request_rescue(); });
}

bool board::any_open() const noexcept {
  for (int s = 0; s < kSlots; ++s) {
    if (slots_[s].ptr.load(std::memory_order_acquire) != nullptr) return true;
  }
  return false;
}

}  // namespace hls::rt

#include "runtime/board.h"

#include <thread>

#include "runtime/worker.h"

namespace hls::rt {

int board::post(loop_record* rec) {
  std::lock_guard<std::mutex> lk(mu_);
  for (int s = 0; s < kSlots; ++s) {
    if (!slots_[s].occupied) {
      slots_[s].occupied = true;
      // release publishes the record's fields to visitors' confirming
      // ptr re-read (visit()/request_rescue()).
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
  // seq_cst unpublish forms the Dekker pair with visitors' seq_cst
  // readers announce: every visitor either sees the nullptr or is seen
  // by the drain below.  // ordlint: seq_cst because Dekker store-then-read-other (pairs with readers.fetch_add in visit/request_rescue)
  slots_[s].ptr.store(nullptr, std::memory_order_seq_cst);
  // Wait out visitors that announced themselves before the unpublish; a
  // finished record's participate() returns promptly, so this is brief.
  // acquire pairs with visitors' release fetch_sub: their record use
  // happens-before this return, after which the poster frees the record.
  while (slots_[s].readers.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  std::lock_guard<std::mutex> lk(mu_);
  slots_[s].occupied = false;
}

bool board::visit(worker& w) {
  bool worked = false;
  // Innermost-first: later posts land in higher free slots in the common
  // nesting pattern, so scan from the top.
  for (int s = kSlots - 1; s >= 0; --s) {
    slot& sl = slots_[s];
    if (sl.ptr.load(std::memory_order_relaxed) == nullptr) continue;
    // seq_cst announce: Dekker pair with clear()'s seq_cst unpublish.
    // ordlint: seq_cst because Dekker store-then-read-other (pairs with clear()'s ptr unpublish)
    sl.readers.fetch_add(1, std::memory_order_seq_cst);
    // Re-read under the reader mark: either this sees the pointer still
    // published, or clear() already unpublished it (and is now waiting for
    // the reader count to drain).
    // ordlint: seq_cst because the confirming read of the Dekker pair must not hoist above the announce
    loop_record* rec = sl.ptr.load(std::memory_order_seq_cst);
    if (rec != nullptr && !rec->finished()) {
      telemetry::bump(w.tel().counters.loop_entries);
      worked = rec->participate(w) || worked;
      telemetry::bump(w.tel().counters.loop_leaves);
    }
    // release retire pairs with clear()'s acquire drain load.
    sl.readers.fetch_sub(1, std::memory_order_release);
  }
  return worked;
}

void board::request_rescue() noexcept {
  for (int s = kSlots - 1; s >= 0; --s) {
    slot& sl = slots_[s];
    if (sl.ptr.load(std::memory_order_relaxed) == nullptr) continue;
    // ordlint: seq_cst because Dekker store-then-read-other (pairs with clear()'s ptr unpublish)
    sl.readers.fetch_add(1, std::memory_order_seq_cst);
    // Same Dekker re-read as visit(): either the record is still
    // published here, or clear() unpublished it and now waits for the
    // reader count to drain before the record may be freed.
    // ordlint: seq_cst because the confirming read of the Dekker pair must not hoist above the announce
    loop_record* rec = sl.ptr.load(std::memory_order_seq_cst);
    if (rec != nullptr && !rec->finished()) rec->request_rescue();
    // release retire pairs with clear()'s acquire drain load.
    sl.readers.fetch_sub(1, std::memory_order_release);
  }
}

bool board::any_open() const noexcept {
  for (int s = 0; s < kSlots; ++s) {
    if (slots_[s].ptr.load(std::memory_order_acquire) != nullptr) return true;
  }
  return false;
}

}  // namespace hls::rt

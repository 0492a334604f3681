// The model-checking engine behind verify/sched.h. See that header for the
// exploration semantics; this file is the mechanics:
//
//   * fibers — each model thread runs on its own reused 256 KiB stack.
//     ucontext bootstraps a fresh stack (once per thread per execution);
//     every later switch is setjmp/longjmp, which on glibc skips the
//     sigprocmask syscall and costs tens of nanoseconds. Abandoning an
//     execution (prune, failure, step budget) simply stops dispatching:
//     suspended frames are dropped with their destructors unrun, which is
//     fine because models keep ownership in member state that the next
//     setup() replaces.
//   * the per-execution op loop — every shim operation parks its fiber at
//     an op point; the loop computes the enabled set, charges/filters by
//     the preemption budget, consults the DFS stack (or RNG, or the replay
//     schedule) for the pick, and dispatches exactly one pending op.
//   * state tables — atomics, plain vars, mutexes and condvars register on
//     construction; ids are monotone for the whole exploration so an op
//     arriving through a stale object (previous execution's state being
//     destroyed during setup) resolves to nothing instead of aliasing.
#include "verify/sched.h"

#include <setjmp.h>
#include <ucontext.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <unordered_set>

#include "verify/vclock.h"

namespace hls::verify {

namespace {

constexpr std::uint64_t kInvalidId = ~std::uint64_t{0};
constexpr std::size_t kFiberStackBytes = 256 * 1024;

enum class opk : std::uint8_t {
  start,
  load,
  store,
  rmw,
  cas,
  cas_ok,
  cas_fail,
  var_read,
  var_write,
  fence,
  pause,
  mlock,
  mtry,
  munlock,
  cwait,
  cnotify,
  finish,
};

const char* opk_name(opk k) {
  switch (k) {
    case opk::start: return "start";
    case opk::load: return "load";
    case opk::store: return "store";
    case opk::rmw: return "rmw";
    case opk::cas: return "cas";
    case opk::cas_ok: return "cas-ok";
    case opk::cas_fail: return "cas-fail";
    case opk::var_read: return "read";
    case opk::var_write: return "write";
    case opk::fence: return "fence";
    case opk::pause: return "pause";
    case opk::mlock: return "lock";
    case opk::mtry: return "try-lock";
    case opk::munlock: return "unlock";
    case opk::cwait: return "wait";
    case opk::cnotify: return "notify";
    case opk::finish: return "finish";
  }
  return "?";
}

const char* mo_name(std::uint8_t mo) {
  switch (static_cast<std::memory_order>(mo)) {
    case std::memory_order_relaxed: return "rlx";
    case std::memory_order_consume: return "cns";
    case std::memory_order_acquire: return "acq";
    case std::memory_order_release: return "rel";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "sc";
  }
  return "?";
}

struct step_rec {
  std::int8_t tid;  // kMainClock for setup/check_final context
  opk kind;
  std::uint8_t mo;
  char cat;  // 'a'tomic / 'v'ar / 'm'utex / 'c'ondvar / 0 (fence, pause)
  std::uint32_t idx;
  std::uint64_t value;
  bool has_value;
};

struct pending_op {
  opk kind = opk::start;
  char cat = 0;
  std::uint32_t idx = 0;
  std::uint8_t mo = 0;
};

enum class tstate : std::uint8_t {
  unstarted,
  ready,
  blocked_mutex,
  blocked_cond,
  blocked_pause,
  finished,
};

struct thread_rec {
  tstate state = tstate::unstarted;
  pending_op pending;
  std::uint32_t wait_mutex = 0;
  std::uint32_t wait_cond = 0;
  std::uint64_t pause_snap = 0;
  // Global mutation count as of this thread's previous executed op. pause
  // blocks relative to THIS snapshot, not the count at the pause call:
  // the spin condition was evaluated by the previous op (the load that
  // read the stale value), and a mutation landing between that load and
  // the pause must still count as a wake — otherwise the spinner sleeps
  // through a condition that already turned true.
  std::uint64_t mut_at_last_op = 0;
};

struct fiber_rec {
  ucontext_t uc;
  jmp_buf jb;
  std::unique_ptr<char[]> stack;
};

struct mutex_rec {
  std::int8_t holder = -1;  // -1 free; else thread index or kMainClock
  vclock clk;
};

struct dfs_frame {
  std::vector<std::int8_t> opts;
  std::size_t chosen = 0;
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

class engine;
engine* g_engine = nullptr;

extern "C" void hls_verify_fiber_entry(unsigned tid);

class engine {
 public:
  engine(model& m, const options& opt) : model_(m), opt_(opt), rng_(opt.seed) {}

  result run();

  model& model_ref() { return model_; }
  void fiber_finished(int t);

  // ---- shim hooks ----
  std::uint64_t reg(char cat);
  void h_load(std::uint64_t id, std::memory_order mo);
  void h_store(std::uint64_t id, std::memory_order mo);
  void h_rmw(std::uint64_t id, std::memory_order mo);
  void h_cas_point(std::uint64_t id);
  void h_cas_resolve(std::uint64_t id, bool ok, std::memory_order mo_ok,
                     std::memory_order mo_fail);
  void h_var_read(std::uint64_t id);
  void h_var_write(std::uint64_t id);
  void h_fence(std::memory_order mo);
  void h_pause();
  void h_mutex_lock(std::uint64_t id);
  bool h_mutex_try_lock(std::uint64_t id);
  void h_mutex_unlock(std::uint64_t id);
  void h_cond_wait(std::uint64_t cid, std::uint64_t mid);
  void h_cond_notify(std::uint64_t cid, bool all);
  void h_note_value(std::uint64_t v);

  // Records msg as the execution's failure and longjmps out of it. The
  // jump skips the destructors of every frame in between, so callers pass
  // the message by move; a copy left behind in one of them would leak.
  [[noreturn]] void fail(std::string msg);

 private:
  enum class outcome : std::uint8_t { done, pruned, failed };

  outcome run_one();
  bool advance_dfs();
  void finalize_failure();

  int cur_clock() const { return current_ >= 0 ? current_ : kMainClock; }

  bool resolve(std::uint64_t id, std::uint64_t base, std::size_t size,
               std::uint32_t* idx) const {
    if (id == kInvalidId || id < base) return false;
    const std::uint64_t off = id - base;
    if (off >= size) return false;
    *idx = static_cast<std::uint32_t>(off);
    return true;
  }

  bool enabled(int t) const {
    const thread_rec& tr = threads_[t];
    switch (tr.state) {
      case tstate::unstarted:
      case tstate::ready:
        return true;
      case tstate::blocked_mutex:
        return mutexes_[tr.wait_mutex].holder == -1;
      case tstate::blocked_cond:
        return false;  // woken by notify (flips to blocked_mutex)
      case tstate::blocked_pause:
        return mutations_ != tr.pause_snap;
      case tstate::finished:
        return false;
    }
    return false;
  }

  bool all_finished() const {
    for (int t = 0; t < n_; ++t) {
      if (threads_[t].state != tstate::finished) return false;
    }
    return true;
  }

  // Scheduling decision: returns the picked thread, or -1 after recording
  // a failure (replay divergence / determinism violation).
  int pick(const std::int8_t* opts, int n);

  std::uint64_t state_key(std::uint64_t opts_mask) const;

  void dispatch(int t);

  // Fiber side: park at the op point described by `p`; returns when this
  // thread is next dispatched. No-op from the main context.
  void op_point(opk k, char cat, std::uint32_t idx, std::uint8_t mo);
  void yield_fiber();
  void push_step(opk k, char cat, std::uint32_t idx, std::uint8_t mo);
  void deadlock_failure();
  std::string describe_thread(int t) const;
  std::vector<std::string> format_trace() const;

  model& model_;
  options opt_;
  result res_;

  int n_ = 0;
  int current_ = -1;  // running fiber, or -1 for the main context
  thread_rec threads_[kMaxModelThreads];
  fiber_rec fib_[kMaxModelThreads];
  ucontext_t main_uc_;
  jmp_buf sched_jb_;
  jmp_buf escape_jb_;

  // Monotone registration counters (never reset) and this execution's
  // bases; see the header comment on stale-id resolution.
  std::uint64_t atomic_ctr_ = 0, var_ctr_ = 0, mutex_ctr_ = 0, cond_ctr_ = 0;
  std::uint64_t base_atomic_ = 0, base_var_ = 0, base_mutex_ = 0,
                base_cond_ = 0;
  std::vector<atomic_hb> atomics_;
  std::vector<var_hb> vars_;
  std::vector<mutex_rec> mutexes_;
  std::size_t conds_ = 0;

  hb_state hb_;
  std::uint64_t mutations_ = 0;  // bumped by every shared-state write

  std::vector<step_rec> trace_;
  bool last_step_open_ = false;
  std::vector<std::int8_t> cur_schedule_;
  std::uint64_t steps_exec_ = 0;
  int preempts_exec_ = 0;

  std::vector<dfs_frame> dfs_;
  std::size_t prefix_len_ = 0;
  std::size_t decisions_ = 0;
  std::unordered_set<std::uint64_t> visited_;

  std::mt19937_64 rng_;

  bool failed_ = false;
  bool in_exec_ = false;
  std::string failure_;
};

extern "C" void hls_verify_fiber_entry(unsigned tid) {
  engine* e = g_engine;
  e->model_ref().run(static_cast<int>(tid));
  e->fiber_finished(static_cast<int>(tid));
}

result engine::run() {
  assert(g_engine == nullptr && "one active exploration per OS thread");
  g_engine = this;

  n_ = model_.threads();
  if (n_ < 1 || n_ > kMaxModelThreads) {
    res_.ok = false;
    res_.failure = "model thread count out of range [1, 8]";
    g_engine = nullptr;
    return res_;
  }
  for (int t = 0; t < n_; ++t) {
    fib_[t].stack = std::make_unique<char[]>(kFiberStackBytes);
  }

  switch (opt_.mode) {
    case options::run_mode::exhaustive:
      for (;;) {
        const outcome o = run_one();
        ++res_.executions;
        if (o == outcome::failed) {
          finalize_failure();
          break;
        }
        if (opt_.max_executions != 0 &&
            res_.executions >= opt_.max_executions) {
          break;  // cap hit: res_.exhausted stays false
        }
        if (!advance_dfs()) {
          res_.exhausted = true;
          break;
        }
      }
      break;
    case options::run_mode::random:
      for (std::uint64_t i = 0; i < opt_.iterations; ++i) {
        const outcome o = run_one();
        ++res_.executions;
        if (o == outcome::failed) {
          finalize_failure();
          break;
        }
      }
      break;
    case options::run_mode::replay: {
      const outcome o = run_one();
      ++res_.executions;
      if (o == outcome::failed) {
        finalize_failure();
      } else if (opt_.trace_on_success) {
        res_.schedule = cur_schedule_;
        res_.trace = format_trace();
      }
      break;
    }
  }

  g_engine = nullptr;
  return res_;
}

engine::outcome engine::run_one() {
  atomics_.clear();
  vars_.clear();
  mutexes_.clear();
  conds_ = 0;
  base_atomic_ = atomic_ctr_;
  base_var_ = var_ctr_;
  base_mutex_ = mutex_ctr_;
  base_cond_ = cond_ctr_;
  hb_.reset();
  mutations_ = 0;
  trace_.clear();
  last_step_open_ = false;
  cur_schedule_.clear();
  steps_exec_ = 0;
  preempts_exec_ = 0;
  decisions_ = 0;
  prefix_len_ = dfs_.size();
  failed_ = false;
  failure_.clear();
  for (int t = 0; t < n_; ++t) threads_[t] = thread_rec{};
  current_ = -1;
  in_exec_ = true;

  if (setjmp(escape_jb_) != 0) {
    // fail() landed here (from a fiber or from setup/check_final).
    in_exec_ = false;
    return outcome::failed;
  }

  model_.setup();
  for (int t = 0; t < n_; ++t) hb_.on_thread_start(t, kMainClock);

  int prev = -1;
  while (!all_finished()) {
    std::int8_t en[kMaxModelThreads];
    int ne = 0;
    for (int t = 0; t < n_; ++t) {
      if (enabled(t)) en[ne++] = static_cast<std::int8_t>(t);
    }
    if (ne == 0) {
      deadlock_failure();
      in_exec_ = false;
      return outcome::failed;
    }

    // Preemption budget: switching away from a thread that could continue
    // costs one unit; once spent, a still-enabled previous thread is the
    // only option.
    const bool prev_enabled = prev >= 0 && enabled(prev);
    std::int8_t opts[kMaxModelThreads];
    int nopts = 0;
    if (opt_.preemption_bound >= 0 && prev_enabled &&
        preempts_exec_ >= opt_.preemption_bound) {
      opts[nopts++] = static_cast<std::int8_t>(prev);
    } else {
      if (prev_enabled) opts[nopts++] = static_cast<std::int8_t>(prev);
      for (int i = 0; i < ne; ++i) {
        if (en[i] != prev) opts[nopts++] = en[i];
      }
    }

    // Visited-state pruning: only in fresh territory (past the replayed
    // DFS prefix — pruning while replaying would cut off our own
    // backtracking), and only when the model vouches for its fingerprint.
    if (opt_.mode == options::run_mode::exhaustive && opt_.hash_states &&
        decisions_ >= prefix_len_) {
      const std::uint64_t fp = model_.fingerprint();
      if (fp != 0) {
        std::uint64_t opts_mask = 0;
        for (int i = 0; i < nopts; ++i) {
          opts_mask |= std::uint64_t{1} << opts[i];
        }
        if (!visited_.insert(state_key(opts_mask)).second) {
          in_exec_ = false;
          return outcome::pruned;
        }
        ++res_.states_explored;
      }
    }

    const int chosen = pick(opts, nopts);
    if (chosen < 0) {
      in_exec_ = false;
      return outcome::failed;
    }
    if (prev_enabled && chosen != prev) {
      ++preempts_exec_;
      ++res_.preemptions;
    }
    cur_schedule_.push_back(static_cast<std::int8_t>(chosen));
    ++steps_exec_;
    ++res_.steps;
    if (steps_exec_ > res_.max_depth) res_.max_depth = steps_exec_;
    if (steps_exec_ > opt_.max_steps) {
      failed_ = true;
      failure_ = "per-execution step budget exceeded (livelock?)";
      in_exec_ = false;
      return outcome::failed;
    }

    dispatch(chosen);
    prev = chosen;
  }

  for (int t = 0; t < n_; ++t) hb_.on_thread_join(kMainClock, t);
  model_.check_final();
  in_exec_ = false;
  return outcome::done;
}

int engine::pick(const std::int8_t* opts, int n) {
  if (opt_.mode == options::run_mode::replay) {
    const std::size_t step = cur_schedule_.size();
    if (step < opt_.schedule.size()) {
      const int want = opt_.schedule[step];
      for (int i = 0; i < n; ++i) {
        if (opts[i] == want) return want;
      }
      failed_ = true;
      failure_ = "replay schedule diverged: recorded thread t" +
                 std::to_string(want) + " is not schedulable at step " +
                 std::to_string(step);
      return -1;
    }
    return opts[0];
  }

  if (n == 1) return opts[0];

  if (opt_.mode == options::run_mode::random) {
    return opts[rng_() % static_cast<std::uint64_t>(n)];
  }

  // Exhaustive: replay the DFS prefix, then extend it.
  if (decisions_ < prefix_len_) {
    dfs_frame& f = dfs_[decisions_];
    ++decisions_;
    if (f.opts.size() != static_cast<std::size_t>(n) ||
        std::memcmp(f.opts.data(), opts, static_cast<std::size_t>(n)) != 0) {
      failed_ = true;
      failure_ =
          "internal error: nondeterministic model (DFS prefix replay saw a "
          "different choice set) — setup()/run() must be deterministic";
      return -1;
    }
    return f.opts[f.chosen];
  }
  dfs_frame f;
  f.opts.assign(opts, opts + n);
  dfs_.push_back(std::move(f));
  ++decisions_;
  return opts[0];
}

bool engine::advance_dfs() {
  while (!dfs_.empty()) {
    dfs_frame& f = dfs_.back();
    if (f.chosen + 1 < f.opts.size()) {
      ++f.chosen;
      return true;
    }
    dfs_.pop_back();
  }
  return false;
}

std::uint64_t engine::state_key(std::uint64_t opts_mask) const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, model_.fingerprint());
  // The schedulable set is behavior: two states identical in model
  // fingerprint but differing in which threads can run (e.g. a pause
  // spinner with vs without a wake already pending) must not alias.
  h = fnv1a(h, opts_mask);
  for (int t = 0; t < n_; ++t) {
    const thread_rec& tr = threads_[t];
    h = fnv1a(h, static_cast<std::uint64_t>(tr.state));
    h = fnv1a(h, static_cast<std::uint64_t>(tr.pending.kind));
    h = fnv1a(h, (static_cast<std::uint64_t>(tr.pending.cat) << 40) |
                     (static_cast<std::uint64_t>(tr.pending.idx) << 8) |
                     tr.pending.mo);
    if (tr.state == tstate::blocked_mutex || tr.state == tstate::blocked_cond) {
      h = fnv1a(h, (static_cast<std::uint64_t>(tr.wait_mutex) << 32) |
                       tr.wait_cond);
    }
  }
  if (opt_.preemption_bound >= 0) {
    h = fnv1a(h, static_cast<std::uint64_t>(preempts_exec_));
  }
  return h;
}

void engine::dispatch(int t) {
  current_ = t;
  thread_rec& tr = threads_[t];
  fiber_rec& f = fib_[t];
  if (setjmp(sched_jb_) == 0) {
    if (tr.state == tstate::unstarted) {
      tr.state = tstate::ready;
      getcontext(&f.uc);
      f.uc.uc_stack.ss_sp = f.stack.get();
      f.uc.uc_stack.ss_size = kFiberStackBytes;
      f.uc.uc_link = nullptr;
      makecontext(&f.uc, reinterpret_cast<void (*)()>(hls_verify_fiber_entry),
                  1, static_cast<unsigned>(t));
      swapcontext(&main_uc_, &f.uc);
    } else {
      tr.state = tstate::ready;
      longjmp(f.jb, 1);
    }
  }
  current_ = -1;
}

void engine::fiber_finished(int t) {
  threads_[t].state = tstate::finished;
  push_step(opk::finish, 0, 0, 0);
  longjmp(sched_jb_, 1);
}

void engine::yield_fiber() {
  fiber_rec& f = fib_[current_];
  if (setjmp(f.jb) == 0) longjmp(sched_jb_, 1);
}

void engine::op_point(opk k, char cat, std::uint32_t idx, std::uint8_t mo) {
  if (current_ < 0) return;  // setup/check_final: no scheduling
  thread_rec& tr = threads_[current_];
  tr.pending = pending_op{k, cat, idx, mo};
  yield_fiber();
}

void engine::push_step(opk k, char cat, std::uint32_t idx, std::uint8_t mo) {
  if (current_ >= 0) threads_[current_].mut_at_last_op = mutations_;
  step_rec r;
  r.tid = static_cast<std::int8_t>(cur_clock());
  r.kind = k;
  r.mo = mo;
  r.cat = cat;
  r.idx = idx;
  r.value = 0;
  r.has_value = false;
  trace_.push_back(r);
  last_step_open_ = true;
}

void engine::h_note_value(std::uint64_t v) {
  if (!last_step_open_ || trace_.empty()) return;
  trace_.back().value = v;
  trace_.back().has_value = true;
  last_step_open_ = false;
}

std::uint64_t engine::reg(char cat) {
  switch (cat) {
    case 'a':
      atomics_.emplace_back();
      return atomic_ctr_++;
    case 'v':
      vars_.emplace_back();
      return var_ctr_++;
    case 'm':
      mutexes_.emplace_back();
      return mutex_ctr_++;
    case 'c':
      ++conds_;
      return cond_ctr_++;
  }
  return kInvalidId;
}

void engine::h_load(std::uint64_t id, std::memory_order mo) {
  std::uint32_t idx;
  if (!resolve(id, base_atomic_, atomics_.size(), &idx)) return;
  op_point(opk::load, 'a', idx, static_cast<std::uint8_t>(mo));
  if (hb_state::weak_acquire_hint(atomics_[idx], mo)) {
    ++res_.weak_acquire_warnings;
  }
  hb_.on_load(cur_clock(), atomics_[idx], mo);
  push_step(opk::load, 'a', idx, static_cast<std::uint8_t>(mo));
}

void engine::h_store(std::uint64_t id, std::memory_order mo) {
  std::uint32_t idx;
  if (!resolve(id, base_atomic_, atomics_.size(), &idx)) return;
  op_point(opk::store, 'a', idx, static_cast<std::uint8_t>(mo));
  hb_.on_store(cur_clock(), atomics_[idx], mo);
  ++mutations_;
  push_step(opk::store, 'a', idx, static_cast<std::uint8_t>(mo));
}

void engine::h_rmw(std::uint64_t id, std::memory_order mo) {
  std::uint32_t idx;
  if (!resolve(id, base_atomic_, atomics_.size(), &idx)) return;
  op_point(opk::rmw, 'a', idx, static_cast<std::uint8_t>(mo));
  hb_.on_rmw(cur_clock(), atomics_[idx], mo);
  ++mutations_;
  push_step(opk::rmw, 'a', idx, static_cast<std::uint8_t>(mo));
}

void engine::h_cas_point(std::uint64_t id) {
  std::uint32_t idx;
  if (!resolve(id, base_atomic_, atomics_.size(), &idx)) return;
  op_point(opk::cas, 'a', idx, 0);
}

void engine::h_cas_resolve(std::uint64_t id, bool ok, std::memory_order mo_ok,
                           std::memory_order mo_fail) {
  std::uint32_t idx;
  if (!resolve(id, base_atomic_, atomics_.size(), &idx)) return;
  if (ok) {
    hb_.on_rmw(cur_clock(), atomics_[idx], mo_ok);
    ++mutations_;
    push_step(opk::cas_ok, 'a', idx, static_cast<std::uint8_t>(mo_ok));
  } else {
    hb_.on_load(cur_clock(), atomics_[idx], mo_fail);
    push_step(opk::cas_fail, 'a', idx, static_cast<std::uint8_t>(mo_fail));
  }
}

void engine::h_var_read(std::uint64_t id) {
  std::uint32_t idx;
  if (!resolve(id, base_var_, vars_.size(), &idx)) return;
  op_point(opk::var_read, 'v', idx, 0);
  const int conflict = hb_.on_var_read(cur_clock(), vars_[idx]);
  push_step(opk::var_read, 'v', idx, 0);
  if (conflict >= 0) {
    fail("data race: t" + std::to_string(cur_clock()) + " reads v" +
         std::to_string(idx) + " concurrently with a write by t" +
         std::to_string(conflict) +
         " (no happens-before edge from the declared orderings)");
  }
}

void engine::h_var_write(std::uint64_t id) {
  std::uint32_t idx;
  if (!resolve(id, base_var_, vars_.size(), &idx)) return;
  op_point(opk::var_write, 'v', idx, 0);
  const int conflict = hb_.on_var_write(cur_clock(), vars_[idx]);
  ++mutations_;
  push_step(opk::var_write, 'v', idx, 0);
  if (conflict >= 0) {
    fail("data race: t" + std::to_string(cur_clock()) + " writes v" +
         std::to_string(idx) + " concurrently with an access by t" +
         std::to_string(conflict) +
         " (no happens-before edge from the declared orderings)");
  }
}

void engine::h_fence(std::memory_order mo) {
  op_point(opk::fence, 0, 0, static_cast<std::uint8_t>(mo));
  hb_.on_fence(cur_clock(), mo);
  push_step(opk::fence, 0, 0, static_cast<std::uint8_t>(mo));
}

void engine::h_pause() {
  if (current_ < 0) return;  // spinning in setup would be a model bug
  op_point(opk::pause, 0, 0, 0);
  thread_rec& tr = threads_[current_];
  // Snapshot BEFORE push_step refreshes mut_at_last_op: the spin condition
  // was read by this thread's previous op, so any mutation since then is a
  // wake this pause must not sleep through.
  const std::uint64_t snap = tr.mut_at_last_op;
  push_step(opk::pause, 0, 0, 0);
  // Block until shared state changes relative to the snapshot:
  // re-evaluating the spin condition before then could only read the same
  // values.
  tr.pause_snap = snap;
  tr.state = tstate::blocked_pause;
  yield_fiber();
}

void engine::h_mutex_lock(std::uint64_t id) {
  std::uint32_t idx;
  if (!resolve(id, base_mutex_, mutexes_.size(), &idx)) return;
  if (current_ < 0) {
    // Main context: must be uncontended (no fiber is running).
    mutex_rec& m = mutexes_[idx];
    check(m.holder == -1, "main-context lock of a held mutex");
    m.holder = static_cast<std::int8_t>(kMainClock);
    hb_.on_mutex_acquire(kMainClock, m.clk);
    push_step(opk::mlock, 'm', idx, 0);
    return;
  }
  op_point(opk::mlock, 'm', idx, 0);
  thread_rec& tr = threads_[current_];
  while (mutexes_[idx].holder != -1) {
    tr.state = tstate::blocked_mutex;
    tr.wait_mutex = idx;
    yield_fiber();
  }
  mutexes_[idx].holder = static_cast<std::int8_t>(current_);
  hb_.on_mutex_acquire(current_, mutexes_[idx].clk);
  push_step(opk::mlock, 'm', idx, 0);
}

bool engine::h_mutex_try_lock(std::uint64_t id) {
  std::uint32_t idx;
  if (!resolve(id, base_mutex_, mutexes_.size(), &idx)) return true;
  op_point(opk::mtry, 'm', idx, 0);
  mutex_rec& m = mutexes_[idx];
  const bool ok = (m.holder == -1);
  if (ok) {
    m.holder = static_cast<std::int8_t>(cur_clock());
    hb_.on_mutex_acquire(cur_clock(), m.clk);
  }
  push_step(opk::mtry, 'm', idx, 0);
  h_note_value(ok ? 1 : 0);
  return ok;
}

void engine::h_mutex_unlock(std::uint64_t id) {
  std::uint32_t idx;
  if (!resolve(id, base_mutex_, mutexes_.size(), &idx)) return;
  op_point(opk::munlock, 'm', idx, 0);
  mutex_rec& m = mutexes_[idx];
  check(m.holder == static_cast<std::int8_t>(cur_clock()),
        "unlock of a mutex not held by this thread");
  hb_.on_mutex_release(cur_clock(), m.clk);
  m.holder = -1;
  ++mutations_;
  push_step(opk::munlock, 'm', idx, 0);
}

void engine::h_cond_wait(std::uint64_t cid, std::uint64_t mid) {
  std::uint32_t cidx, midx;
  if (!resolve(cid, base_cond_, conds_, &cidx)) return;
  if (!resolve(mid, base_mutex_, mutexes_.size(), &midx)) return;
  check(current_ >= 0, "condvar wait outside a model thread");
  op_point(opk::cwait, 'c', cidx, 0);

  mutex_rec& m = mutexes_[midx];
  check(m.holder == static_cast<std::int8_t>(current_),
        "condvar wait without holding the mutex");
  hb_.on_mutex_release(current_, m.clk);
  m.holder = -1;
  ++mutations_;
  push_step(opk::cwait, 'c', cidx, 0);

  thread_rec& tr = threads_[current_];
  tr.state = tstate::blocked_cond;
  tr.wait_cond = cidx;
  tr.wait_mutex = midx;
  yield_fiber();

  // Notified; reacquire the mutex before returning to the wait predicate.
  while (m.holder != -1) {
    tr.state = tstate::blocked_mutex;
    tr.wait_mutex = midx;
    yield_fiber();
  }
  m.holder = static_cast<std::int8_t>(current_);
  hb_.on_mutex_acquire(current_, m.clk);
}

void engine::h_cond_notify(std::uint64_t cid, bool all) {
  std::uint32_t cidx;
  if (!resolve(cid, base_cond_, conds_, &cidx)) return;
  op_point(opk::cnotify, 'c', cidx, 0);
  // notify_one wakes every waiter (sound superset: spurious wakeups are
  // legal, and the shipping code's predicate re-check loops absorb them).
  (void)all;
  for (int t = 0; t < n_; ++t) {
    thread_rec& tr = threads_[t];
    if (tr.state == tstate::blocked_cond && tr.wait_cond == cidx) {
      tr.state = tstate::blocked_mutex;  // wait_mutex already set
    }
  }
  push_step(opk::cnotify, 'c', cidx, 0);
}

void engine::fail(std::string msg) {
  failed_ = true;
  failure_ = std::move(msg);
  if (in_exec_) longjmp(escape_jb_, 1);
  std::fprintf(stderr, "hls_verify: check failed outside exploration: %s\n",
               failure_.c_str());
  std::abort();
}

void engine::deadlock_failure() {
  failed_ = true;
  std::string msg =
      "deadlock: no thread is schedulable (a lost wakeup shows up here: "
      "condvar waits are untimed under the harness)\n";
  for (int t = 0; t < n_; ++t) {
    msg += "  t" + std::to_string(t) + ": " + describe_thread(t) + "\n";
  }
  failure_ = std::move(msg);
}

std::string engine::describe_thread(int t) const {
  const thread_rec& tr = threads_[t];
  switch (tr.state) {
    case tstate::unstarted:
      return "not started";
    case tstate::ready:
      return std::string("ready at ") + opk_name(tr.pending.kind);
    case tstate::blocked_mutex:
      return "blocked acquiring m" + std::to_string(tr.wait_mutex);
    case tstate::blocked_cond:
      return "waiting on condvar c" + std::to_string(tr.wait_cond) +
             " (mutex m" + std::to_string(tr.wait_mutex) + ")";
    case tstate::blocked_pause:
      return "spin-waiting (pause) on state no other thread can change";
    case tstate::finished:
      return "finished";
  }
  return "?";
}

std::vector<std::string> engine::format_trace() const {
  std::vector<std::string> out;
  out.reserve(trace_.size());
  char buf[160];
  for (std::size_t i = 0; i < trace_.size(); ++i) {
    const step_rec& r = trace_[i];
    char locbuf[24] = "";
    if (r.cat != 0) {
      std::snprintf(locbuf, sizeof(locbuf), " %c%u", r.cat, r.idx);
    }
    char valbuf[32] = "";
    if (r.has_value) {
      std::snprintf(valbuf, sizeof(valbuf), " = 0x%llx",
                    static_cast<unsigned long long>(r.value));
    }
    const char* mo = "";
    char mobuf[16] = "";
    if (r.cat == 'a' || r.kind == opk::fence) {
      std::snprintf(mobuf, sizeof(mobuf), " [%s]", mo_name(r.mo));
      mo = mobuf;
    }
    const char* who = r.tid == static_cast<std::int8_t>(kMainClock) ? "main"
                                                                    : nullptr;
    if (who != nullptr) {
      std::snprintf(buf, sizeof(buf), "#%04zu %-4s %s%s%s%s", i, who,
                    opk_name(r.kind), locbuf, mo, valbuf);
    } else {
      std::snprintf(buf, sizeof(buf), "#%04zu t%-3d %s%s%s%s", i, r.tid,
                    opk_name(r.kind), locbuf, mo, valbuf);
    }
    out.emplace_back(buf);
  }
  return out;
}

void engine::finalize_failure() {
  res_.ok = false;
  res_.failure = failure_;
  res_.schedule = cur_schedule_;
  res_.trace = format_trace();
}

}  // namespace

// ---- public API ----

result explore(model& m, const options& opt) {
  engine e(m, opt);
  return e.run();
}

void check(bool cond, const char* msg) {
  if (cond) return;
  fail_now(msg);
}

void fail_now(std::string msg) {
  // fail() longjmps out of this frame and its callers', skipping their
  // destructors: the message moves into the engine, so no frame is left
  // owning a copy.
  if (g_engine != nullptr) g_engine->fail(std::move(msg));
  std::fprintf(stderr, "hls_verify: %s (no active exploration)\n",
               msg.c_str());
  std::abort();
}

namespace detail {

std::uint64_t reg_atomic() {
  return g_engine != nullptr ? g_engine->reg('a') : kInvalidId;
}
std::uint64_t reg_var() {
  return g_engine != nullptr ? g_engine->reg('v') : kInvalidId;
}
std::uint64_t reg_mutex() {
  return g_engine != nullptr ? g_engine->reg('m') : kInvalidId;
}
std::uint64_t reg_cond() {
  return g_engine != nullptr ? g_engine->reg('c') : kInvalidId;
}

void op_load(std::uint64_t id, std::memory_order mo) {
  if (g_engine != nullptr) g_engine->h_load(id, mo);
}
void op_store(std::uint64_t id, std::memory_order mo) {
  if (g_engine != nullptr) g_engine->h_store(id, mo);
}
void op_rmw(std::uint64_t id, std::memory_order mo) {
  if (g_engine != nullptr) g_engine->h_rmw(id, mo);
}
void op_cas_point(std::uint64_t id) {
  if (g_engine != nullptr) g_engine->h_cas_point(id);
}
void op_cas_resolve(std::uint64_t id, bool success, std::memory_order mo_ok,
                    std::memory_order mo_fail) {
  if (g_engine != nullptr) g_engine->h_cas_resolve(id, success, mo_ok, mo_fail);
}
void op_var_read(std::uint64_t id) {
  if (g_engine != nullptr) g_engine->h_var_read(id);
}
void op_var_write(std::uint64_t id) {
  if (g_engine != nullptr) g_engine->h_var_write(id);
}
void op_fence(std::memory_order mo) {
  if (g_engine != nullptr) g_engine->h_fence(mo);
}
void op_pause() {
  if (g_engine != nullptr) g_engine->h_pause();
}
void mutex_lock(std::uint64_t id) {
  if (g_engine != nullptr) g_engine->h_mutex_lock(id);
}
bool mutex_try_lock(std::uint64_t id) {
  return g_engine != nullptr ? g_engine->h_mutex_try_lock(id) : true;
}
void mutex_unlock(std::uint64_t id) {
  if (g_engine != nullptr) g_engine->h_mutex_unlock(id);
}
void cond_wait(std::uint64_t cond_id, std::uint64_t mutex_id) {
  if (g_engine != nullptr) g_engine->h_cond_wait(cond_id, mutex_id);
}
void cond_notify(std::uint64_t cond_id, bool all) {
  if (g_engine != nullptr) g_engine->h_cond_notify(cond_id, all);
}
void note_value(std::uint64_t v) {
  if (g_engine != nullptr) g_engine->h_note_value(v);
}

}  // namespace detail

}  // namespace hls::verify

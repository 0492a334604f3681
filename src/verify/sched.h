// Deterministic cooperative scheduler for stateless model checking of the
// runtime's concurrency protocol cores.
//
// A model (see verify::model below and src/verify/models/) declares a
// fixed set of logical threads whose bodies exercise a shipping protocol
// template (ws_deque_core, range_slot_core, parking_lot_core,
// chunk_queue_core, claim_bitmap_core — the last driven by the real
// run_claim_loop)
// instantiated over verify_traits (verify/shim.h). Every
// shared-memory operation the shim performs first parks its thread at an
// *op point*; the scheduler then picks which thread's pending operation
// executes next. Re-running the model under systematically varied picks
// enumerates interleavings:
//
//   exhaustive — DFS over the tree of scheduling choices, in stack order
//       (continue the running thread first — the free choice — then each
//       preempting alternative). Two reductions keep small models finite
//       and fast:
//         * preemption bounding (CHESS-style): switching away from a
//           thread that could have continued costs one unit of a global
//           budget; forced switches (the thread blocked or finished) are
//           free. Most concurrency bugs manifest with <= 2-3 preemptions.
//         * visited-state hashing: when the model provides a fingerprint()
//           covering ALL shared state (including each thread's published
//           continuation state), executions that converge to an
//           already-explored state are pruned. Sound because DFS fully
//           explores a state's subtree on first visit before any
//           alternative prefix can reach it again; the preemption budget
//           already spent is folded into the key so a pruned revisit never
//           had more exploration freedom than the original.
//   random — seeded uniform walk over the same choice space, for models
//       whose bounded-exhaustive space is out of reach.
//   replay — re-executes one recorded schedule (e.g. a failure found in
//       either mode) step by step; with trace enabled this prints the
//       full interleaving.
//
// Threads are fibers on one OS thread: ucontext bootstraps each stack,
// _setjmp/_longjmp performs every subsequent switch (no sigprocmask
// syscall). The harness is therefore fully deterministic — same model,
// options, and seed means the same exploration, which is what makes
// recorded schedules replayable.
//
// Blocking is modeled, not simulated: a thread that would block (mutex
// held, condvar wait, spin-loop pause) is removed from the enabled set
// until the event that would release it. Condvar waits are untimed — a
// wake path that exists only because a real-time backstop would fire is
// reported as what it is, a lost wakeup (deadlock), with the interleaving
// that produced it. If no thread is enabled and not all have finished,
// the execution fails with a per-thread blocked-state report.
//
// The happens-before checker (verify/vclock.h) runs inline: every shim
// operation feeds it, and data races on Traits::var fields — or orderings
// too weak to justify the access pattern — fail the execution like any
// model assertion.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hls::verify {

class scheduler;

// A verification model: a small closed scenario over one or more shipping
// protocol cores. Lifecycle per execution: setup() (main context,
// reconstructs all shared state), run(t) for each thread on its own fiber,
// check_final() (main context, after every thread finished). setup() must
// produce identical state every time — exploration and replay both depend
// on the model being deterministic.
class model {
 public:
  virtual ~model() = default;
  virtual const char* name() const = 0;
  virtual int threads() const = 0;
  virtual void setup() = 0;
  virtual void run(int t) = 0;
  virtual void check_final() {}
  // Hash of ALL state that determines future behavior: every shared
  // location plus each thread's continuation state (which must therefore
  // be published somewhere the fingerprint can see — see
  // models/claim_model.cpp). Return 0 to disable visited-state pruning
  // (the safe default when local state cannot be fully published).
  virtual std::uint64_t fingerprint() const { return 0; }
};

struct options {
  enum class run_mode : std::uint8_t { exhaustive, random, replay };
  run_mode mode = run_mode::exhaustive;

  // Max preemptions (forced switches are free) per execution; < 0 means
  // unbounded. Exhaustive explorations of nontrivial models need a bound.
  int preemption_bound = -1;

  // Exhaustive: stop after this many executions (0 = run to exhaustion).
  std::uint64_t max_executions = 0;
  // Random: number of executions.
  std::uint64_t iterations = 10000;
  std::uint64_t seed = 1;

  // Per-execution op budget; exceeding it fails the execution (livelock).
  std::uint64_t max_steps = 1 << 20;

  // Use model::fingerprint() based pruning when available.
  bool hash_states = true;

  // Keep a formatted trace even for passing executions (replay mode).
  bool trace_on_success = false;

  // replay mode: the schedule to force (result::schedule of a prior run).
  std::vector<std::int8_t> schedule;
};

struct result {
  bool ok = true;
  // Exhaustive mode: the full bounded space was explored (no cap hit).
  bool exhausted = false;
  std::string failure;  // empty iff ok

  // Counters (verify_states_explored / verify_preemptions feed the CI
  // summary line).
  std::uint64_t executions = 0;
  std::uint64_t states_explored = 0;  // distinct hashed states inserted
  std::uint64_t preemptions = 0;      // total across all executions
  std::uint64_t steps = 0;            // total ops dispatched
  std::uint64_t max_depth = 0;        // longest execution, in ops
  std::uint64_t weak_acquire_warnings = 0;

  // For a failing run: the thread picked at every op point (replayable via
  // options::schedule) and the human-readable interleaving.
  std::vector<std::int8_t> schedule;
  std::vector<std::string> trace;
};

// Explores `m` under `opt`; returns on first failure or when the mode's
// budget is done. Reentrant per thread but not concurrently: one active
// exploration per OS thread.
result explore(model& m, const options& opt);

// Model-side assertion: fails the current execution (recording msg and the
// schedule) when cond is false. Outside an active exploration falls back
// to a fatal abort.
void check(bool cond, const char* msg);

// Unconditional failure with a formatted message.
[[noreturn]] void fail_now(std::string msg);

namespace detail {

// Shim -> scheduler hooks (implemented in sched.cpp on the active
// scheduler). Each op_* call may suspend the calling fiber and resume a
// different one; when it returns, the caller holds the "token" and
// performs its memory operation before the next hook call. All hooks are
// no-ops when no exploration is active so verify-instrumented objects can
// be constructed/destroyed outside the harness.
//
// Registration ids are monotone across the whole exploration (never
// reset), and each execution only honours ids registered during its own
// setup — an id minted in a previous execution (e.g. an op in the
// destructor of last round's state, running inside this round's setup)
// resolves to nothing and is silently skipped instead of aliasing a fresh
// object.
std::uint64_t reg_atomic();
std::uint64_t reg_var();
std::uint64_t reg_mutex();
std::uint64_t reg_cond();

void op_load(std::uint64_t id, std::memory_order mo);
void op_store(std::uint64_t id, std::memory_order mo);
void op_rmw(std::uint64_t id, std::memory_order mo);
// CAS: one scheduling point, then the shim resolves the compare and
// reports which leg executed (success -> RMW edge, failure -> load edge).
void op_cas_point(std::uint64_t id);
void op_cas_resolve(std::uint64_t id, bool success, std::memory_order mo_ok,
                    std::memory_order mo_fail);
void op_var_read(std::uint64_t id);
void op_var_write(std::uint64_t id);
void op_fence(std::memory_order mo);
void op_pause();

void mutex_lock(std::uint64_t id);
bool mutex_try_lock(std::uint64_t id);
void mutex_unlock(std::uint64_t id);
void cond_wait(std::uint64_t cond_id, std::uint64_t mutex_id);
void cond_notify(std::uint64_t cond_id, bool all);

// Attach the raw value of the op just performed to the trace record.
void note_value(std::uint64_t v);

}  // namespace detail

}  // namespace hls::verify

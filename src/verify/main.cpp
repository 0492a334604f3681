// hls_verify — CLI front end for the model-checking harness.
//
//   hls_verify --list
//   hls_verify --model=deque                      # bounded exhaustive
//   hls_verify --model=claim --workers=3 --partitions=4 --bound=-1
//   hls_verify --model=parking-broken-norecheck --expect-failure
//   hls_verify --model=deque --mode=random --iters=50000 --seed=7
//   hls_verify --model=deque-broken-nolastcas --schedule=0,0,1,...  # replay
//
// A failing exploration prints the failure, the schedule (replayable via
// --schedule=), and the full interleaving trace. The summary line carries
// the counters the CI summary scrapes (verify_states_explored,
// verify_preemptions).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/cli.h"
#include "verify/models/models.h"
#include "verify/sched.h"

namespace {

using hls::verify::model;
using hls::verify::options;

struct model_spec {
  const char* name;
  const char* what;
  bool expect_failure;  // a broken variant: detection is the pass
  int default_bound;
};

// --workers/--partitions only affect the claim model; the rest are fixed
// scenarios (see src/verify/models/).
const model_spec kSpecs[] = {
    {"claim", "run_claim_loop: Theorem 3 exactly-once + Lemma 4 bound",
     false, -1},
    {"deque", "ws_deque_core: owner vs single-steal thief, growing ring, "
     "exactly-once", false, 3},
    {"deque-broken-nolastcas",
     "deque with the owner's last-element CAS replaced by a plain store",
     true, 3},
    {"range_slot", "range_slot_core: reserve/steal/close + reopen", false, 3},
    {"range_slot-broken-nodrain",
     "range_slot with close() not draining readers (use-after-reopen race)",
     true, 3},
    {"range_word",
     "range_slot one-word claims: owner reserve CAS vs thief steal CAS",
     false, 3},
    {"range_word-broken-blindreserve",
     "range_word with reserve as a load-then-store (lost steal, overlap)",
     true, 3},
    {"range_word-floor",
     "range_word with the owner lowering the split floor between reserves",
     false, 3},
    {"claim-bitmap",
     "bitmap claim flags + word-at-a-time leftover sweep, exactly-once",
     false, 3},
    {"claim-bitmap-broken-nonatomic",
     "bitmap sweep with a non-atomic load/store RMW (double claim)", true,
     3},
    {"parking", "parking_lot_core: prepare/re-check/park, no lost wakeup",
     false, 3},
    {"parking-broken-norecheck",
     "parking with the post-announce re-check skipped (lost wakeup)", true,
     3},
    {"parking-fanout",
     "parking fan-out: unpark_n(k) wakes k distinct waiters, no lost wakeup",
     false, 3},
    {"parking-fanout-broken-merge",
     "parking fan-out with unpark_n re-bumping a pending slot (merged wake)",
     true, 3},
    {"parking-join",
     "work_until join: idle_park re-check + retire broadcast, no lost "
     "completion edge",
     false, 3},
    {"parking-join-broken-nobroadcast",
     "join with the retire unpark_all omitted (sleeps past completion)",
     true, 3},
    {"handoff",
     "push-based handoff: deposit/unpark_at vs consume/poach/reclaim, "
     "exactly-once + no lost work",
     false, 3},
    {"handoff-broken-dropped",
     "handoff dropped on a failed wake with every rescue removed (lost "
     "work)",
     true, 3},
};

std::unique_ptr<model> make(const std::string& name, const hls::cli& args) {
  const auto workers =
      static_cast<std::uint32_t>(args.get_int_in("workers", 2, 1, 8));
  const auto partitions =
      static_cast<std::uint64_t>(args.get_int_in("partitions", 2, 1, 63));
  if (name == "claim") return hls::verify::make_claim_model(workers, partitions);
  if (name == "deque") return hls::verify::make_deque_model(false);
  if (name == "deque-broken-nolastcas")
    return hls::verify::make_deque_model(true);
  if (name == "range_slot") return hls::verify::make_range_slot_model(false);
  if (name == "range_slot-broken-nodrain")
    return hls::verify::make_range_slot_model(true);
  if (name == "range_word") return hls::verify::make_range_word_model(false);
  if (name == "range_word-broken-blindreserve")
    return hls::verify::make_range_word_model(true);
  if (name == "range_word-floor") return hls::verify::make_range_floor_model();
  if (name == "claim-bitmap")
    return hls::verify::make_claim_bitmap_model(false);
  if (name == "claim-bitmap-broken-nonatomic")
    return hls::verify::make_claim_bitmap_model(true);
  if (name == "parking") return hls::verify::make_parking_model(false);
  if (name == "parking-broken-norecheck")
    return hls::verify::make_parking_model(true);
  if (name == "parking-fanout")
    return hls::verify::make_parking_fanout_model(false);
  if (name == "parking-fanout-broken-merge")
    return hls::verify::make_parking_fanout_model(true);
  if (name == "parking-join") return hls::verify::make_join_model(false);
  if (name == "parking-join-broken-nobroadcast")
    return hls::verify::make_join_model(true);
  if (name == "handoff") return hls::verify::make_handoff_model(false);
  if (name == "handoff-broken-dropped")
    return hls::verify::make_handoff_model(true);
  return nullptr;
}

void list_models() {
  std::printf("models (--model=NAME):\n");
  for (const auto& s : kSpecs) {
    std::printf("  %-28s %s%s\n", s.name, s.what,
                s.expect_failure ? "  [expected to FAIL]" : "");
  }
}

std::vector<std::int8_t> parse_schedule(const std::string& csv) {
  std::vector<std::int8_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    out.push_back(static_cast<std::int8_t>(
        std::stoi(csv.substr(pos, next - pos))));
    pos = next + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const hls::cli args(argc, argv);
  if (args.get_bool("list", false) || args.has("help")) {
    list_models();
    std::printf(
        "\nflags: --mode=exhaustive|random|replay --bound=N (preemptions; -1 "
        "unbounded)\n"
        "       --iters=N --seed=N --max-execs=N --max-steps=N\n"
        "       --no-hash (disable visited-state pruning)\n"
        "       --schedule=t0,t1,... (replay) --trace (trace successful "
        "replay)\n"
        "       --workers=N --partitions=N (claim model)\n"
        "       --expect-failure (exit 0 iff a failure IS detected)\n");
    return 0;
  }

  std::string mode_name = args.get("mode", "exhaustive");
  const std::string name = args.get(
      "model", args.positional().empty() ? "" : args.positional().front());
  const model_spec* spec = nullptr;
  for (const auto& s : kSpecs) {
    if (name == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "hls_verify: unknown model '%s' (try --list)\n",
                 name.c_str());
    return 2;
  }

  options opt;
  if (mode_name == "exhaustive") {
    opt.mode = options::run_mode::exhaustive;
  } else if (mode_name == "random") {
    opt.mode = options::run_mode::random;
  } else if (mode_name == "replay") {
    opt.mode = options::run_mode::replay;
  } else {
    std::fprintf(stderr, "hls_verify: unknown --mode=%s\n",
                 mode_name.c_str());
    return 2;
  }
  opt.preemption_bound = static_cast<int>(
      args.get_int("bound", spec->default_bound));
  opt.iterations = static_cast<std::uint64_t>(args.get_int("iters", 10000));
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.max_executions =
      static_cast<std::uint64_t>(args.get_int("max-execs", 0));
  opt.max_steps =
      static_cast<std::uint64_t>(args.get_int("max-steps", 1 << 20));
  opt.hash_states = !args.get_bool("no-hash", false);
  opt.trace_on_success = args.get_bool("trace", false);
  if (args.has("schedule")) {
    opt.mode = options::run_mode::replay;
    mode_name = "replay";
    opt.schedule = parse_schedule(args.get("schedule", ""));
  }

  auto m = make(name, args);
  const auto res = hls::verify::explore(*m, opt);

  std::printf(
      "model=%s mode=%s bound=%d executions=%llu "
      "verify_states_explored=%llu verify_preemptions=%llu steps=%llu "
      "max_depth=%llu weak_acquire_warnings=%llu exhausted=%d\n",
      m->name(), mode_name.c_str(), opt.preemption_bound,
      static_cast<unsigned long long>(res.executions),
      static_cast<unsigned long long>(res.states_explored),
      static_cast<unsigned long long>(res.preemptions),
      static_cast<unsigned long long>(res.steps),
      static_cast<unsigned long long>(res.max_depth),
      static_cast<unsigned long long>(res.weak_acquire_warnings),
      res.exhausted ? 1 : 0);

  if (!res.ok) {
    std::printf("FAILURE: %s\n", res.failure.c_str());
    std::printf("schedule (replay with --model=%s --schedule=", m->name());
    for (std::size_t i = 0; i < res.schedule.size(); ++i) {
      std::printf("%s%d", i == 0 ? "" : ",", res.schedule[i]);
    }
    std::printf("):\ninterleaving trace:\n");
    for (const auto& line : res.trace) std::printf("  %s\n", line.c_str());
  } else if (opt.trace_on_success && !res.trace.empty()) {
    std::printf("trace:\n");
    for (const auto& line : res.trace) std::printf("  %s\n", line.c_str());
  }

  const bool expect_failure =
      args.get_bool("expect-failure", spec->expect_failure);
  if (expect_failure) {
    if (res.ok) {
      std::printf("VERDICT: broken variant NOT detected (bad)\n");
      return 1;
    }
    std::printf("VERDICT: broken variant detected as expected\n");
    return 0;
  }
  std::printf("VERDICT: %s\n", res.ok ? "ok" : "FAILED");
  return res.ok ? 0 : 1;
}

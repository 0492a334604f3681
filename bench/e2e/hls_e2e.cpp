// One process of the end-to-end step-time benchmark (README.md).
//
// It runs ONE workload under ONE policy with ONE seed: construct the
// runtime, generate the inputs, run the discarded warm-up steps, then issue
// --steps application steps back to back from worker 0 — a closed loop with
// one client, each step starting after the previous one returned — and
// print one JSON object on stdout. run.py drives it, one fresh process per
// (workload, policy, repetition), because the state a process starts in
// shifts its whole step-time distribution.
//
//   hls_e2e --workload=affine_balanced|ramp_unbalanced|cg_fine|nested_quad
//           --policy=static|dynamic_shared|guided|dynamic_ws|hybrid|serial
//           --seed=N --steps=S [--workers=4] [--trace-out=F]
//
// --trace-out selects the traced mode: every loop records a
// trace::loop_trace, each step's loops are checked for exactly-once
// coverage, and the bench's own spans are written to F as Chrome-trace
// JSON at exit. Step times of a traced process are only used to measure
// the cost of tracing.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/loop.h"
#include "sched/reduce.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/registry.h"
#include "trace/affinity.h"
#include "trace/loop_trace.h"
#include "util/cli.h"
#include "util/rng.h"
#include "workloads/cg.h"
#include "workloads/micro.h"
#include "workloads/nas_classes.h"

namespace {

using clk = std::chrono::steady_clock;
using hls::telemetry::steady_now_ns;

// Discarded steps before the timed ones; they count in setup_s.
constexpr std::int64_t kWarmup = 20;

bool close_to(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::fabs(want);
}

// Peak resident set of this process in MB. VmHWM starts afresh at exec,
// unlike getrusage's ru_maxrss, which keeps the parent's peak from before
// the fork.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---- the bench's own spans (traced mode) ---------------------------------

struct span_rec {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  std::int64_t step = -1;    // -1: outside the timed steps
  std::uint32_t lane = 0;    // runtime worker that ran the span
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
};

// Spans stay in memory, one buffer per worker lane (each written only by
// its own worker), until write() exports them after the run.
class span_log {
 public:
  explicit span_log(std::uint32_t lanes) : lanes_(lanes) {}

  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(const span_rec& s) { lanes_[s.lane].push_back(s); }

  // Throws std::runtime_error when the file cannot be written.
  void write(const std::string& path, const std::string& title) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open " + path);
    hls::telemetry::chrome_trace_writer w(os);
    w.add_process_name(0, title);
    std::uint64_t epoch = std::numeric_limits<std::uint64_t>::max();
    for (const auto& l : lanes_) {
      for (const auto& s : l) epoch = std::min(epoch, s.t0_ns);
    }
    for (std::uint32_t k = 0; k < lanes_.size(); ++k) {
      w.add_thread_name(0, static_cast<int>(k), "worker " + std::to_string(k));
      for (const auto& s : lanes_[k]) {
        w.add_complete(0, static_cast<int>(k), s.name, s.t0_ns - epoch,
                       s.t1_ns - s.t0_ns,
                       "\"id\":" + std::to_string(s.id) +
                           ",\"parent\":" + std::to_string(s.parent) +
                           ",\"step\":" + std::to_string(s.step));
      }
    }
    w.finish();
    if (!os) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<std::vector<span_rec>> lanes_;
  std::atomic<std::uint64_t> next_id_{1};
};

// Records its own lifetime as one span; inert when log is null.
class scoped_span {
 public:
  scoped_span(span_log* log, const char* name, std::uint64_t parent,
              std::int64_t step)
      : log_(log) {
    if (log_ == nullptr) return;
    hls::rt::worker* me = hls::rt::current_worker_or_null();
    rec_ = {name, log_->next_id(), parent, step, me != nullptr ? me->id() : 0,
            steady_now_ns(), 0};
  }
  ~scoped_span() {
    if (log_ == nullptr) return;
    rec_.t1_ns = steady_now_ns();
    log_->add(rec_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  std::uint64_t id() const noexcept { return rec_.id; }

 private:
  span_log* log_;
  span_rec rec_;
};

// ---- loop-trace checks (traced mode) --------------------------------------

struct loop_tally {
  std::int64_t loops = 0;
  std::int64_t bad_loops = 0;   // chunks did not tile [0, n) exactly once
  std::int64_t worker_sum = 0;  // distinct workers per loop, summed
};

// Splits one trace's chunks into its loops and checks that each loop ran
// every iteration of [0, n) exactly once. The loops a step records into
// one trace all cover [0, n) and run one after another (each joins before
// the next is posted), so in global sequence order each loop's chunks are
// contiguous and add up to n. Appends each loop's iteration -> worker map
// to `owners`.
void split_loops(const hls::trace::loop_trace& lt, std::int64_t n,
                 loop_tally& tally,
                 std::vector<std::vector<std::uint32_t>>& owners) {
  std::vector<hls::trace::chunk_rec> cur;
  std::int64_t covered = 0;
  const auto close = [&] {
    std::sort(cur.begin(), cur.end(),
              [](const auto& a, const auto& b) { return a.begin < b.begin; });
    std::vector<std::uint32_t> own(static_cast<std::size_t>(n),
                                   hls::trace::loop_trace::kNoOwner);
    std::vector<std::uint32_t> workers;
    std::int64_t next = 0;
    bool tiles = covered == n;
    for (const auto& c : cur) {
      tiles = tiles && c.begin == next;
      next = c.end;
      for (std::int64_t i = std::max<std::int64_t>(0, c.begin);
           i < std::min(n, c.end); ++i) {
        own[static_cast<std::size_t>(i)] = c.worker;
      }
      workers.push_back(c.worker);
    }
    std::sort(workers.begin(), workers.end());
    tally.worker_sum += std::unique(workers.begin(), workers.end()) -
                        workers.begin();
    ++tally.loops;
    if (!tiles || next != n) ++tally.bad_loops;
    owners.push_back(std::move(own));
    cur.clear();
    covered = 0;
  };
  for (const auto& c : lt.sorted_by_seq()) {
    cur.push_back(c);
    covered += c.end - c.begin;
    if (covered >= n) close();
  }
  if (!cur.empty()) close();
}

// ---- workloads --------------------------------------------------------------

struct step_ctx {
  std::int64_t index = 0;    // step number, -1 during warm-up
  std::uint64_t span = 0;    // the step's span id (traced mode)
};

class workload {
 public:
  virtual ~workload() = default;

  // One application step; false when its output is wrong.
  virtual bool step(hls::rt::runtime& rt, hls::policy pol,
                    const step_ctx& sc) = 0;

  // Parallel iterations one step runs, summed over its loops.
  virtual std::int64_t iterations_per_step() const = 0;

  // Traced mode: one loop_trace per entry, each recording loops over
  // [0, n) for the returned n.
  void enable_tracing(std::uint32_t workers, span_log* spans) {
    spans_ = spans;
    for (std::int64_t n : loop_spaces()) {
      traces_.push_back({std::make_unique<hls::trace::loop_trace>(workers), n});
    }
  }

  struct traced {
    std::unique_ptr<hls::trace::loop_trace> lt;
    std::int64_t n;
  };
  std::vector<traced>& traces() noexcept { return traces_; }

 protected:
  virtual std::vector<std::int64_t> loop_spaces() const = 0;

  hls::trace::loop_trace* trace_of(std::size_t k) const noexcept {
    return k < traces_.size() ? traces_[k].lt.get() : nullptr;
  }

  span_log* spans_ = nullptr;

 private:
  std::vector<traced> traces_;
};

// workloads::micro_bench, one run_once per step. Every element starts at
// 1.0, the fixed point of the kernel's update x * 0.999 + 0.001, so each
// step's checksum must equal the serial reference up to summation order; a
// skipped or doubled slice moves it by at least the smallest slice's share
// of the elements (>= 3e-5 of the total).
class micro_workload final : public workload {
 public:
  micro_workload(bool balanced, std::uint64_t bytes)
      : bench_(params(balanced, bytes)), reference_(bench_.run_serial()) {}

  bool step(hls::rt::runtime& rt, hls::policy pol, const step_ctx&) override {
    hls::loop_options opt;
    opt.trace = trace_of(0);
    return close_to(bench_.run_once(rt, pol, opt), reference_);
  }

  std::int64_t iterations_per_step() const override {
    return bench_.iterations();
  }

 protected:
  std::vector<std::int64_t> loop_spaces() const override {
    return {bench_.iterations()};
  }

 private:
  static hls::workloads::micro_params params(bool balanced,
                                             std::uint64_t bytes) {
    hls::workloads::micro_params p;
    p.iterations = 4096;
    p.total_bytes = bytes;
    p.balanced = balanced;
    return p;
  }

  hls::workloads::micro_bench bench_;
  double reference_;
};

// NAS CG class W: one step is one cg_solve (25 CG iterations) followed by
// the power method's serial normalisation x = z / ||z||, so each step
// solves against the previous step's result.
class cg_workload final : public workload {
 public:
  explicit cg_workload(std::uint64_t seed)
      : params_(params(seed)),
        bench_(params_),
        x_(static_cast<std::size_t>(params_.n), 1.0),
        z_(x_.size(), 0.0) {}

  bool step(hls::rt::runtime& rt, hls::policy pol, const step_ctx&) override {
    hls::loop_options opt;
    opt.trace = trace_of(0);
    const double residual = bench_.cg_solve(rt, x_, z_, pol, opt);
    double zz = 0.0;
    for (double v : z_) zz += v * v;
    const double norm = std::sqrt(zz);
    for (std::size_t i = 0; i < x_.size(); ++i) x_[i] = z_[i] / norm;
    return residual <= 1e-8 && std::isfinite(norm) && norm > 0.0;
  }

  // cg_solve runs one dot product, five loops per CG iteration (spmv, two
  // dots, two vector updates) and a final spmv, each over the n rows.
  std::int64_t iterations_per_step() const override {
    return params_.n * (2 + 5 * params_.cg_iterations);
  }

 protected:
  std::vector<std::int64_t> loop_spaces() const override {
    return {params_.n};
  }

 private:
  static hls::workloads::nas::cg_params params(std::uint64_t seed) {
    auto p = hls::workloads::nas::cg_class(hls::workloads::nas::npb_class::W);
    p.seed = seed;
    return p;
  }

  hls::workloads::nas::cg_params params_;
  hls::workloads::nas::cg_bench bench_;
  std::vector<double> x_, z_;
};

// The bench's own nested workload: an outer for_each over kRegions regions,
// each running an inner parallel_sum over kIntervals adaptive-Simpson
// intervals of sin(1/x). The intervals split (kLo, 1] geometrically and
// the seed shuffles which interval lands in which (region, slot), so the
// inner loops are unbalanced in a seed-dependent way while a step's total
// work is fixed.
class quad_workload final : public workload {
 public:
  static constexpr std::int64_t kRegions = 32;
  static constexpr std::int64_t kIntervals = 1024;
  static constexpr double kLo = 1e-4;
  static constexpr double kEps = 1e-12;

  explicit quad_workload(std::uint64_t seed)
      : edges_(static_cast<std::size_t>(kRegions * kIntervals) + 1),
        order_(static_cast<std::size_t>(kRegions * kIntervals)),
        region_sum_(static_cast<std::size_t>(kRegions), 0.0) {
    const double ratio =
        std::pow(1.0 / kLo, 1.0 / static_cast<double>(order_.size()));
    for (std::size_t k = 0; k < edges_.size(); ++k) {
      edges_[k] = kLo * std::pow(ratio, static_cast<double>(k));
    }
    edges_.back() = 1.0;
    std::iota(order_.begin(), order_.end(), 0);
    hls::xoshiro256ss rng(seed);
    std::shuffle(order_.begin(), order_.end(), rng);
    for (std::int64_t r = 0; r < kRegions; ++r) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < kIntervals; ++i) acc += interval(r, i);
      reference_ += acc;
    }
  }

  bool step(hls::rt::runtime& rt, hls::policy pol,
            const step_ctx& sc) override {
    scoped_span outer(spans_, "outer_loop", sc.span, sc.index);
    hls::loop_options outer_opt;
    outer_opt.trace = trace_of(0);
    const hls::loop_result res = hls::for_each(
        rt, 0, kRegions, pol,
        [&](std::int64_t r) {
          scoped_span body(spans_, "region_body", outer.id(), sc.index);
          hls::loop_options inner_opt;
          inner_opt.trace = trace_of(1 + static_cast<std::size_t>(r));
          scoped_span inner(spans_, "inner_loop", body.id(), sc.index);
          region_sum_[static_cast<std::size_t>(r)] = hls::parallel_sum<double>(
              rt, 0, kIntervals, pol,
              [&](std::int64_t i) { return interval(r, i); }, inner_opt);
        },
        outer_opt);
    const double total =
        std::accumulate(region_sum_.begin(), region_sum_.end(), 0.0);
    return res.ok() && close_to(total, reference_);
  }

  std::int64_t iterations_per_step() const override {
    return kRegions + kRegions * kIntervals;
  }

 protected:
  std::vector<std::int64_t> loop_spaces() const override {
    std::vector<std::int64_t> spaces{kRegions};
    spaces.resize(1 + kRegions, kIntervals);
    return spaces;
  }

 private:
  static double f(double x) { return std::sin(1.0 / x); }

  static double simpson(double a, double b, double fa, double fm, double fb,
                        double eps, int depth) {
    const double m = 0.5 * (a + b);
    const double flm = f(0.5 * (a + m));
    const double frm = f(0.5 * (m + b));
    const double h = b - a;
    const double whole = h / 6.0 * (fa + 4 * fm + fb);
    const double left = h / 12.0 * (fa + 4 * flm + fm);
    const double right = h / 12.0 * (fm + 4 * frm + fb);
    const double delta = left + right - whole;
    if (depth <= 0 || std::fabs(delta) <= 15.0 * eps) {
      return left + right + delta / 15.0;
    }
    return simpson(a, m, fa, flm, fm, eps / 2, depth - 1) +
           simpson(m, b, fm, frm, fb, eps / 2, depth - 1);
  }

  double interval(std::int64_t r, std::int64_t i) const {
    const auto k = static_cast<std::size_t>(
        order_[static_cast<std::size_t>(r * kIntervals + i)]);
    const double a = edges_[k];
    const double b = edges_[k + 1];
    return simpson(a, b, f(a), f(0.5 * (a + b)), f(b), kEps, 40);
  }

  std::vector<double> edges_;  // geometric split of (kLo, 1]
  std::vector<std::int64_t> order_;
  std::vector<double> region_sum_;
  double reference_ = 0.0;
};

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  constexpr std::uint64_t kMiB = 1ull << 20;
  if (name == "affine_balanced") {
    return std::make_unique<micro_workload>(true, 6 * kMiB);
  }
  if (name == "ramp_unbalanced") {
    return std::make_unique<micro_workload>(false, 24 * kMiB);
  }
  if (name == "cg_fine") return std::make_unique<cg_workload>(seed);
  if (name == "nested_quad") return std::make_unique<quad_workload>(seed);
  throw std::invalid_argument("unknown --workload '" + name + "'");
}

// ---- the run ----------------------------------------------------------------

// Counters whose movement during a step means a loop did not complete:
// iterations skipped by cancellation, deadline or exception drain, and
// exceptions caught at chunk boundaries.
bool loops_completed(const hls::rt::worker_stats& d) {
  return d.cancelled_chunks == 0 && d.deadline_expirations == 0 &&
         d.exceptions_caught == 0;
}

struct run_result {
  std::vector<std::int64_t> step_ns;
  std::map<std::string, std::int64_t> failures;  // reason -> failed steps
  std::int64_t failed_steps = 0;
  hls::rt::worker_stats delta;
  loop_tally tally;
  double affinity_sum = 0.0;
  std::int64_t affinity_pairs = 0;
};

void run_steps(hls::rt::runtime& rt, hls::policy pol, workload& wl,
               std::int64_t steps, span_log* spans, run_result& out) {
  std::vector<std::vector<std::uint32_t>> prev_owners, owners;
  out.step_ns.reserve(static_cast<std::size_t>(steps));
  const hls::rt::worker_stats start = rt.stats_snapshot();
  for (std::int64_t s = 0; s < steps; ++s) {
    const hls::rt::worker_stats c0 = rt.stats_snapshot();
    const std::uint64_t lemma0 = rt.tel().lemma4_violations();
    bool ok = false;
    std::string why;
    const auto t0 = clk::now();
    try {
      scoped_span span(spans, "step", 0, s);
      ok = wl.step(rt, pol, {s, span.id()});
      if (!ok) why = "output";
    } catch (const std::exception&) {
      why = "exception";
    }
    const auto t1 = clk::now();
    out.step_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());

    const hls::rt::worker_stats d = rt.stats_snapshot() - c0;
    if (why.empty() && !loops_completed(d)) why = "loop_status";
    if (why.empty() && rt.tel().lemma4_violations() != lemma0) why = "lemma4";

    if (spans != nullptr) {
      owners.clear();
      loop_tally step_tally;
      for (auto& t : wl.traces()) {
        split_loops(*t.lt, t.n, step_tally, owners);
        t.lt->clear();
      }
      if (why.empty() &&
          (step_tally.bad_loops > 0 ||
           step_tally.loops != static_cast<std::int64_t>(d.loops_posted))) {
        why = "exactly_once";
      }
      out.tally.loops += step_tally.loops;
      out.tally.bad_loops += step_tally.bad_loops;
      out.tally.worker_sum += step_tally.worker_sum;
      if (prev_owners.size() == owners.size()) {
        for (std::size_t j = 0; j < owners.size(); ++j) {
          out.affinity_sum +=
              hls::trace::same_owner_fraction(prev_owners[j], owners[j]);
          ++out.affinity_pairs;
        }
      }
      std::swap(prev_owners, owners);
    }

    if (!why.empty()) {
      ++out.failed_steps;
      ++out.failures[why];
    }
  }
  out.delta = rt.stats_snapshot() - start;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += ch;
  }
  return o + "\"";
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t t_start = steady_now_ns();
  try {
    const hls::cli c(argc, argv);
    const std::string wname = c.get("workload", "");
    const std::string pname = c.get("policy", "");
    const auto pol = hls::policy_from_name(pname);
    if (!pol) throw std::invalid_argument("unknown --policy '" + pname + "'");
    const auto seed = static_cast<std::uint64_t>(
        c.get_int_in("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
    const std::int64_t steps = c.get_int_in("steps", 1000, 1, 100'000'000);
    const auto workers = static_cast<std::uint32_t>(
        c.get_int_in("workers", 4, 1, hls::rt::runtime::kMaxWorkers));
    const std::string trace_out = c.get("trace-out", "");

    std::unique_ptr<span_log> spans;
    if (!trace_out.empty()) spans = std::make_unique<span_log>(workers);

    std::unique_ptr<workload> wl;
    std::unique_ptr<hls::rt::runtime> rt;
    std::int64_t warmup_failed = 0;
    {
      scoped_span setup(spans.get(), "setup", 0, -1);
      rt = std::make_unique<hls::rt::runtime>(workers, seed);
      wl = make_workload(wname, seed);
      if (spans) wl->enable_tracing(workers, spans.get());
      for (std::int64_t s = 0; s < kWarmup; ++s) {
        if (!wl->step(*rt, *pol, {-1, setup.id()})) ++warmup_failed;
      }
      for (auto& t : wl->traces()) t.lt->clear();
    }
    const double setup_s =
        static_cast<double>(steady_now_ns() - t_start) * 1e-9;

    run_result r;
    run_steps(*rt, *pol, *wl, steps, spans.get(), r);

    if (spans) {
      spans->write(trace_out, "hls_e2e " + wname + " " + pname + " seed " +
                                  std::to_string(seed));
    }

    std::ostringstream js;
    js << "{\"workload\":" << json_str(wname)
       << ",\"policy\":" << json_str(hls::policy_name(*pol))
       << ",\"seed\":" << seed << ",\"workers\":" << rt->num_workers()
       << ",\"steps\":" << steps << ",\"warmup\":" << kWarmup
       << ",\"warmup_failed\":" << warmup_failed
       << ",\"iterations_per_step\":" << wl->iterations_per_step()
       << ",\"setup_s\":" << json_num(setup_s)
       << ",\"peak_rss_mb\":" << json_num(peak_rss_mb())
       << ",\"failed_steps\":" << r.failed_steps << ",\"failures\":{";
    const char* sep = "";
    for (const auto& [why, n] : r.failures) {
      js << sep << json_str(why) << ":" << n;
      sep = ",";
    }
    js << "},\"counters\":{";
    sep = "";
    hls::telemetry::for_each_counter(
        r.delta, [&](const char* name, const char*, std::uint64_t v) {
          js << sep << json_str(name) << ":" << v;
          sep = ",";
        });
    js << "}";
    if (spans) {
      js << ",\"trace\":{\"loops\":" << r.tally.loops
         << ",\"bad_loops\":" << r.tally.bad_loops
         << ",\"worker_sum\":" << r.tally.worker_sum
         << ",\"affinity_sum\":" << json_num(r.affinity_sum)
         << ",\"affinity_pairs\":" << r.affinity_pairs << "}";
    }
    js << ",\"step_ns\":[";
    sep = "";
    for (std::int64_t ns : r.step_ns) {
      js << sep << ns;
      sep = ",";
    }
    js << "]}\n";
    std::fputs(js.str().c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hls_e2e: %s\n", e.what());
    return 2;
  }
}

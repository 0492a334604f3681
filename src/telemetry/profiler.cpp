#include "telemetry/profiler.h"

#include <algorithm>
#include <cstring>

namespace hls::telemetry {

const char* degrade_reason_name(degrade_reason r) noexcept {
  switch (r) {
    case degrade_reason::none: return "none";
    case degrade_reason::foreign_thread: return "foreign_thread";
  }
  return "?";
}

std::string loop_site::key() const {
  const char* f = file != nullptr ? file : "?";
  // Basename only: the full build-tree path adds noise and makes keys
  // differ between build machines.
  if (const char* slash = std::strrchr(f, '/')) f = slash + 1;
  std::string k = std::string(f) + ":" + std::to_string(line);
  if (name != nullptr && name[0] != '\0') {
    k += "#";
    k += name;
  }
  return k;
}

loop_profiler::loop_profiler() : loop_profiler(options{}) {}

loop_profiler::loop_profiler(options opt) : opt_(opt) {
  // A zero-capacity ring would make every record vanish silently; keep at
  // least one slot so "the last invocation" is always inspectable.
  const_cast<options&>(opt_).ring_capacity =
      std::max<std::size_t>(1, opt_.ring_capacity);
}

void loop_profiler::record(const std::string& site_key, int n_bucket,
                           invocation_record rec) {
  hls::scoped_lock<annotated_mutex> lk(mu_);
  rec.seq = seq_++;
  recorded_total_ += rec.delta;
  site_state& s = sites_[key{site_key, n_bucket}];
  ++s.invocations;
  s.total_wall_ns += rec.wall_ns;
  if (s.ring.size() < opt_.ring_capacity) {
    s.ring.push_back(std::move(rec));
  } else {
    // Bounded FIFO eviction: overwrite the oldest slot.
    s.ring[s.next] = std::move(rec);
    s.next = (s.next + 1) % opt_.ring_capacity;
  }
}

std::vector<loop_profiler::site_snapshot> loop_profiler::snapshot() const {
  hls::scoped_lock<annotated_mutex> lk(mu_);
  std::vector<site_snapshot> out;
  out.reserve(sites_.size());
  for (const auto& [k, s] : sites_) {
    site_snapshot snap;
    snap.site = k.first;
    snap.n_bucket = k.second;
    snap.invocations = s.invocations;
    snap.total_wall_ns = s.total_wall_ns;
    snap.records.reserve(s.ring.size());
    // Unroll the ring to oldest-first order: once full, `next` points at
    // the oldest entry.
    const std::size_t n = s.ring.size();
    const std::size_t start = n < opt_.ring_capacity ? 0 : s.next;
    for (std::size_t i = 0; i < n; ++i) {
      snap.records.push_back(s.ring[(start + i) % n]);
    }
    out.push_back(std::move(snap));
  }
  return out;
}

counter_set loop_profiler::recorded_total() const {
  hls::scoped_lock<annotated_mutex> lk(mu_);
  return recorded_total_;
}

std::uint64_t loop_profiler::invocations() const {
  hls::scoped_lock<annotated_mutex> lk(mu_);
  return seq_;
}

// --------------------------------------------------------------- probe

invocation_probe::invocation_probe(registry& reg, loop_profiler* prof)
    : reg_(reg), prof_(prof) {
  if (prof_ == nullptr) return;
  t_entry_ = reg_.now();
  before_.reserve(reg_.num_workers());
  for (std::uint32_t w = 0; w < reg_.num_workers(); ++w) {
    before_.push_back(reg_.of_worker(w));
  }
}

void invocation_probe::setup_done() noexcept {
  if (prof_ != nullptr) t_setup_ = reg_.now();
}

void invocation_probe::work_done() noexcept {
  if (prof_ != nullptr) t_work_ = reg_.now();
}

void invocation_probe::commit(const loop_site* site, policy pol,
                              std::uint32_t partitions,
                              std::int64_t grain, std::int64_t iterations,
                              std::uint8_t status, std::int64_t skipped,
                              degrade_reason degrade) {
  if (prof_ == nullptr) return;
  const std::uint64_t t_end = reg_.now();

  invocation_record rec;
  rec.start_ns = t_entry_;
  rec.pol = pol;
  rec.partitions = partitions;
  rec.grain = grain;
  rec.workers = reg_.num_workers();
  rec.iterations = iterations;
  rec.status = status;
  rec.skipped = skipped;
  rec.degrade = degrade;
  rec.wall_ns = t_end - t_entry_;
  rec.setup_ns = t_setup_ != 0 ? t_setup_ - t_entry_ : 0;
  rec.work_ns = t_work_ != 0 && t_setup_ != 0 ? t_work_ - t_setup_ : 0;
  rec.drain_ns = t_work_ != 0 ? t_end - t_work_ : 0;

  // Per-worker deltas: total rollup + busy imbalance in chunks executed.
  std::uint64_t busy_max = 0;
  std::uint64_t busy_min = ~std::uint64_t{0};
  std::uint64_t busy_sum = 0;
  for (std::uint32_t w = 0; w < reg_.num_workers(); ++w) {
    const counter_set d = reg_.of_worker(w) - before_[w];
    rec.delta += d;
    busy_max = std::max(busy_max, d.chunks_run);
    busy_min = std::min(busy_min, d.chunks_run);
    busy_sum += d.chunks_run;
  }
  rec.busy_max_chunks = busy_max;
  rec.busy_min_chunks = busy_sum == 0 ? 0 : busy_min;
  const double mean =
      static_cast<double>(busy_sum) / static_cast<double>(reg_.num_workers());
  rec.imbalance = busy_sum == 0 ? 0.0 : static_cast<double>(busy_max) / mean;

  const std::string key =
      site != nullptr ? site->key() : std::string(policy_name(pol));
  prof_->record(key, loop_profiler::n_bucket_of(iterations), std::move(rec));
}

}  // namespace hls::telemetry

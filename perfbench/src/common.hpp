#pragma once
// Shared plumbing of the perfbench program: options, clocks, sample
// summaries, simulated-statistics fingerprints, in-memory spans and the
// report every workload fills in.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace mempool {
struct ClusterConfig;
}  // namespace mempool

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< Measured time; trace runs split it in two halves.
  bool trace = false;
  std::string out_dir = ".";  ///< Spans file and the service socket go here.
};

/// Quantile @p q of @p v with linear interpolation between order statistics
/// (numpy's default). 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Interquartile range as a share of the median: the spread reported with
/// every timing.
inline double spread(const std::vector<double>& v) {
  const double m = median(v);
  return m > 0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / m : 0;
}

/// FNV-1a over the simulated statistics of one operation. Doubles are hashed
/// by bit pattern, so any change of a model output changes the fingerprint.
class Fingerprint {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex64(uint64_t v);

/// Spans recorded in memory around perfbench's calls into the simulator:
/// name, start, end, parent and the identifier shared by the spans of one
/// operation. Spans nest on one thread, so a span's children never overlap
/// and its self time is its duration minus theirs.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t->on_ ? t : nullptr) {
      if (t_ != nullptr) idx_ = t_->open(name);
    }
    ~Scope() {
      if (t_ != nullptr) t_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t idx_ = 0;
  };

  /// Open a span that lasts until the returned scope is destroyed.
  [[nodiscard]] Scope span(const char* name) { return Scope(this, name); }
  /// Identifier given to the root spans opened from now on (and inherited by
  /// their children), e.g. a request id.
  void set_op_id(uint64_t id) { op_id_ = id; }

  /// Summed self time, in seconds, of the spans called @p name.
  double self_seconds(const std::string& name) const;
  /// {"schema": "perfbench.spans.v1", "spans": [...]}.
  mempool::Json to_json() const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t op_id = 0;
    int64_t child_ns = 0;  ///< Summed duration of the direct children.
  };
  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::size_t open(const char* name);
  void close(std::size_t idx);

  bool on_;
  uint64_t op_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// A host time, measured over an interval of the run that ended at `end`.
struct Timed {
  Clock::time_point end;
  double seconds = 0;
};

inline std::vector<double> seconds_of(const std::vector<Timed>& v) {
  std::vector<double> out;
  for (const Timed& t : v) out.push_back(t.seconds);
  return out;
}

/// Host-speed probe. The benchmark host is shared: other tenants slow it
/// down by up to several times, for stretches of seconds to minutes, and
/// every host time of the run moves with them. The probe times two fixed
/// computations: a dependent walk over a 4 MiB random permutation (memory
/// latency) and a switch-dispatched interpreter over random byte code
/// (branchy integer work), the two costs that dominate the simulator. Each
/// probe yields a slowdown, the mean of the two times over their nominal
/// times. Probes run between the run's operations, never during one, and are
/// not part of the program under test. corrected() divides a host time by
/// the mean slowdown of the probes taken just before and just after it.
class HostSpeed {
 public:
  HostSpeed();
  /// Time one probe (about 25 ms on an undisturbed host).
  void probe();
  /// Probe unless the last probe is less than @p interval_s old.
  void probe_every(double interval_s) {
    if (probes_.empty() || seconds_since(probes_.back().end) >= interval_s) {
      probe();
    }
  }
  double corrected(const Timed& t) const;
  std::vector<double> corrected(const std::vector<Timed>& v) const {
    std::vector<double> out;
    for (const Timed& t : v) out.push_back(corrected(t));
    return out;
  }
  mempool::Json to_json() const;

 private:
  std::vector<uint32_t> next_;
  struct Probe {
    Clock::time_point end;
    double slowdown = 0;
  };
  std::vector<uint8_t> code_;
  std::vector<Probe> probes_;
  uint64_t sink_ = 0;
};

/// What one workload run reports: metrics by name with their unit, the
/// operations attempted and failed, and provenance details. Host times of
/// whole operations (the end-to-end metrics, kernels.*.host_s, serve.rtt_*,
/// trace.*) are corrected with host(); phase profiles and spans are raw.
class Report {
 public:
  HostSpeed& host() { return host_; }

  void metric(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  /// One operation attempted; @p error empty when all its checks passed.
  void op(const std::string& error) {
    ++attempted_;
    if (!error.empty()) {
      ++failed_;
      if (errors_.size() < 10) errors_.push_back(error);
    }
  }
  /// A run-level check (fingerprint agreement, a set-up step). Fails the run
  /// as one more failed operation.
  void check(bool ok, const std::string& what) { op(ok ? "" : what); }
  void info(const std::string& key, mempool::Json v) {
    info_.set(key, std::move(v));
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// The result line: correct, attempted, failed, metrics, info.
  mempool::Json to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  mempool::Json info_ = mempool::Json::object();
  HostSpeed host_;
};

/// Tail quantile of the simulating workloads' operation times: the upper
/// quartile keeps at least ten of the 35 to 200 operations of a 25 s run
/// beyond it, and is steadier from run to run than p90 on a shared host.
constexpr double kSimTailQ = 0.75;

/// Reports op_p50_ms and op_tail_ms (the @p tail_q quantile) of the
/// operation times @p corrected, and as info the sample count, the share
/// beyond the tail, the spread, the median of the @p raw times and the
/// completed operations per second.
void report_ops(Report& r, const std::vector<double>& raw,
                const std::vector<double>& corrected, double tail_q,
                double elapsed_s);

/// Lower bound on the mean round trip of uniform traffic (p_local = 0) on
/// cluster @p c: the mean zero-load latency over all (source tile,
/// destination tile) pairs, less four standard errors of a sample of
/// @p samples pairs. No contention can bring a measured mean below it.
double zero_load_bound(const mempool::ClusterConfig& c, uint64_t samples);

/// Reports, from the corrected operation times of the untraced and the
/// traced phase of a simulating workload, the tracing overhead (trace.*) and
/// runner.slow_rep_frac: the share of untraced operations slower than 1.5x
/// their median.
void report_sim_trace(Report& r, const std::vector<double>& plain,
                      const std::vector<double>& traced);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

// Workloads (one per translation unit family).
void run_paper_point(const Options& o, Report& r, Tracer& t);
void run_toph2_sharded(const Options& o, Report& r, Tracer& t);
void run_kernels(const Options& o, Report& r, Tracer& t);
void run_service(const Options& o, Report& r, Tracer& t);

}  // namespace perfbench

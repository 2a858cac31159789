// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// Runs one workload for the given time and prints, as its last stdout line,
// one JSON object: {"correct", "attempted", "failed", "metrics", "info"}.
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set, taken from a run that records spans around every call
// into the simulator (written to <out-dir>/spans-<workload>-<seed>.json) and
// compared against an untraced run in the same process. Exit code 0 only when
// every output check passed. perfbench/run.py builds and runs this program.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <thread>

#include "common.hpp"

namespace perfbench {

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::size_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  if (!stack_.empty()) {
    s.parent = static_cast<int64_t>(stack_.back());
    s.op_id = spans_[stack_.back()].op_id;
  } else {
    s.op_id = op_id_;
  }
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t idx) {
  Span& s = spans_[idx];
  s.end_ns = now_ns();
  stack_.pop_back();
  if (s.parent >= 0) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
}

double Tracer::self_seconds(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns - s.child_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

mempool::Json Tracer::to_json() const {
  using mempool::Json;
  Json arr = Json::array();
  for (const Span& s : spans_) {
    Json j = Json::object();
    j.set("name", s.name);
    j.set("start_ns", s.start_ns);
    j.set("end_ns", s.end_ns);
    j.set("parent", s.parent);
    j.set("op_id", s.op_id);
    arr.push_back(std::move(j));
  }
  Json doc = Json::object();
  doc.set("schema", "perfbench.spans.v1");
  doc.set("spans", std::move(arr));
  return doc;
}

namespace {

// Probe sizes and their nominal times: the probe's two halves take about
// these times on an undisturbed host of the 4-CPU kind the benchmark was
// tuned on; only their ratios to the measured times matter.
constexpr uint32_t kChaseEntries = 1u << 20;  // 4 MiB of uint32_t
constexpr uint32_t kChaseSteps = 400'000;
constexpr double kChaseNominalS = 0.016;
constexpr uint32_t kCodeBytes = 4096;
constexpr uint32_t kInterpSteps = 3'000'000;
constexpr double kInterpNominalS = 0.008;

uint64_t xorshift(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

HostSpeed::HostSpeed() : next_(kChaseEntries), code_(kCodeBytes) {
  // One cycle through all entries (Sattolo's shuffle) and random byte code,
  // both from a fixed seed.
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint32_t i = 0; i < kChaseEntries; ++i) next_[i] = i;
  for (uint32_t i = kChaseEntries - 1; i > 0; --i) {
    std::swap(next_[i], next_[xorshift(x) % i]);
  }
  for (uint8_t& c : code_) c = static_cast<uint8_t>(xorshift(x));
}

void HostSpeed::probe() {
  // Memory latency: a dependent walk through the permutation.
  const auto t0 = Clock::now();
  uint32_t i = 0;
  uint64_t h = 0;
  for (uint32_t k = 0; k < kChaseSteps; ++k) {
    i = next_[i];
    h = (h ^ i) * 0x100000001b3ull;
  }
  // Branchy integer work: a switch-dispatched interpreter over random code.
  const auto t1 = Clock::now();
  uint64_t a = 1, b = 2, c = 3;
  uint32_t pc = 0;
  for (uint32_t k = 0; k < kInterpSteps; ++k) {
    const uint8_t op = code_[pc];
    pc = (pc + 1) % kCodeBytes;
    switch (op & 7) {
      case 0: a += b; break;
      case 1: b ^= a << 3; break;
      case 2: c = c * a + 1; break;
      case 3: if (a & 1) pc = static_cast<uint32_t>((pc + b) % kCodeBytes); break;
      case 4: a = (a >> 1) | (c << 5); break;
      case 5: b += c; break;
      case 6: c ^= b; break;
      default: a -= c; break;
    }
  }
  const auto t2 = Clock::now();
  sink_ = h + a + b + c;  // keeps both loops from being optimised away
  const double chase = std::chrono::duration<double>(t1 - t0).count();
  const double interp = std::chrono::duration<double>(t2 - t1).count();
  probes_.push_back(
      {t2, (chase / kChaseNominalS + interp / kInterpNominalS) / 2});
}

double HostSpeed::corrected(const Timed& t) const {
  const auto after = std::upper_bound(
      probes_.begin(), probes_.end(), t.end,
      [](Clock::time_point e, const Probe& p) { return e < p.end; });
  double slowdown = 0;
  int n = 0;
  if (after != probes_.end()) {
    slowdown += after->slowdown;
    ++n;
  }
  if (after != probes_.begin()) {
    slowdown += std::prev(after)->slowdown;
    ++n;
  }
  return n == 0 ? t.seconds : t.seconds * n / slowdown;
}

mempool::Json HostSpeed::to_json() const {
  std::vector<double> v;
  for (const Probe& p : probes_) v.push_back(p.slowdown);
  mempool::Json j = mempool::Json::object();
  j.set("probes", v.size());
  j.set("slowdown_median", median(v));
  j.set("slowdown_spread", spread(v));
  return j;
}

mempool::Json Report::to_json() const {
  using mempool::Json;
  Json m = Json::object();
  for (const auto& [name, vu] : metrics_) {
    Json e = Json::object();
    e.set("value", vu.first);
    e.set("unit", vu.second);
    m.set(name, std::move(e));
  }
  Json errs = Json::array();
  for (const std::string& e : errors_) errs.push_back(e);
  Json out = Json::object();
  out.set("correct", failed_ == 0 && attempted_ > 0);
  out.set("attempted", attempted_);
  out.set("failed", failed_);
  out.set("metrics", std::move(m));
  Json info = info_;
  info.set("errors", std::move(errs));
  info.set("host_speed", host_.to_json());
  out.set("info", std::move(info));
  return out;
}

void report_ops(Report& r, const std::vector<double>& raw,
                const std::vector<double>& corrected, double tail_q,
                double elapsed_s) {
  const std::vector<double>& v = corrected;
  const auto n = static_cast<double>(v.size());
  r.metric("op_p50_ms", median(v) * 1e3, "ms");
  r.metric("op_tail_ms", quantile(v, tail_q) * 1e3, "ms");
  mempool::Json j = mempool::Json::object();
  j.set("samples", v.size());
  j.set("tail_percentile", tail_q * 100);
  j.set("beyond_tail", n * (1 - tail_q));
  j.set("spread_iqr_over_median", spread(v));
  j.set("raw_p50_ms", median(raw) * 1e3);
  j.set("raw_spread_iqr_over_median", spread(raw));
  j.set("ops_per_s", elapsed_s > 0 ? n / elapsed_s : 0);
  r.info("ops", std::move(j));
}

void report_sim_trace(Report& r, const std::vector<double>& plain,
                      const std::vector<double>& traced) {
  const double med = median(plain);
  double slow = 0;
  for (const double x : plain) slow += x > 1.5 * med ? 1 : 0;
  r.metric("runner.slow_rep_frac", slow / static_cast<double>(plain.size()),
           "fraction");
  r.metric("trace.sim_cycles_per_s_ratio", med / median(traced), "ratio");
  r.metric("trace.op_p50_ratio", median(traced) / med, "ratio");
  r.info("traced_ops", traced.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_point|toph2_sharded|kernels|service> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\n",
               msg);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  using mempool::Json;

  // Timings from an unoptimised or assert-enabled build mean nothing.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  if (build_type != "Release" || !optimised) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }

  Options o;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0 && o.seconds <= 120)) usage("--seconds must be in (0, 120]");

  const std::map<std::string, std::function<void(const Options&, Report&,
                                                 Tracer&)>>
      workloads = {{"paper_point", run_paper_point},
                   {"toph2_sharded", run_toph2_sharded},
                   {"kernels", run_kernels},
                   {"service", run_service}};
  const auto it = workloads.find(o.workload);
  if (it == workloads.end()) usage(("unknown workload " + o.workload).c_str());

  Report report;
  Tracer tracer(o.trace);
  try {
    it->second(o, report, tracer);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload aborted: ") + e.what());
  }
  if (!o.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  if (o.trace) {
    const std::string path =
        o.out_dir + "/spans-" + o.workload + "-" + std::to_string(o.seed) +
        ".json";
    std::ofstream(path) << tracer.to_json().dump(0) << "\n";
    report.info("spans_file", path);
  }

  Json prov = Json::object();
  prov.set("workload", o.workload);
  prov.set("seed", o.seed);
  prov.set("seconds", o.seconds);
  prov.set("trace", o.trace);
  prov.set("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  prov.set("hardware_concurrency",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  prov.set("cpu_model", cpu_model());
  prov.set("build_type", build_type);
  prov.set("compiler", PERFBENCH_COMPILER);
  prov.set("git_commit", commit);
  report.info("provenance", std::move(prov));

  std::cout << report.to_json().dump(0) << std::endl;
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}

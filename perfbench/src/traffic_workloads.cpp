// Traffic-generator workloads: paper_point (256-core TopH, λ=0.05, active
// engine) and toph2_sharded (1024-core TopH2, λ=0.1, sharded engine on up to
// four threads). Untimed operations go through the public entry
// run_traffic_point; the traced run steps a hand-built copy of the same
// point with the engine's phase profile switched on and must reproduce the
// public entry's counters and latencies exactly.

#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/cluster.hpp"
#include "mem/imem.hpp"
#include "noc/fabric.hpp"
#include "noc/monitor.hpp"
#include "runner/shard_gang.hpp"
#include "sim/engine.hpp"
#include "traffic/experiment.hpp"
#include "traffic/generator.hpp"

namespace perfbench {

using namespace mempool;

double zero_load_bound(const ClusterConfig& c, uint64_t samples) {
  const FabricTopology& f = FabricRegistry::get(c.topology.name);
  double sum = 0;
  double sum2 = 0;
  for (uint32_t s = 0; s < c.num_tiles; ++s) {
    for (uint32_t d = 0; d < c.num_tiles; ++d) {
      const auto z = static_cast<double>(f.zero_load_latency(c, s, d));
      sum += z;
      sum2 += z * z;
    }
  }
  const double n = static_cast<double>(c.num_tiles) * c.num_tiles;
  const double mean = sum / n;
  const double sd = std::sqrt(std::max(0.0, sum2 / n - mean * mean));
  const auto k = static_cast<double>(std::max<uint64_t>(samples, 1));
  return mean - 4 * sd / std::sqrt(k);
}

namespace {

uint64_t total_cycles(const TrafficExperimentConfig& c) {
  return c.warmup_cycles + c.measure_cycles + c.drain_cycles;
}

/// Output checks of one point: every request generated after warm-up
/// completed within the drain (conservation), and the mean latency is no
/// lower than the fabric allows.
std::string check_point(const TrafficExperimentConfig& cfg,
                        const TrafficPoint& p, const TrafficCounters& c) {
  if (c.completed != c.generated || p.completed != c.completed) {
    return "conservation: generated " + std::to_string(c.generated) +
           ", completed " + std::to_string(c.completed);
  }
  if (c.final_cycle != total_cycles(cfg)) return "run stopped early";
  const double bound = zero_load_bound(cfg.cluster, p.completed);
  if (!(p.avg_latency >= bound)) {
    return "mean latency " + std::to_string(p.avg_latency) +
           " below the zero-load bound " + std::to_string(bound);
  }
  return "";
}

uint64_t fingerprint(const TrafficPoint& p, const TrafficCounters& c) {
  Fingerprint f;
  for (const double d : {p.offered, p.generated, p.accepted, p.avg_latency,
                         p.p95_latency, p.max_latency}) {
    f.add(d);
  }
  for (const uint64_t v :
       {p.completed, c.generated, c.injected, c.completed,
        c.completed_in_window, c.tile_req_traversals, c.tile_resp_traversals,
        c.dir_traversals, c.remote_resp_traversals, c.group_local_traversals,
        c.butterfly_traversals, c.bank_accesses, c.bank_stall_cycles,
        c.final_cycle}) {
    f.add(v);
  }
  return f.value();
}

/// One traced operation: what the hand-built harness reads back.
struct TracedPoint {
  TrafficPoint point;
  TrafficCounters counters;
  Cluster::FabricStats fabric;
  Engine::PhaseProfile profile;
  uint64_t evaluations = 0;
  uint64_t commits = 0;
  uint64_t idle_cycles_skipped = 0;
  uint64_t parallel_cycles = 0;
};

/// The point run_traffic_point computes, built by hand so the engine's phase
/// profile can be switched on, with spans around build, run and check.
TracedPoint traced_point(const TrafficExperimentConfig& ecfg, Tracer& t) {
  TracedPoint out;
  const ClusterConfig& ccfg = ecfg.cluster;
  const bool sharded = ecfg.engine == EngineMode::kSharded;

  std::optional<Tracer::Scope> build;
  build.emplace(&t, "build");
  InstrMem imem(4096);
  Engine engine;
  engine.set_profile(true);
  Cluster cluster(ccfg, &imem);
  const uint32_t num_monitors = sharded ? cluster.num_shards() : 1;
  std::deque<LatencyMonitor> monitors;
  for (uint32_t s = 0; s < num_monitors; ++s) {
    monitors.emplace_back(ecfg.warmup_cycles);
    monitors.back().set_measure_end(ecfg.warmup_cycles + ecfg.measure_cycles);
  }
  std::unique_ptr<runner::ShardCrew> crew;
  if (sharded) {
    crew = std::make_unique<runner::ShardCrew>(ecfg.sim_threads,
                                               cluster.num_shards());
    engine.set_sharded(cluster.num_shards(), crew->executor());
  }
  TrafficConfig tcfg;
  tcfg.lambda = ecfg.lambda;
  tcfg.p_local_seq = ecfg.p_local_seq;
  tcfg.seed = ecfg.seed;
  tcfg.stop_generation_at = ecfg.warmup_cycles + ecfg.measure_cycles;
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  std::vector<Client*> clients;
  for (uint32_t c = 0; c < ccfg.num_cores(); ++c) {
    const auto tile = static_cast<uint16_t>(c / ccfg.cores_per_tile);
    LatencyMonitor* monitor =
        sharded ? &monitors[cluster.tile_shard(tile)] : &monitors.front();
    gens.push_back(std::make_unique<TrafficGenerator>(
        "gen" + std::to_string(c), static_cast<uint16_t>(c), tile, ccfg,
        &cluster.layout(), &engine, tcfg, monitor));
    clients.push_back(gens.back().get());
  }
  cluster.attach_clients(clients);
  cluster.build(engine);
  build.reset();

  {
    auto s = t.span("run");
    engine.run(total_cycles(ecfg));
  }

  auto s = t.span("check");
  LatencyMonitor& monitor = monitors.front();
  for (uint32_t m = 1; m < num_monitors; ++m) monitor.absorb(monitors[m]);
  out.fabric = cluster.fabric_stats();
  const Cluster::FabricStats& fs = out.fabric;
  TrafficCounters& c = out.counters;
  c.generated = monitor.generated();
  c.injected = monitor.injected();
  c.completed = monitor.completed();
  c.completed_in_window = monitor.completed_in_window();
  c.tile_req_traversals = fs.tile_req_traversals;
  c.tile_resp_traversals = fs.tile_resp_traversals;
  c.dir_traversals = fs.dir_traversals;
  c.remote_resp_traversals = fs.remote_resp_traversals;
  c.group_local_traversals = fs.group_local_traversals;
  c.butterfly_traversals = fs.butterfly_traversals;
  c.bank_accesses = fs.bank_accesses;
  c.bank_stall_cycles = fs.bank_stall_cycles;
  c.final_cycle = engine.cycle();
  TrafficPoint& p = out.point;
  const double window = static_cast<double>(ecfg.measure_cycles);
  const double cores = static_cast<double>(ccfg.num_cores());
  p.offered = ecfg.lambda;
  p.generated = static_cast<double>(monitor.generated()) / (window * cores);
  p.accepted =
      static_cast<double>(monitor.completed_in_window()) / (window * cores);
  p.avg_latency = monitor.avg_latency();
  p.p95_latency = monitor.p95_latency();
  p.max_latency = monitor.max_latency();
  p.completed = monitor.completed();
  out.profile = engine.phase_profile();
  out.evaluations = engine.evaluations();
  out.commits = engine.commits();
  out.idle_cycles_skipped = engine.idle_cycles_skipped();
  out.parallel_cycles = engine.parallel_cycles();
  return out;
}

void run_traffic(const Options& o, Report& r, Tracer& t,
                 TrafficExperimentConfig cfg) {
  cfg.seed = o.seed;
  {
    Json c = Json::object();
    c.set("topology", cfg.cluster.display_name());
    c.set("cores", cfg.cluster.num_cores());
    c.set("lambda", cfg.lambda);
    c.set("engine", cfg.engine == EngineMode::kSharded ? "sharded" : "active");
    c.set("sim_threads", cfg.sim_threads);
    c.set("cycles", total_cycles(cfg));
    r.info("config", std::move(c));
  }

  // Set-up: the cost of a point up to its first simulated cycles, taken as
  // a one-cycle point through the public entry, several times.
  TrafficExperimentConfig tiny = cfg;
  tiny.warmup_cycles = 0;
  tiny.measure_cycles = 1;
  tiny.drain_cycles = 0;
  std::vector<Timed> setups;
  for (int k = 0; k < 5; ++k) {
    r.host().probe();
    const auto t0 = Clock::now();
    run_traffic_point(tiny);
    setups.push_back({Clock::now(), seconds_since(t0)});
  }

  // Untraced operations. The first one is checked but not timed: it pays
  // the process's first-touch page faults.
  const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<Timed> times;
  uint64_t fp = 0;
  bool first = true;
  auto timed_from = Clock::now();
  while (first || seconds_since(timed_from) < phase_s) {
    r.host().probe();
    TrafficCounters c;
    const auto t0 = Clock::now();
    const TrafficPoint p = run_traffic_point(cfg, &c);
    const Timed op{Clock::now(), seconds_since(t0)};
    std::string err = check_point(cfg, p, c);
    const uint64_t f = fingerprint(p, c);
    if (first) {
      fp = f;
      first = false;
      timed_from = Clock::now();
    } else {
      times.push_back(op);
      if (err.empty() && f != fp) err = "fingerprint differs between repetitions";
    }
    r.op(err);
  }
  r.host().probe();
  const double elapsed = seconds_since(timed_from);
  r.info("fingerprint", hex64(fp));
  const double cycles = static_cast<double>(total_cycles(cfg));

  if (!o.trace) {
    const std::vector<double> ct = r.host().corrected(times);
    r.metric("setup_s", median(r.host().corrected(setups)), "s");
    r.metric("sim_cycles_per_s", cycles / median(ct), "cycles/s");
    report_ops(r, seconds_of(times), ct, kSimTailQ, elapsed);
    return;
  }

  // Traced operations: the hand-built harness with spans and the phase
  // profile; every one must reproduce the untraced fingerprint.
  std::vector<Timed> ttimes;
  std::vector<double> eval_ms, commit_ms, drain_ms, barrier_ms, ns_per_eval,
      ns_per_trav;
  TracedPoint ref;
  const auto tstart = Clock::now();
  while (ttimes.empty() || seconds_since(tstart) < phase_s) {
    r.host().probe();
    t.set_op_id(ttimes.size() + 1);
    const auto t0 = Clock::now();
    TracedPoint tp;
    {
      auto rep = t.span("rep");
      tp = traced_point(cfg, t);
    }
    ttimes.push_back({Clock::now(), seconds_since(t0)});
    std::string err = check_point(cfg, tp.point, tp.counters);
    if (err.empty() && fingerprint(tp.point, tp.counters) != fp) {
      err = "traced run's simulated statistics differ from the untraced run";
    }
    if (ttimes.size() == 1) {
      ref = tp;
    } else if (err.empty() &&
               (tp.evaluations != ref.evaluations ||
                tp.commits != ref.commits ||
                tp.idle_cycles_skipped != ref.idle_cycles_skipped ||
                tp.parallel_cycles != ref.parallel_cycles)) {
      err = "engine counters differ between traced repetitions";
    }
    r.op(err);
    const Engine::PhaseProfile& pr = tp.profile;
    eval_ms.push_back(static_cast<double>(pr.evaluate_ns) * 1e-6);
    commit_ms.push_back(static_cast<double>(pr.commit_ns) * 1e-6);
    drain_ms.push_back(static_cast<double>(pr.drain_ns) * 1e-6);
    barrier_ms.push_back(static_cast<double>(pr.barrier_ns) * 1e-6);
    ns_per_eval.push_back(static_cast<double>(pr.evaluate_ns) /
                          static_cast<double>(std::max<uint64_t>(tp.evaluations, 1)));
    const Cluster::FabricStats& fs = tp.fabric;
    const uint64_t trav = fs.tile_req_traversals + fs.tile_resp_traversals +
                          fs.dir_traversals + fs.remote_resp_traversals +
                          fs.group_local_traversals + fs.butterfly_traversals;
    ns_per_trav.push_back(static_cast<double>(pr.evaluate_ns + pr.commit_ns +
                                              pr.drain_ns + pr.barrier_ns) /
                          static_cast<double>(std::max<uint64_t>(trav, 1)));
  }
  r.host().probe();

  const auto u = [](uint64_t v) { return static_cast<double>(v); };
  r.metric("sim.evaluate_ms", median(eval_ms), "ms");
  r.metric("sim.commit_ms", median(commit_ms), "ms");
  r.metric("sim.drain_ms", median(drain_ms), "ms");
  r.metric("sim.barrier_ms", median(barrier_ms), "ms");
  r.metric("sim.evaluations", u(ref.evaluations), "count");
  r.metric("sim.commits", u(ref.commits), "count");
  r.metric("sim.idle_cycles_skipped", u(ref.idle_cycles_skipped), "count");
  r.metric("sim.parallel_cycles", u(ref.parallel_cycles), "count");
  r.metric("sim.ns_per_evaluation", median(ns_per_eval), "ns");
  const Cluster::FabricStats& fs = ref.fabric;
  r.metric("noc.tile_req_traversals", u(fs.tile_req_traversals), "count");
  r.metric("noc.tile_resp_traversals", u(fs.tile_resp_traversals), "count");
  r.metric("noc.group_local_traversals", u(fs.group_local_traversals), "count");
  r.metric("noc.butterfly_traversals", u(fs.butterfly_traversals), "count");
  r.metric("noc.host_ns_per_traversal", median(ns_per_trav), "ns");
  r.metric("mem.bank_accesses", u(fs.bank_accesses), "count");
  r.metric("mem.bank_stall_cycles", u(fs.bank_stall_cycles), "count");
  r.metric("traffic.generated", u(ref.counters.generated), "count");
  r.metric("traffic.completed", u(ref.counters.completed), "count");
  r.metric("traffic.accepted", ref.point.accepted, "req/core/cycle");
  r.metric("traffic.avg_latency_cycles", ref.point.avg_latency, "cycles");
  r.metric("traffic.p95_latency_cycles", ref.point.p95_latency, "cycles");
  const auto n = static_cast<double>(ttimes.size());
  r.metric("span.build_ms", t.self_seconds("build") / n * 1e3, "ms");
  r.metric("span.run_ms", t.self_seconds("run") / n * 1e3, "ms");
  r.metric("span.check_ms", t.self_seconds("check") / n * 1e3, "ms");
  report_sim_trace(r, r.host().corrected(times), r.host().corrected(ttimes));
}

}  // namespace

void run_paper_point(const Options& o, Report& r, Tracer& t) {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::paper(Topology::kTopH, false);
  cfg.lambda = 0.05;
  cfg.p_local_seq = 0;
  cfg.engine = EngineMode::kActive;
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 12000;  // 3x the committed gate's window
  cfg.drain_cycles = 2000;
  run_traffic(o, r, t, cfg);
}

void run_toph2_sharded(const Options& o, Report& r, Tracer& t) {
  TrafficExperimentConfig cfg;
  cfg.cluster = ClusterConfig::paper(TopologySpec("TopH2"), false);
  cfg.lambda = 0.1;
  cfg.p_local_seq = 0;
  cfg.engine = EngineMode::kSharded;
  cfg.sim_threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  run_traffic(o, r, t, cfg);
}

}  // namespace perfbench

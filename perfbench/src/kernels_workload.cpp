// kernels workload: matmul (n=64), 2dconv (width 256) and dct on the 256-core
// TopHS cluster, executed instruction by instruction on the Snitch model and
// verified against their golden models. One operation runs all three
// kernels, each on a fresh System, through the public entry run_kernel. The
// traced run performs the same steps as run_kernel one by one (load, init,
// run, check) with the engine's phase profile on.

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/dct.hpp"
#include "kernels/kernel.hpp"
#include "kernels/matmul.hpp"

namespace perfbench {
namespace {

using namespace mempool;

constexpr uint64_t kMaxCycles = 50'000'000;
constexpr std::array<const char*, 3> kNames = {"matmul", "2dconv", "dct"};

std::vector<kernels::KernelProgram> build_programs(const ClusterConfig& cfg,
                                                   uint64_t seed) {
  return {kernels::build_matmul(cfg, 64, splitmix64(seed ^ 1)),
          kernels::build_conv2d(cfg, 256, splitmix64(seed ^ 2)),
          kernels::build_dct(cfg, splitmix64(seed ^ 3))};
}

/// Simulated statistics of one kernel run.
struct KernelRun {
  uint64_t cycles = 0;
  SnitchCore::Stats core;
  Cluster::FabricStats fabric;
  Engine::PhaseProfile profile;
  uint64_t evaluations = 0;
  uint64_t commits = 0;
  uint64_t idle_cycles_skipped = 0;
  uint64_t parallel_cycles = 0;
  double run_s = 0;  ///< Host time of the simulated cycles alone.
};

void read_back(const System& sys, KernelRun& k) {
  k.core = sys.aggregate_core_stats();
  k.fabric = sys.cluster().fabric_stats();
}

void add_to(Fingerprint& f, const KernelRun& k) {
  const SnitchCore::Stats& s = k.core;
  const Cluster::FabricStats& fs = k.fabric;
  for (const uint64_t v :
       {k.cycles, s.instret, s.cycles, s.stall_fetch, s.stall_raw,
        s.stall_rob, s.stall_port, s.stall_ctrl, s.alu, s.mul, s.div,
        s.branches, s.loads_local, s.loads_remote, s.stores_local,
        s.stores_remote, s.amos, s.resp_latency_sum, s.resp_count,
        fs.tile_req_traversals, fs.tile_resp_traversals, fs.dir_traversals,
        fs.remote_resp_traversals, fs.group_local_traversals,
        fs.butterfly_traversals, fs.bank_accesses, fs.bank_stall_cycles,
        fs.icache_hits, fs.icache_misses, fs.icache_refills}) {
    f.add(v);
  }
}

/// Raw and host-speed corrected times of the kernel sets, from the times of
/// their kernels (each corrected by the probes around it).
std::pair<std::vector<double>, std::vector<double>> set_times(
    const HostSpeed& hs, const std::array<std::vector<Timed>, 3>& kernel_s) {
  std::vector<double> raw(kernel_s[0].size(), 0.0);
  std::vector<double> corrected(raw.size(), 0.0);
  for (const std::vector<Timed>& k : kernel_s) {
    for (std::size_t j = 0; j < raw.size(); ++j) {
      raw[j] += k[j].seconds;
      corrected[j] += hs.corrected(k[j]);
    }
  }
  return {raw, corrected};
}

/// run_kernel, step by step, with spans and the phase profile.
KernelRun traced_kernel(const ClusterConfig& cfg,
                        const kernels::KernelProgram& kp, Tracer& t) {
  KernelRun k;
  auto top = t.span(kp.name.c_str());
  std::optional<System> sys;
  {
    auto s = t.span("build");
    sys.emplace(cfg);
    sys->engine().set_profile(true);
  }
  {
    auto s = t.span("load");
    sys->load_program(kp.image);
  }
  {
    auto s = t.span("init");
    if (kp.init) kp.init(*sys);
  }
  {
    auto s = t.span("run");
    const auto t0 = Clock::now();
    const System::RunResult r = sys->run(kMaxCycles);
    k.run_s = seconds_since(t0);
    MEMPOOL_CHECK_MSG(r.all_halted, kp.name << " did not finish");
    k.cycles = r.cycles;
  }
  auto s = t.span("check");
  std::string err;
  MEMPOOL_CHECK_MSG(!kp.check || kp.check(*sys, &err), kp.name << ": " << err);
  read_back(*sys, k);
  const Engine& e = sys->engine();
  k.profile = e.phase_profile();
  k.evaluations = e.evaluations();
  k.commits = e.commits();
  k.idle_cycles_skipped = e.idle_cycles_skipped();
  k.parallel_cycles = e.parallel_cycles();
  return k;
}

}  // namespace

void run_kernels(const Options& o, Report& r, Tracer& t) {
  const ClusterConfig cfg = ClusterConfig::paper(Topology::kTopH, true);
  {
    Json c = Json::object();
    c.set("topology", cfg.display_name());
    c.set("cores", cfg.num_cores());
    c.set("kernels", "matmul n=64, 2dconv width=256, dct");
    r.info("config", std::move(c));
  }

  // Set-up: everything before the first simulated cycle of each kernel
  // (program build, System, image load, input init), several times.
  std::vector<Timed> setups;
  std::vector<kernels::KernelProgram> programs;
  for (int k = 0; k < 3; ++k) {
    r.host().probe();
    const auto t0 = Clock::now();
    programs = build_programs(cfg, o.seed);
    for (const kernels::KernelProgram& kp : programs) {
      System sys(cfg);
      sys.load_program(kp.image);
      if (kp.init) kp.init(sys);
    }
    setups.push_back({Clock::now(), seconds_since(t0)});
  }

  // Untraced operations: the three kernels through run_kernel, each
  // verified, with a host-speed probe before each kernel. The first set is
  // checked but not timed.
  const double phase_s = o.trace ? o.seconds / 2 : o.seconds;
  std::array<std::vector<Timed>, 3> kernel_s;
  std::array<uint64_t, 3> cycles{};
  uint64_t instret = 0;
  uint64_t fp = 0;
  bool first = true;
  auto timed_from = Clock::now();
  while (first || seconds_since(timed_from) < phase_s) {
    Fingerprint f;
    std::string err;
    std::array<Timed, 3> ks{};
    uint64_t set_instret = 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      r.host().probe();
      const auto k0 = Clock::now();
      KernelRun k;
      try {
        System sys(cfg);
        k.cycles = kernels::run_kernel(sys, programs[i], kMaxCycles);
        read_back(sys, k);
      } catch (const CheckError& e) {
        if (err.empty()) err = e.what();
      }
      ks[i] = {Clock::now(), seconds_since(k0)};
      cycles[i] = k.cycles;
      set_instret += k.core.instret;
      add_to(f, k);
    }
    if (first) {
      fp = f.value();
      first = false;
      instret = set_instret;
      timed_from = Clock::now();
    } else {
      for (std::size_t i = 0; i < 3; ++i) kernel_s[i].push_back(ks[i]);
      if (err.empty() && f.value() != fp) {
        err = "fingerprint differs between repetitions";
      }
    }
    r.op(err);
  }
  r.host().probe();
  const double elapsed = seconds_since(timed_from);
  const double sim_cycles =
      static_cast<double>(cycles[0] + cycles[1] + cycles[2]);
  r.info("fingerprint", hex64(fp));
  const auto [raw, ct] = set_times(r.host(), kernel_s);

  if (!o.trace) {
    r.metric("setup_s", median(r.host().corrected(setups)), "s");
    r.metric("sim_cycles_per_s", sim_cycles / median(ct), "cycles/s");
    report_ops(r, raw, ct, kSimTailQ, elapsed);
    return;
  }

  // Traced operations: the same kernels step by step; the fingerprint must
  // match the untraced one.
  std::array<std::vector<Timed>, 3> tkernel_s;
  std::vector<double> eval_ms, commit_ms, drain_ms, barrier_ms, ns_per_eval,
      ns_per_instr, ns_per_trav;
  std::vector<KernelRun> ref;
  const auto tstart = Clock::now();
  std::size_t traced_ops = 0;
  while (traced_ops == 0 || seconds_since(tstart) < phase_s) {
    t.set_op_id(++traced_ops);
    Fingerprint f;
    std::string err;
    std::vector<KernelRun> runs;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      r.host().probe();
      const auto k0 = Clock::now();
      try {
        runs.push_back(traced_kernel(cfg, programs[i], t));
      } catch (const CheckError& e) {
        if (err.empty()) err = e.what();
        runs.emplace_back();
      }
      tkernel_s[i].push_back({Clock::now(), seconds_since(k0)});
      add_to(f, runs.back());
    }
    if (err.empty() && f.value() != fp) {
      err = "traced run's simulated statistics differ from the untraced run";
    }
    r.op(err);
    Engine::PhaseProfile prof;
    uint64_t evals = 0, instr = 0, trav = 0;
    double run_s = 0;
    for (const KernelRun& k : runs) {
      prof.evaluate_ns += k.profile.evaluate_ns;
      prof.commit_ns += k.profile.commit_ns;
      prof.drain_ns += k.profile.drain_ns;
      prof.barrier_ns += k.profile.barrier_ns;
      evals += k.evaluations;
      instr += k.core.instret;
      run_s += k.run_s;
      const Cluster::FabricStats& fs = k.fabric;
      trav += fs.tile_req_traversals + fs.tile_resp_traversals +
              fs.dir_traversals + fs.remote_resp_traversals +
              fs.group_local_traversals + fs.butterfly_traversals;
    }
    const auto per = [](double x, uint64_t n) {
      return x / static_cast<double>(std::max<uint64_t>(n, 1));
    };
    eval_ms.push_back(static_cast<double>(prof.evaluate_ns) * 1e-6);
    commit_ms.push_back(static_cast<double>(prof.commit_ns) * 1e-6);
    drain_ms.push_back(static_cast<double>(prof.drain_ns) * 1e-6);
    barrier_ms.push_back(static_cast<double>(prof.barrier_ns) * 1e-6);
    ns_per_eval.push_back(per(static_cast<double>(prof.evaluate_ns), evals));
    ns_per_instr.push_back(per(run_s * 1e9, instr));
    ns_per_trav.push_back(per(run_s * 1e9, trav));
    if (ref.empty()) ref = runs;
  }
  r.host().probe();

  // Counts summed over the three kernels of one operation.
  KernelRun tot;
  for (const KernelRun& k : ref) {
    tot.evaluations += k.evaluations;
    tot.commits += k.commits;
    tot.idle_cycles_skipped += k.idle_cycles_skipped;
    tot.parallel_cycles += k.parallel_cycles;
    const SnitchCore::Stats& s = k.core;
    tot.core.instret += s.instret;
    tot.core.cycles += s.cycles;
    tot.core.stall_fetch += s.stall_fetch;
    tot.core.stall_raw += s.stall_raw;
    tot.core.stall_rob += s.stall_rob;
    tot.core.stall_port += s.stall_port;
    tot.core.stall_ctrl += s.stall_ctrl;
    const Cluster::FabricStats& fs = k.fabric;
    tot.fabric.tile_req_traversals += fs.tile_req_traversals;
    tot.fabric.tile_resp_traversals += fs.tile_resp_traversals;
    tot.fabric.group_local_traversals += fs.group_local_traversals;
    tot.fabric.butterfly_traversals += fs.butterfly_traversals;
    tot.fabric.bank_accesses += fs.bank_accesses;
    tot.fabric.bank_stall_cycles += fs.bank_stall_cycles;
    tot.fabric.icache_hits += fs.icache_hits;
    tot.fabric.icache_misses += fs.icache_misses;
  }
  const auto u = [](uint64_t v) { return static_cast<double>(v); };
  const double core_cycles = u(std::max<uint64_t>(tot.core.cycles, 1));
  r.metric("sim.evaluate_ms", median(eval_ms), "ms");
  r.metric("sim.commit_ms", median(commit_ms), "ms");
  r.metric("sim.drain_ms", median(drain_ms), "ms");
  r.metric("sim.barrier_ms", median(barrier_ms), "ms");
  r.metric("sim.evaluations", u(tot.evaluations), "count");
  r.metric("sim.commits", u(tot.commits), "count");
  r.metric("sim.idle_cycles_skipped", u(tot.idle_cycles_skipped), "count");
  r.metric("sim.parallel_cycles", u(tot.parallel_cycles), "count");
  r.metric("sim.ns_per_evaluation", median(ns_per_eval), "ns");
  r.metric("noc.tile_req_traversals", u(tot.fabric.tile_req_traversals), "count");
  r.metric("noc.tile_resp_traversals", u(tot.fabric.tile_resp_traversals), "count");
  r.metric("noc.group_local_traversals", u(tot.fabric.group_local_traversals), "count");
  r.metric("noc.butterfly_traversals", u(tot.fabric.butterfly_traversals), "count");
  r.metric("noc.host_ns_per_traversal", median(ns_per_trav), "ns");
  r.metric("mem.bank_accesses", u(tot.fabric.bank_accesses), "count");
  r.metric("mem.bank_stall_cycles", u(tot.fabric.bank_stall_cycles), "count");
  r.metric("mem.icache_hits", u(tot.fabric.icache_hits), "count");
  r.metric("mem.icache_misses", u(tot.fabric.icache_misses), "count");
  r.metric("core.instret", u(tot.core.instret), "count");
  r.metric("core.ipc", u(tot.core.instret) / core_cycles, "instr/cycle");
  r.metric("core.stall_fetch_frac", u(tot.core.stall_fetch) / core_cycles, "fraction");
  r.metric("core.stall_raw_frac", u(tot.core.stall_raw) / core_cycles, "fraction");
  r.metric("core.stall_rob_frac", u(tot.core.stall_rob) / core_cycles, "fraction");
  r.metric("core.stall_port_frac", u(tot.core.stall_port) / core_cycles, "fraction");
  r.metric("core.stall_ctrl_frac", u(tot.core.stall_ctrl) / core_cycles, "fraction");
  r.metric("core.host_ns_per_instr", median(ns_per_instr), "ns");
  r.metric("core.sim_instr_per_s", u(instret) / median(ct), "instr/s");
  r.metric("kernels.sim_cycles", sim_cycles, "cycles");
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string k = std::string("kernels.") + kNames[i];
    r.metric(k + ".sim_cycles", u(cycles[i]), "cycles");
    r.metric(k + ".host_s", median(r.host().corrected(kernel_s[i])), "s");
  }
  const auto n = static_cast<double>(traced_ops);
  for (const char* span : {"build", "load", "init", "run", "check"}) {
    r.metric(std::string("span.") + span + "_ms",
             t.self_seconds(span) / n * 1e3, "ms");
  }
  report_sim_trace(r, ct, set_times(r.host(), tkernel_s).second);
}

}  // namespace perfbench

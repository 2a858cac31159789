// service workload: an in-process SimServer on an AF_UNIX socket with one
// simulation worker, driven by one SimClient in a closed loop. The request
// mix is seeded: 95% repeat one of 32 primed mini-cluster points (cache
// hits, answered without simulating) and 5% are points never seen before,
// which the server computes through run_point. Every hit must equal, bit for
// bit, the result first returned for its key.

#include <unistd.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace mempool;
using namespace mempool::serve;

constexpr std::size_t kPrimed = 32;
constexpr double kHitShare = 0.95;
constexpr std::array<const char*, 4> kTopologies = {"Top1", "Top4", "TopH",
                                                    "TopX"};
constexpr std::array<double, 4> kLoads = {0.05, 0.1, 0.2, 0.3};

/// A mini-cluster (64-core) point of seeded topology and load.
SimRequest mini_point(Rng& rng, uint64_t point_seed) {
  TrafficExperimentConfig c;
  c.cluster = ClusterConfig::mini(
      TopologySpec(kTopologies[rng.next_below(kTopologies.size())]), false);
  c.lambda = kLoads[rng.next_below(kLoads.size())];
  c.warmup_cycles = 200;
  c.measure_cycles = 1000;
  c.drain_cycles = 300;
  c.seed = point_seed;
  return SimRequest::from_config(c);
}

uint64_t point_cycles(const SimRequest& r) {
  const TrafficExperimentConfig& c = r.config;
  return c.warmup_cycles + c.measure_cycles + c.drain_cycles;
}

/// Client-side view of one request.
struct Sample {
  Timed rtt;
  double service_ms = 0;
  bool hit = false;
};

/// The measured request loop: primed points, the client, and what each
/// request must return.
class Loop {
 public:
  Loop(uint64_t seed, SimClient* client, Report* report)
      : rng_(splitmix64(seed)), next_seed_(splitmix64(seed ^ 0x5eed) >> 16),
        client_(client), report_(report) {
    for (std::size_t i = 0; i < kPrimed; ++i) {
      primed_.push_back(mini_point(rng_, next_seed_++));
    }
  }

  /// Compute every primed point once; their results are the reference.
  void prime() {
    for (const SimRequest& req : primed_) {
      const ServiceResponse resp = client_->run(req);
      std::string err = resp.ok ? "" : "priming failed: " + resp.error;
      if (err.empty() && resp.cache_hit) err = "fresh point reported cached";
      report_->op(err);
      results_.push_back(resp.result);
    }
  }

  /// Requests for @p seconds; spans go to @p t (which may be off).
  std::vector<Sample> run(double seconds, Tracer& t) {
    std::vector<Sample> out;
    const auto start = Clock::now();
    while (seconds_since(start) < seconds) {
      const bool hit = rng_.next_bool(kHitShare);
      const std::size_t idx = hit ? rng_.next_below(kPrimed) : 0;
      const SimRequest req = hit ? primed_[idx] : mini_point(rng_, next_seed_++);
      uint64_t id = 0;
      t.set_op_id(++ops_);
      const auto t0 = Clock::now();
      ServiceResponse resp;
      {
        auto rs = t.span("request");
        {
          auto s = t.span("send");
          client_->send_line(client_->make_run_line(req, &id));
        }
        Json line;
        {
          auto s = t.span("recv");
          line = client_->recv_line();
        }
        {
          auto s = t.span("decode");
          resp = response_from_json(line);
        }
      }
      out.push_back({{Clock::now(), seconds_since(t0)}, resp.service_ms, hit});
      {
        auto s = t.span("check");
        report_->op(check(req, hit, idx, resp));
      }
      report_->host().probe_every(0.25);
    }
    report_->host().probe();
    return out;
  }

  const std::vector<SimRequest>& primed() const { return primed_; }
  const std::vector<SimResult>& results() const { return results_; }
  uint64_t errors() const { return errors_; }

 private:
  std::string check(const SimRequest& req, bool hit, std::size_t idx,
                    const ServiceResponse& resp) {
    if (!resp.ok) {
      ++errors_;
      return "request failed (" + resp.kind + "): " + resp.error;
    }
    if (resp.key != req.key()) return "response answers another key";
    if (resp.cache_hit != hit) {
      return hit ? "primed point was recomputed" : "fresh point reported cached";
    }
    if (hit) {
      return resp.result == results_[idx]
                 ? ""
                 : "hit differs from the first result for its key";
    }
    const TrafficPoint& p = resp.result.point;
    if (resp.result.request_key != resp.key) return "result for another key";
    if (p.offered != req.config.lambda || p.completed == 0) {
      return "computed point is empty";
    }
    const double bound = zero_load_bound(req.config.cluster, p.completed);
    if (!(p.avg_latency >= bound)) return "mean latency below zero-load bound";
    return "";
  }

  Rng rng_;
  uint64_t next_seed_;
  SimClient* client_;
  Report* report_;
  std::vector<SimRequest> primed_;
  std::vector<SimResult> results_;
  uint64_t ops_ = 0;
  uint64_t errors_ = 0;
};

/// Corrected round trips of the hits (@p hit 1), the misses (0) or all (-1).
std::vector<double> rtts(const HostSpeed& hs, const std::vector<Sample>& v,
                         int hit) {
  std::vector<double> out;
  for (const Sample& s : v) {
    if (hit < 0 || s.hit == (hit == 1)) out.push_back(hs.corrected(s.rtt));
  }
  return out;
}

/// Median host time of one call of @p fn, in microseconds.
template <typename Fn>
double per_call_us(Fn fn) {
  std::vector<double> us;
  for (int round = 0; round < 64; ++round) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

}  // namespace

void run_service(const Options& o, Report& r, Tracer& t) {
  ServerConfig sc;
  sc.socket_path =
      o.out_dir + "/svc-" + std::to_string(::getpid()) + ".sock";
  sc.service.threads = 1;
  sc.service.cache_capacity = 1024;
  {
    Json c = Json::object();
    c.set("socket", sc.socket_path);
    c.set("workers", 1);
    c.set("primed_points", kPrimed);
    c.set("hit_share", kHitShare);
    r.info("config", std::move(c));
  }

  // Set-up: server start until the first answered request (a ping), several
  // times; the last server stays up for the measurement.
  std::vector<Timed> setups;
  std::unique_ptr<SimServer> server;
  std::unique_ptr<SimClient> client;
  for (int k = 0; k < 9; ++k) {
    client.reset();
    server.reset();  // stops, drains and unlinks the socket
    r.host().probe();
    const auto t0 = Clock::now();
    server = std::make_unique<SimServer>(sc);
    server->start();
    client = std::make_unique<SimClient>(sc.socket_path, 2000, 30'000);
    const bool pong = client->ping();
    setups.push_back({Clock::now(), seconds_since(t0)});
    r.check(pong, "server did not answer ping");
  }

  Loop loop(o.seed, client.get(), &r);
  loop.prime();
  Fingerprint f;
  for (const SimResult& res : loop.results()) {
    const TrafficPoint& p = res.point;
    for (const double d : {p.offered, p.generated, p.accepted, p.avg_latency,
                           p.p95_latency, p.max_latency}) {
      f.add(d);
    }
    f.add(p.completed);
  }
  r.info("fingerprint", hex64(f.value()));

  Tracer off(false);
  r.host().probe();
  const auto t0 = Clock::now();
  const std::vector<Sample> samples =
      loop.run(o.trace ? o.seconds / 2 : o.seconds, off);
  const double elapsed = seconds_since(t0);
  const double cycles = static_cast<double>(point_cycles(loop.primed()[0]));
  const HostSpeed& hs = r.host();
  const std::vector<double> all = rtts(hs, samples, -1);
  const std::vector<double> hits = rtts(hs, samples, 1);
  const std::vector<double> misses = rtts(hs, samples, 0);
  {
    Json c = Json::object();
    c.set("hits", hits.size());
    c.set("misses", misses.size());
    r.info("requests", std::move(c));
  }

  if (!o.trace) {
    r.metric("setup_s", median(hs.corrected(setups)), "s");
    r.metric("sim_cycles_per_s", cycles / median(misses), "cycles/s");
    std::vector<double> raw;
    for (const Sample& x : samples) raw.push_back(x.rtt.seconds);
    report_ops(r, raw, all, 0.99, elapsed);
  } else {
    const std::vector<Sample> traced = loop.run(o.seconds / 2, t);
    r.metric("serve.rtt_hit_p50_us", median(hits) * 1e6, "us");
    r.metric("serve.rtt_hit_p99_us", quantile(hits, 0.99) * 1e6, "us");
    r.metric("serve.rtt_miss_p50_ms", median(misses) * 1e3, "ms");
    r.metric("serve.rtt_miss_p99_ms", quantile(misses, 0.99) * 1e3, "ms");
    r.metric("serve.requests_per_s",
             static_cast<double>(samples.size()) / elapsed, "1/s");
    std::vector<double> svc_hit, svc_miss, wire;
    for (const Sample& s : samples) {
      (s.hit ? svc_hit : svc_miss).push_back(s.service_ms);
      if (s.hit) wire.push_back(s.rtt.seconds * 1e6 - s.service_ms * 1e3);
    }
    r.metric("serve.service_ms_hit_p50", median(svc_hit), "ms");
    r.metric("serve.service_ms_miss_p50", median(svc_miss), "ms");
    r.metric("serve.wire_us_p50", median(wire), "us");
    r.metric("serve.hit_rate",
             static_cast<double>(hits.size()) /
                 static_cast<double>(samples.size()),
             "fraction");
    r.metric("serve.errors", static_cast<double>(loop.errors()), "count");
    const std::vector<Json> wire_requests = [&] {
      std::vector<Json> v;
      for (const SimRequest& q : loop.primed()) v.push_back(q.to_json());
      return v;
    }();
    std::size_t i = 0;
    r.metric("serve.parse_us", per_call_us([&] {
               SimRequest::from_json(wire_requests[i++ % kPrimed]);
             }),
             "us");
    r.metric("serve.key_us", per_call_us([&] {
               (void)loop.primed()[i++ % kPrimed].key();
             }),
             "us");
    const auto n = static_cast<double>(traced.size());
    r.metric("span.send_us", t.self_seconds("send") / n * 1e6, "us");
    r.metric("span.recv_us", t.self_seconds("recv") / n * 1e6, "us");
    r.metric("span.decode_us", t.self_seconds("decode") / n * 1e6, "us");
    r.metric("span.check_ms", t.self_seconds("check") / n * 1e3, "ms");
    r.metric("trace.sim_cycles_per_s_ratio",
             median(misses) / median(rtts(hs, traced, 0)), "ratio");
    r.metric("trace.op_p50_ratio", median(rtts(hs, traced, -1)) / median(all),
             "ratio");
    r.info("traced_ops", traced.size());
  }

  client.reset();
  server.reset();
}

}  // namespace perfbench

// The repository benchmark: four workloads, two clocks, one ledger.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload is a fixed set of *points*: a batch point is one polyglot
// program built, run and verified on its own runtime; a serve point is one
// ServeScheduler run over a shared GroutRuntime. The seed drives arrivals
// and contention keys (ServeConfig::seed) and WorkloadParams::seed. One
// *pass* runs every point once. The harness repeats passes until the time
// budget is spent and reports host-time metrics over the passes after the
// first, which warms up: wall_s sums each point's fastest pass, setup_s
// each point's median set-up. Simulated metrics come from the first
// pass; every later pass must reproduce them bit for bit (the sim digest),
// which is itself a check.
//
// With --trace 0 the last stdout line carries the end-to-end metrics. With
// --trace 1 the passes alternate untraced and traced runtimes
// (ClusterConfig::trace), the last line carries the per-layer ledger, and
// the traced digest must equal the untraced one: tracing must not perturb
// the model.
//
// Per-layer host time is measured only from outside the library, around
// public calls: Workload::build/run/verify, a polyglot::Backend decorator
// timing launch/synchronize/ensure_host_readable, and ServeScheduler::run.
// Per-layer counts come from public introspection (SchedulerMetrics, UVM
// stats, the fabric, the Global DAG, the engine, the tracer).
//
// Runs on the serial engine and starts no threads. Every host-side time
// ("wall" metrics included) is the process's CPU time, so time spent waiting
// for a CPU, e.g. while the hypervisor runs another guest, is not counted
// against the program.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "polyglot/backend.hpp"
#include "polyglot/context.hpp"
#include "serve/serve.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace grout;
using workloads::WorkloadKind;

/// CPU seconds consumed by this process so far.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(double t0) { return cpu_now() - t0; }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

constexpr double kGiB = 1073741824.0;

// ---------------------------------------------------------------------------
// The ledger: per-pass layer counters
// ---------------------------------------------------------------------------

/// Host seconds spent inside the public Backend entry points.
struct BackendTimes {
  double launch_s{0.0};
  double sync_s{0.0};
  double host_read_s{0.0};
  double other_s{0.0};
  std::uint64_t launches{0};
  [[nodiscard]] double total() const { return launch_s + sync_s + host_read_s + other_s; }
};

/// Times every call into the wrapped backend. Passed to the library
/// through the public Context(std::unique_ptr<Backend>) constructor.
class TimedBackend final : public polyglot::Backend {
 public:
  TimedBackend(std::unique_ptr<polyglot::Backend> inner, BackendTimes& times)
      : inner_{std::move(inner)}, times_{times} {}

  polyglot::ArrayRef alloc(Bytes bytes, std::string name) override {
    const double t0 = cpu_now();
    const polyglot::ArrayRef ref = inner_->alloc(bytes, std::move(name));
    times_.other_s += seconds_since(t0);
    return ref;
  }
  void notify_host_write(polyglot::ArrayRef array) override {
    const double t0 = cpu_now();
    inner_->notify_host_write(array);
    times_.other_s += seconds_since(t0);
  }
  void advise(polyglot::ArrayRef array, uvm::Advise advise) override {
    const double t0 = cpu_now();
    inner_->advise(array, advise);
    times_.other_s += seconds_since(t0);
  }
  void ensure_host_readable(polyglot::ArrayRef array) override {
    const double t0 = cpu_now();
    inner_->ensure_host_readable(array);
    times_.host_read_s += seconds_since(t0);
  }
  void launch(gpusim::KernelLaunchSpec spec) override {
    const double t0 = cpu_now();
    inner_->launch(std::move(spec));
    times_.launch_s += seconds_since(t0);
    ++times_.launches;
  }
  bool synchronize() override {
    const double t0 = cpu_now();
    const bool ok = inner_->synchronize();
    times_.sync_s += seconds_since(t0);
    return ok;
  }
  [[nodiscard]] SimTime now() const override { return inner_->now(); }
  [[nodiscard]] polyglot::BackendKind kind() const override { return inner_->kind(); }

 private:
  std::unique_ptr<polyglot::Backend> inner_;
  BackendTimes& times_;
};

/// One pass's per-layer ledger. Host fields are CPU seconds measured by the
/// harness; everything else is simulated-world accounting.
struct Ledger {
  // host clock
  double pass_s{0.0};
  double build_s{0.0};
  double verify_s{0.0};
  double exec_s{0.0};        ///< Workload::run minus time inside the backend
  double core_launch_s{0.0}; ///< Backend::launch on GrOUT backends
  double drive_s{0.0};       ///< event-loop drains: synchronize, host reads, serve runs
  double serve_run_s{0.0};
  std::uint64_t launches{0};
  std::uint64_t grout_launches{0};
  std::vector<double> decision_ns;
  // simulated
  std::uint64_t controller_sends{0}, p2p_sends{0}, exploration_placements{0};
  double bytes_planned{0.0};
  std::uint64_t dag_vertices{0}, dag_edges{0};
  std::uint64_t evictions{0}, spills{0}, refetches{0}, stale_evictions{0};
  double spill_wait_s{0.0};
  std::uint64_t invalidations{0}, ownership_transfers{0}, coherence_refetches{0};
  std::uint64_t uvm_faults{0}, uvm_evictions{0}, uvm_storm_kernels{0};
  double uvm_fetched{0.0}, uvm_written_back{0.0};
  std::uint64_t net_transfers{0}, net_control_sends{0};
  double net_bytes{0.0};
  std::uint64_t events{0};
  std::uint64_t serve_ces{0}, serve_shed{0}, serve_starvation_max{0};
  double serve_queue_wait_ms{0.0};
  std::map<sim::TraceCategory, double> trace_s;
  std::uint64_t trace_spans{0};
};

/// FNV-1a over the canonical text of every simulated value the benchmark
/// reads. Wall-clock values never enter it.
class Digest {
 public:
  void add(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    feed(key);
    feed(buf);
  }
  void add(const char* key, std::uint64_t v) { add(key, static_cast<double>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void feed(const char* s) {
    for (; *s != '\0'; ++s) {
      h_ ^= static_cast<unsigned char>(*s);
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

// ---------------------------------------------------------------------------
// Points
// ---------------------------------------------------------------------------

enum class BackendChoice : std::uint8_t { GrCuda, Grout };

struct BatchSpec {
  WorkloadKind kind{WorkloadKind::Mle};
  Bytes footprint{0};
  BackendChoice backend{BackendChoice::Grout};
  core::PolicyKind policy{core::PolicyKind::VectorStep};
  std::size_t workers{2};
  /// 0 simulates without host storage: the timing twin of a point whose
  /// numbers are checked elsewhere.
  Bytes materialize_limit{polyglot::ContextConfig{}.materialize_limit};
  /// A verify() failure here is a documented defect of the program: it is
  /// counted as a failed operation but does not mark the output incorrect.
  bool known_verify_defect{false};
};

struct ServeSpec {
  double aggregate_rate_hz{0.0};  ///< 0 = closed loop
  bool contention{false};
  std::uint64_t part{0};  ///< which of a workload's independent runs (seed offset)
};

/// Simulated outcome of one point, plus the numbers the end-to-end metrics
/// are built from.
struct PointOutcome {
  double makespan_s{0.0};
  std::uint64_t ces{0};
  std::size_t attempted{0};
  std::size_t failed{0};
  bool unexpected_failure{false};
  std::size_t completed{0};  ///< programs that finished (within the run cap)
  // serve
  double p50_ms{0.0}, p95_ms{0.0};
  double offered_hz{0.0};
  bool within_slo{false};
  // wall
  double setup_s{0.0};
  double wall_s{0.0};
};

core::GroutConfig grout_config(std::size_t workers, core::PolicyKind policy,
                               std::vector<std::uint32_t> step_vector, bool trace) {
  core::GroutConfig cfg;
  cfg.cluster.workers = workers;
  cfg.cluster.worker_node = bench::paper_node();
  cfg.cluster.stream_policy = runtime::StreamPolicyKind::DataLocal;
  cfg.cluster.trace = trace;
  cfg.policy = policy;
  cfg.step_vector = std::move(step_vector);
  cfg.run_cap = bench::run_cap();
  return cfg;
}

void read_trace(const sim::Tracer& tracer, Ledger& ledger) {
  for (const auto& [category, total] : tracer.totals_by_category()) {
    ledger.trace_s[category] += total.seconds();
  }
  ledger.trace_spans += tracer.spans().size();
}

void read_uvm(const uvm::UvmStats& uvm, Ledger& ledger, Digest& digest) {
  ledger.uvm_faults += uvm.faults;
  ledger.uvm_evictions += uvm.evictions;
  ledger.uvm_storm_kernels += uvm.storm_kernels;
  ledger.uvm_fetched += static_cast<double>(uvm.bytes_fetched);
  ledger.uvm_written_back += static_cast<double>(uvm.bytes_written_back);
  digest.add("uvm_faults", uvm.faults);
  digest.add("uvm_evictions", uvm.evictions);
  digest.add("uvm_storms", uvm.storm_kernels);
  digest.add("uvm_fetched", static_cast<std::uint64_t>(uvm.bytes_fetched));
  digest.add("uvm_written_back", static_cast<std::uint64_t>(uvm.bytes_written_back));
}

void read_engine(const sim::Engine& engine, Ledger& ledger, Digest& digest) {
  ledger.events += engine.executed_events();
  digest.add("events", engine.executed_events());
}

/// Counters every GrOUT runtime exposes, batch or serve alike.
void read_runtime(core::GroutRuntime& rt, Ledger& ledger, Digest& digest) {
  const core::SchedulerMetrics& m = rt.metrics();
  ledger.controller_sends += m.controller_sends;
  ledger.p2p_sends += m.p2p_sends;
  ledger.bytes_planned += static_cast<double>(m.bytes_planned);
  ledger.exploration_placements += m.exploration_placements;
  ledger.evictions += m.evictions;
  ledger.spills += m.spills;
  ledger.refetches += m.refetches;
  ledger.stale_evictions += m.stale_evictions;
  ledger.spill_wait_s += m.spill_wait.seconds();
  ledger.invalidations += m.invalidations;
  ledger.ownership_transfers += m.ownership_transfers;
  ledger.coherence_refetches += m.coherence_refetches;
  const auto& decisions = m.decision_ns.samples();
  ledger.decision_ns.insert(ledger.decision_ns.end(), decisions.begin(), decisions.end());

  const dag::DependencyDag& dag = rt.global_dag();
  ledger.dag_vertices += dag.size();
  ledger.dag_edges += dag.edge_count();

  read_uvm(rt.aggregated_uvm_stats(), ledger, digest);
  read_engine(rt.cluster().simulator(), ledger, digest);

  net::NetworkFabric& fabric = rt.cluster().fabric();
  ledger.net_transfers += fabric.transfer_count();
  ledger.net_bytes += static_cast<double>(fabric.total_bytes());
  ledger.net_control_sends += fabric.control_sends();

  digest.add("controller_sends", m.controller_sends);
  digest.add("p2p_sends", m.p2p_sends);
  digest.add("bytes_planned", static_cast<std::uint64_t>(m.bytes_planned));
  digest.add("exploration", m.exploration_placements);
  digest.add("ces_scheduled", m.ces_scheduled);
  digest.add("evictions", m.evictions);
  digest.add("spills", m.spills);
  digest.add("refetches", m.refetches);
  digest.add("stale_evictions", m.stale_evictions);
  digest.add("spill_wait_ns", static_cast<double>(m.spill_wait.ns()));
  digest.add("invalidations", m.invalidations);
  digest.add("ownership_transfers", m.ownership_transfers);
  digest.add("coherence_refetches", m.coherence_refetches);
  digest.add("dag_vertices", static_cast<std::uint64_t>(dag.size()));
  digest.add("dag_edges", static_cast<std::uint64_t>(dag.edge_count()));
  digest.add("net_transfers", fabric.transfer_count());
  digest.add("net_bytes", static_cast<std::uint64_t>(fabric.total_bytes()));
  digest.add("net_control_sends", fabric.control_sends());
}

PointOutcome run_batch(const BatchSpec& spec, std::uint64_t seed, bool trace, Ledger& ledger,
                       Digest& digest) {
  PointOutcome out;
  BackendTimes times;
  const double t_setup = cpu_now();

  core::GroutRuntime* grout = nullptr;
  polyglot::GrCudaBackend* grcuda = nullptr;
  std::unique_ptr<polyglot::Backend> inner;
  if (spec.backend == BackendChoice::Grout) {
    auto b = std::make_unique<polyglot::GroutBackend>(grout_config(
        spec.workers, spec.policy, bench::step_vector_for(spec.kind), trace));
    grout = &b->grout();
    inner = std::move(b);
  } else {
    auto b = std::make_unique<polyglot::GrCudaBackend>(
        bench::paper_node(), runtime::StreamPolicyKind::DataLocal, 2, bench::run_cap());
    grcuda = b.get();
    inner = std::move(b);
  }
  polyglot::ContextConfig ctx_cfg;
  ctx_cfg.materialize_limit = spec.materialize_limit;
  polyglot::Context ctx(std::make_unique<TimedBackend>(std::move(inner), times), ctx_cfg);

  workloads::WorkloadParams params = bench::params_for(spec.kind, spec.footprint);
  params.seed = seed;
  const std::unique_ptr<workloads::Workload> w = workloads::make_workload(spec.kind, params);

  const double t_build = cpu_now();
  w->build(ctx);
  ledger.build_s += seconds_since(t_build);
  out.setup_s = seconds_since(t_setup);

  const double t_run = cpu_now();
  const double backend_before = times.total();
  w->run(ctx);
  const double run_s = seconds_since(t_run);
  ledger.exec_s += run_s - (times.total() - backend_before);
  const bool completed = ctx.synchronize();
  out.wall_s = seconds_since(t_run);

  const double t_verify = cpu_now();
  const bool verified = w->verify(ctx);
  ledger.verify_s += seconds_since(t_verify);

  out.makespan_s = ctx.now().seconds();
  out.ces = w->ces_issued();
  out.attempted = 1;
  out.failed = (completed && verified) ? 0 : 1;
  out.unexpected_failure = !completed || (!verified && !spec.known_verify_defect);
  out.completed = completed ? 1 : 0;

  ledger.launches += times.launches;
  ledger.drive_s += times.sync_s + times.host_read_s;
  digest.add("makespan_ns", static_cast<double>(ctx.now().ns()));
  digest.add("completed", static_cast<std::uint64_t>(completed));
  digest.add("verified", static_cast<std::uint64_t>(verified));
  digest.add("ces", out.ces);
  if (grout != nullptr) {
    ledger.core_launch_s += times.launch_s;
    ledger.grout_launches += times.launches;
    read_runtime(*grout, ledger, digest);
    if (trace) read_trace(grout->cluster().tracer(), ledger);
  } else {
    read_uvm(grcuda->node().uvm().stats(), ledger, digest);
    read_engine(grcuda->node().simulator(), ledger, digest);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Serve points
// ---------------------------------------------------------------------------

// serve-cg: 8 tenants of CG 2 GiB programs on 8 paper workers.
constexpr std::size_t kCgTenants = 8;
constexpr std::size_t kCgWorkers = 8;
constexpr std::size_t kCgPrograms = 300;  // per tenant, per rate
constexpr double kCgSloP95Ms = 300000.0;  // the p95 limit of serve_max_rate_hz
// serve-contention: the fig11 configuration at read fraction 0.5.
constexpr std::size_t kContTenants = 4;
constexpr std::size_t kContWorkers = 4;
// 1000 programs per tenant, closed:2, served as kContParts independent runs
// with their own seeds: a run of 0.1-0.2 s host time is short enough that
// the fastest of many passes is a steady estimate (see README.md).
constexpr std::size_t kContParts = 4;
constexpr std::size_t kContPrograms = 1000 / kContParts;  // per tenant and part
constexpr std::size_t kSetupRepeats = 201;

PointOutcome run_serve(const ServeSpec& spec, std::uint64_t seed, bool trace, Ledger& ledger,
                       Digest& digest) {
  PointOutcome out;
  core::GroutConfig cfg = grout_config(spec.contention ? kContWorkers : kCgWorkers,
                                       core::PolicyKind::VectorStep, {1}, trace);
  cfg.worker_mem = spec.contention ? 20_MiB : 16_GiB;

  serve::ServeConfig scfg;
  scfg.seed = spec.contention ? seed * kContParts + spec.part : seed;
  scfg.horizon = SimTime::from_seconds(1.0e7);
  const std::size_t tenants = spec.contention ? kContTenants : kCgTenants;
  const std::size_t programs = spec.contention ? kContPrograms : kCgPrograms;
  // Nothing is shed by queue overflow: an overloaded rate shows as latency.
  scfg.max_queued_programs = programs;
  if (spec.contention) {
    workloads::ContentionSpec c;
    c.theta = 0.9;
    c.read_fraction = 0.5;
    c.shared_fraction = 0.9;
    c.pool_arrays = 24;
    c.array_bytes = 1_MiB;
    c.ops = 8;
    c.keys_per_op = 3;
    scfg.contention = c;
  }
  for (std::size_t k = 0; k < tenants; ++k) {
    serve::TenantSpec t;
    t.name = "t" + std::to_string(k);
    t.programs = programs;
    if (spec.contention) {
      t.arrival = serve::ArrivalSpec{serve::ArrivalSpec::Kind::Closed, 1.0, 2};
    } else {
      t.workload = WorkloadKind::Cg;
      t.params = bench::params_for(WorkloadKind::Cg, 2_GiB);
      t.arrival = serve::ArrivalSpec{serve::ArrivalSpec::Kind::Poisson,
                                     spec.aggregate_rate_hz / static_cast<double>(tenants), 1};
    }
    scfg.tenants.push_back(std::move(t));
  }
  // Construction takes tens of microseconds, so it is repeated and the
  // median kept; the last runtime built is the one that serves. The previous
  // runtime is destroyed before the timer starts, so each repeat reuses the
  // same heap instead of growing it.
  std::vector<double> setups;
  std::unique_ptr<core::GroutRuntime> rt;
  std::unique_ptr<serve::ServeScheduler> scheduler;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    scheduler.reset();
    rt.reset();
    const double t_setup = cpu_now();
    rt = std::make_unique<core::GroutRuntime>(cfg);
    scheduler = std::make_unique<serve::ServeScheduler>(*rt, scfg);
    setups.push_back(seconds_since(t_setup));
  }
  out.setup_s = median(setups);

  const double t_run = cpu_now();
  const serve::ServeReport report = scheduler->run();
  out.wall_s = seconds_since(t_run);
  ledger.serve_run_s += out.wall_s;
  ledger.drive_s += out.wall_s;

  bool accounting_ok = true;
  std::size_t submitted = 0;
  std::size_t shed = 0;
  for (const serve::TenantReport& t : report.tenants) {
    if (t.submitted != t.completed + t.shed) accounting_ok = false;
    submitted += t.submitted;
    shed += t.shed;
    out.completed += t.completed;
    out.ces += t.ces_dispatched;
    out.p50_ms = std::max(out.p50_ms, t.latency_p50_ms);
    out.p95_ms = std::max(out.p95_ms, t.latency_p95_ms);
    ledger.serve_starvation_max = std::max(ledger.serve_starvation_max, t.starvation_max);
    ledger.serve_queue_wait_ms = std::max(ledger.serve_queue_wait_ms, t.queue_wait_mean_ms);
    digest.add("submitted", static_cast<std::uint64_t>(t.submitted));
    digest.add("completed", static_cast<std::uint64_t>(t.completed));
    digest.add("shed", static_cast<std::uint64_t>(t.shed));
    digest.add("tenant_ces", t.ces_dispatched);
    digest.add("p50", t.latency_p50_ms);
    digest.add("p95", t.latency_p95_ms);
    digest.add("p99", t.latency_p99_ms);
    digest.add("queue_wait", t.queue_wait_mean_ms);
    digest.add("throughput", t.throughput_per_s);
    digest.add("starvation", t.starvation_max);
  }
  const std::size_t expected = tenants * programs;
  out.attempted = expected;
  out.failed = expected - out.completed;  // shed, unfinished or never submitted
  out.unexpected_failure = !accounting_ok || submitted != expected || !report.drained;
  out.makespan_s = report.elapsed.seconds();
  out.offered_hz = spec.aggregate_rate_hz;
  out.within_slo = report.drained && shed == 0 && out.failed == 0 && out.p95_ms <= kCgSloP95Ms;
  ledger.serve_ces += out.ces;
  ledger.serve_shed += shed;
  digest.add("elapsed_ns", static_cast<double>(report.elapsed.ns()));
  digest.add("drained", static_cast<std::uint64_t>(report.drained));
  read_runtime(*rt, ledger, digest);
  if (trace) read_trace(rt->cluster().tracer(), ledger);
  return out;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Points {
  std::vector<BatchSpec> batch;
  std::vector<ServeSpec> serve;
  /// Batch pairs (GrCUDA point index, GrOUT point index) for the speedup.
  std::vector<std::pair<std::size_t, std::size_t>> speedup_pairs;
};

// serve-cg offered loads, aggregate programs per simulated second. The
// cluster's capacity lies between the upper two: at 0.16/s the worst
// tenant's p95 stays within kCgSloP95Ms, at 0.24/s the backlog grows
// without bound. The lowest rate is the latency reference point.
const std::vector<double> kCgRates = {0.08, 0.16, 0.24};

bool make_points(const std::string& name, Points& w) {
  if (name == "mle-functional") {
    // Every array stays under materialize_limit, so the kernels run for
    // real and verify() checks the numbers. The GrCUDA twin is simulated
    // only (no host storage): it supplies the speedup's denominator.
    const Bytes size = 16_MiB;
    w.batch.push_back({WorkloadKind::Mle, size, BackendChoice::GrCuda,
                       core::PolicyKind::VectorStep, 1, 0, false});
    w.batch.push_back({WorkloadKind::Mle, size, BackendChoice::Grout,
                       core::PolicyKind::MinTransferTime, 2,
                       polyglot::ContextConfig{}.materialize_limit, false});
    w.speedup_pairs.emplace_back(0, 1);
    return true;
  }
  if (name == "paper-oversub") {
    // The paper's own result at 2x (single node still wins) and 3x (GrOUT
    // wins) UVM oversubscription. Nothing is materialized.
    for (const WorkloadKind kind : {WorkloadKind::Mle, WorkloadKind::Cg, WorkloadKind::Mv}) {
      for (const Bytes size : {64_GiB, 96_GiB}) {
        // CG verify() fails whenever r is materialized but A is not (it
        // reports the unconverged residual instead of "unverifiable").
        const bool cg = kind == WorkloadKind::Cg;
        const std::size_t first = w.batch.size();
        w.batch.push_back({kind, size, BackendChoice::GrCuda, core::PolicyKind::VectorStep, 1,
                           polyglot::ContextConfig{}.materialize_limit, cg});
        w.batch.push_back({kind, size, BackendChoice::Grout, core::PolicyKind::VectorStep, 2,
                           polyglot::ContextConfig{}.materialize_limit, cg});
        w.speedup_pairs.emplace_back(first, first + 1);
      }
    }
    return true;
  }
  if (name == "serve-cg") {
    for (const double rate : kCgRates) w.serve.push_back({rate, false});
    return true;
  }
  if (name == "serve-contention") {
    for (std::uint64_t part = 0; part < kContParts; ++part) w.serve.push_back({0.0, true, part});
    return true;
  }
  return false;
}

struct PassResult {
  std::vector<PointOutcome> batch;
  std::vector<PointOutcome> serve;
  Ledger ledger;
  std::uint64_t digest{0};
  double setup_s{0.0};
  double wall_s{0.0};
};

PassResult run_pass(const Points& w, std::uint64_t seed, bool trace) {
  PassResult pass;
  Digest digest;
  const double t0 = cpu_now();
  for (const BatchSpec& spec : w.batch) {
    pass.batch.push_back(run_batch(spec, seed, trace, pass.ledger, digest));
  }
  for (const ServeSpec& spec : w.serve) {
    pass.serve.push_back(run_serve(spec, seed, trace, pass.ledger, digest));
  }
  pass.ledger.pass_s = seconds_since(t0);
  for (const auto* points : {&pass.batch, &pass.serve}) {
    for (const PointOutcome& p : *points) {
      pass.setup_s += p.setup_s;
      pass.wall_s += p.wall_s;
    }
  }
  pass.digest = digest.value();
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Simulated end-to-end metrics of one pass. A batch point is one program
/// submitted at t = 0, so its latency is its makespan; closed-loop and batch
/// workloads offer no rate, so their highest served rate is the rate they
/// sustained. On open-loop serving it is the highest offered rate that met
/// the SLO, or 0 if none did. See README.md for each definition.
std::vector<Metric> simulated_metrics(const Points& w, const PassResult& pass) {
  std::vector<double> makespans;
  std::vector<double> speedups;
  double p50 = 0.0;
  double p95 = 0.0;
  double completed = 0.0;
  double sim_time = 0.0;
  double max_rate = 0.0;
  if (!w.batch.empty()) {
    std::vector<double> latencies_ms;
    for (std::size_t i = 0; i < w.batch.size(); ++i) {
      if (w.batch[i].backend != BackendChoice::Grout) continue;
      makespans.push_back(pass.batch[i].makespan_s);
      latencies_ms.push_back(pass.batch[i].makespan_s * 1e3);
      completed += static_cast<double>(pass.batch[i].completed);
      sim_time += pass.batch[i].makespan_s;
    }
    for (const auto& [base, grout] : w.speedup_pairs) {
      speedups.push_back(pass.batch[base].makespan_s / pass.batch[grout].makespan_s);
    }
    SampleSet s;
    for (const double l : latencies_ms) s.add(l);
    p50 = s.percentile(50.0);
    p95 = s.percentile(95.0);
  }
  if (!w.serve.empty()) {
    for (const PointOutcome& p : pass.serve) {
      makespans.push_back(p.makespan_s);
      if (p.offered_hz > 0.0 && p.within_slo) max_rate = std::max(max_rate, p.offered_hz);
    }
    // Latency and throughput at the reference points, those at the lowest
    // offered rate: one open-loop run, or every closed-loop run. Latency is
    // the mean over them of the worst tenant's percentile.
    std::size_t refs = 0;
    for (const PointOutcome& p : pass.serve) {
      if (p.offered_hz != pass.serve.front().offered_hz) continue;
      ++refs;
      p50 += p.p50_ms;
      p95 += p.p95_ms;
      completed += static_cast<double>(p.completed);
      sim_time += p.makespan_s;
    }
    p50 /= static_cast<double>(refs);
    p95 /= static_cast<double>(refs);
  }
  const double throughput = completed / sim_time;
  // Only open-loop serving offers rates; there, 0 means no rate met the SLO.
  const bool offers_rates = !w.serve.empty() && pass.serve.front().offered_hz > 0.0;
  if (!offers_rates) max_rate = throughput;
  // Served traffic has no GrCUDA twin: the serving frontend drives only
  // the GrOUT runtime. Parity keeps the key set equal on every workload.
  const double speedup = speedups.empty() ? 1.0 : geomean(speedups);
  return {
      {"sim_makespan_s", geomean(makespans), "sim_s"},
      {"speedup_vs_grcuda", speedup, "x"},
      {"serve_p50_ms", p50, "sim_ms"},
      {"serve_p95_ms", p95, "sim_ms"},
      {"serve_max_rate_hz", max_rate, "1/sim_s"},
      {"serve_throughput_hz", throughput, "1/sim_s"},
  };
}

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Host-time fields are means over the timed untraced passes of the traced
/// run (the outside timers run in every pass; tracing would inflate them).
/// Counts are identical in every pass. Trace totals come from a traced pass.
std::vector<Metric> ledger_metrics(const std::vector<Ledger>& ledgers, const Ledger& traced,
                                   double overhead_frac) {
  const double n = static_cast<double>(ledgers.size());
  Ledger sum;
  std::vector<double> decisions;
  for (const Ledger& l : ledgers) {
    sum.pass_s += l.pass_s;
    sum.build_s += l.build_s;
    sum.verify_s += l.verify_s;
    sum.exec_s += l.exec_s;
    sum.core_launch_s += l.core_launch_s;
    sum.drive_s += l.drive_s;
    sum.serve_run_s += l.serve_run_s;
    decisions.insert(decisions.end(), l.decision_ns.begin(), l.decision_ns.end());
  }
  const Ledger& c = ledgers.front();
  const auto per = [n](double v) { return v / n; };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto trace = [&traced](sim::TraceCategory cat) {
    const auto it = traced.trace_s.find(cat);
    return it == traced.trace_s.end() ? 0.0 : it->second;
  };
  const double drive_s = per(sum.drive_s);
  return {
      {"bench.pass_s", per(sum.pass_s), "s"},
      {"polyglot.exec_s", per(sum.exec_s), "s"},
      {"polyglot.launches", u(c.launches), "count"},
      {"workloads.build_s", per(sum.build_s), "s"},
      {"workloads.verify_s", per(sum.verify_s), "s"},
      {"core.launch_s", per(sum.core_launch_s), "s"},
      {"core.launch_us_per_ce",
       c.grout_launches == 0 ? 0.0 : per(sum.core_launch_s) / u(c.grout_launches) * 1e6, "us"},
      {"core.decision_ns_p50", median(decisions), "ns"},
      {"core.controller_sends", u(c.controller_sends), "count"},
      {"core.p2p_sends", u(c.p2p_sends), "count"},
      {"core.bytes_planned_gib", c.bytes_planned / kGiB, "GiB"},
      {"core.exploration_placements", u(c.exploration_placements), "count"},
      {"dag.vertices", u(c.dag_vertices), "count"},
      {"dag.edges", u(c.dag_edges), "count"},
      {"governor.evictions", u(c.evictions), "count"},
      {"governor.spills", u(c.spills), "count"},
      {"governor.refetches", u(c.refetches), "count"},
      {"governor.stale_evictions", u(c.stale_evictions), "count"},
      {"governor.spill_wait_s", c.spill_wait_s, "sim_s"},
      {"directory.invalidations", u(c.invalidations), "count"},
      {"directory.ownership_transfers", u(c.ownership_transfers), "count"},
      {"directory.coherence_refetches", u(c.coherence_refetches), "count"},
      {"uvm.faults", u(c.uvm_faults), "count"},
      {"uvm.evictions", u(c.uvm_evictions), "count"},
      {"uvm.fetched_gib", c.uvm_fetched / kGiB, "GiB"},
      {"uvm.written_back_gib", c.uvm_written_back / kGiB, "GiB"},
      {"uvm.storm_kernels", u(c.uvm_storm_kernels), "count"},
      {"net.transfers", u(c.net_transfers), "count"},
      {"net.bytes_gib", c.net_bytes / kGiB, "GiB"},
      {"net.control_sends", u(c.net_control_sends), "count"},
      {"sim.events", u(c.events), "count"},
      {"sim.drive_s", drive_s, "s"},
      {"sim.ns_per_event", c.events == 0 ? 0.0 : drive_s / u(c.events) * 1e9, "ns"},
      {"serve.run_s", per(sum.serve_run_s), "s"},
      {"serve.ces_dispatched", u(c.serve_ces), "count"},
      {"serve.queue_wait_ms", c.serve_queue_wait_ms, "ms"},
      {"serve.shed", u(c.serve_shed), "count"},
      {"serve.starvation_max", u(c.serve_starvation_max), "count"},
      {"trace.kernel_s", trace(sim::TraceCategory::Kernel), "sim_s"},
      {"trace.migration_s", trace(sim::TraceCategory::Migration), "sim_s"},
      {"trace.eviction_s", trace(sim::TraceCategory::Eviction), "sim_s"},
      {"trace.network_s", trace(sim::TraceCategory::NetworkTransfer), "sim_s"},
      {"trace.scheduling_s", trace(sim::TraceCategory::Scheduling), "sim_s"},
      {"trace.host_compute_s", trace(sim::TraceCategory::HostCompute), "sim_s"},
      {"trace.spans", u(traced.trace_spans), "count"},
      {"trace.overhead_frac", overhead_frac, "frac"},
  };
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <mle-functional|paper-oversub|serve-cg|"
               "serve-contention> --seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double budget_s = 0.0;
  bool trace = false;
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') {
        usage("--seed must be a non-negative integer");
      }
    } else if (arg == "--seconds") {
      budget_s = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(budget_s > 0.0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      trace = value == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
    given.insert(arg);
  }
  if (given.size() != 4) usage("--workload, --seed, --seconds and --trace are all required");
  Points w;
  if (!make_points(workload_name, w)) usage("unknown workload");

  // Passes until the budget (real time) is spent: a further pass starts only
  // if the mean pass so far still fits. The first untraced pass warms the
  // heap and the caches; it gives the simulated metrics but no host times,
  // so at least two untraced passes run. The traced run alternates untraced
  // and traced passes, so it always runs at least one traced pass too.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  // Read after the first pass: later passes repeat the same work, but heap
  // growth across them would make the peak depend on how many passes fit.
  long first_pass_rss_kib = 0;
  while (true) {
    const bool traced_pass = trace && plain.size() > traced.size();
    PassResult pass = run_pass(w, seed, traced_pass);
    (traced_pass ? traced : plain).push_back(std::move(pass));
    if (first_pass_rss_kib == 0) first_pass_rss_kib = peak_rss_kib();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const auto passes = static_cast<double>(plain.size() + traced.size());
    const bool need_more = plain.size() < 2 || (trace && traced.empty());
    if (!need_more && elapsed + elapsed / passes > budget_s) break;
  }

  // Correctness: every pass reproduces the first pass's simulated results,
  // traced or not, and no operation failed unexpectedly.
  const PassResult& first = plain.front();
  bool correct = true;
  for (const auto* set : {&plain, &traced}) {
    for (const PassResult& p : *set) {
      if (p.digest != first.digest) correct = false;
      for (const auto* points : {&p.batch, &p.serve}) {
        for (const PointOutcome& o : *points) {
          if (o.unexpected_failure) correct = false;
        }
      }
    }
  }
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t ces = 0;
  for (const auto* points : {&first.batch, &first.serve}) {
    for (const PointOutcome& o : *points) {
      attempted += o.attempted;
      failed += o.failed;
      ces += o.ces;
    }
  }

  // Human-readable detail first; the result object is the last line.
  std::printf("# %s seed=%llu passes=%zu traced_passes=%zu sim_digest=%016llx\n",
              workload_name.c_str(), static_cast<unsigned long long>(seed), plain.size(),
              traced.size(), static_cast<unsigned long long>(first.digest));
  std::printf("#   wall_s per untraced pass:");
  for (const PassResult& p : plain) std::printf(" %.4f", p.wall_s);
  std::printf("\n#   setup_s per untraced pass:");
  for (const PassResult& p : plain) std::printf(" %.6f", p.setup_s);
  std::printf("\n");
  for (std::size_t i = 0; i < w.batch.size(); ++i) {
    const BatchSpec& s = w.batch[i];
    const PointOutcome& o = first.batch[i];
    std::printf("#   %-4s %7.2f GiB %-6s makespan=%.6f s ces=%llu failed=%zu wall=%.4f s%s\n",
                workloads::to_string(s.kind), static_cast<double>(s.footprint) / kGiB,
                s.backend == BackendChoice::Grout ? "GrOUT" : "GrCUDA", o.makespan_s,
                static_cast<unsigned long long>(o.ces), o.failed, o.wall_s,
                o.failed != 0 && s.known_verify_defect ? " (known verify defect)" : "");
  }
  for (std::size_t i = 0; i < w.serve.size(); ++i) {
    const PointOutcome& o = first.serve[i];
    std::printf("#   serve rate=%.3f/s elapsed=%.3f s completed=%zu/%zu p50=%.1f ms "
                "p95=%.1f ms within_slo=%d wall=%.3f s\n",
                o.offered_hz, o.makespan_s, o.completed, o.attempted, o.p50_ms, o.p95_ms,
                o.within_slo ? 1 : 0, o.wall_s);
  }

  const std::span<const PassResult> timed(plain.data() + 1, plain.size() - 1);
  std::vector<Metric> metrics;
  if (!trace) {
    // Host time is estimated per point over the timed passes, then summed
    // over the points. Other guests on the host slow the process down by up
    // to 1.7x, in bursts from a fraction of a second to minutes; outside
    // interference only ever adds time, so a point's fastest pass is the
    // steadiest estimate of its own cost. setup_s is a median.
    double setup_s = 0.0;
    double wall_s = 0.0;
    std::printf("#   per point over %zu timed passes: wall min/median, setup median\n",
                timed.size());
    for (const bool serve : {false, true}) {
      const std::size_t count = serve ? w.serve.size() : w.batch.size();
      for (std::size_t i = 0; i < count; ++i) {
        std::vector<double> setup;
        std::vector<double> wall;
        for (const PassResult& p : timed) {
          const PointOutcome& o = serve ? p.serve[i] : p.batch[i];
          setup.push_back(o.setup_s);
          wall.push_back(o.wall_s);
        }
        const double fastest = *std::min_element(wall.begin(), wall.end());
        std::printf("#     %s %zu: %.6f / %.6f s, %.6f s; wall:", serve ? "serve" : "batch", i,
                    fastest, median(wall), median(setup));
        for (const double x : wall) std::printf(" %.6f", x);
        std::printf("\n");
        setup_s += median(setup);
        wall_s += fastest;
      }
    }
    metrics = {
        {"setup_s", setup_s, "s"},
        {"wall_s", wall_s, "s"},
        {"ces_per_s", static_cast<double>(ces) / wall_s, "1/s"},
        {"peak_rss_mib", static_cast<double>(first_pass_rss_kib) / 1024.0, "MiB"},
    };
    for (Metric& m : simulated_metrics(w, first)) metrics.push_back(std::move(m));
    metrics.push_back({"success_frac",
                       1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
                       "frac"});
  } else {
    std::vector<double> plain_wall;
    std::vector<double> traced_wall;
    std::vector<Ledger> ledgers;
    for (const PassResult& p : timed) {
      plain_wall.push_back(p.ledger.pass_s);
      ledgers.push_back(p.ledger);
    }
    for (const PassResult& p : traced) traced_wall.push_back(p.ledger.pass_s);
    metrics = ledger_metrics(ledgers, traced.front().ledger,
                             median(traced_wall) / median(plain_wall) - 1.0);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, json_metrics(metrics).c_str());
  return 0;
}

// Benchmark runner: runs one workload of the paper's experiments through the
// libraries' public entry points, checks every output, and prints one JSON
// object (the last line of stdout) with the measured metrics and the exact
// model counts.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--tiny]
//
// One process runs one workload, because the peak RSS only grows.
// The steps, in order:
//   1. set-up (graph generation + Network / G_{k,n} frame construction),
//      repeated several times, and again after step 4; setup_s is the
//      median over both batches;
//   2. one warm-up iteration, whose exact counts every later iteration must
//      reproduce;
//   3. one-off checks: the oracle, and the library's own entry point (or the
//      fault-free sync engine) against the benchmark's call sequence;
//   4. measured iterations until --seconds have passed;
//   5. with --trace 1 only: extra ledger measurements (snapshot round trip,
//      W = 1 vs the classic loop, Network construction on the lower-bound
//      frame).
// With --trace 0 every iteration runs with all instrumentation off and the
// end-to-end metrics are reported. With --trace 1, measured iterations
// alternate between untraced and traced (spans, engine timers, shard
// channel counters, the counting ProgramFactory wrapper) and the per-layer
// ledger is reported; spans are written to DIR when the run ends.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/cut_simulator.hpp"
#include "congest/async.hpp"
#include "congest/network.hpp"
#include "congest/run_batch.hpp"
#include "congest/snapshot.hpp"
#include "counting.hpp"
#include "detect/clique_detect.hpp"
#include "detect/even_cycle.hpp"
#include "graph/builders.hpp"
#include "graph/oracle.hpp"
#include "lowerbound/gkn.hpp"
#include "lowerbound/oneround.hpp"
#include "obs/json.hpp"
#include "spans.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using csd::Graph;
using csd::Rng;
using csd::derive_seed;
using csd::congest::Network;
using csd::congest::NetworkConfig;
using csd::congest::ProgramFactory;
using csd::congest::RunOutcome;
using Scope = SpanLog::Scope;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work_dir = ".";
};

// ---------------------------------------------------------------- process

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Peak and current resident set size from /proc/self/status. VmHWM rather
// than getrusage's ru_maxrss: Linux keeps ru_maxrss across execve, so a
// small workload would report the RSS of the process that launched it.
double status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(field + ":", 0) == 0)
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
  return 0.0;
}

double peak_rss_bytes() { return 1024.0 * status_kib("VmHWM"); }

double current_rss_bytes() { return 1024.0 * status_kib("VmRSS"); }

// ---------------------------------------------------------------- results

/// Exact model counts of one iteration, in a fixed order. Deterministic:
/// every iteration of a run must reproduce the warm-up's counts.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t count_of(const Counts& counts, const std::string& name) {
  for (const auto& [key, value] : counts)
    if (key == name) return value;
  return 0;
}

std::uint64_t verdict_digest(const std::vector<csd::congest::Verdict>& v) {
  std::uint64_t h = csd::congest::kDigestSeed;
  for (const auto verdict : v)
    h = csd::congest::digest_mix(h, static_cast<std::uint64_t>(verdict));
  return h;
}

struct Iteration {
  Counts counts;
  /// Simulated node-rounds (n x rounds; n x pulses on the async engine).
  double node_rounds = 0;
  /// Non-empty when an output of the iteration is wrong.
  std::string error;
  /// Traced iterations only: per-iteration ledger values (engine timers,
  /// shard channel counters, usefulness counters).
  std::map<std::string, double> layer;
};

/// Every per-layer metric the traced run reports. A metric whose layer is
/// not on a workload's path reads 0 there.
const char* const kLedgerNames[] = {
    "graph.build_s",
    "graph.oracle_s",
    "congest.network_init_s",
    "congest.run_s",
    "congest.ns_per_node_round",
    "congest.ns_per_message",
    "congest.compute_s",
    "congest.delivery_s",
    "congest.rounds",
    "congest.messages",
    "congest.bits",
    "detect.node_rounds_invoked",
    "detect.node_rounds_active",
    "detect.active_ratio",
    "detect.bytes_per_node",
    "shard.run_s",
    "shard.channel_frames",
    "shard.channel_bytes",
    "shard.cpu_over_wall",
    "shard.w1_over_classic",
    "async.run_s",
    "async.pulses",
    "async.frames",
    "async.compute_s",
    "async.delivery_s",
    "async.untimed_s",
    "transport.transport_s",
    "transport.retransmissions",
    "transport.bits",
    "transport.acks",
    "transport.useful_ratio",
    "run_batch.executed",
    "run_batch.skipped",
    "snapshot.bytes",
    "snapshot.save_s",
    "snapshot.load_s",
    "snapshot.resume_s",
    "comm.cut_batch_s",
    "comm.seeds_per_s",
    "comm.crossing_bits",
    "lowerbound.gkn_build_s",
    "lowerbound.bloom_probe_s",
    "lowerbound.bisect_probes",
    "lowerbound.threshold_b",
    "info.mi_eval_s",
    "info.samples_per_s",
    "obs.trace_overhead",
    "obs.span_coverage",
    "failed_ratio",
};

using Ledger = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-edge bandwidth of the detection workloads: the csd CLI's default
/// --bandwidth, raised to a program's minimum where that is larger.
constexpr std::uint64_t kDetectBandwidth = 64;

// -------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// Nodes of the simulated network (the base of detect.bytes_per_node).
  virtual double nodes() const = 0;
  /// Build the inputs. Called several times; each call replaces the last.
  virtual void setup(SpanLog& spans, bool trace_mode) = 0;
  /// Free what setup built (untimed, before the next setup).
  virtual void release() = 0;
  virtual Iteration iterate(SpanLog& spans, bool traced) = 0;
  /// One-off checks of the first iteration's outputs; returns the errors.
  virtual std::vector<std::string> check(SpanLog& spans,
                                         const Iteration& first) = 0;
  /// Trace-only measurements that are not iterations. `classic_wall` is
  /// the median untraced iteration wall time.
  virtual std::vector<std::string> extras(SpanLog& spans, Ledger& ledger,
                                          const Iteration& first,
                                          double classic_wall) {
    (void)spans;
    (void)ledger;
    (void)first;
    (void)classic_wall;
    return {};
  }
  /// Ledger entries derived from the counts and the span medians.
  virtual void finish_ledger(Ledger& ledger, const Iteration& first) = 0;
};

void fill_sync_counts(Counts& counts, const RunOutcome& out) {
  counts.emplace_back("detected", out.detected ? 1 : 0);
  counts.emplace_back("completed", out.completed ? 1 : 0);
  counts.emplace_back("verdict_digest", verdict_digest(out.verdicts));
  counts.emplace_back("rounds", out.metrics.rounds);
  counts.emplace_back("messages", out.metrics.messages);
  counts.emplace_back("bits", out.metrics.total_bits);
}

std::string compare_sync(const char* what, const RunOutcome& out,
                         const Counts& counts) {
  Counts mine;
  fill_sync_counts(mine, out);
  for (const auto& [key, value] : mine)
    if (count_of(counts, key) != value)
      return std::string(what) + ": " + key + " " + std::to_string(value) +
             " != " + std::to_string(count_of(counts, key));
  return {};
}

void add_sync_ledger(Ledger& ledger, const Counts& counts, double n) {
  const double rounds = static_cast<double>(count_of(counts, "rounds"));
  const double messages = static_cast<double>(count_of(counts, "messages"));
  ledger["congest.rounds"] = rounds;
  ledger["congest.messages"] = messages;
  ledger["congest.bits"] = static_cast<double>(count_of(counts, "bits"));
  ledger["congest.ns_per_node_round"] =
      ratio(1e9 * ledger["congest.run_s"], n * rounds);
  ledger["congest.ns_per_message"] = ratio(1e9 * ledger["congest.run_s"],
                                           messages);
}

void add_usefulness(Iteration& it, const Usefulness& useful) {
  it.layer["detect.node_rounds_invoked"] =
      static_cast<double>(useful.invoked.load());
  it.layer["detect.node_rounds_active"] =
      static_cast<double>(useful.active.load());
}

void add_sync_timers(Iteration& it, const csd::obs::EngineTimers& t) {
  it.layer["congest.compute_s"] = 1e-9 * static_cast<double>(t.compute_ns);
  it.layer["congest.delivery_s"] = 1e-9 * static_cast<double>(t.delivery_ns);
}

void finish_usefulness(Ledger& ledger) {
  ledger["detect.active_ratio"] = ratio(ledger["detect.node_rounds_active"],
                                        ledger["detect.node_rounds_invoked"]);
}

// thm11_quiet: Theorem 1.1's C_4 detector on a cycle-free random tree, two
// amplification repetitions on the classic sync loop, one thread. Almost
// every node-round is idle, so program invocations and per-node state
// dominate.
class EvenCycleQuiet final : public Workload {
 public:
  EvenCycleQuiet(const Args& args)
      : seed_(args.seed),
        n_(args.tiny ? 256 : 1024),
        work_dir_(args.work_dir) {
    ecfg_.k = 2;
    program_ = csd::detect::even_cycle_program(ecfg_);
  }

  double nodes() const override { return static_cast<double>(n_); }

  void setup(SpanLog& spans, bool trace_mode) override {
    Graph tree;
    {
      Scope s(spans, "graph.build");
      Rng rng(derive_seed(seed_, 1));
      tree = csd::build::random_tree(static_cast<csd::Vertex>(n_), rng);
    }
    cfg_.bandwidth = std::max(
        kDetectBandwidth, csd::detect::even_cycle_min_bandwidth(n_, ecfg_));
    cfg_.seed = seed_;
    cfg_.max_rounds =
        csd::detect::make_even_cycle_schedule(n_, ecfg_).total_rounds() + 1;
    if (trace_mode) {
      NetworkConfig traced = cfg_;
      traced.trace.timers = true;
      traced_net_ = std::make_unique<Network>(tree, traced);
    }
    Scope s(spans, "congest.network_init");
    net_ = std::make_unique<Network>(std::move(tree), cfg_);
  }

  void release() override {
    net_.reset();
    traced_net_.reset();
  }

  Iteration iterate(SpanLog& spans, bool traced) override {
    useful_.reset();
    Iteration it =
        traced ? run_reps(spans, *traced_net_,
                          counting_factory(program_, useful_), "congest.run")
               : run_reps(spans, *net_, program_, "congest.run");
    if (traced) add_usefulness(it, useful_);
    return it;
  }

  std::vector<std::string> check(SpanLog& spans,
                                 const Iteration& first) override {
    std::vector<std::string> errors;
    bool has_c4 = true;
    {
      Scope s(spans, "graph.oracle");
      has_c4 = csd::oracle::has_cycle_of_length(net_->topology(), 4);
    }
    if (has_c4) errors.push_back("oracle: the random tree contains a C4");
    csd::detect::EvenCycleConfig cfg = ecfg_;
    cfg.repetitions = kReps;
    RunOutcome entry;
    {
      Scope s(spans, "detect.entry_point");
      entry = csd::detect::detect_even_cycle(net_->topology(), cfg,
                                             cfg_.bandwidth, seed_);
    }
    if (auto e = compare_sync("detect_even_cycle vs benchmark", entry,
                              first.counts);
        !e.empty())
      errors.push_back(e);
    return errors;
  }

  std::vector<std::string> extras(SpanLog& spans, Ledger& ledger,
                                  const Iteration& first,
                                  double classic_wall) override {
    std::vector<std::string> errors;
    // Direction 3's entry criterion: the superstep engine at W = 1 against
    // the classic loop, same calls, untraced.
    {
      NetworkConfig w1 = cfg_;
      w1.shard.workers = 1;
      const Network net(net_->topology(), w1);
      std::vector<double> walls;
      for (int i = 0; i < 3; ++i) {
        const double t0 = now_s();
        const Iteration it = run_reps(spans, net, program_, "shard.run_w1");
        walls.push_back(now_s() - t0);
        if (it.counts != first.counts)
          errors.push_back("W = 1 counts differ from the classic loop");
      }
      ledger["shard.w1_over_classic"] = ratio(median(walls), classic_wall);
    }
    // Snapshot round trip: capture rep 0 mid-run, save, load, resume.
    NetworkConfig ck = cfg_;
    ck.checkpoint_at_round = cfg_.max_rounds / 2;
    const Network net(net_->topology(), ck);
    const std::uint64_t rep_seed = derive_seed(seed_, 0x5eedULL);
    RunOutcome full;
    {
      Scope s(spans, "snapshot.capture_run");
      full = net.run(program_, rep_seed);
    }
    if (!full.checkpoint) {
      errors.push_back("snapshot: no checkpoint captured");
      return errors;
    }
    const std::string path =
        (std::filesystem::path(work_dir_) / "snapshot.json").string();
    {
      Scope s(spans, "snapshot.save");
      csd::congest::save_snapshot(path, *full.checkpoint);
    }
    ledger["snapshot.bytes"] =
        static_cast<double>(std::filesystem::file_size(path));
    csd::congest::Snapshot loaded;
    {
      Scope s(spans, "snapshot.load");
      loaded = csd::congest::load_snapshot(path);
    }
    std::filesystem::remove(path);
    RunOutcome resumed;
    {
      Scope s(spans, "snapshot.resume");
      resumed = net.resume(program_, loaded);
    }
    Counts full_counts;
    fill_sync_counts(full_counts, full);
    if (auto e = compare_sync("resumed vs uninterrupted", resumed, full_counts);
        !e.empty())
      errors.push_back(e);
    return errors;
  }

  void finish_ledger(Ledger& ledger, const Iteration& first) override {
    add_sync_ledger(ledger, first.counts, nodes());
    ledger["run_batch.executed"] =
        static_cast<double>(count_of(first.counts, "executed"));
    ledger["run_batch.skipped"] =
        static_cast<double>(count_of(first.counts, "skipped"));
    finish_usefulness(ledger);
  }

 private:
  static constexpr std::uint32_t kReps = 2;

  // run_amplified's repetition loop over a prebuilt Network.
  Iteration run_reps(SpanLog& spans, const Network& net,
                     const ProgramFactory& factory, const char* span) {
    std::vector<csd::congest::RunBatch::Task> tasks(kReps);
    for (std::uint32_t rep = 0; rep < kReps; ++rep)
      tasks[rep] = {&net, &factory, derive_seed(seed_, 0x5eedULL + rep)};
    csd::congest::RunBatch::Result result;
    {
      Scope s(spans, span);
      result = csd::congest::RunBatch(1).execute(tasks, true);
    }
    RunOutcome combined = csd::congest::make_amplified_accumulator(
        static_cast<csd::Vertex>(n_));
    for (auto& slot : result.outcomes)
      if (slot) csd::congest::merge_amplified(combined, std::move(*slot));

    Iteration it;
    add_sync_timers(it, combined.metrics.timers);
    fill_sync_counts(it.counts, combined);
    it.counts.emplace_back("executed", result.executed);
    it.counts.emplace_back("skipped", result.skipped);
    it.node_rounds = nodes() * static_cast<double>(combined.metrics.rounds);
    if (combined.detected) it.error = "rejected on a C4-free tree";
    if (!combined.completed) it.error = "a repetition did not complete";
    if (!combined.faults.clean()) it.error = "fault report not clean";
    return it;
  }

  std::uint64_t seed_;
  std::uint64_t n_;
  csd::detect::EvenCycleConfig ecfg_;
  ProgramFactory program_;
  NetworkConfig cfg_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Network> traced_net_;
  Usefulness useful_;
  std::string work_dir_;
};

// exchange_dense: neighbourhood-exchange triangle detection on a dense
// G(n, p), sharded superstep engine at W = 2. Every node sends on every
// port every round, so delivery, BitVec streaming and the shard channels
// carry the load and idle scheduling has nothing to skip.
class ExchangeDense final : public Workload {
 public:
  ExchangeDense(const Args& args)
      : seed_(args.seed),
        n_(args.tiny ? 128 : 1280),
        p_(args.tiny ? 0.2 : 0.08),
        program_(csd::detect::clique_detect_program(3)) {}

  double nodes() const override { return static_cast<double>(n_); }

  void setup(SpanLog& spans, bool trace_mode) override {
    Graph g;
    {
      Scope s(spans, "graph.build");
      Rng rng(derive_seed(seed_, 2));
      g = csd::build::gnp(static_cast<csd::Vertex>(n_), p_, rng);
    }
    cfg_.bandwidth = std::max(kDetectBandwidth,
                              csd::detect::clique_detect_min_bandwidth(n_));
    cfg_.seed = seed_;
    cfg_.max_rounds = csd::detect::clique_detect_round_budget(
                          n_, g.max_degree(), cfg_.bandwidth) +
                      2;
    cfg_.shard.workers = kWorkers;
    if (trace_mode) {
      NetworkConfig traced = cfg_;
      traced.trace.timers = true;
      traced.shard.channel_counters = true;
      traced_net_ = std::make_unique<Network>(g, traced);
    }
    Scope s(spans, "congest.network_init");
    net_ = std::make_unique<Network>(std::move(g), cfg_);
  }

  void release() override {
    net_.reset();
    traced_net_.reset();
  }

  Iteration iterate(SpanLog& spans, bool traced) override {
    useful_.reset();
    RunOutcome out;
    {
      Scope s(spans, "congest.run");
      out = traced ? traced_net_->run(counting_factory(program_, useful_))
                   : net_->run(program_);
    }
    Iteration it;
    fill_sync_counts(it.counts, out);
    it.node_rounds = nodes() * static_cast<double>(out.metrics.rounds);
    if (!out.detected) it.error = "accepted a graph with triangles";
    if (!out.completed) it.error = "run did not complete";
    if (!out.faults.clean()) it.error = "fault report not clean";
    if (traced) {
      add_sync_timers(it, out.metrics.timers);
      double frames = 0, bytes = 0;
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        frames += static_cast<double>(out.metrics.counters.value(
            csd::obs::worker_counter_name("shard_channel_frames", w)));
        bytes += static_cast<double>(out.metrics.counters.value(
            csd::obs::worker_counter_name("shard_channel_bytes", w)));
      }
      it.layer["shard.channel_frames"] = frames;
      it.layer["shard.channel_bytes"] = bytes;
      add_usefulness(it, useful_);
    }
    return it;
  }

  std::vector<std::string> check(SpanLog& spans,
                                 const Iteration& first) override {
    std::vector<std::string> errors;
    bool has_triangle = false;
    {
      Scope s(spans, "graph.oracle");
      has_triangle = csd::oracle::has_clique(net_->topology(), 3);
    }
    if (!has_triangle) errors.push_back("oracle: G(n, p) has no triangle");
    // The library entry point runs the classic engine (W = 0): the sharded
    // run must match it bit for bit.
    RunOutcome entry;
    {
      Scope s(spans, "detect.entry_point");
      entry = csd::detect::detect_clique(net_->topology(), 3, cfg_.bandwidth,
                                         seed_);
    }
    if (auto e = compare_sync("detect_clique (W = 0) vs W = 2", entry,
                              first.counts);
        !e.empty())
      errors.push_back(e);
    return errors;
  }

  void finish_ledger(Ledger& ledger, const Iteration& first) override {
    add_sync_ledger(ledger, first.counts, nodes());
    ledger["shard.run_s"] = ledger["congest.run_s"];
    finish_usefulness(ledger);
  }

 private:
  static constexpr std::uint32_t kWorkers = 2;
  std::uint64_t seed_;
  std::uint64_t n_;
  double p_;
  ProgramFactory program_;
  NetworkConfig cfg_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Network> traced_net_;
  Usefulness useful_;
};

// async_lossy: the C_4 program on a random tree through the asynchronous
// engine, reliable ARQ transport, 10% frame drop. The only workload with
// the event queue, synchronizer and retransmissions on the blocking path.
class AsyncLossy final : public Workload {
 public:
  AsyncLossy(const Args& args) : seed_(args.seed), n_(args.tiny ? 64 : 512) {
    ecfg_.k = 2;
    program_ = csd::detect::even_cycle_program(ecfg_);
  }

  double nodes() const override { return static_cast<double>(n_); }

  void setup(SpanLog& spans, bool trace_mode) override {
    {
      Scope s(spans, "graph.build");
      Rng rng(derive_seed(seed_, 3));
      tree_ = csd::build::random_tree(static_cast<csd::Vertex>(n_), rng);
    }
    cfg_.bandwidth = std::max(
        kDetectBandwidth, csd::detect::even_cycle_min_bandwidth(n_, ecfg_));
    cfg_.seed = seed_;
    cfg_.max_pulses =
        csd::detect::make_even_cycle_schedule(n_, ecfg_).total_rounds() + 1;
    cfg_.faults.drop = 0.1;
    cfg_.transport = csd::congest::TransportMode::Reliable;
    traced_cfg_ = cfg_;
    traced_cfg_.trace.timers = trace_mode;
  }

  void release() override { tree_ = Graph(); }

  Iteration iterate(SpanLog& spans, bool traced) override {
    useful_.reset();
    csd::congest::AsyncRunOutcome out;
    {
      Scope s(spans, "async.run");
      out = traced ? csd::congest::run_async(
                         tree_, traced_cfg_,
                         counting_factory(program_, useful_))
                   : csd::congest::run_async(tree_, cfg_, program_);
    }
    Iteration it;
    it.counts = {{"detected", out.detected ? 1 : 0},
                 {"completed", out.completed ? 1 : 0},
                 {"verdict_digest", verdict_digest(out.verdicts)},
                 {"pulses", out.pulses},
                 {"frames", out.frames},
                 {"payload_bits", out.payload_bits},
                 {"retransmissions", out.faults.retransmissions},
                 {"acks", out.acks},
                 {"transport_bits", out.transport_bits},
                 {"transport_failures", out.faults.transport_failures}};
    it.node_rounds = nodes() * static_cast<double>(out.pulses);
    if (out.detected) it.error = "rejected on a C4-free tree";
    if (!out.completed) it.error = "run did not complete";
    if (out.faults.transport_failures != 0) it.error = "transport failures";
    if (traced) {
      const auto& t = out.timers;
      it.layer["async.compute_s"] = 1e-9 * static_cast<double>(t.compute_ns);
      it.layer["async.delivery_s"] = 1e-9 * static_cast<double>(t.delivery_ns);
      it.layer["transport.transport_s"] =
          1e-9 * static_cast<double>(t.transport_ns);
      add_usefulness(it, useful_);
    }
    return it;
  }

  std::vector<std::string> check(SpanLog& spans,
                                 const Iteration& first) override {
    std::vector<std::string> errors;
    bool has_c4 = true;
    {
      Scope s(spans, "graph.oracle");
      has_c4 = csd::oracle::has_cycle_of_length(tree_, 4);
    }
    if (has_c4) errors.push_back("oracle: the random tree contains a C4");
    // The fault-free sync run on the same seed: the reliable transport
    // must restore its verdicts and payload accounting exactly.
    NetworkConfig sync;
    sync.bandwidth = cfg_.bandwidth;
    sync.seed = seed_;
    sync.max_rounds = cfg_.max_pulses;
    std::unique_ptr<Network> net;
    {
      Scope s(spans, "congest.network_init");
      net = std::make_unique<Network>(tree_, sync);
    }
    RunOutcome out;
    {
      Scope s(spans, "congest.run");
      out = net->run(program_);
    }
    sync_counts_.clear();
    fill_sync_counts(sync_counts_, out);
    const auto expect = [&](const char* sync_key, const char* async_key) {
      if (count_of(sync_counts_, sync_key) != count_of(first.counts, async_key))
        errors.push_back(std::string("async vs fault-free sync: ") + async_key +
                         " != " + sync_key);
    };
    expect("detected", "detected");
    expect("verdict_digest", "verdict_digest");
    expect("rounds", "pulses");
    expect("bits", "payload_bits");
    return errors;
  }

  void finish_ledger(Ledger& ledger, const Iteration& first) override {
    add_sync_ledger(ledger, sync_counts_, nodes());
    const auto c = [&](const char* key) {
      return static_cast<double>(count_of(first.counts, key));
    };
    ledger["async.pulses"] = c("pulses");
    ledger["async.frames"] = c("frames");
    ledger["transport.retransmissions"] = c("retransmissions");
    ledger["transport.bits"] = c("transport_bits");
    ledger["transport.acks"] = c("acks");
    ledger["transport.useful_ratio"] =
        ratio(c("frames"), c("frames") + c("retransmissions"));
    ledger["async.untimed_s"] =
        ledger["async.run_s"] - ledger["async.compute_s"] -
        ledger["async.delivery_s"] - ledger["transport.transport_s"];
    finish_usefulness(ledger);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t n_;
  csd::detect::EvenCycleConfig ecfg_;
  ProgramFactory program_;
  Graph tree_;
  csd::congest::AsyncConfig cfg_;
  csd::congest::AsyncConfig traced_cfg_;
  Counts sync_counts_;
  Usefulness useful_;
};

// lb_curves: the lower-bound measurement plane. A G_{2,n} frame, a
// multi-seed two-party cut simulation of random traffic at jobs = 2, the
// Bloom error-collapse threshold B*(n) by bracket-and-bisect on the fast
// sampler, and one exact-sampler mutual-information estimate. n is large
// and rounds are few; no detect program runs.
class LbCurves final : public Workload {
 public:
  LbCurves(const Args& args)
      : seed_(args.seed),
        gkn_n_(args.tiny ? 256 : 16384),
        bloom_n_(args.tiny ? 512 : 4096),
        mi_n_(args.tiny ? 64 : 2048),
        probe_samples_(args.tiny ? 64 : 256),
        mi_samples_(args.tiny ? 64 : 512),
        bloom_(csd::lb::make_bloom_protocol(derive_seed(args.seed, 4))) {
    for (std::uint64_t s = 0; s < kSeeds; ++s)
      seeds_.push_back(derive_seed(seed_, 100 + s));
    cfg_.bandwidth = kBandwidth;
    cfg_.max_rounds = 8;
  }

  double nodes() const override {
    return static_cast<double>(frame_.graph.num_vertices());
  }

  void setup(SpanLog& spans, bool trace_mode) override {
    (void)trace_mode;
    Scope s(spans, "lowerbound.gkn_build");
    frame_ = csd::lb::build_gkn_frame(2, gkn_n_);
    owner_ = csd::lb::gkn_ownership(frame_.layout);
  }

  void release() override {
    frame_ = csd::lb::GknGraph{};
    owner_.clear();
  }

  Iteration iterate(SpanLog& spans, bool traced) override {
    (void)traced;
    Iteration it;
    csd::comm::CutCostBatch batch;
    {
      Scope s(spans, "comm.cut_batch");
      batch = run_batch(kJobs);
    }
    cut_edges_ = batch.cut_edges;
    std::uint64_t rounds = 0, crossing = 0, crossing_messages = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      rounds += batch.rounds[i];
      crossing += batch.total_crossing_bits(i);
      crossing_messages += batch.crossing_messages[i];
      if (!batch.completed[i]) it.error = "cut simulation did not complete";
    }
    it.node_rounds = nodes() * static_cast<double>(rounds);

    std::uint64_t probes = 0, threshold = 0;
    double error_at = 1.0;
    {
      Scope s(spans, "lowerbound.bisect");
      bisect(spans, probes, threshold, error_at);
    }
    if (error_at > kTarget) it.error = "B* bracket never reached the target";

    csd::lb::OneRoundStats mi;
    {
      Scope s(spans, "info.mi_eval");
      mi = csd::lb::evaluate_one_round(*bloom_, mi_n_, mi_n_, mi_samples_,
                                       derive_seed(seed_, 300));
    }
    it.counts = {
        {"rounds", rounds},
        {"crossing_bits", crossing},
        {"crossing_messages", crossing_messages},
        {"threshold_b", threshold},
        {"bisect_probes", probes},
        {"error_at_b_ppm", static_cast<std::uint64_t>(
                               std::llround(error_at * 1e6))},
        {"mi_nanobits", static_cast<std::uint64_t>(
                            std::llround(mi.info_messages * 1e9))},
    };
    return it;
  }

  std::vector<std::string> check(SpanLog& spans,
                                 const Iteration& first) override {
    std::vector<std::string> errors;
    bool has_hk = true;
    std::uint64_t cut_edges = 0;
    {
      Scope s(spans, "graph.oracle");
      has_hk = has_hk_by_edge_scan();
      cut_edges = csd::comm::count_cut_edges(frame_.graph, owner_);
    }
    if (has_hk) errors.push_back("oracle: the input-free frame contains H_k");
    if (cut_edges != cut_edges_)
      errors.push_back("cut batch: structural cut differs from a recount");
    // The batch is bit-identical at every jobs count.
    csd::comm::CutCostBatch one;
    {
      Scope s(spans, "comm.cut_batch_jobs1");
      one = run_batch(1);
    }
    std::uint64_t crossing = 0;
    for (std::size_t i = 0; i < one.size(); ++i)
      crossing += one.total_crossing_bits(i);
    if (crossing != count_of(first.counts, "crossing_bits"))
      errors.push_back("cut batch: jobs = 1 and jobs = 2 disagree");
    return errors;
  }

  std::vector<std::string> extras(SpanLog& spans, Ledger& ledger,
                                  const Iteration& first,
                                  double classic_wall) override {
    (void)ledger;
    (void)first;
    (void)classic_wall;
    // What simulate_across_cut_batch pays per call to build its Network.
    for (int i = 0; i < 3; ++i) {
      Scope s(spans, "congest.network_init");
      const Network net(frame_.graph, cfg_);
    }
    return {};
  }

  void finish_ledger(Ledger& ledger, const Iteration& first) override {
    const auto c = [&](const char* key) {
      return static_cast<double>(count_of(first.counts, key));
    };
    ledger["graph.build_s"] = ledger["lowerbound.gkn_build_s"];
    ledger["comm.seeds_per_s"] =
        ratio(static_cast<double>(kSeeds), ledger["comm.cut_batch_s"]);
    ledger["comm.crossing_bits"] = c("crossing_bits");
    ledger["lowerbound.bisect_probes"] = c("bisect_probes");
    ledger["lowerbound.threshold_b"] = c("threshold_b");
    ledger["info.samples_per_s"] =
        ratio(static_cast<double>(mi_samples_), ledger["info.mi_eval_s"]);
  }

 private:
  static constexpr std::uint64_t kSeeds = 6;
  static constexpr unsigned kJobs = 2;
  static constexpr std::uint64_t kBandwidth = 32;
  static constexpr double kTarget = 0.05;

  csd::comm::CutCostBatch run_batch(unsigned jobs) const {
    return csd::comm::simulate_across_cut_batch(
        frame_.graph, owner_, cfg_, csd::comm::random_traffic_program(2),
        seeds_, jobs);
  }

  // Lemma 3.1 in O(n + m): H_k is present iff some pair (i, j) has both
  // its A-side and its B-side top-bottom edge. (The library's
  // contains_hk_structurally probes all n^2 pairs, too slow at this n.)
  bool has_hk_by_edge_scan() const {
    const auto& l = frame_.layout;
    const auto pairs = [&](csd::lb::Corner corner) {
      std::vector<std::int64_t> bottom(frame_.graph.num_vertices(), -1);
      for (std::uint32_t j = 0; j < l.n; ++j)
        bottom[l.endpoint(csd::lb::Side::Bottom, corner, j)] = j;
      std::vector<std::uint64_t> found;
      for (std::uint32_t i = 0; i < l.n; ++i)
        for (const csd::Vertex w :
             frame_.graph.neighbors(l.endpoint(csd::lb::Side::Top, corner, i)))
          if (bottom[w] >= 0)
            found.push_back(std::uint64_t{i} * l.n +
                            static_cast<std::uint64_t>(bottom[w]));
      std::sort(found.begin(), found.end());
      return found;
    };
    const auto a = pairs(csd::lb::Corner::A);
    const auto b = pairs(csd::lb::Corner::B);
    std::vector<std::uint64_t> both;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(both));
    return !both.empty();
  }

  // Geometric bracket from n/64, then bisection to ~3% resolution: the
  // same search the nightly B*(n) sweep runs per (n, seed) cell.
  void bisect(SpanLog& spans, std::uint64_t& probes, std::uint64_t& threshold,
              double& error_at) const {
    const std::uint64_t probe_seed = derive_seed(seed_, 200);
    const auto probe = [&](std::uint64_t b) {
      Scope s(spans, "lowerbound.bloom_probe");
      ++probes;
      csd::lb::OneRoundBatchOptions opts;
      opts.fast_sampling = true;
      return csd::lb::evaluate_one_round_batch(*bloom_, bloom_n_, b,
                                               probe_samples_, {probe_seed},
                                               opts)[0]
          .error;
    };
    std::uint64_t lo = std::max<std::uint64_t>(1, bloom_n_ / 64);
    std::uint64_t hi = lo;
    double err = probe(hi);
    while (err > kTarget && hi < 8 * bloom_n_) {
      lo = hi;
      hi *= 2;
      err = probe(hi);
    }
    for (int step = 0; step < 5 && hi - lo > hi / 32; ++step) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      const double err_mid = probe(mid);
      if (err_mid <= kTarget) {
        hi = mid;
        err = err_mid;
      } else {
        lo = mid;
      }
    }
    threshold = hi;
    error_at = err;
  }

  std::uint64_t seed_;
  std::uint32_t gkn_n_;
  std::uint64_t bloom_n_;
  std::uint64_t mi_n_;
  std::uint64_t probe_samples_;
  std::uint64_t mi_samples_;
  std::unique_ptr<csd::lb::OneRoundProtocol> bloom_;
  std::vector<std::uint64_t> seeds_;
  NetworkConfig cfg_;
  csd::lb::GknGraph frame_;
  std::vector<csd::comm::Owner> owner_;
  std::uint64_t cut_edges_ = 0;
};

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "thm11_quiet")
    return std::make_unique<EvenCycleQuiet>(args);
  if (args.workload == "exchange_dense")
    return std::make_unique<ExchangeDense>(args);
  if (args.workload == "async_lossy") return std::make_unique<AsyncLossy>(args);
  if (args.workload == "lb_curves") return std::make_unique<LbCurves>(args);
  return nullptr;
}

// ------------------------------------------------------------------ runner

// Set-up is timed in two batches, one before the warm-up and one after the
// measured loop, so that its median samples the machine across the whole
// run. A batch repeats set-up until it has taken kSetupBatchS (at least
// kMinSetups times, at most kMaxSetups), so that a set-up of a fraction of
// a millisecond still gets a steady median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 5000;
constexpr double kSetupBatchS = 0.75;
constexpr std::size_t kMinIterations = 3;

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args);
  if (!w) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  SpanLog spans;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const auto record = [&](const std::string& step,
                          const std::vector<std::string>& errs) {
    ++attempted;
    if (errs.empty()) return;
    ++failed;
    for (const auto& e : errs) errors.push_back(step + ": " + e);
  };

  // 1. Set-up, repeated; the last one is kept.
  std::vector<double> setup_times;
  const auto set_up_batch = [&] {
    const double batch_start = now_s();
    for (int rep = 0; rep < kMaxSetups; ++rep) {
      if (rep >= kMinSetups && now_s() - batch_start >= kSetupBatchS) break;
      w->release();
      spans.set_context(args.trace, "setup",
                        static_cast<int>(setup_times.size()));
      const double t0 = now_s();
      w->setup(spans, args.trace);
      setup_times.push_back(now_s() - t0);
    }
  };
  set_up_batch();
  malloc_trim(0);
  const double rss_after_setup = current_rss_bytes();

  // 2. Warm-up: its counts are the reference for every later iteration.
  spans.set_context(false, "warmup", 0);
  const Iteration first = w->iterate(spans, false);
  const auto errors_of = [](const std::string& error) {
    return error.empty() ? std::vector<std::string>{}
                         : std::vector<std::string>{error};
  };
  record("warm-up", errors_of(first.error));
  const double peak_after_warmup = peak_rss_bytes();

  // 3. One-off checks.
  spans.set_context(args.trace, "check", 0);
  record("check", w->check(spans, first));

  // 4. Measured iterations.
  std::vector<double> walls, cpus, traced_walls;
  std::vector<Iteration> traced;
  const double loop_start = now_s();
  for (int i = 0;; ++i) {
    const bool is_traced = args.trace && i % 2 == 1;
    spans.set_context(is_traced, "iter", i);
    const double c0 = cpu_now_s();
    const double t0 = now_s();
    Iteration it = w->iterate(spans, is_traced);
    const double wall = now_s() - t0;
    const double cpu = cpu_now_s() - c0;
    std::string err = it.error;
    if (err.empty() && it.counts != first.counts)
      err = "exact counts differ from the warm-up iteration";
    record("iteration " + std::to_string(i), errors_of(err));
    if (is_traced) {
      traced_walls.push_back(wall);
      traced.push_back(std::move(it));
    } else {
      walls.push_back(wall);
      cpus.push_back(cpu);
    }
    const bool enough =
        walls.size() >= kMinIterations &&
        (!args.trace || traced_walls.size() >= kMinIterations);
    if (enough && now_s() - loop_start >= args.seconds) break;
  }
  const double wall_s = median(walls);
  const double cpu_s = median(cpus);
  set_up_batch();

  csd::obs::Json metrics = csd::obs::Json::object();
  if (!args.trace) {
    metrics.set("setup_s", median(setup_times));
    metrics.set("wall_s", wall_s);
    metrics.set("cpu_s", cpu_s);
    metrics.set("peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0));
    metrics.set("node_rounds_per_s", ratio(first.node_rounds, wall_s));
  } else {
    // 5. Trace-only extras, then the ledger.
    Ledger ledger;
    for (const char* name : kLedgerNames) ledger[name] = 0.0;
    spans.set_context(true, "extra", 0);
    record("extras", w->extras(spans, ledger, first, wall_s));

    // Median duration of one call: each of these is made at most once per
    // set-up, iteration or check, except the Bloom probe, which is timed
    // per probe.
    for (const char* name :
         {"graph.build", "graph.oracle", "congest.network_init",
          "congest.run", "async.run", "comm.cut_batch", "info.mi_eval",
          "lowerbound.gkn_build", "lowerbound.bloom_probe", "snapshot.save",
          "snapshot.load", "snapshot.resume"})
      ledger[std::string(name) + "_s"] = spans.span_median(name);
    std::map<std::string, std::vector<double>> layer_values;
    for (const auto& it : traced)
      for (const auto& [key, value] : it.layer)
        layer_values[key].push_back(value);
    for (auto& [key, values] : layer_values) ledger[key] = median(values);
    w->finish_ledger(ledger, first);

    ledger["detect.bytes_per_node"] =
        std::max(0.0, peak_after_warmup - rss_after_setup) / w->nodes();
    ledger["shard.cpu_over_wall"] = ratio(cpu_s, wall_s);
    ledger["obs.trace_overhead"] = ratio(median(traced_walls), wall_s) - 1.0;
    double traced_total = 0;
    for (const double t : traced_walls) traced_total += t;
    ledger["obs.span_coverage"] =
        ratio(spans.self_time_in("iter"), traced_total);
    ledger["failed_ratio"] =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));
    for (const auto& [key, value] : ledger) metrics.set(key, value);

    const std::string path =
        (std::filesystem::path(args.work_dir) /
         ("spans-" + args.workload + "-" + std::to_string(args.seed) + ".json"))
            .string();
    std::ofstream out(path);
    spans.to_json(args.workload).write(out, -1);
    out << '\n';
  }

  csd::obs::Json counts = csd::obs::Json::object();
  for (const auto& [key, value] : first.counts) counts.set(key, value);
  csd::obs::Json errs = csd::obs::Json::array();
  for (const auto& e : errors) errs.push(e);

  csd::obs::Json result = csd::obs::Json::object();
  result.set("workload", args.workload);
  result.set("seed", args.seed);
  result.set("tiny", args.tiny);
  result.set("build_type", CSD_PERF_BUILD_TYPE);
  result.set("iterations", static_cast<std::uint64_t>(walls.size()));
  csd::obs::Json wall_list = csd::obs::Json::array();
  for (const double t : walls) wall_list.push(t);
  result.set("iteration_walls_s", std::move(wall_list));
  result.set("traced_iterations",
             static_cast<std::uint64_t>(traced_walls.size()));
  csd::obs::Json setup_list = csd::obs::Json::array();
  for (const double t : setup_times) setup_list.push(t);
  result.set("setup_times_s", std::move(setup_list));
  result.set("rss_after_setup_mb", rss_after_setup / (1024.0 * 1024.0));
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("errors", std::move(errs));
  result.set("counts", std::move(counts));
  result.set("metrics", std::move(metrics));
  result.write(std::cout, -1);
  std::cout << '\n';
  return 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds >= 0))
        return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench_runner --workload NAME --seed N --seconds S"
                 " --trace 0|1 --work-dir DIR [--tiny]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << '\n';
    return 1;
  }
}

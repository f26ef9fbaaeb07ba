#include "congest/network.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "congest/active_set.hpp"
#include "congest/node_state.hpp"
#include "congest/run_batch.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"

namespace csd::congest {

using detail::NodeState;

namespace {

using detail::FilledSlots;
using detail::FrameArena;

// One message as the observers saw it at the sender, buffered during a
// worker's outbox scan and replayed on the coordinator in ascending
// dense-edge order (W >= 2 only; one worker emits directly). The payload
// copy is taken only when a transcript is recording.
struct SentRecord {
  std::uint64_t edge = 0;
  Vertex src = 0;
  Vertex dst = 0;
  std::uint64_t bits = 0;
  BitVec payload;
};

// One (src_worker, dst_worker) frame batch, exchanged at the superstep
// barrier. Structure-of-arrays over the first `used` entries: `edges[i]` is
// the dense directed-edge index of the send and `payloads[i]` the post-fault
// payload exactly as the receiver will see it. Filled in ascending edge
// order, drained in (src_worker, edge) order — the merge-order rule that
// makes the exchange deterministic. `payloads` is high-water sized so BitVec
// heap buffers recycle across rounds.
struct ShardChannel {
  std::vector<std::uint64_t> edges;
  std::vector<BitVec> payloads;
  std::size_t used = 0;

  // Append a frame, swapping the payload out of `slot` (the channel's
  // retired buffer, if any, lands back in the slot).
  void push(std::uint64_t edge, BitVec& slot) {
    if (used == payloads.size()) {
      edges.push_back(edge);
      payloads.emplace_back();
    } else {
      edges[used] = edge;
    }
    std::swap(payloads[used], slot);
    ++used;
  }
};

// Per-worker execution context. Round-scoped members are reset by the
// coordinator between supersteps; run-scoped accumulators are folded into
// the outcome at checkpoints and at the end. Workers only ever touch their
// own context (plus the channels addressed to them in phase B), so no
// member needs a lock.
struct WorkerCtx {
  std::uint32_t id = 0;
  std::uint32_t live = 0;  // owned nodes neither halted nor crashed

  // Run-scoped accounting (on top of any resume base).
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t max_message_bits = 0;
  std::uint64_t channel_frames_total = 0;
  std::uint64_t channel_bits_total = 0;
  std::uint64_t invocations = 0;  // NodeProgram calls, audit calls included
  // Last round this worker made progress (halt, crash, or frame shipped) —
  // surfaced per worker in channel_counters and in supervisor StallReports.
  std::uint64_t last_progress_round = 0;
  // Worker-local clocks (TraceOptions::timers): program calls, and the
  // outbox scan + channel drain.
  std::uint64_t compute_ns = 0;
  std::uint64_t delivery_ns = 0;

  // Round-scoped scratch.
  bool all_stopped = true;
  bool ran = false;  // some owned node's program was called
  bool progressed = false;
  std::uint64_t round_invocations = 0;
  std::uint64_t round_dropped = 0;
  std::uint64_t round_corrupted = 0;
  std::uint64_t round_landed = 0;
  std::uint64_t round_channel_frames = 0;
  std::uint64_t round_channel_bits = 0;
  std::uint64_t round_local_frames = 0;
  // Where crashes and violations go, in ascending node order: straight into
  // the outcome's FaultReport when one worker runs, otherwise into the
  // buffers below, merged at the barrier.
  std::vector<Vertex>* crashes = nullptr;
  std::vector<ProtocolViolation>* violations = nullptr;
  std::vector<Vertex> crash_buffer;
  std::vector<ProtocolViolation> violation_buffer;
  std::vector<SentRecord> sent;      // ascending edge index (W >= 2)
  std::optional<std::string> phase;  // first NodeApi::phase this round
  // Lowest owned node that ran round 0 (phase_of reference candidate).
  Vertex phase_ref = std::numeric_limits<Vertex>::max();
  // Inbox slots of owned nodes filled by the last delivery; the worker
  // clears exactly these before its next delivery lands.
  FilledSlots filled;

  std::vector<ShardChannel> out;  // one per destination worker

  // First exception this worker hit, with the vertex it was processing
  // (the coordinator rethrows the globally smallest vertex's exception —
  // the order a single worker would have failed in).
  std::exception_ptr error;
  Vertex error_vertex = std::numeric_limits<Vertex>::max();
};

// Persistent superstep crew: worker 0 runs on the coordinating thread,
// workers 1..W-1 on dedicated threads woken per phase (none at W = 1).
// Jobs must not throw (run_impl wraps them); the pool only synchronizes.
class SuperstepPool {
 public:
  explicit SuperstepPool(std::uint32_t workers) : workers_(workers) {
    threads_.reserve(workers_ - 1);
    for (std::uint32_t w = 1; w < workers_; ++w)
      threads_.emplace_back([this, w] { worker_loop(w); });
  }

  ~SuperstepPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      quit_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  SuperstepPool(const SuperstepPool&) = delete;
  SuperstepPool& operator=(const SuperstepPool&) = delete;

  /// Run job(w) for every worker and wait for all of them (the barrier).
  void run(const std::function<void(std::uint32_t)>& job) {
    if (workers_ == 1) {
      job(0);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      remaining_ = workers_ - 1;
      ++generation_;
    }
    start_cv_.notify_all();
    job(0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
  }

 private:
  void worker_loop(std::uint32_t w) {
    std::uint64_t seen = 0;
    while (true) {
      const std::function<void(std::uint32_t)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        start_cv_.wait(lock, [&] { return quit_ || generation_ != seen; });
        if (quit_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(w);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--remaining_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::uint32_t workers_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint32_t remaining_ = 0;
  bool quit_ = false;
};

// K-way merge of per-worker, per-round event buffers into the global order
// (ascending key; ties impossible — keys are node or edge indices owned by
// exactly one worker). W is small: repeated min-scan.
template <typename T, typename Key, typename Consume>
void merge_rounds(std::vector<WorkerCtx>& workers,
                  std::vector<T> WorkerCtx::* member, Key key,
                  Consume consume) {
  const std::uint32_t w_count = static_cast<std::uint32_t>(workers.size());
  std::vector<std::size_t> pos(w_count, 0);
  while (true) {
    std::uint32_t best = w_count;
    std::uint64_t best_key = 0;
    for (std::uint32_t w = 0; w < w_count; ++w) {
      auto& list = workers[w].*member;
      if (pos[w] >= list.size()) continue;
      const std::uint64_t k = key(list[pos[w]]);
      if (best == w_count || k < best_key) {
        best = w;
        best_key = k;
      }
    }
    if (best == w_count) break;
    consume(std::move((workers[best].*member)[pos[best]++]));
  }
  for (std::uint32_t w = 0; w < w_count; ++w) (workers[w].*member).clear();
}

}  // namespace

Network::Network(Graph topology, NetworkConfig config)
    : topology_(std::move(topology)), config_(config) {
  ids_.resize(topology_.num_vertices());
  for (Vertex v = 0; v < topology_.num_vertices(); ++v) ids_[v] = v;
  build_topology_tables();
}

Network::Network(Graph topology, NetworkConfig config,
                 std::vector<NodeId> ids)
    : topology_(std::move(topology)), config_(config), ids_(std::move(ids)) {
  CSD_CHECK_MSG(ids_.size() == topology_.num_vertices(),
                "identifier assignment size mismatch");
  build_topology_tables();
}

// Port mapping: port p of node v leads to topology_.neighbors(v)[p]; for
// delivery we need the reverse port on the receiving side. Built once per
// topology in O(n + m) (graph/graph.hpp: reverse_ports). The tables are flat
// arrays over the CSR's dense directed-edge index, so the delivery loop
// walks them linearly with no pointer chasing.
void Network::build_topology_tables() {
  const Vertex n = topology_.num_vertices();
  csr_ = &topology_.csr();  // materialize once; shared const reads after
  const auto& offsets = csr_->offsets;
  rev_port_ = reverse_ports(*csr_);
  const auto m2 = static_cast<std::size_t>(csr_->num_directed_edges());
  rev_edge_.resize(m2);
  neighbor_ids_flat_.resize(m2);
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = csr_->row(v);
    const std::uint64_t base = offsets[v];
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      const Vertex w = nbrs[p];
      rev_edge_[base + p] = offsets[w] + rev_port_[base + p];
      neighbor_ids_flat_[base + p] = ids_[w];
    }
  }
}

// NetworkConfig::shard is deliberately NOT digested: outcomes are
// bit-identical at every worker count, so a snapshot taken at one worker
// count must resume at any other (test_shard pins this).
std::uint64_t Network::config_digest() const {
  std::uint64_t h = kDigestSeed;
  h = digest_mix(h, config_.bandwidth);
  h = digest_mix(h, config_.max_rounds);
  h = digest_mix(h, config_.namespace_size);
  h = digest_mix(h, config_.broadcast_only ? 1 : 0);
  h = digest_mix(h, fault_plan_digest(config_.faults));
  return h;
}

RunOutcome Network::run(const ProgramFactory& factory) const {
  return run_impl(factory, config_.seed, nullptr);
}

RunOutcome Network::run(const ProgramFactory& factory,
                        std::uint64_t seed) const {
  return run_impl(factory, seed, nullptr);
}

RunOutcome Network::resume(const ProgramFactory& factory,
                           const Snapshot& snapshot) const {
  CSD_CHECK_MSG(snapshot.kind == Snapshot::Kind::Sync,
                "Network::resume needs a sync snapshot, got "
                    << to_string(snapshot.kind));
  return run_impl(factory, snapshot.sync.identity.seed, &snapshot.sync);
}

// The synchronous engine. A deterministic Partition assigns each node to one
// of W workers; every round is one superstep:
//   phase A — each worker runs its owned nodes due this round in ascending
//             index order, then scans their outbox rows: accounts every
//             message, draws its fault fate, lands frames for its own nodes
//             and batches the rest into per-destination-worker channels;
//   barrier — the coordinator folds the workers' round into the outcome;
//   phase B — each worker drains the channels addressed to it in
//             (src_worker, edge) order.
// At W = 1 the superstep collapses to the plain loop: phase A runs inline on
// the calling thread, observers (trace, transcript, on_message), crashes and
// violations are emitted where they happen, there are no channels, no
// phase B and no merge. At W >= 2 the order-sensitive side effects are
// buffered per worker and merged at the barrier into the same global order
// (ascending node / dense edge index per round); everything else is order-
// free (per-link fault streams, per-node counters, per-slot inboxes, sums),
// so every outcome field is bit-identical at every W.
RunOutcome Network::run_impl(const ProgramFactory& factory,
                             std::uint64_t seed,
                             const SyncSnapshot* resume_from) const {
  const GraphCsr& csr = *csr_;
  const Vertex n = topology_.num_vertices();
  const Partition part =
      Partition::build(csr, config_.shard.workers, config_.shard.policy);
  const std::uint32_t w_count = part.workers();
  const bool sharded = w_count > 1;

  std::uint64_t namespace_size = config_.namespace_size;
  if (namespace_size == 0) namespace_size = n;
  for (const NodeId id : ids_)
    CSD_CHECK_MSG(id < namespace_size,
                  "identifier " << id << " outside namespace ["
                                << namespace_size << ")");

  RunOutcome outcome;
  outcome.metrics.bits_sent_by_node.assign(n, 0);
  outcome.trace = obs::RunTrace(n, config_.trace);

  std::vector<WorkerCtx> workers(w_count);
  for (std::uint32_t w = 0; w < w_count; ++w) {
    WorkerCtx& ctx = workers[w];
    ctx.id = w;
    ctx.live = static_cast<std::uint32_t>(part.owned(w).size());
    ctx.filled = FilledSlots(part.owned_directed_edges(w) / 16);
    if (sharded) {
      ctx.out.resize(w_count);
      ctx.crashes = &ctx.crash_buffer;
      ctx.violations = &ctx.violation_buffer;
    } else {
      ctx.crashes = &outcome.faults.crashed_nodes;
      ctx.violations = &outcome.faults.violations;
    }
  }

  // The run's frame plane: every directed edge gets one outbox and one
  // inbox slot; delivery swaps payload buffers between the two arenas.
  FrameArena inbox_arena(csr);
  FrameArena outbox_arena(csr);

  std::vector<std::unique_ptr<NodeState>> nodes;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  nodes.reserve(n);
  programs.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<NodeState>(
        topology_, v, ids_[v], seed, n, namespace_size, config_.bandwidth,
        config_.broadcast_only, workers[part.owner(v)].violations));
    nodes.back()->set_neighbor_ids(neighbor_ids_flat_.data() +
                                   csr.offsets[v]);
    nodes.back()->attach_frames(
        inbox_arena.payload_row(v), inbox_arena.present_row(v),
        outbox_arena.payload_row(v), outbox_arena.present_row(v));
    programs.push_back(factory(v));
    CSD_CHECK_MSG(programs.back() != nullptr, "factory returned null program");
  }

  const bool faulty = !config_.faults.empty();
  std::optional<FaultInjector> injector;
  if (faulty) injector.emplace(config_.faults, seed, topology_);
  // Byte flags, not vector<bool>: workers set disjoint entries in parallel.
  std::vector<std::uint8_t> crashed(n, 0);

  // Inbox logging feeds checkpoint capture: every payload delivered (post-
  // corruption, exactly what the program will see) is copied into a per-node
  // round-indexed log, the raw material of program-state replay. Serialized
  // observers are impossible, so checkpointing excludes them.
  const std::uint64_t checkpoint_at = config_.checkpoint_at_round;
  const bool logging = checkpoint_at > 0;
  if (logging || resume_from != nullptr)
    CSD_CHECK_MSG(!config_.record_transcript && !config_.on_message,
                  "checkpoint/resume is incompatible with record_transcript "
                  "and on_message observers");
  std::vector<InboxLog> inbox_log(logging ? n : 0);
  const auto log_row = [&](Vertex v, std::uint64_t r)
      -> std::vector<std::optional<BitVec>>& {
    auto& entries = inbox_log[v].entries;
    while (entries.size() <= r) entries.emplace_back(topology_.degree(v));
    return entries[r];
  };

  // Opt-in wall-clock split (TraceOptions::timers): compute_ns is program
  // calls, delivery_ns the outbox scan + channel exchange + drain, each
  // summed over the workers' own clocks (plus the coordinator's merge at
  // W >= 2). Timings land in RunMetrics, never in the trace.
  using Clock = std::chrono::steady_clock;
  const bool timing = config_.trace.timers;
  outcome.metrics.timers.enabled = timing;
  const auto to_ns = [](Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };

  // Active-set scheduling (active_set.hpp), one lane per worker: a worker
  // runs only its owned nodes due this round and walks only their outbox
  // rows. A resume wakes every live node.
  detail::ActiveSet active(n, w_count, part.owner_table());
  Vertex phase_ref = n;  // phase_of reference: lowest node that ran round 0

  // Accounting base restored from a snapshot; workers accumulate deltas on
  // top and the two are folded at checkpoints and at the end.
  std::uint64_t base_messages = 0;
  std::uint64_t base_total_bits = 0;
  std::uint64_t base_max_message_bits = 0;

  std::uint64_t start_round = 0;
  if (resume_from != nullptr) {
    const SyncSnapshot& snap = *resume_from;
    CSD_CHECK_MSG(snap.identity.topology == topology_digest(topology_, ids_),
                  "snapshot belongs to a different topology/identifier "
                  "assignment");
    CSD_CHECK_MSG(snap.identity.config == config_digest(),
                  "snapshot belongs to a different engine configuration");
    CSD_CHECK_MSG(snap.inbox.size() == n && snap.crashed.size() == n &&
                      snap.halted.size() == n &&
                      snap.bits_sent_by_node.size() == n,
                  "snapshot node count mismatch");
    start_round = snap.round;

    // Restore accounting and the fault-plan cursor.
    base_messages = snap.messages;
    base_total_bits = snap.total_bits;
    base_max_message_bits = snap.max_message_bits;
    outcome.metrics.bits_sent_by_node = snap.bits_sent_by_node;
    outcome.faults = snap.faults;
    if (faulty) injector->restore_streams(snap.fault_streams);

    // Rebuild program state by replaying the logged inboxes (zero
    // accounting, no trace: the restored FaultReport already carries
    // everything from rounds < start_round).
    phase_ref = detail::replay_sync_log(snap, nodes, programs, crashed,
                                        faulty ? &*injector : nullptr);
    for (WorkerCtx& ctx : workers) ctx.live = 0;
    for (Vertex v = 0; v < n; ++v) {
      WorkerCtx& owner = workers[part.owner(v)];
      nodes[v]->set_violation_sink(owner.violations);
      if (!nodes[v]->halted() && crashed[v] == 0) ++owner.live;
      // The live inbox for round start_round is the last logged row.
      const auto& entries = snap.inbox[v].entries;
      if (start_round < entries.size())
        for (std::uint32_t p = 0; p < entries[start_round].size(); ++p)
          if (entries[start_round][p].has_value()) {
            nodes[v]->deliver(p, BitVec(*entries[start_round][p]));
            owner.filled.add(csr.offsets[v] + p);
          }
      if (logging) inbox_log[v].entries = snap.inbox[v].entries;
    }
  }

  // NodeApi::phase declarations: straight into the trace at W = 1; at
  // W >= 2 into the owner's per-round slot (RunTrace is not thread-safe),
  // which the coordinator forwards at the barrier. All library programs
  // derive the phase from the round number (the documented contract —
  // every node agrees), so worker order never shows.
  if (outcome.trace)
    for (Vertex v = 0; v < n; ++v) {
      if (sharded)
        nodes[v]->set_phase_slot(&workers[part.owner(v)].phase);
      else
        nodes[v]->set_trace(&outcome.trace);
    }

  const bool transcripting = config_.record_transcript;
  const bool observing = static_cast<bool>(outcome.trace) || transcripting ||
                         static_cast<bool>(config_.on_message);
  bool checkpoint_taken = false;

  const auto fold_accounting = [&](std::uint64_t& messages,
                                   std::uint64_t& total_bits,
                                   std::uint64_t& max_bits) {
    messages = base_messages;
    total_bits = base_total_bits;
    max_bits = base_max_message_bits;
    for (const WorkerCtx& w : workers) {
      messages += w.messages;
      total_bits += w.total_bits;
      max_bits = std::max(max_bits, w.max_message_bits);
    }
  };

  std::uint64_t round = start_round;
  std::uint64_t last_progress = start_round;
  for (WorkerCtx& ctx : workers) ctx.last_progress_round = start_round;

  // csd-metrics-v2 instrumentation, coordinator-side only: workers tally
  // into their round-scoped scratch and the barrier publishes the tallies,
  // so the ring records events in the deterministic merge order. The sync_*
  // names mean the same at every W; shard_* ones exist only where W shows.
  // Write-only; nullptr = inert.
  obs::Telemetry* const telemetry = config_.telemetry;
  obs::Counter m_rounds, m_messages, m_bits, m_drops, m_corrupts, m_crashes,
      m_invocations, m_channel_frames, m_channel_bits, m_local_frames;
  obs::Gauge m_arena, m_arena_capacity;
  obs::Histogram m_round_bits, m_exchange_hist;
  std::vector<obs::Counter> m_worker_frames;
  if (telemetry != nullptr) {
    m_rounds = telemetry->counter("sync_rounds");
    m_messages = telemetry->counter("sync_messages");
    m_bits = telemetry->counter("sync_bits");
    m_drops = telemetry->counter("sync_frames_dropped");
    m_corrupts = telemetry->counter("sync_frames_corrupted");
    m_crashes = telemetry->counter("sync_node_crashes");
    m_invocations = telemetry->counter("sync_node_invocations");
    m_arena = telemetry->gauge("sync_arena_frames");
    m_arena_capacity = telemetry->gauge("sync_arena_capacity");
    m_arena_capacity.set(inbox_arena.size());
    m_round_bits = telemetry->histogram("sync_round_bits");
    if (sharded) {
      m_channel_frames = telemetry->counter("shard_channel_frames");
      m_channel_bits = telemetry->counter("shard_channel_bits");
      m_local_frames = telemetry->counter("shard_local_frames");
      m_exchange_hist = telemetry->histogram("shard_exchange_frames");
      m_worker_frames.reserve(w_count);
      for (std::uint32_t w = 0; w < w_count; ++w)
        m_worker_frames.push_back(telemetry->counter(
            obs::worker_counter_name("shard_channel_frames", w)));
    }
  }

  // Deliver into an owned inbox slot and wake its node for next round.
  const auto land = [&](WorkerCtx& ctx, Vertex dst, std::uint64_t slot,
                        BitVec& payload) {
    std::swap(inbox_arena.payload(slot), payload);
    inbox_arena.present(slot) = 1;
    ctx.filled.add(slot);
    ++ctx.round_landed;
    active.wake(ctx.id, dst);
  };
  // Observers see every accounted message before its fault fate, in
  // ascending dense-edge order per round.
  const auto observe = [&](Vertex src, Vertex dst, std::uint64_t bits,
                           auto&& payload) {
    if (outcome.trace) outcome.trace.record(round, src, dst, bits);
    if (transcripting)
      outcome.transcript.push_back(
          {round, src, dst, std::forward<decltype(payload)>(payload)});
    if (config_.on_message) config_.on_message(round, src, dst, bits);
  };

  // Phase A: compute the owned nodes due this round, then scan their
  // outbox rows — account, apply fault fates, deliver locally, batch
  // remote frames.
  const bool audit = config_.audit_sleep;
  const auto phase_a = [&](std::uint32_t w) {
    WorkerCtx& ctx = workers[w];
    // Fresh inboxes for round + 1 before any delivery lands in them (after
    // the compute below has read them). Only this worker writes its nodes'
    // inbox rows (locally here, remotely in its own phase B), so the reset
    // never races; one worker owns the whole arena and clears it at once.
    const auto clear_filled = [&] {
      ctx.filled.reset(inbox_arena, [&] {
        if (!sharded) {
          inbox_arena.reset_presence();
          return;
        }
        for (const Vertex v : part.owned(w)) nodes[v]->clear_inbox();
      });
    };
    if (ctx.live == 0) {  // vote-to-halt: nothing to run or ship
      clear_filled();
      return;
    }
    const auto compute_start = timing ? Clock::now() : Clock::time_point{};
    const std::vector<Vertex>& due = active.collect(w, round);
    const auto crash = [&](Vertex v) {
      crashed[v] = 1;
      nodes[v]->discard_outbox();
      ctx.crashes->push_back(v);
      --ctx.live;
      ctx.progressed = true;
    };
    const auto step = [&](Vertex v) {
      NodeState& node = *nodes[v];
      if (node.halted() || crashed[v] != 0) return;
      std::optional<std::uint64_t> crash_at;
      if (faulty) {
        crash_at = injector->crash_round(v);
        if (crash_at.has_value() && round >= *crash_at) {
          crash(v);
          return;
        }
      }
      ctx.ran = true;
      ++ctx.round_invocations;
      node.begin_round(round);
      if (faulty) {
        // Graceful degradation: a program that throws (typically a wire
        // decode of a corrupted payload) becomes a crashed node, not a
        // crashed process. Without faults, programming errors still
        // propagate — fail fast.
        try {
          programs[v]->on_round(node);
        } catch (const CheckFailure& failure) {
          ctx.violations->push_back(
              {ViolationKind::ProgramFault, v, round, failure.what()});
          crash(v);
          return;
        }
      } else {
        ctx.error_vertex = v;  // fail-fast bookkeeping, see `guarded`
        programs[v]->on_round(node);
      }
      if (round == 0 && ctx.phase_ref == std::numeric_limits<Vertex>::max())
        ctx.phase_ref = v;
      if (node.halted()) {
        --ctx.live;
        ctx.progressed = true;
      } else {
        active.reschedule(w, v, round, node.sleep_request(), crash_at);
      }
    };
    if (!audit) {
      for (const Vertex v : due) step(v);
    } else {
      // Audit: every live owned node runs; the sleeping ones must be
      // no-ops (audit_sleeper CHECKs it).
      auto next_due = due.begin();
      for (const Vertex v : part.owned(w)) {
        if (next_due != due.end() && *next_due == v) {
          ++next_due;
          step(v);
        } else if (!nodes[v]->halted() && crashed[v] == 0) {
          ctx.error_vertex = v;
          ++ctx.round_invocations;
          detail::audit_sleeper(*nodes[v], *programs[v], round);
        }
      }
    }
    ctx.all_stopped = !ctx.ran && ctx.live == 0;
    const auto compute_end = timing ? Clock::now() : Clock::time_point{};
    if (timing) ctx.compute_ns += to_ns(compute_end - compute_start);

    // Deliver: only the rows of nodes that ran can hold frames. A present
    // outbox slot's payload buffer is *swapped* into the reverse-edge inbox
    // slot (or a channel) — no copy; the retired buffer lands in the
    // sender's outbox slot and keeps circulating.
    clear_filled();
    // Per-message accounting in locals: they stay in registers across the
    // observer calls, which the compiler cannot see into.
    std::uint64_t* const bits_by_node =
        outcome.metrics.bits_sent_by_node.data();
    std::uint64_t messages = 0, total_bits = 0;
    std::uint64_t max_bits = ctx.max_message_bits;
    bool shipped = false;
    for (const Vertex v : due) {
      if (crashed[v] != 0) continue;
      const auto nbrs = csr.row(v);
      const std::uint64_t base = csr.offsets[v];
      for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
        const std::uint64_t e = base + p;
        std::uint8_t& out_present = outbox_arena.present(e);
        if (out_present == 0) continue;
        out_present = 0;
        BitVec& payload = outbox_arena.payload(e);
        const Vertex dst = nbrs[p];
        const std::uint64_t bits = payload.size();
        ++messages;
        total_bits += bits;
        bits_by_node[v] += bits;
        max_bits = std::max(max_bits, bits);
        if (observing) {
          if (sharded) {
            SentRecord rec{e, v, dst, bits, {}};
            if (transcripting) rec.payload = payload;
            ctx.sent.push_back(std::move(rec));
          } else {
            observe(v, dst, bits, std::as_const(payload));
          }
        }
        if (faulty) {
          const auto fate = injector->next_fate(v, p, bits);
          if (fate.dropped) {
            ++ctx.round_dropped;
            continue;
          }
          if (fate.corrupted) {
            ++ctx.round_corrupted;
            payload.flip(fate.corrupt_bit);
          }
        }
        shipped = true;
        if (sharded) {
          const std::uint32_t dw = part.owner(dst);
          if (dw != w) {
            ++ctx.round_channel_frames;
            ctx.round_channel_bits += bits;
            ctx.out[dw].push(e, payload);
            continue;
          }
          ++ctx.round_local_frames;
        }
        if (logging && !checkpoint_taken && round + 1 <= checkpoint_at)
          log_row(dst, round + 1)[rev_port_[e]] = payload;
        land(ctx, dst, rev_edge_[e], payload);
      }
    }
    ctx.messages += messages;
    ctx.total_bits += total_bits;
    ctx.max_message_bits = max_bits;
    ctx.progressed = ctx.progressed || shipped;
    if (timing) ctx.delivery_ns += to_ns(Clock::now() - compute_end);
  };

  // Phase B (W >= 2): drain every channel addressed to this worker in
  // (src_worker, edge) order — the deterministic merge order.
  const auto phase_b = [&](std::uint32_t w) {
    const auto drain_start = timing ? Clock::now() : Clock::time_point{};
    for (std::uint32_t src = 0; src < w_count; ++src) {
      ShardChannel& channel = workers[src].out[w];
      for (std::size_t i = 0; i < channel.used; ++i) {
        const std::uint64_t e = channel.edges[i];
        const Vertex dst = csr.neighbors[e];
        if (logging && !checkpoint_taken && round + 1 <= checkpoint_at)
          log_row(dst, round + 1)[rev_port_[e]] = channel.payloads[i];
        land(workers[w], dst, rev_edge_[e], channel.payloads[i]);
      }
      channel.used = 0;
    }
    if (timing) workers[w].delivery_ns += to_ns(Clock::now() - drain_start);
  };

  // Jobs never throw across the pool: exceptions park in the context and
  // the coordinator rethrows the one from the globally smallest vertex
  // (each worker stops at its first thrower, so its unrun vertices cannot
  // beat it — the order one worker would have failed in).
  const auto guarded = [&workers](auto job) {
    return [&workers, job](std::uint32_t w) {
      try {
        job(w);
      } catch (...) {
        workers[w].error = std::current_exception();
      }
    };
  };
  const auto rethrow_any = [&] {
    std::uint32_t best = w_count;
    for (std::uint32_t w = 0; w < w_count; ++w) {
      if (!workers[w].error) continue;
      if (best == w_count ||
          workers[w].error_vertex < workers[best].error_vertex)
        best = w;
    }
    if (best != w_count) std::rethrow_exception(workers[best].error);
  };

  SuperstepPool pool(w_count);
  const std::function<void(std::uint32_t)> phase_a_job = guarded(phase_a);
  const std::function<void(std::uint32_t)> phase_b_job = guarded(phase_b);

  std::uint64_t reported_messages = base_messages;
  std::uint64_t reported_bits = base_total_bits;
  for (; round < config_.max_rounds; ++round) {
    if (config_.stall_window != 0 &&
        round >= last_progress + config_.stall_window) {
      outcome.faults.watchdog_stalls = 1;
      if (telemetry != nullptr)
        telemetry->record(obs::EventKind::WatchdogStall, 0, round,
                          round - last_progress);
      break;
    }
    if (checkpoint_at != 0 && round == checkpoint_at && !checkpoint_taken) {
      auto snap = std::make_shared<Snapshot>();
      snap->kind = Snapshot::Kind::Sync;
      SyncSnapshot& s = snap->sync;
      s.identity = {topology_digest(topology_, ids_), config_digest(), seed};
      s.round = round;
      s.inbox.resize(n);
      for (Vertex v = 0; v < n; ++v) {
        log_row(v, round);  // pad every log to round + 1 rows
        s.inbox[v].entries = inbox_log[v].entries;
      }
      s.crashed = crashed;
      s.halted.resize(n);
      for (Vertex v = 0; v < n; ++v) s.halted[v] = nodes[v]->halted() ? 1 : 0;
      fold_accounting(s.messages, s.total_bits, s.max_message_bits);
      s.bits_sent_by_node = outcome.metrics.bits_sent_by_node;
      s.trace_bytes = outcome.trace.approx_bytes();
      s.faults = outcome.faults;
      if (faulty) s.fault_streams = injector->save_streams();
      outcome.checkpoint = std::move(snap);
      checkpoint_taken = true;
      if (telemetry != nullptr)
        telemetry->record(obs::EventKind::CheckpointSave, 0, round);
    }

    for (WorkerCtx& ctx : workers) {
      ctx.all_stopped = true;
      ctx.ran = false;
      ctx.progressed = false;
      ctx.round_invocations = 0;
      ctx.round_dropped = 0;
      ctx.round_corrupted = 0;
      ctx.round_landed = 0;
      ctx.round_channel_frames = 0;
      ctx.round_channel_bits = 0;
      ctx.round_local_frames = 0;
      ctx.phase.reset();
    }
    const std::size_t crashes_before = outcome.faults.crashed_nodes.size();
    const std::size_t violations_before = outcome.faults.violations.size();

    pool.run(phase_a_job);
    rethrow_any();

    const auto barrier_start =
        timing && sharded ? Clock::now() : Clock::time_point{};
    bool all_stopped = true;
    bool progressed = false;
    std::uint64_t dropped = 0, corrupted = 0, invocations = 0;
    for (WorkerCtx& ctx : workers) {
      all_stopped = all_stopped && ctx.all_stopped;
      progressed = progressed || ctx.progressed;
      dropped += ctx.round_dropped;
      corrupted += ctx.round_corrupted;
      invocations += ctx.round_invocations;
      ctx.invocations += ctx.round_invocations;
    }
    outcome.faults.frames_dropped += dropped;
    outcome.faults.frames_corrupted += corrupted;
    if (sharded) {
      merge_rounds(
          workers, &WorkerCtx::crash_buffer,
          [](const Vertex v) { return static_cast<std::uint64_t>(v); },
          [&](Vertex v) { outcome.faults.crashed_nodes.push_back(v); });
      merge_rounds(
          workers, &WorkerCtx::violation_buffer,
          [](const ProtocolViolation& pv) {
            return static_cast<std::uint64_t>(pv.node);
          },
          [&](ProtocolViolation&& pv) {
            outcome.faults.violations.push_back(std::move(pv));
          });
      if (observing)
        merge_rounds(
            workers, &WorkerCtx::sent,
            [](const SentRecord& rec) { return rec.edge; },
            [&](SentRecord&& rec) {
              observe(rec.src, rec.dst, rec.bits, std::move(rec.payload));
            });
      if (timing)
        outcome.metrics.timers.delivery_ns +=
            to_ns(Clock::now() - barrier_start);
    }
    if (telemetry != nullptr) {
      const auto& crashes = outcome.faults.crashed_nodes;
      for (std::size_t i = crashes_before; i < crashes.size(); ++i) {
        m_crashes.add();
        telemetry->record(obs::EventKind::NodeCrash, crashes[i], round);
      }
      const auto& violations = outcome.faults.violations;
      for (std::size_t i = violations_before; i < violations.size(); ++i)
        telemetry->record(obs::EventKind::Violation, violations[i].node,
                          round);
      m_invocations.add(invocations);
    }
    if (round == 0 && phase_ref == n)
      for (const WorkerCtx& ctx : workers)
        phase_ref = std::min(phase_ref, ctx.phase_ref);
    if (outcome.trace) {
      for (WorkerCtx& ctx : workers)
        if (ctx.phase.has_value()) {
          outcome.trace.set_phase(round, *ctx.phase);
          break;
        }
      if (!all_stopped && phase_ref < n) {
        const std::string_view name = programs[phase_ref]->phase_of(round);
        if (!name.empty()) outcome.trace.set_phase(round, name);
      }
    }
    if (all_stopped) break;

    if (sharded) {
      pool.run(phase_b_job);
      rethrow_any();
      for (WorkerCtx& ctx : workers) {
        ctx.channel_frames_total += ctx.round_channel_frames;
        ctx.channel_bits_total += ctx.round_channel_bits;
      }
    }
    if (telemetry != nullptr) {
      std::uint64_t messages = base_messages, bits = base_total_bits,
                    landed = 0;
      for (const WorkerCtx& ctx : workers) {
        messages += ctx.messages;
        bits += ctx.total_bits;
        landed += ctx.round_landed;
      }
      m_rounds.add();
      m_messages.add(messages - reported_messages);
      m_bits.add(bits - reported_bits);
      m_round_bits.observe(bits - reported_bits);
      m_drops.add(dropped);
      m_corrupts.add(corrupted);
      m_arena.set(landed);
      reported_messages = messages;
      reported_bits = bits;
      if (sharded) {
        std::uint64_t exchanged = 0;
        for (const WorkerCtx& ctx : workers) {
          exchanged += ctx.round_channel_frames;
          m_channel_frames.add(ctx.round_channel_frames);
          m_channel_bits.add(ctx.round_channel_bits);
          m_local_frames.add(ctx.round_local_frames);
          m_worker_frames[ctx.id].add(ctx.round_channel_frames);
          if (ctx.round_channel_frames != 0)
            telemetry->record(obs::EventKind::ChannelExchange, ctx.id, round,
                              ctx.round_channel_frames);
        }
        m_exchange_hist.observe(exchanged);
        telemetry->record(obs::EventKind::SuperstepBarrier, 0, round,
                          exchanged);
      }
    }
    if (progressed) {
      last_progress = round + 1;
      for (WorkerCtx& ctx : workers)
        if (ctx.progressed) ctx.last_progress_round = round + 1;
    }
  }

  outcome.metrics.rounds = round;
  if (timing)
    for (const WorkerCtx& ctx : workers) {
      outcome.metrics.timers.compute_ns += ctx.compute_ns;
      outcome.metrics.timers.delivery_ns += ctx.delivery_ns;
      outcome.metrics.timers.node_rounds_invoked += ctx.invocations;
    }
  fold_accounting(outcome.metrics.messages, outcome.metrics.total_bits,
                  outcome.metrics.max_message_bits);
  outcome.completed =
      std::all_of(nodes.begin(), nodes.end(),
                  [](const auto& node) { return node->halted(); });
  outcome.verdicts.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    outcome.verdicts.push_back(nodes[v]->verdict());
    if (nodes[v]->verdict() == Verdict::Reject) outcome.detected = true;
    if (crashed[v] == 0 && nodes[v]->verdict() == Verdict::Reject)
      outcome.faults.detected_by_survivors = true;
    if (crashed[v] == 0 && !nodes[v]->halted())
      outcome.faults.stalled_nodes.push_back(v);
  }
  outcome.metrics.counters = fault_counters(outcome.faults);
  if (outcome.checkpoint != nullptr)
    outcome.metrics.counters.add("checkpoints_taken", 1);
  if (config_.shard.channel_counters) {
    // Opt-in only: these depend on W (and on the partition), so the
    // determinism matrix runs without them and the nightly sweep with.
    outcome.metrics.counters.add("shard_workers", w_count);
    outcome.metrics.counters.add("shard_cut_edges", part.cut_directed_edges());
    for (const WorkerCtx& ctx : workers) {
      outcome.metrics.counters.add(
          obs::worker_counter_name("shard_channel_frames", ctx.id),
          ctx.channel_frames_total);
      outcome.metrics.counters.add(
          obs::worker_counter_name("shard_channel_bytes", ctx.id),
          (ctx.channel_bits_total + 7) / 8);
      // Per-worker stall provenance: the last round this worker halted a
      // node, crashed one, or shipped a frame. Supervisor StallReports
      // carry these through to the post-mortem.
      outcome.metrics.counters.add(
          obs::worker_counter_name("shard_last_progress", ctx.id),
          ctx.last_progress_round);
    }
  }
  if (outcome.trace) {
    // Materialize quiet trailing rounds so trace rounds == metrics.rounds
    // (the exponent fit divides by segments to recover per-repetition
    // rounds), and surface the engine counters in the summary.
    outcome.trace.finish_run(round);
    outcome.trace.set_counters(outcome.metrics.counters);
  }
  outcome.metrics.trace_bytes = outcome.trace.approx_bytes();
  return outcome;
}

RunOutcome run_congest(const Graph& topology, const NetworkConfig& config,
                       const ProgramFactory& factory) {
  Network net(topology, config);
  return net.run(factory);
}

RunOutcome make_amplified_accumulator(Vertex n) {
  RunOutcome combined;
  combined.completed = true;
  combined.verdicts.assign(n, Verdict::Accept);
  combined.metrics.bits_sent_by_node.assign(n, 0);
  combined.metrics.repetitions_executed = 0;
  combined.metrics.repetitions_skipped = 0;
  return combined;
}

void merge_amplified(RunOutcome& combined, RunOutcome&& rep) {
  const Vertex n = static_cast<Vertex>(combined.verdicts.size());
  CSD_CHECK_MSG(rep.verdicts.size() == n,
                "merge_amplified: node count mismatch");
  combined.completed = combined.completed && rep.completed;
  combined.detected = combined.detected || rep.detected;
  for (Vertex v = 0; v < n; ++v)
    if (rep.verdicts[v] == Verdict::Reject)
      combined.verdicts[v] = Verdict::Reject;
  combined.metrics.rounds += rep.metrics.rounds;
  combined.metrics.messages += rep.metrics.messages;
  combined.metrics.total_bits += rep.metrics.total_bits;
  combined.metrics.max_message_bits = std::max(
      combined.metrics.max_message_bits, rep.metrics.max_message_bits);
  for (Vertex v = 0; v < n; ++v)
    combined.metrics.bits_sent_by_node[v] += rep.metrics.bits_sent_by_node[v];
  combined.metrics.repetitions_executed += rep.metrics.repetitions_executed;
  combined.metrics.repetitions_skipped += rep.metrics.repetitions_skipped;
  combined.transcript.insert(combined.transcript.end(),
                             std::make_move_iterator(rep.transcript.begin()),
                             std::make_move_iterator(rep.transcript.end()));
  // Traces merge in repetition order — the deterministic task order the
  // batch guarantees — so the combined trace is jobs-count independent.
  combined.trace.append(rep.trace);
  combined.metrics.trace_bytes += rep.metrics.trace_bytes;
  combined.metrics.counters.merge(rep.metrics.counters);
  combined.metrics.timers.merge(rep.metrics.timers);
  if (combined.checkpoint == nullptr) combined.checkpoint = rep.checkpoint;
  FaultReport& f = combined.faults;
  FaultReport& rf = rep.faults;
  f.frames_dropped += rf.frames_dropped;
  f.frames_corrupted += rf.frames_corrupted;
  f.retransmissions += rf.retransmissions;
  f.checksum_rejects += rf.checksum_rejects;
  f.duplicate_packets += rf.duplicate_packets;
  f.duplicate_acks += rf.duplicate_acks;
  f.transport_failures += rf.transport_failures;
  f.replayed_pulses += rf.replayed_pulses;
  f.watchdog_stalls += rf.watchdog_stalls;
  f.crashed_nodes.insert(f.crashed_nodes.end(), rf.crashed_nodes.begin(),
                         rf.crashed_nodes.end());
  f.recovered_nodes.insert(f.recovered_nodes.end(),
                           rf.recovered_nodes.begin(),
                           rf.recovered_nodes.end());
  f.stalled_nodes.insert(f.stalled_nodes.end(), rf.stalled_nodes.begin(),
                         rf.stalled_nodes.end());
  f.violations.insert(f.violations.end(),
                      std::make_move_iterator(rf.violations.begin()),
                      std::make_move_iterator(rf.violations.end()));
  f.detected_by_survivors =
      f.detected_by_survivors || rf.detected_by_survivors;
}

RunOutcome run_amplified(const Graph& topology, const NetworkConfig& config,
                         const ProgramFactory& factory,
                         std::uint32_t repetitions,
                         const AmplifyOptions& options) {
  CSD_CHECK(repetitions >= 1);
  const Network net(topology, config);

  std::vector<std::uint64_t> seeds(repetitions);
  for (std::uint32_t rep = 0; rep < repetitions; ++rep)
    seeds[rep] = derive_seed(config.seed, 0x5eedULL + rep);
  std::vector<RunBatch::Task> tasks(repetitions);
  for (std::uint32_t rep = 0; rep < repetitions; ++rep)
    tasks[rep] = {&net, &factory, seeds[rep]};

  const RunBatch batch(options.jobs);
  RunBatch::Result result = batch.execute(tasks, options.early_exit);

  RunOutcome combined = make_amplified_accumulator(topology.num_vertices());
  for (auto& slot : result.outcomes) {
    if (!slot.has_value()) continue;  // skipped by early exit
    merge_amplified(combined, std::move(*slot));
  }
  combined.metrics.repetitions_executed = result.executed;
  combined.metrics.repetitions_skipped = result.skipped;
  return combined;
}

}  // namespace csd::congest

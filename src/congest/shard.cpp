#include "congest/shard.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/active_set.hpp"
#include "congest/node_state.hpp"
#include "congest/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"

namespace csd::congest::detail {
namespace {

// One message as the observers saw it at the sender, recorded during the
// outbox scan and replayed on the coordinator in ascending dense-edge
// order. Only populated when an observer (trace / transcript / on_message)
// is attached; the payload copy only when a transcript is recording.
struct SentRecord {
  std::uint64_t edge = 0;
  Vertex src = 0;
  Vertex dst = 0;
  std::uint64_t bits = 0;
  BitVec payload;
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

  // Round-scoped scratch.
  bool all_stopped = true;
  bool ran = false;  // some owned node's program was called
  bool progressed = false;
  std::uint64_t round_invocations = 0;
  std::uint64_t round_dropped = 0;
  std::uint64_t round_corrupted = 0;
  std::uint64_t round_channel_frames = 0;
  std::uint64_t round_channel_bits = 0;
  std::uint64_t round_local_frames = 0;
  std::vector<ProtocolViolation> violations;  // ascending node index
  std::vector<Vertex> crashes;                // ascending node index
  std::vector<SentRecord> sent;               // ascending edge index
  std::optional<std::string> phase;           // first NodeApi::phase this round
  // Lowest owned node that ran round 0 (phase_of reference candidate).
  Vertex phase_ref = std::numeric_limits<Vertex>::max();
  // Inbox slots of owned nodes filled by the last delivery; the worker
  // clears exactly these before its next delivery lands.
  FilledSlots filled;

  std::vector<ShardChannel> out;  // one per destination worker

  // First exception this worker hit, with the vertex it was processing
  // (the coordinator rethrows the globally smallest vertex's exception to
  // match the classic engine's fail-fast order).
  std::exception_ptr error;
  Vertex error_vertex = std::numeric_limits<Vertex>::max();
};

// Persistent superstep crew: worker 0 runs on the coordinating thread,
// workers 1..W-1 on dedicated threads woken per phase. Jobs must not throw
// (run_sharded wraps them); the pool only synchronizes.
class SuperstepPool {
 public:
  explicit SuperstepPool(std::uint32_t workers) : workers_(workers) {
    threads_.reserve(workers_ > 0 ? workers_ - 1 : 0);
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
    if (workers_ <= 1) {
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

// Restore a combiner-rewritten channel to ascending edge order (the merge-
// order invariant phase B relies on). Skipped when no combiner ran: the
// scan fills channels in ascending order already.
void sort_channel(ShardChannel& channel) {
  std::vector<std::uint32_t> perm(channel.used);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    return channel.edges[a] < channel.edges[b];
  });
  std::vector<std::uint64_t> edges(channel.used);
  std::vector<BitVec> payloads(channel.used);
  for (std::uint32_t i = 0; i < channel.used; ++i) {
    edges[i] = channel.edges[perm[i]];
    payloads[i] = std::move(channel.payloads[perm[i]]);
  }
  std::copy(edges.begin(), edges.end(), channel.edges.begin());
  std::move(payloads.begin(), payloads.end(), channel.payloads.begin());
}

// K-way merge of per-worker, per-round event lists into the classic
// engine's global order (ascending key; ties impossible — keys are node or
// edge indices owned by exactly one worker). W is small: repeated min-scan.
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

RunOutcome run_sharded(const Network& net, const ProgramFactory& factory,
                       std::uint64_t seed, const SyncSnapshot* resume_from) {
  const Graph& topology = net.topology();
  const NetworkConfig& config = net.config();
  const GraphCsr& csr = net.csr();
  const std::vector<std::uint32_t>& rev_port = net.rev_port();
  const std::vector<std::uint64_t>& rev_edge = net.rev_edge();
  const std::vector<NodeId>& ids = net.ids();
  const Vertex n = topology.num_vertices();
  const std::uint32_t w_count = config.shard.workers;
  CSD_CHECK(w_count >= 1);

  std::uint64_t namespace_size = config.namespace_size;
  if (namespace_size == 0) namespace_size = n;
  for (const NodeId id : ids)
    CSD_CHECK_MSG(id < namespace_size,
                  "identifier " << id << " outside namespace ["
                                << namespace_size << ")");

  RunOutcome outcome;
  outcome.metrics.bits_sent_by_node.assign(n, 0);
  outcome.trace = obs::RunTrace(n, config.trace);

  const Partition part = Partition::build(csr, w_count, config.shard.policy);
  std::vector<WorkerCtx> workers(w_count);
  for (std::uint32_t w = 0; w < w_count; ++w) {
    workers[w].id = w;
    workers[w].out.resize(w_count);
    workers[w].live = static_cast<std::uint32_t>(part.owned(w).size());
    std::uint64_t owned_slots = 0;
    for (const Vertex v : part.owned(w)) owned_slots += csr.row(v).size();
    workers[w].filled = FilledSlots(owned_slots / 16);
  }

  detail::FrameArena inbox_arena(csr);
  detail::FrameArena outbox_arena(csr);

  // Nodes route violations straight into their owner's per-round buffer;
  // the coordinator merges buffers into the FaultReport at every barrier,
  // so the report lists events in the classic engine's order.
  std::vector<std::unique_ptr<NodeState>> nodes;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  nodes.reserve(n);
  programs.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<NodeState>(
        topology, v, ids[v], seed, n, namespace_size, config.bandwidth,
        config.broadcast_only, &workers[part.owner(v)].violations));
    nodes.back()->set_neighbor_ids(net.neighbor_ids_flat().data() +
                                   csr.offsets[v]);
    nodes.back()->attach_frames(
        inbox_arena.payload_row(v), inbox_arena.present_row(v),
        outbox_arena.payload_row(v), outbox_arena.present_row(v));
    programs.push_back(factory(v));
    CSD_CHECK_MSG(programs.back() != nullptr, "factory returned null program");
  }

  const bool faulty = !config.faults.empty();
  std::optional<FaultInjector> injector;
  if (faulty) injector.emplace(config.faults, seed, topology);
  // Byte flags, not vector<bool>: workers set disjoint entries in parallel.
  std::vector<std::uint8_t> crashed(n, 0);

  const std::uint64_t checkpoint_at = config.checkpoint_at_round;
  const bool logging = checkpoint_at > 0;
  if (logging || resume_from != nullptr)
    CSD_CHECK_MSG(!config.record_transcript && !config.on_message,
                  "checkpoint/resume is incompatible with record_transcript "
                  "and on_message observers");
  std::vector<InboxLog> inbox_log(logging ? n : 0);
  const auto log_row = [&](Vertex v, std::uint64_t r)
      -> std::vector<std::optional<BitVec>>& {
    auto& entries = inbox_log[v].entries;
    while (entries.size() <= r)
      entries.emplace_back(topology.degree(v));
    return entries[r];
  };

  // Sharded timer split: phase A wall time (compute + outbox scan) counts
  // as compute_ns, the barrier work + channel drain as delivery_ns. The
  // buckets approximate the classic engine's split; like there, timings
  // stay out of the trace and out of every determinism contract.
  using Clock = std::chrono::steady_clock;
  const bool timing = config.trace.timers;
  outcome.metrics.timers.enabled = timing;
  const auto elapsed_ns = [](Clock::time_point since) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count());
  };

  // Active-set scheduling (active_set.hpp), one lane per worker: a worker
  // runs only its owned nodes due this round and walks only their outbox
  // rows. A resume wakes every live node.
  ActiveSet active(n, w_count, part.owners().data());
  Vertex phase_ref = n;  // phase_of reference: lowest node that ran round 0

  // Accounting base restored from a snapshot; workers accumulate deltas on
  // top and the two are folded at checkpoints and at the end.
  std::uint64_t base_messages = 0;
  std::uint64_t base_total_bits = 0;
  std::uint64_t base_max_message_bits = 0;

  std::uint64_t start_round = 0;
  if (resume_from != nullptr) {
    const SyncSnapshot& snap = *resume_from;
    CSD_CHECK_MSG(snap.identity.topology == topology_digest(topology, ids),
                  "snapshot belongs to a different topology/identifier "
                  "assignment");
    CSD_CHECK_MSG(snap.identity.config == net.config_digest(),
                  "snapshot belongs to a different engine configuration");
    CSD_CHECK_MSG(snap.inbox.size() == n && snap.crashed.size() == n &&
                      snap.halted.size() == n &&
                      snap.bits_sent_by_node.size() == n,
                  "snapshot node count mismatch");
    start_round = snap.round;

    base_messages = snap.messages;
    base_total_bits = snap.total_bits;
    base_max_message_bits = snap.max_message_bits;
    outcome.metrics.bits_sent_by_node = snap.bits_sent_by_node;
    outcome.faults = snap.faults;
    if (faulty) injector->restore_streams(snap.fault_streams);

    // Sequential replay shared with the classic engine: the log already
    // contains every delivered payload, so replay needs no worker fan-out.
    phase_ref = replay_sync_log(snap, nodes, programs, crashed,
                                faulty ? &*injector : nullptr);
    for (Vertex v = 0; v < n; ++v) {
      WorkerCtx& owner = workers[part.owner(v)];
      nodes[v]->set_violation_sink(&owner.violations);
      const auto& entries = snap.inbox[v].entries;
      if (start_round < entries.size())
        for (std::uint32_t p = 0; p < entries[start_round].size(); ++p)
          if (entries[start_round][p].has_value()) {
            nodes[v]->deliver(p, BitVec(*entries[start_round][p]));
            owner.filled.add(csr.offsets[v] + p);
          }
      if (logging) inbox_log[v].entries = snap.inbox[v].entries;
    }
    for (std::uint32_t w = 0; w < w_count; ++w) {
      std::uint32_t live = 0;
      for (const Vertex v : part.owned(w))
        if (!nodes[v]->halted() && !crashed[v]) ++live;
      workers[w].live = live;
    }
  }

  // NodeApi::phase declarations land in the owner's per-round slot; the
  // coordinator forwards the lowest set slot into the trace. All library
  // programs derive the phase from the round number (the documented
  // contract — every node agrees), so worker order never shows.
  if (outcome.trace)
    for (Vertex v = 0; v < n; ++v)
      nodes[v]->set_phase_slot(&workers[part.owner(v)].phase);

  const bool observing = static_cast<bool>(outcome.trace) ||
                         config.record_transcript ||
                         static_cast<bool>(config.on_message);
  const bool transcripting = config.record_transcript;
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
  // into their round-scoped scratch as before and the barrier publishes the
  // tallies, so the hot phase-A path is untouched and the ring records
  // events in the deterministic merge order. Write-only; nullptr = inert.
  obs::Telemetry* const telemetry = config.telemetry;
  obs::Counter m_supersteps, m_channel_frames, m_channel_bits, m_local_frames,
      m_drops, m_corrupts, m_crashes, m_invocations;
  obs::Histogram m_exchange_hist;
  std::vector<obs::Counter> m_worker_frames;
  if (telemetry != nullptr) {
    m_supersteps = telemetry->counter("shard_supersteps");
    m_channel_frames = telemetry->counter("shard_channel_frames");
    m_channel_bits = telemetry->counter("shard_channel_bits");
    m_local_frames = telemetry->counter("shard_local_frames");
    m_drops = telemetry->counter("shard_frames_dropped");
    m_corrupts = telemetry->counter("shard_frames_corrupted");
    m_crashes = telemetry->counter("shard_node_crashes");
    m_invocations = telemetry->counter("sync_node_invocations");
    m_exchange_hist = telemetry->histogram("shard_exchange_frames");
    m_worker_frames.reserve(w_count);
    for (std::uint32_t w = 0; w < w_count; ++w)
      m_worker_frames.push_back(telemetry->counter(
          obs::worker_counter_name("shard_channel_frames", w)));
  }

  // Deliver into an owned inbox slot and wake its node for next round.
  const auto land = [&](WorkerCtx& ctx, Vertex dst, std::uint64_t slot,
                        BitVec& payload) {
    std::swap(inbox_arena.payload(slot), payload);
    inbox_arena.present(slot) = 1;
    ctx.filled.add(slot);
    active.wake(ctx.id, dst);
  };

  // Phase A: compute the owned nodes due this round, then scan their
  // outbox rows — account, apply fault fates, deliver locally, batch
  // remote frames.
  const bool audit = config.audit_sleep;
  const auto phase_a = [&](std::uint32_t w) {
    WorkerCtx& ctx = workers[w];
    // Fresh inboxes for round + 1 before any delivery lands in them (after
    // the compute below has read them). Only this worker writes its nodes'
    // inbox rows (locally here, remotely in its own phase B), so the reset
    // never races.
    const auto clear_filled = [&] {
      ctx.filled.reset(inbox_arena, [&] {
        for (const Vertex v : part.owned(w)) nodes[v]->clear_inbox();
      });
    };
    if (ctx.live == 0) {  // vote-to-halt: nothing to run or ship
      clear_filled();
      return;
    }
    const std::vector<Vertex>& due = active.collect(w, round);
    const auto step = [&](Vertex v) {
      if (nodes[v]->halted() || crashed[v]) return;
      std::optional<std::uint64_t> crash_at;
      if (faulty) {
        crash_at = injector->crash_round(v);
        if (crash_at.has_value() && round >= *crash_at) {
          crashed[v] = 1;
          nodes[v]->discard_outbox();
          ctx.crashes.push_back(v);
          --ctx.live;
          ctx.progressed = true;
          return;
        }
      }
      ctx.ran = true;
      ++ctx.round_invocations;
      nodes[v]->begin_round(round);
      if (faulty) {
        try {
          programs[v]->on_round(*nodes[v]);
        } catch (const CheckFailure& failure) {
          ctx.violations.push_back(
              {ViolationKind::ProgramFault, v, round, failure.what()});
          crashed[v] = 1;
          nodes[v]->discard_outbox();
          ctx.crashes.push_back(v);
          --ctx.live;
          ctx.progressed = true;
          return;
        }
      } else {
        ctx.error_vertex = v;  // fail-fast bookkeeping, see catch below
        programs[v]->on_round(*nodes[v]);
      }
      if (round == 0 && ctx.phase_ref == std::numeric_limits<Vertex>::max())
        ctx.phase_ref = v;
      if (nodes[v]->halted()) {
        --ctx.live;
        ctx.progressed = true;
      } else {
        active.reschedule(w, v, round, nodes[v]->sleep_request(), crash_at);
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
        } else if (!nodes[v]->halted() && !crashed[v]) {
          ctx.error_vertex = v;
          ++ctx.round_invocations;
          audit_sleeper(*nodes[v], *programs[v], round);
        }
      }
    }
    ctx.all_stopped = !ctx.ran && ctx.live == 0;
    clear_filled();
    for (const Vertex v : due) {
      if (crashed[v]) continue;
      const auto nbrs = csr.row(v);
      const std::uint64_t base = csr.offsets[v];
      for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
        const std::uint64_t e = base + p;
        std::uint8_t& out_present = outbox_arena.present(e);
        if (out_present == 0) continue;
        out_present = 0;
        BitVec& payload = outbox_arena.payload(e);
        ++ctx.messages;
        ctx.total_bits += payload.size();
        outcome.metrics.bits_sent_by_node[v] += payload.size();
        ctx.max_message_bits =
            std::max<std::uint64_t>(ctx.max_message_bits, payload.size());
        if (observing) {
          SentRecord rec{e, v, nbrs[p], payload.size(), {}};
          if (transcripting) rec.payload = payload;
          ctx.sent.push_back(std::move(rec));
        }
        if (faulty) {
          const auto fate = injector->next_fate(v, p, payload.size());
          if (fate.dropped) {
            ++ctx.round_dropped;
            continue;
          }
          if (fate.corrupted) {
            ++ctx.round_corrupted;
            payload.flip(fate.corrupt_bit);
          }
        }
        ctx.progressed = true;
        const Vertex dst = nbrs[p];
        const std::uint32_t dw = part.owner(dst);
        if (dw == w) {
          ++ctx.round_local_frames;
          if (logging && !checkpoint_taken && round + 1 <= checkpoint_at)
            log_row(dst, round + 1)[rev_port[e]] = payload;
          land(ctx, dst, rev_edge[e], payload);
        } else {
          ++ctx.round_channel_frames;
          ctx.round_channel_bits += payload.size();
          ctx.out[dw].push(e, payload);
        }
      }
    }
    if (config.shard.combiner) {
      for (std::uint32_t dw = 0; dw < w_count; ++dw) {
        if (dw == w || ctx.out[dw].used == 0) continue;
        config.shard.combiner(w, dw, ctx.out[dw]);
        sort_channel(ctx.out[dw]);
      }
    }
  };

  // Phase B: drain every channel addressed to this worker in (src_worker,
  // edge) order — the deterministic merge order.
  const auto phase_b = [&](std::uint32_t w) {
    for (std::uint32_t src = 0; src < w_count; ++src) {
      ShardChannel& channel = workers[src].out[w];
      for (std::size_t i = 0; i < channel.used; ++i) {
        const std::uint64_t e = channel.edges[i];
        const Vertex dst = csr.neighbors[e];
        if (logging && !checkpoint_taken && round + 1 <= checkpoint_at)
          log_row(dst, round + 1)[rev_port[e]] = channel.payloads[i];
        land(workers[w], dst, rev_edge[e], channel.payloads[i]);
      }
      channel.reset();
    }
  };

  // Jobs never throw across the pool: exceptions park in the context and
  // the coordinator rethrows the one from the globally smallest vertex
  // (each worker stops at its first thrower, so its unrun vertices cannot
  // beat it — the classic fail-fast order).
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

  for (; round < config.max_rounds; ++round) {
    if (config.stall_window != 0 &&
        round >= last_progress + config.stall_window) {
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
      s.identity = {topology_digest(topology, ids), net.config_digest(),
                    seed};
      s.round = round;
      s.inbox.resize(n);
      for (Vertex v = 0; v < n; ++v) {
        log_row(v, round);  // pad every log to round + 1 rows
        s.inbox[v].entries = inbox_log[v].entries;
      }
      s.crashed.resize(n);
      s.halted.resize(n);
      for (Vertex v = 0; v < n; ++v) {
        s.crashed[v] = crashed[v];
        s.halted[v] = nodes[v]->halted() ? 1 : 0;
      }
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
      ctx.round_channel_frames = 0;
      ctx.round_channel_bits = 0;
      ctx.round_local_frames = 0;
      ctx.phase.reset();
    }

    const auto compute_start = timing ? Clock::now() : Clock::time_point{};
    pool.run(phase_a_job);
    rethrow_any();
    if (timing) outcome.metrics.timers.compute_ns += elapsed_ns(compute_start);

    const auto barrier_start = timing ? Clock::now() : Clock::time_point{};
    bool all_stopped = true;
    bool progressed = false;
    for (const WorkerCtx& ctx : workers) {
      all_stopped = all_stopped && ctx.all_stopped;
      progressed = progressed || ctx.progressed;
      outcome.faults.frames_dropped += ctx.round_dropped;
      outcome.faults.frames_corrupted += ctx.round_corrupted;
      if (telemetry != nullptr) {
        m_drops.add(ctx.round_dropped);
        m_corrupts.add(ctx.round_corrupted);
      }
    }
    merge_rounds(
        workers, &WorkerCtx::crashes,
        [](const Vertex v) { return static_cast<std::uint64_t>(v); },
        [&](Vertex v) {
          outcome.faults.crashed_nodes.push_back(v);
          if (telemetry != nullptr) {
            m_crashes.add();
            telemetry->record(obs::EventKind::NodeCrash, v, round);
          }
        });
    merge_rounds(
        workers, &WorkerCtx::violations,
        [](const ProtocolViolation& pv) {
          return static_cast<std::uint64_t>(pv.node);
        },
        [&](ProtocolViolation&& pv) {
          if (telemetry != nullptr)
            telemetry->record(obs::EventKind::Violation, pv.node, round);
          outcome.faults.violations.push_back(std::move(pv));
        });
    if (observing) {
      merge_rounds(
          workers, &WorkerCtx::sent,
          [](const SentRecord& rec) { return rec.edge; },
          [&](SentRecord&& rec) {
            if (outcome.trace)
              outcome.trace.record(round, rec.src, rec.dst, rec.bits);
            if (transcripting)
              outcome.transcript.push_back(
                  {round, rec.src, rec.dst, std::move(rec.payload)});
            if (config.on_message)
              config.on_message(round, rec.src, rec.dst, rec.bits);
          });
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
    for (WorkerCtx& ctx : workers) {
      ctx.invocations += ctx.round_invocations;
      if (telemetry != nullptr) m_invocations.add(ctx.round_invocations);
    }
    if (all_stopped) {
      if (timing)
        outcome.metrics.timers.delivery_ns += elapsed_ns(barrier_start);
      break;
    }

    pool.run(phase_b_job);
    rethrow_any();
    if (timing)
      outcome.metrics.timers.delivery_ns += elapsed_ns(barrier_start);

    for (WorkerCtx& ctx : workers) {
      ctx.channel_frames_total += ctx.round_channel_frames;
      ctx.channel_bits_total += ctx.round_channel_bits;
    }
    if (telemetry != nullptr) {
      m_supersteps.add();
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
      telemetry->record(obs::EventKind::SuperstepBarrier, 0, round, exchanged);
    }
    if (config.shard.on_superstep) {
      for (const WorkerCtx& ctx : workers)
        config.shard.on_superstep({round, ctx.id, ctx.round_channel_frames,
                                   ctx.round_channel_bits,
                                   ctx.round_local_frames, ctx.live == 0});
    }
    if (progressed) {
      last_progress = round + 1;
      for (WorkerCtx& ctx : workers)
        if (ctx.progressed) ctx.last_progress_round = round + 1;
    }
  }

  outcome.metrics.rounds = round;
  if (timing)
    for (const WorkerCtx& ctx : workers)
      outcome.metrics.timers.node_rounds_invoked += ctx.invocations;
  fold_accounting(outcome.metrics.messages, outcome.metrics.total_bits,
                  outcome.metrics.max_message_bits);
  outcome.completed =
      std::all_of(nodes.begin(), nodes.end(),
                  [](const auto& node) { return node->halted(); });
  outcome.verdicts.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    outcome.verdicts.push_back(nodes[v]->verdict());
    if (nodes[v]->verdict() == Verdict::Reject) outcome.detected = true;
    if (!crashed[v] && nodes[v]->verdict() == Verdict::Reject)
      outcome.faults.detected_by_survivors = true;
    if (!crashed[v] && !nodes[v]->halted())
      outcome.faults.stalled_nodes.push_back(v);
  }
  outcome.metrics.counters = fault_counters(outcome.faults);
  if (outcome.checkpoint != nullptr)
    outcome.metrics.counters.add("checkpoints_taken", 1);
  if (config.shard.channel_counters) {
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
    outcome.trace.finish_run(round);
    outcome.trace.set_counters(outcome.metrics.counters);
  }
  outcome.metrics.trace_bytes = outcome.trace.approx_bytes();
  return outcome;
}

}  // namespace csd::congest::detail

#include "congest/network.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "congest/active_set.hpp"
#include "congest/node_state.hpp"
#include "congest/run_batch.hpp"
#include "congest/shard.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"

namespace csd::congest {

using detail::NodeState;

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
// topology in O(sum deg) expected time via per-vertex port maps (the old
// per-run std::find scan was O(sum deg^2) and re-paid on every repetition).
// The tables are flat arrays over the CSR's dense directed-edge index, so
// the delivery loop walks them linearly with no pointer chasing.
void Network::build_topology_tables() {
  const Vertex n = topology_.num_vertices();
  csr_ = &topology_.csr();  // materialize once; shared const reads after
  const auto& offsets = csr_->offsets;
  std::vector<std::unordered_map<Vertex, std::uint32_t>> port_of(n);
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = csr_->row(v);
    port_of[v].reserve(nbrs.size());
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) port_of[v][nbrs[p]] = p;
  }
  const auto m2 = static_cast<std::size_t>(csr_->num_directed_edges());
  rev_port_.resize(m2);
  rev_edge_.resize(m2);
  neighbor_ids_flat_.resize(m2);
  for (Vertex v = 0; v < n; ++v) {
    const auto nbrs = csr_->row(v);
    const std::uint64_t base = offsets[v];
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      const Vertex w = nbrs[p];
      const auto it = port_of[w].find(v);
      CSD_CHECK(it != port_of[w].end());
      rev_port_[base + p] = it->second;
      rev_edge_[base + p] = offsets[w] + it->second;
      neighbor_ids_flat_[base + p] = ids_[w];
    }
  }
}

// NetworkConfig::shard is deliberately NOT digested: the sharded engine is
// bit-identical to the classic loop, so a snapshot taken at one worker
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

RunOutcome Network::run_impl(const ProgramFactory& factory,
                             std::uint64_t seed,
                             const SyncSnapshot* resume_from) const {
  if (config_.shard.workers != 0)
    return detail::run_sharded(*this, factory, seed, resume_from);
  const Vertex n = topology_.num_vertices();

  std::uint64_t namespace_size = config_.namespace_size;
  if (namespace_size == 0) namespace_size = n;
  for (const NodeId id : ids_)
    CSD_CHECK_MSG(id < namespace_size,
                  "identifier " << id << " outside namespace ["
                                << namespace_size << ")");

  RunOutcome outcome;
  outcome.metrics.bits_sent_by_node.assign(n, 0);
  outcome.trace = obs::RunTrace(n, config_.trace);

  // The run's frame plane: every directed edge gets one outbox and one
  // inbox slot; delivery swaps payload buffers between the two arenas.
  detail::FrameArena inbox_arena(*csr_);
  detail::FrameArena outbox_arena(*csr_);

  std::vector<std::unique_ptr<NodeState>> nodes;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  nodes.reserve(n);
  programs.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<NodeState>(
        topology_, v, ids_[v], seed, n, namespace_size,
        config_.bandwidth, config_.broadcast_only,
        &outcome.faults.violations));
    nodes.back()->set_neighbor_ids(neighbor_ids_flat_.data() +
                                   csr_->offsets[v]);
    nodes.back()->attach_frames(
        inbox_arena.payload_row(v), inbox_arena.present_row(v),
        outbox_arena.payload_row(v), outbox_arena.present_row(v));
    programs.push_back(factory(v));
    CSD_CHECK_MSG(programs.back() != nullptr, "factory returned null program");
  }

  const bool faulty = !config_.faults.empty();
  std::optional<FaultInjector> injector;
  if (faulty) injector.emplace(config_.faults, seed, topology_);

  // csd-metrics-v2 instrumentation: register handles once (mutex), update
  // lock-free per round. Everything below is write-only — the engine never
  // reads the plane back, so the run is bit-identical with or without it.
  obs::Telemetry* const telemetry = config_.telemetry;
  obs::Counter m_rounds, m_messages, m_bits, m_drops, m_corrupts, m_crashes,
      m_invocations;
  obs::Gauge m_arena, m_arena_capacity;
  obs::Histogram m_round_bits;
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
  }

  // Nodes neither halted nor crashed; the run ends in the first round in
  // which none is left to run.
  std::vector<std::uint8_t> crashed(n, 0);
  Vertex live = n;
  const auto crash = [&](Vertex v, std::uint64_t at) {
    crashed[v] = 1;
    --live;
    nodes[v]->discard_outbox();
    outcome.faults.crashed_nodes.push_back(v);
    if (telemetry != nullptr) {
      m_crashes.add();
      telemetry->record(obs::EventKind::NodeCrash, v, at);
    }
  };

  // Active-set scheduling (active_set.hpp): only nodes due this round run,
  // and a delivered frame makes its receiver due next round. Inbox slots
  // filled by one delivery are the only ones the next delivery clears.
  detail::ActiveSet active(n, 1, nullptr);
  detail::FilledSlots filled(inbox_arena.size() / 16);
  std::uint64_t arena_frames = 0;
  const auto land = [&](Vertex dst, std::uint64_t slot, BitVec& payload) {
    std::swap(inbox_arena.payload(slot), payload);
    inbox_arena.present(slot) = 1;
    filled.add(slot);
    ++arena_frames;
    active.wake(0, dst);
  };
  // NodeProgram::phase_of is asked of the lowest-index node that ran
  // round 0 (n = none yet).
  Vertex phase_ref = n;

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
    while (entries.size() <= r)
      entries.emplace_back(topology_.degree(
          static_cast<Vertex>(v)));
    return entries[r];
  };

  // Opt-in wall-clock split (TraceOptions::timers): program execution vs.
  // message delivery. Two clock reads per round when enabled, nothing when
  // not; the timings land in RunMetrics, never in the trace (the trace is a
  // pure function of the model-level data, wall clocks are not).
  using Clock = std::chrono::steady_clock;
  const bool timing = config_.trace.timers;
  outcome.metrics.timers.enabled = timing;
  const auto elapsed_ns = [](Clock::time_point since) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count());
  };

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
    outcome.metrics.messages = snap.messages;
    outcome.metrics.total_bits = snap.total_bits;
    outcome.metrics.max_message_bits = snap.max_message_bits;
    outcome.metrics.bits_sent_by_node = snap.bits_sent_by_node;
    outcome.faults = snap.faults;
    if (faulty) injector->restore_streams(snap.fault_streams);

    // Rebuild program state by replaying the logged inboxes (zero
    // accounting, no trace: the restored FaultReport already carries
    // everything from rounds < start_round). Every live node then wakes.
    phase_ref = detail::replay_sync_log(snap, nodes, programs, crashed,
                                        faulty ? &*injector : nullptr);
    for (Vertex v = 0; v < n; ++v) {
      nodes[v]->set_violation_sink(&outcome.faults.violations);
      if (nodes[v]->halted() || crashed[v] != 0) --live;
      // The live inbox for round start_round is the last logged row.
      const auto& entries = snap.inbox[v].entries;
      if (start_round < entries.size())
        for (std::uint32_t p = 0; p < entries[start_round].size(); ++p)
          if (entries[start_round][p].has_value()) {
            BitVec payload(*entries[start_round][p]);
            land(v, csr_->offsets[v] + p, payload);
          }
      if (logging) inbox_log[v].entries = snap.inbox[v].entries;
    }
  }
  if (outcome.trace)
    for (Vertex v = 0; v < n; ++v) nodes[v]->set_trace(&outcome.trace);

  const bool audit = config_.audit_sleep;
  std::uint64_t invocations = 0;
  std::uint64_t round = start_round;
  std::uint64_t last_progress = start_round;
  for (; round < config_.max_rounds; ++round) {
    if (config_.stall_window != 0 &&
        round >= last_progress + config_.stall_window) {
      outcome.faults.watchdog_stalls = 1;
      if (telemetry != nullptr)
        telemetry->record(obs::EventKind::WatchdogStall, 0, round,
                          round - last_progress);
      break;
    }
    if (checkpoint_at != 0 && round == checkpoint_at &&
        outcome.checkpoint == nullptr) {
      auto snap = std::make_shared<Snapshot>();
      snap->kind = Snapshot::Kind::Sync;
      SyncSnapshot& s = snap->sync;
      s.identity = {topology_digest(topology_, ids_), config_digest(), seed};
      s.round = round;
      s.inbox.resize(n);
      for (Vertex v = 0; v < n; ++v) {
        log_row(v, round);  // pad every log to round+1 rows
        s.inbox[v].entries = inbox_log[v].entries;
      }
      s.crashed = crashed;
      s.halted.resize(n);
      for (Vertex v = 0; v < n; ++v) s.halted[v] = nodes[v]->halted() ? 1 : 0;
      s.messages = outcome.metrics.messages;
      s.total_bits = outcome.metrics.total_bits;
      s.max_message_bits = outcome.metrics.max_message_bits;
      s.bits_sent_by_node = outcome.metrics.bits_sent_by_node;
      s.trace_bytes = outcome.trace.approx_bytes();
      s.faults = outcome.faults;
      if (faulty) s.fault_streams = injector->save_streams();
      outcome.checkpoint = std::move(snap);
      if (telemetry != nullptr)
        telemetry->record(obs::EventKind::CheckpointSave, 0, round);
    }
    bool ran = false;
    bool progressed = false;
    const std::uint64_t invocations_before = invocations;
    const auto compute_start = timing ? Clock::now() : Clock::time_point{};
    const std::vector<Vertex>& due = active.collect(0, round);
    const auto step = [&](Vertex v) {
      NodeState& node = *nodes[v];
      if (node.halted() || crashed[v] != 0) return;
      std::optional<std::uint64_t> crash_at;
      if (faulty) {
        crash_at = injector->crash_round(v);
        if (crash_at.has_value() && round >= *crash_at) {
          crash(v, round);
          progressed = true;
          return;
        }
      }
      ran = true;
      ++invocations;
      node.begin_round(round);
      if (faulty) {
        // Graceful degradation: a program that throws (typically a wire
        // decode of a corrupted payload) becomes a crashed node, not a
        // crashed process. Without faults, programming errors still
        // propagate — fail fast.
        try {
          programs[v]->on_round(node);
        } catch (const CheckFailure& failure) {
          outcome.faults.violations.push_back(
              {ViolationKind::ProgramFault, v, round, failure.what()});
          if (telemetry != nullptr)
            telemetry->record(obs::EventKind::Violation, v, round);
          crash(v, round);
          progressed = true;
          return;
        }
      } else {
        programs[v]->on_round(node);
      }
      if (round == 0 && phase_ref == n) phase_ref = v;
      if (node.halted()) {
        --live;
        progressed = true;
      } else {
        active.reschedule(0, v, round, node.sleep_request(), crash_at);
      }
    };
    if (!audit) {
      for (const Vertex v : due) step(v);
    } else {
      // Audit: every live node runs; the sleeping ones must be no-ops.
      auto next_due = due.begin();
      for (Vertex v = 0; v < n; ++v) {
        if (next_due != due.end() && *next_due == v) {
          ++next_due;
          step(v);
        } else if (!nodes[v]->halted() && crashed[v] == 0) {
          ++invocations;
          detail::audit_sleeper(*nodes[v], *programs[v], round);
        }
      }
    }
    if (timing) outcome.metrics.timers.compute_ns += elapsed_ns(compute_start);
    if (!ran && live == 0) break;  // every node halted or crashed
    if (outcome.trace && phase_ref < n) {
      const std::string_view name = programs[phase_ref]->phase_of(round);
      if (!name.empty()) outcome.trace.set_phase(round, name);
    }

    // Deliver: outboxes of this round become inboxes of the next. Only the
    // rows of nodes that ran can hold frames. A present outbox slot's
    // payload buffer is *swapped* into the reverse-edge inbox slot — no
    // copy; the receiver's retired buffer lands in the sender's outbox slot
    // and keeps circulating between the arenas.
    const auto delivery_start = timing ? Clock::now() : Clock::time_point{};
    const std::uint64_t messages_before = outcome.metrics.messages;
    const std::uint64_t bits_before = outcome.metrics.total_bits;
    filled.reset(inbox_arena, [&] { inbox_arena.reset_presence(); });
    arena_frames = 0;
    for (const Vertex v : due) {
      if (crashed[v] != 0) continue;
      const auto nbrs = csr_->row(v);
      const std::uint64_t base = csr_->offsets[v];
      for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
        std::uint8_t& out_present = outbox_arena.present(base + p);
        if (out_present == 0) continue;
        out_present = 0;
        BitVec& payload = outbox_arena.payload(base + p);
        ++outcome.metrics.messages;
        outcome.metrics.total_bits += payload.size();
        outcome.metrics.bits_sent_by_node[v] += payload.size();
        outcome.metrics.max_message_bits =
            std::max<std::uint64_t>(outcome.metrics.max_message_bits,
                                    payload.size());
        if (outcome.trace)
          outcome.trace.record(round, v, nbrs[p], payload.size());
        if (config_.record_transcript)
          outcome.transcript.push_back({round, v, nbrs[p], payload});
        if (config_.on_message)
          config_.on_message(round, v, nbrs[p], payload.size());
        if (faulty) {
          const auto fate = injector->next_fate(v, p, payload.size());
          if (fate.dropped) {
            ++outcome.faults.frames_dropped;
            if (telemetry != nullptr) {
              m_drops.add();
              telemetry->record(obs::EventKind::FrameDropped, v, round);
            }
            continue;
          }
          if (fate.corrupted) {
            ++outcome.faults.frames_corrupted;
            payload.flip(fate.corrupt_bit);
            if (telemetry != nullptr) {
              m_corrupts.add();
              telemetry->record(obs::EventKind::FrameCorrupted, v, round);
            }
          }
        }
        progressed = true;
        if (logging && outcome.checkpoint == nullptr &&
            round + 1 <= checkpoint_at)
          log_row(nbrs[p], round + 1)[rev_port_[base + p]] = payload;
        land(nbrs[p], rev_edge_[base + p], payload);
      }
    }
    if (timing)
      outcome.metrics.timers.delivery_ns += elapsed_ns(delivery_start);
    if (telemetry != nullptr) {
      const std::uint64_t round_bits = outcome.metrics.total_bits - bits_before;
      m_rounds.add();
      m_messages.add(outcome.metrics.messages - messages_before);
      m_bits.add(round_bits);
      m_invocations.add(invocations - invocations_before);
      m_arena.set(arena_frames);
      m_round_bits.observe(round_bits);
    }
    if (progressed) last_progress = round + 1;
  }

  outcome.metrics.rounds = round;
  if (timing) outcome.metrics.timers.node_rounds_invoked = invocations;
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

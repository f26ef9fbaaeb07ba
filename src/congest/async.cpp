#include "congest/async.hpp"

#include <algorithm>
#include <chrono>
#include <deque>

#include "congest/node_state.hpp"
#include "obs/metrics_v2.hpp"
#include "support/check.hpp"

namespace csd::congest {

namespace {

/// One wire-level occurrence: a data packet or ack arriving, a
/// retransmission timer firing at the sender, or a crashed node rejoining.
struct Event {
  enum class Kind : std::uint8_t { Data, Ack, Timer, Recover };

  std::uint64_t time = 0;
  std::uint64_t seq = 0;  // FIFO/determinism tiebreak
  Kind kind = Kind::Data;
  // Directed link the event belongs to, sender side: (src, src_port).
  std::uint32_t src = 0;
  std::uint32_t src_port = 0;
  // Receiver side (valid for Data; for Ack it is the original data sender).
  std::uint32_t dst = 0;
  std::uint32_t dst_port = 0;
  std::uint32_t packet = 0;    // Data only: the packet's slot in packets_
  std::uint64_t link_seq = 0;  // transport sequence number (Ack/Timer/Data)
};

/// Objects in recycled slots: put() returns a slot, take() moves the object
/// out and frees its slot for the next put().
template <typename T>
class Slab {
 public:
  std::uint32_t put(T item) {
    if (free_.empty()) {
      items_.push_back(std::move(item));
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    items_[slot] = std::move(item);
    return slot;
  }
  T take(std::uint32_t slot) {
    free_.push_back(slot);
    return std::move(items_[slot]);
  }
  const T& operator[](std::uint32_t slot) const { return items_[slot]; }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

/// Pending events in (time, seq) order: a binary min-heap of 24-byte keys
/// over a slab of events, so a sift moves keys, never events. seq is
/// unique, so the pop order is the same total order whatever the heap's
/// layout.
class EventQueue {
 public:
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }
  std::uint64_t top_time() const { return heap_.front().time; }

  void push(Event event) {
    const Key key{event.time, event.seq, slab_.put(std::move(event))};
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  /// Remove the earliest event.
  Event take() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const std::uint32_t slot = heap_.back().slot;
    heap_.pop_back();
    return slab_.take(slot);
  }

  /// Visit every pending event in (time, seq) order.
  template <typename Visit>
  void for_each_in_order(Visit&& visit) const {
    std::vector<Key> keys = heap_;
    std::sort(keys.begin(), keys.end(),
              [](const Key& a, const Key& b) { return later(b, a); });
    for (const Key& key : keys) visit(slab_[key.slot]);
  }

 private:
  struct Key {
    std::uint64_t time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool later(const Key& a, const Key& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }
  std::vector<Key> heap_;
  Slab<Event> slab_;
};

/// Synchronizer bookkeeping per node.
struct SyncState {
  std::uint64_t pulse = 0;          // next pulse to execute
  std::uint64_t local_time = 0;     // virtual time the node last acted
  std::vector<std::deque<Frame>> arrived;  // per port
  std::vector<bool> port_dead;             // sender halted, nothing more
  bool running = true;   // false once halted, crashed, or cap-stopped
  bool crashed = false;  // fault-injected or program fault
  bool crash_done = false;        // scheduled crash already honored
  bool recovery_pending = false;  // a Recover event is in the queue
  std::uint32_t recoveries_used = 0;
};

class AsyncEngine {
 public:
  AsyncEngine(const Graph& topology, const AsyncConfig& config,
              std::vector<NodeId> ids, const ProgramFactory& factory)
      : topology_(topology),
        config_(config),
        reliable_(config.transport == TransportMode::Reliable),
        ids_(std::move(ids)),
        factory_(&factory),
        delay_rng_(derive_seed(config.seed, 0xde1a)) {
    const Vertex n = topology_.num_vertices();
    CSD_CHECK_MSG(ids_.size() == n, "identifier assignment size mismatch");
    CSD_CHECK(config_.max_delay >= 1);
    namespace_size_ = config_.namespace_size;
    if (namespace_size_ == 0) namespace_size_ = n;
    const std::uint64_t namespace_size = namespace_size_;
    for (const NodeId id : ids_)
      CSD_CHECK_MSG(id < namespace_size, "identifier outside namespace");

    if (!config_.faults.empty())
      injector_.emplace(config_.faults, config_.seed, topology_);
    base_rto_ = config_.transport_cfg.rto != 0
                    ? config_.transport_cfg.rto
                    : 2ULL * config_.max_delay + 4;
    rejoin_delay_ = config_.recovery.rejoin_delay != 0
                        ? config_.recovery.rejoin_delay
                        : 4 * base_rto_;
    // Inbox logging powers both node recovery and checkpoint capture; it
    // copies delivered payloads and never consumes randomness, so enabling
    // it cannot change a single bit of the run (fuzzer-enforced).
    log_enabled_ =
        config_.recovery.enabled || config_.checkpoint_at_pulse != 0;
    if (log_enabled_) inbox_log_.resize(n);

    csr_ = &topology_.csr();
    rev_port_ = reverse_ports(*csr_);
    inbox_arena_ = detail::FrameArena(*csr_);
    outbox_arena_ = detail::FrameArena(*csr_);

    nodes_.reserve(n);
    programs_.reserve(n);
    sync_.resize(n);
    for (Vertex v = 0; v < n; ++v) {
      nodes_.push_back(std::make_unique<detail::NodeState>(
          topology_, v, ids_[v], config_.seed, n, namespace_size,
          config_.bandwidth, config_.broadcast_only,
          &outcome_.faults.violations));
      std::vector<NodeId> neighbor_ids;
      for (const Vertex w : topology_.neighbors(v))
        neighbor_ids.push_back(ids_[w]);
      nodes_.back()->set_neighbor_ids(std::move(neighbor_ids));
      nodes_.back()->attach_frames(
          inbox_arena_.payload_row(v), inbox_arena_.present_row(v),
          outbox_arena_.payload_row(v), outbox_arena_.present_row(v));
      programs_.push_back(factory(v));
      CSD_CHECK(programs_.back() != nullptr);
      sync_[v].arrived.resize(topology_.degree(v));
      sync_[v].port_dead.assign(topology_.degree(v), false);
    }
    outcome_.trace = obs::RunTrace(n, config_.trace);
    if (outcome_.trace)
      for (Vertex v = 0; v < n; ++v) nodes_[v]->set_trace(&outcome_.trace);
    timing_ = config_.trace.timers;
    outcome_.timers.enabled = timing_;
    // FIFO watermark per directed link (indexed by src, src-port); acks on
    // the reverse link share its watermark with that link's data frames.
    link_watermark_.resize(n);
    for (Vertex v = 0; v < n; ++v)
      link_watermark_[v].assign(topology_.degree(v), 0);
    if (reliable_) {
      senders_.reserve(n);
      receivers_.reserve(n);
      for (Vertex v = 0; v < n; ++v) {
        senders_.emplace_back(topology_.degree(v),
                              LinkSender(config_.transport_cfg));
        receivers_.emplace_back(topology_.degree(v),
                                LinkReceiver(config.transport_cfg));
      }
    }

    // csd-metrics-v2 instrumentation: handles registered once, write-only
    // afterwards. nullptr telemetry leaves every site a predicted branch.
    telemetry_ = config_.telemetry;
    if (telemetry_ != nullptr) {
      m_pulses_ = telemetry_->counter("async_pulses");
      m_frames_ = telemetry_->counter("async_frames");
      m_retransmits_ = telemetry_->counter("async_retransmissions");
      m_crc_rejects_ = telemetry_->counter("async_checksum_rejects");
      m_drops_ = telemetry_->counter("async_frames_dropped");
      m_corrupts_ = telemetry_->counter("async_frames_corrupted");
      m_crashes_ = telemetry_->counter("async_node_crashes");
      m_recoveries_ = telemetry_->counter("async_node_recoveries");
      m_queue_depth_ = telemetry_->gauge("async_event_queue");
      m_payload_hist_ = telemetry_->histogram("async_frame_payload_bits");
    }
  }

  AsyncRunOutcome run() {
    bootstrap();
    event_loop();
    return finalize();
  }

  AsyncRunOutcome resume(const Snapshot& snapshot) {
    restore(snapshot);
    // A terminal snapshot froze a run that had already ended; its queued
    // events are dead letters, so finalize the restored state directly.
    if (snapshot.async_state.terminal == 0) event_loop();
    return finalize();
  }

 private:
  void bootstrap() {
    // Pulse 0 runs immediately everywhere (empty inbox); degree-0 nodes
    // are always ready, so drive them to completion here — no event will
    // ever re-trigger them. Timing: program execution is measured inside
    // execute_pulse (compute_ns); the remainder of this loop — frame
    // assembly and event scheduling — is synchronizer work (delivery_ns).
    const auto started = timing_ ? Clock::now() : Clock::time_point{};
    const std::uint64_t compute_before = outcome_.timers.compute_ns;
    for (Vertex v = 0; v < topology_.num_vertices(); ++v) {
      execute_pulse(v);
      while (try_execute(v)) {
      }
    }
    if (timing_)
      add_delivery_time(started, compute_before, /*transport=*/false);
  }

  void event_loop() {
    while (!events_.empty()) {
      if (config_.checkpoint_at_pulse != 0 && outcome_.checkpoint == nullptr &&
          outcome_.pulses >= config_.checkpoint_at_pulse)
        capture_checkpoint();
      const std::uint64_t next_time = events_.top_time();
      if (config_.stall_window != 0 &&
          next_time > last_progress_vt_ + config_.stall_window * base_rto_) {
        // No delivery or recovery for stall_window RTOs of virtual time:
        // cut the run instead of grinding through a dead event queue.
        outcome_.faults.watchdog_stalls = 1;
        if (telemetry_ != nullptr)
          telemetry_->record(obs::EventKind::WatchdogStall, 0, next_time,
                             next_time - last_progress_vt_);
        break;
      }
      // Per-event timing, pop included: nested program execution is
      // subtracted (it books itself into compute_ns); the remainder is
      // synchronizer/delivery work for Data and Recover events and
      // reliable-transport work for Ack/Timer.
      const auto started = timing_ ? Clock::now() : Clock::time_point{};
      const std::uint64_t compute_before = outcome_.timers.compute_ns;
      const Event event = events_.take();
      switch (event.kind) {
        case Event::Kind::Data:
          outcome_.virtual_time = std::max(outcome_.virtual_time, event.time);
          last_progress_vt_ = std::max(last_progress_vt_, event.time);
          deliver_data(event);
          // Cascade: the delivery may have unblocked the destination.
          while (try_execute(event.dst)) {
          }
          break;
        case Event::Kind::Ack:
          outcome_.virtual_time = std::max(outcome_.virtual_time, event.time);
          // A permanently crashed host's transport dies with it, but a
          // host with a pending recovery keeps its ARQ card: acks that
          // arrive while it is down still settle its in-flight packets.
          if ((!sync_[event.src].crashed ||
               sync_[event.src].recovery_pending) &&
              !senders_[event.src][event.src_port].on_ack(event.link_seq))
            ++outcome_.faults.duplicate_acks;
          break;
        case Event::Kind::Timer:
          handle_timer(event);
          break;
        case Event::Kind::Recover:
          last_progress_vt_ = std::max(last_progress_vt_, event.time);
          handle_recover(event);
          // A node that died at pulse 0 replayed an empty history; pulse 0
          // needs the same unconditional kick the bootstrap gives (ports
          // cannot be "ready" for it — there is no pulse -1 frame to wait
          // on). Later pulses cascade normally off the queued arrivals.
          if (sync_[event.src].pulse == 0 && sync_[event.src].running)
            execute_pulse(event.src);
          while (try_execute(event.src)) {
          }
          break;
      }
      if (timing_)
        add_delivery_time(started, compute_before,
                          event.kind == Event::Kind::Ack ||
                              event.kind == Event::Kind::Timer);
      if (stopped_count_ == topology_.num_vertices() &&
          pending_recoveries_ == 0)
        break;
      if (pulse_cap_hit_) break;
    }
    // The capture pulse may have been crossed inside the final event's
    // cascade (or right before a break above), after the loop-top check
    // last ran. Capture the end state rather than silently skipping — but
    // mark it terminal: any events still queued were abandoned by this run
    // (pulse cap, all-stopped, watchdog) and a resume must abandon them
    // too, not replay them.
    if (config_.checkpoint_at_pulse != 0 && outcome_.checkpoint == nullptr &&
        outcome_.pulses >= config_.checkpoint_at_pulse)
      capture_checkpoint(/*terminal=*/true);
  }

  AsyncRunOutcome finalize() {
    const Vertex n = topology_.num_vertices();
    outcome_.completed = halted_count_ == n;
    outcome_.verdicts.reserve(n);
    for (Vertex v = 0; v < n; ++v) {
      const auto& node = nodes_[v];
      outcome_.verdicts.push_back(node->verdict());
      if (node->verdict() == Verdict::Reject) outcome_.detected = true;
      if (!sync_[v].crashed && node->verdict() == Verdict::Reject)
        outcome_.faults.detected_by_survivors = true;
      if (!sync_[v].crashed && !node->halted())
        outcome_.faults.stalled_nodes.push_back(v);
    }
    outcome_.counters = fault_counters(outcome_.faults);
    if (outcome_.trace) {
      // Pad quiet trailing pulses so the trace covers exactly
      // outcome_.pulses rounds — mirroring the synchronous engine, which
      // keeps fault-free traces byte-identical across the two.
      outcome_.trace.finish_run(outcome_.pulses);
      outcome_.trace.set_counters(outcome_.counters);
    }
    outcome_.trace_bytes = outcome_.trace.approx_bytes();
    return outcome_;
  }

 private:
  // ------------------------------------------------------------- timing --
  using Clock = std::chrono::steady_clock;

  static std::uint64_t elapsed_ns(Clock::time_point since) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             since)
            .count());
  }

  /// Book the time since `started`, minus the program-compute time nested
  /// inside it (already self-booked into compute_ns), as delivery or
  /// transport work.
  void add_delivery_time(Clock::time_point started,
                         std::uint64_t compute_before, bool transport) {
    const std::uint64_t total = elapsed_ns(started);
    const std::uint64_t nested = outcome_.timers.compute_ns - compute_before;
    const std::uint64_t rest = total > nested ? total - nested : 0;
    if (transport)
      outcome_.timers.transport_ns += rest;
    else
      outcome_.timers.delivery_ns += rest;
  }

  // ----------------------------------------------------------- wire layer --
  std::uint64_t fresh_delay() {
    return 1 + delay_rng_.below(config_.max_delay);
  }

  void push_event(Event event) {
    event.seq = next_event_seq_++;
    events_.push(std::move(event));
  }

  /// Apply link faults to a packet about to go on the wire. Returns false
  /// if the transmission is dropped; flips one bit on corruption. With
  /// FaultPlan::corrupt_headers the flipped bit is drawn over the frame
  /// header (pulse, then halted flag) as well as the payload; otherwise it
  /// targets the payload alone, so existing fault streams are unchanged.
  bool survive_faults(std::uint32_t src, std::uint32_t port,
                      DataPacket& packet) {
    if (!injector_.has_value()) return true;
    const std::uint64_t payload_bits = packet.frame.payload_bits();
    const std::uint64_t header_bits =
        config_.faults.corrupt_headers ? Frame::kPulseWireBits + 1 : 0;
    const auto fate = injector_->next_fate(
        src, port, static_cast<std::size_t>(header_bits + payload_bits));
    if (fate.dropped) {
      ++outcome_.faults.frames_dropped;
      if (telemetry_ != nullptr) {
        m_drops_.add();
        telemetry_->record(obs::EventKind::FrameDropped, src,
                           packet.frame.pulse);
      }
      return false;
    }
    if (fate.corrupted) {
      ++outcome_.faults.frames_corrupted;
      if (telemetry_ != nullptr) {
        m_corrupts_.add();
        telemetry_->record(obs::EventKind::FrameCorrupted, src,
                           packet.frame.pulse);
      }
      const std::uint64_t bit = fate.corrupt_bit;
      if (bit < header_bits) {
        if (bit < Frame::kPulseWireBits)
          packet.frame.pulse ^= 1ULL << bit;
        else
          packet.frame.sender_halted = !packet.frame.sender_halted;
      } else {
        packet.frame.payload->flip(
            static_cast<std::size_t>(bit - header_bits));
      }
    }
    return true;
  }

  /// Schedule the arrival of `packet` on the directed link (src, port) for
  /// a transmission happening at `now`. FIFO watermark per link.
  void transmit(std::uint32_t src, std::uint32_t port, DataPacket packet,
                std::uint64_t now) {
    if (!survive_faults(src, port, packet)) return;
    std::uint64_t when = now + fresh_delay();
    when = std::max(when, link_watermark_[src][port] + 1);
    link_watermark_[src][port] = when;
    Event event;
    event.time = when;
    event.kind = Event::Kind::Data;
    event.src = src;
    event.src_port = port;
    event.dst = csr_->row(src)[port];
    event.dst_port = rev_port_[csr_->offsets[src] + port];
    event.link_seq = packet.seq;
    event.packet = packets_.put(std::move(packet));
    push_event(std::move(event));
  }

  void arm_timer(std::uint32_t src, std::uint32_t port, std::uint64_t seq,
                 std::uint64_t now) {
    Event event;
    event.time = now + senders_[src][port].timeout_for(seq, base_rto_);
    event.kind = Event::Kind::Timer;
    event.src = src;
    event.src_port = port;
    event.link_seq = seq;
    push_event(std::move(event));
  }

  void send_ack(std::uint32_t dst, std::uint32_t dst_port, std::uint64_t seq,
                std::uint64_t now, std::uint32_t data_src,
                std::uint32_t data_src_port) {
    ++outcome_.acks;
    outcome_.transport_bits +=
        config_.transport_cfg.seq_bits + config_.transport_cfg.crc_bits;
    // The ack travels on the reverse directed link (dst, dst_port) and is
    // subject to the same drop process; it carries no payload, so the
    // corruption draw never fires (CRC-protected header abstracted away).
    if (injector_.has_value()) {
      const auto fate = injector_->next_fate(dst, dst_port, 0);
      if (fate.dropped) {
        ++outcome_.faults.frames_dropped;
        if (telemetry_ != nullptr) {
          m_drops_.add();
          telemetry_->record(obs::EventKind::FrameDropped, dst, now);
        }
        return;
      }
    }
    std::uint64_t when = now + fresh_delay();
    when = std::max(when, link_watermark_[dst][dst_port] + 1);
    link_watermark_[dst][dst_port] = when;
    Event event;
    event.time = when;
    event.kind = Event::Kind::Ack;
    event.src = data_src;  // the node whose sender awaits this ack
    event.src_port = data_src_port;
    event.link_seq = seq;
    push_event(std::move(event));
  }

  void deliver_data(const Event& event) {
    DataPacket packet = packets_.take(event.packet);
    // A permanently dead host neither acks nor buffers: its packets fall
    // into the void and the senders' retry budgets eventually give up —
    // mirroring handle_timer, where a permanent crash kills the transport
    // too. A host with a *pending* recovery keeps receiving: its ARQ card
    // and arrival queues survive the outage, and the replica drains the
    // backlog after the rejoin.
    const auto& dst_sync = sync_[event.dst];
    if (dst_sync.crashed && !dst_sync.recovery_pending) return;
    if (reliable_) {
      receivers_[event.dst][event.dst_port].on_data(std::move(packet), accept_);
      if (accept_.checksum_reject) {
        ++outcome_.faults.checksum_rejects;
        if (telemetry_ != nullptr) {
          m_crc_rejects_.add();
          telemetry_->record(obs::EventKind::ChecksumReject, event.dst,
                             event.time);
        }
        return;
      }
      if (accept_.send_ack)
        send_ack(event.dst, event.dst_port, accept_.ack_seq, event.time,
                 event.src, event.src_port);
      if (accept_.duplicate) {
        ++outcome_.faults.duplicate_packets;
        return;
      }
      for (Frame& frame : accept_.deliver)
        deliver_frame(event.dst, event.dst_port, std::move(frame), event.time);
    } else {
      deliver_frame(event.dst, event.dst_port, std::move(packet.frame),
                    event.time);
    }
  }

  void deliver_frame(std::uint32_t dst, std::uint32_t port, Frame frame,
                     std::uint64_t time) {
    auto& sync = sync_[dst];
    if (frame.sender_halted) sync.port_dead[port] = true;  // after this frame
    sync.arrived[port].push_back(std::move(frame));
    sync.local_time = std::max(sync.local_time, time);
  }

  void handle_timer(const Event& event) {
    if (sync_[event.src].crashed) {
      if (sync_[event.src].recovery_pending) {
        // Timer parking: the host is down but scheduled to rejoin. Re-arm
        // the raw event one RTO out without consulting the sender (whose
        // attempt counter must not advance while the host is dead), so the
        // retransmission conversation resumes after the rejoin instead of
        // being abandoned.
        Event parked = event;
        parked.time = event.time + base_rto_;
        push_event(std::move(parked));
        return;
      }
      return;  // a permanent crash kills the transport too
    }
    auto& sender = senders_[event.src][event.src_port];
    switch (sender.on_timeout(event.link_seq)) {
      case LinkSender::TimeoutAction::Settled:
        return;
      case LinkSender::TimeoutAction::GiveUp:
        ++outcome_.faults.transport_failures;
        return;
      case LinkSender::TimeoutAction::Retransmit: {
        DataPacket packet = sender.retransmit_packet(event.link_seq);
        ++outcome_.faults.retransmissions;
        if (telemetry_ != nullptr) {
          m_retransmits_.add();
          telemetry_->record(obs::EventKind::Retransmit, event.src, event.time,
                             event.link_seq);
        }
        outcome_.transport_bits += packet.frame.overhead_bits() +
                                   config_.transport_cfg.seq_bits +
                                   packet.frame.payload_bits() +
                                   config_.transport_cfg.crc_bits;
        transmit(event.src, event.src_port, std::move(packet), event.time);
        arm_timer(event.src, event.src_port, event.link_seq, event.time);
        return;
      }
    }
  }

  // ---------------------------------------------------------- synchronizer --
  /// Frame for the pulse dst is waiting on available (or the port is
  /// permanently dead with no buffered frames: the sender halted earlier)?
  /// Under raw faulty links a dropped frame leaves a pulse gap at the head
  /// of the queue — the port is then starved forever and the node stalls.
  bool port_ready(const SyncState& sync, std::uint32_t port) const {
    const auto& queue = sync.arrived[port];
    if (!queue.empty()) return queue.front().pulse + 1 == sync.pulse;
    return sync.port_dead[port];
  }

  bool try_execute(Vertex v) {
    auto& sync = sync_[v];
    if (!sync.running) return false;
    for (std::uint32_t p = 0; p < sync.arrived.size(); ++p)
      if (!port_ready(sync, p)) return false;
    execute_pulse(v);
    return true;
  }

  /// `recoverable` is true only for *scheduled* crashes: a program fault is
  /// a deterministic function of a delivered payload, so a restored replica
  /// would re-crash on the same input — recovery never applies to it.
  void crash_node(Vertex v, bool recoverable) {
    auto& sync = sync_[v];
    sync.running = false;
    sync.crashed = true;
    nodes_[v]->discard_outbox();
    outcome_.faults.crashed_nodes.push_back(v);
    if (telemetry_ != nullptr) {
      m_crashes_.add();
      telemetry_->record(obs::EventKind::NodeCrash, v, sync.pulse);
    }
    ++stopped_count_;
    if (recoverable && config_.recovery.enabled &&
        sync.recoveries_used < config_.recovery.max_recoveries) {
      ++sync.recoveries_used;
      sync.recovery_pending = true;
      ++pending_recoveries_;
      Event event;
      event.time = sync.local_time + rejoin_delay_;
      event.kind = Event::Kind::Recover;
      event.src = v;
      push_event(std::move(event));
    }
  }

  void execute_pulse(Vertex v) {
    auto& sync = sync_[v];
    auto& node = *nodes_[v];
    CSD_CHECK(sync.running);
    // crash_done: a recovered node must not be re-killed by the same
    // schedule entry on every subsequent pulse (the entry means "crash when
    // the pulse counter first reaches `when`", not "stay dead forever").
    if (injector_.has_value() && !sync.crash_done) {
      if (const auto when = injector_->crash_round(v);
          when.has_value() && sync.pulse >= *when) {
        sync.crash_done = true;
        crash_node(v, /*recoverable=*/true);
        return;
      }
    }
    if (sync.pulse >= config_.max_pulses) {
      pulse_cap_hit_ = true;
      sync.running = false;
      return;
    }

    // Assemble the inbox for this pulse (pulse 0 has none by construction).
    node.clear_inbox();
    if (sync.pulse > 0) {
      for (std::uint32_t p = 0; p < sync.arrived.size(); ++p) {
        if (sync.arrived[p].empty()) continue;  // dead port
        Frame frame = std::move(sync.arrived[p].front());
        sync.arrived[p].pop_front();
        CSD_CHECK_MSG(frame.pulse + 1 == sync.pulse,
                      "synchronizer frame out of order");
        if (frame.payload.has_value()) {
          if (logging_active())
            log_row(v, sync.pulse)[p] = *frame.payload;  // post-corruption
          node.deliver(p, std::move(*frame.payload));
        }
      }
    }

    node.begin_round(sync.pulse);
    bool program_fault = false;
    const auto invoke_program = [&] {
      if (injector_.has_value()) {
        // Graceful degradation under fault injection: a program that throws
        // (typically a wire decode of a corrupted payload) becomes a crashed
        // node, not a crashed process. Without faults, fail fast.
        try {
          programs_[v]->on_round(node);
        } catch (const CheckFailure& failure) {
          outcome_.faults.violations.push_back(
              {ViolationKind::ProgramFault, v, sync.pulse, failure.what()});
          program_fault = true;
        }
      } else {
        programs_[v]->on_round(node);
      }
    };
    if (timing_) {
      const auto started = Clock::now();
      invoke_program();
      outcome_.timers.compute_ns += elapsed_ns(started);
    } else {
      invoke_program();
    }
    if (program_fault) {
      if (telemetry_ != nullptr)
        telemetry_->record(obs::EventKind::Violation, v, sync.pulse);
      crash_node(v, /*recoverable=*/false);
      return;
    }
    outcome_.pulses = std::max(outcome_.pulses, sync.pulse + 1);
    if (timing_) ++outcome_.timers.node_rounds_invoked;
    if (telemetry_ != nullptr) m_pulses_.add();
    if (outcome_.trace) name_phases(v, sync.pulse);

    // Emit this pulse's frames (exactly one per port), with jittered FIFO
    // delivery times; under the reliable transport each frame becomes a
    // sequenced, CRC-protected, retransmittable packet.
    const bool node_halted = node.halted();
    for (std::uint32_t p = 0; p < sync.arrived.size(); ++p) {
      Frame frame;
      frame.pulse = sync.pulse;
      frame.sender_halted = node_halted;
      if (node.outbox_present(p)) {
        // Move the payload buffer out of the arena slot into the frame; the
        // transport layer reads from the same buffer, no copy is made.
        frame.payload.emplace();
        std::swap(*frame.payload, node.outbox_payload(p));
        node.consume_outbox(p);
      }
      if (outcome_.trace && frame.payload.has_value())
        outcome_.trace.record(sync.pulse, v, topology_.neighbors(v)[p],
                              frame.payload_bits());
      outcome_.payload_bits += frame.payload_bits();
      outcome_.overhead_bits += frame.overhead_bits();
      ++outcome_.frames;
      if (telemetry_ != nullptr) {
        m_frames_.add();
        m_payload_hist_.observe(frame.payload_bits());
        m_queue_depth_.set(events_.size());
      }
      if (reliable_) {
        DataPacket packet = senders_[v][p].packet(std::move(frame));
        outcome_.transport_bits +=
            config_.transport_cfg.seq_bits + config_.transport_cfg.crc_bits;
        const std::uint64_t seq = packet.seq;
        transmit(v, p, std::move(packet), sync.local_time);
        arm_timer(v, p, seq, sync.local_time);
      } else {
        DataPacket packet;
        packet.frame = std::move(frame);
        transmit(v, p, std::move(packet), sync.local_time);
      }
    }

    ++sync.pulse;
    if (node_halted) {
      sync.running = false;
      ++halted_count_;
      ++stopped_count_;
    }
  }

  /// NodeProgram::phase_of, asked once per pulse, when the first node
  /// completes it, of the lowest-index node that ran pulse 0 (bootstrap
  /// runs pulse 0 in index order). The sync engines ask once per round,
  /// so fault-free traces stay byte-identical across engines.
  void name_phases(Vertex v, std::uint64_t pulse) {
    if (pulse == 0 && phase_ref_ == kNoPhaseRef) phase_ref_ = v;
    if (phase_ref_ == kNoPhaseRef) return;
    for (; phase_named_ <= pulse; ++phase_named_) {
      const std::string_view name = programs_[phase_ref_]->phase_of(
          phase_named_);
      if (!name.empty()) outcome_.trace.set_phase(phase_named_, name);
    }
  }

  // ----------------------------------------------------- recovery/snapshot --
  /// Logging stays on while it can still be consumed: always under a
  /// recovery policy, and until the checkpoint is captured otherwise.
  bool logging_active() const {
    return log_enabled_ &&
           (config_.recovery.enabled || outcome_.checkpoint == nullptr);
  }

  std::vector<std::optional<BitVec>>& log_row(Vertex v, std::uint64_t r) {
    auto& entries = inbox_log_[v].entries;
    while (entries.size() <= r) entries.emplace_back(topology_.degree(v));
    return entries[r];
  }

  /// Replay pulses [0, pulses) of `log` through a fresh (node, program)
  /// pair: deliver the logged inbox, run the program, discard its sends.
  /// Programs are pure functions of (inbox history, seeded RNG draws), so
  /// this reconstructs internal state bit-exactly — the caller routes
  /// violations to a scratch sink and detaches the trace first, because
  /// everything observable was already reported when the history ran live.
  static void replay_history(detail::NodeState& node, NodeProgram& program,
                             const InboxLog& log, std::uint64_t pulses) {
    for (std::uint64_t r = 0; r < pulses; ++r) {
      node.clear_inbox();
      if (r < log.entries.size())
        for (std::uint32_t p = 0; p < log.entries[r].size(); ++p)
          if (log.entries[r][p].has_value())
            node.deliver(p, BitVec(*log.entries[r][p]));
      node.begin_round(r);
      program.on_round(node);
    }
    node.discard_outbox();
  }

  void handle_recover(const Event& event) {
    const Vertex v = event.src;
    auto& sync = sync_[v];
    CSD_CHECK(sync.crashed && sync.recovery_pending);
    sync.recovery_pending = false;
    --pending_recoveries_;
    // The rejoined host lost its memory: build a fresh replica and replay
    // its logged inbox history — the in-engine model of "restart the host,
    // restore its checkpoint". Frames that arrived while it was down are
    // still queued in sync.arrived (delivery never checks the destination's
    // crash flag), so the node picks up exactly where it died.
    std::vector<ProtocolViolation> scratch;
    auto node = std::make_unique<detail::NodeState>(
        topology_, v, ids_[v], config_.seed, topology_.num_vertices(),
        namespace_size_, config_.bandwidth, config_.broadcast_only, &scratch);
    std::vector<NodeId> neighbor_ids;
    for (const Vertex w : topology_.neighbors(v))
      neighbor_ids.push_back(ids_[w]);
    node->set_neighbor_ids(std::move(neighbor_ids));
    auto program = (*factory_)(v);
    CSD_CHECK(program != nullptr);
    // The replica takes over the dead node's arena rows; replay clears them
    // pulse by pulse, so no stale frames leak into the rebuilt state.
    node->attach_frames(
        inbox_arena_.payload_row(v), inbox_arena_.present_row(v),
        outbox_arena_.payload_row(v), outbox_arena_.present_row(v));
    replay_history(*node, *program, inbox_log_[v], sync.pulse);
    outcome_.faults.replayed_pulses += sync.pulse;
    CSD_CHECK_MSG(!node->halted(), "replayed replica halted mid-history");
    node->set_violation_sink(&outcome_.faults.violations);
    if (outcome_.trace) node->set_trace(&outcome_.trace);
    nodes_[v] = std::move(node);
    programs_[v] = std::move(program);
    sync.crashed = false;
    sync.running = true;
    sync.local_time = std::max(sync.local_time, event.time);
    outcome_.faults.recovered_nodes.push_back(v);
    if (telemetry_ != nullptr) {
      m_recoveries_.add();
      telemetry_->record(obs::EventKind::NodeRecover, v, event.time);
    }
    if (outcome_.trace) outcome_.trace.set_phase(sync.pulse, "recover");
    --stopped_count_;
  }

  std::uint64_t config_digest() const {
    // Everything the continuation dynamics depend on. Deliberately excludes
    // checkpoint_at_pulse, stall_window, and trace options: a resumed run
    // may checkpoint at a different point or trace differently.
    std::uint64_t h = kDigestSeed;
    h = digest_mix(h, config_.bandwidth);
    h = digest_mix(h, config_.max_pulses);
    h = digest_mix(h, config_.namespace_size);
    h = digest_mix(h, config_.broadcast_only ? 1 : 0);
    h = digest_mix(h, config_.max_delay);
    h = digest_mix(h, static_cast<std::uint64_t>(config_.transport));
    h = digest_mix(h, config_.transport_cfg.rto);
    h = digest_mix(h, config_.transport_cfg.max_retries);
    h = digest_mix(h, config_.transport_cfg.seq_bits);
    h = digest_mix(h, config_.transport_cfg.crc_bits);
    h = digest_mix(h, config_.recovery.enabled ? 1 : 0);
    h = digest_mix(h, config_.recovery.rejoin_delay);
    h = digest_mix(h, config_.recovery.max_recoveries);
    h = digest_mix(h, fault_plan_digest(config_.faults));
    return h;
  }

  EventRecord to_record(const Event& event) const {
    EventRecord record;
    record.time = event.time;
    record.seq = event.seq;
    record.kind = static_cast<std::uint8_t>(event.kind);
    record.src = event.src;
    record.src_port = event.src_port;
    record.dst = event.dst;
    record.dst_port = event.dst_port;
    record.link_seq = event.link_seq;
    if (event.kind == Event::Kind::Data) {
      const DataPacket& packet = packets_[event.packet];
      record.packet_seq = packet.seq;
      record.packet_crc = packet.crc;
      record.frame = packet.frame;
    }
    return record;
  }

  Event from_record(const EventRecord& record) {
    CSD_CHECK_MSG(record.kind <= 3, "unknown event kind in snapshot");
    Event event;
    event.time = record.time;
    event.seq = record.seq;
    event.kind = static_cast<Event::Kind>(record.kind);
    event.src = record.src;
    event.src_port = record.src_port;
    event.dst = record.dst;
    event.dst_port = record.dst_port;
    event.link_seq = record.link_seq;
    if (event.kind == Event::Kind::Data)
      event.packet = packets_.put(
          DataPacket{record.packet_seq, record.frame, record.packet_crc});
    return event;
  }

  /// Freeze the complete engine between two scheduler events. Pure copies —
  /// no RNG consumed, no state mutated — so capture never perturbs the run.
  void capture_checkpoint(bool terminal = false) {
    auto snap = std::make_shared<Snapshot>();
    snap->kind = Snapshot::Kind::Async;
    AsyncSnapshot& s = snap->async_state;
    s.terminal = terminal ? 1 : 0;
    s.identity = {topology_digest(topology_, ids_), config_digest(),
                  config_.seed};
    const Vertex n = topology_.num_vertices();
    s.nodes.resize(n);
    for (Vertex v = 0; v < n; ++v) {
      const auto& sync = sync_[v];
      AsyncNodeSnapshot& ns = s.nodes[v];
      ns.pulse = sync.pulse;
      ns.local_time = sync.local_time;
      ns.arrived.resize(sync.arrived.size());
      for (std::uint32_t p = 0; p < sync.arrived.size(); ++p)
        ns.arrived[p].assign(sync.arrived[p].begin(), sync.arrived[p].end());
      ns.port_dead.assign(sync.port_dead.begin(), sync.port_dead.end());
      ns.running = sync.running ? 1 : 0;
      ns.crashed = sync.crashed ? 1 : 0;
      ns.halted = nodes_[v]->halted() ? 1 : 0;
      ns.crash_done = sync.crash_done ? 1 : 0;
      ns.recoveries_used = sync.recoveries_used;
      ns.inbox = inbox_log_[v];
      if (reliable_) {
        for (std::uint32_t p = 0; p < topology_.degree(v); ++p) {
          ns.senders.push_back(senders_[v][p].save_state());
          ns.receivers.push_back(receivers_[v][p].save_state());
        }
      }
      ns.link_watermark = link_watermark_[v];
    }
    events_.for_each_in_order(
        [&](const Event& event) { s.events.push_back(to_record(event)); });
    s.next_event_seq = next_event_seq_;
    s.delay_rng = delay_rng_.state();
    if (injector_.has_value()) s.fault_streams = injector_->save_streams();
    s.halted_count = halted_count_;
    s.stopped_count = stopped_count_;
    s.pending_recoveries = pending_recoveries_;
    s.pulses = outcome_.pulses;
    s.virtual_time = outcome_.virtual_time;
    s.payload_bits = outcome_.payload_bits;
    s.overhead_bits = outcome_.overhead_bits;
    s.frames = outcome_.frames;
    s.transport_bits = outcome_.transport_bits;
    s.acks = outcome_.acks;
    s.faults = outcome_.faults;
    outcome_.checkpoint = std::move(snap);
    if (telemetry_ != nullptr)
      telemetry_->record(obs::EventKind::CheckpointSave, 0, outcome_.pulses);
  }

  void restore(const Snapshot& snapshot) {
    CSD_CHECK_MSG(snapshot.kind == Snapshot::Kind::Async,
                  "resume_async needs an async snapshot, got "
                      << to_string(snapshot.kind));
    const AsyncSnapshot& s = snapshot.async_state;
    CSD_CHECK_MSG(s.identity.topology == topology_digest(topology_, ids_),
                  "snapshot belongs to a different topology/identifier "
                  "assignment");
    CSD_CHECK_MSG(s.identity.config == config_digest(),
                  "snapshot belongs to a different engine configuration");
    CSD_CHECK_MSG(s.identity.seed == config_.seed,
                  "snapshot belongs to a different seed");
    const Vertex n = topology_.num_vertices();
    CSD_CHECK_MSG(s.nodes.size() == n, "snapshot node count mismatch");

    std::vector<ProtocolViolation> scratch;
    for (Vertex v = 0; v < n; ++v) {
      const AsyncNodeSnapshot& ns = s.nodes[v];
      auto& sync = sync_[v];
      const std::uint32_t deg = topology_.degree(v);
      CSD_CHECK_MSG(ns.arrived.size() == deg && ns.port_dead.size() == deg &&
                        ns.link_watermark.size() == deg,
                    "snapshot degree mismatch at node " << v);
      sync.pulse = ns.pulse;
      sync.local_time = ns.local_time;
      for (std::uint32_t p = 0; p < deg; ++p) {
        sync.arrived[p].assign(ns.arrived[p].begin(), ns.arrived[p].end());
        sync.port_dead[p] = ns.port_dead[p] != 0;
      }
      sync.running = ns.running != 0;
      sync.crashed = ns.crashed != 0;
      sync.crash_done = ns.crash_done != 0;
      sync.recoveries_used = ns.recoveries_used;
      if (log_enabled_) inbox_log_[v] = ns.inbox;
      if (reliable_) {
        CSD_CHECK_MSG(ns.senders.size() == deg && ns.receivers.size() == deg,
                      "snapshot transport state mismatch at node " << v);
        for (std::uint32_t p = 0; p < deg; ++p) {
          senders_[v][p].restore_state(ns.senders[p]);
          receivers_[v][p].restore_state(ns.receivers[p]);
        }
      }
      link_watermark_[v] = ns.link_watermark;
      if (!sync.crashed) {
        // Reconstruct the program by replay. Crashed nodes are skipped: a
        // permanently dead program never runs again, and a pending recovery
        // builds its own fresh replica from the log when its Recover event
        // fires.
        nodes_[v]->set_violation_sink(&scratch);
        nodes_[v]->set_trace(nullptr);
        replay_history(*nodes_[v], *programs_[v], ns.inbox, sync.pulse);
        CSD_CHECK_MSG(nodes_[v]->halted() == (ns.halted != 0),
                      "resume replay diverged: node " << v << " halt state");
        nodes_[v]->set_violation_sink(&outcome_.faults.violations);
        if (outcome_.trace) nodes_[v]->set_trace(&outcome_.trace);
        if (sync.pulse > 0 && phase_ref_ == kNoPhaseRef) phase_ref_ = v;
      }
    }
    for (const EventRecord& record : s.events)
      events_.push(from_record(record));
    next_event_seq_ = s.next_event_seq;
    delay_rng_.set_state(s.delay_rng);
    if (injector_.has_value()) injector_->restore_streams(s.fault_streams);
    halted_count_ = s.halted_count;
    stopped_count_ = s.stopped_count;
    pending_recoveries_ = s.pending_recoveries;
    Vertex pending = 0;
    for (const EventRecord& record : s.events)
      if (record.kind == 3) {  // Recover
        sync_[record.src].recovery_pending = true;
        ++pending;
      }
    CSD_CHECK_MSG(pending == pending_recoveries_,
                  "snapshot recovery bookkeeping inconsistent");
    outcome_.pulses = s.pulses;
    phase_named_ = s.pulses;  // earlier pulses belong to the frozen prefix
    outcome_.virtual_time = s.virtual_time;
    outcome_.payload_bits = s.payload_bits;
    outcome_.overhead_bits = s.overhead_bits;
    outcome_.frames = s.frames;
    outcome_.transport_bits = s.transport_bits;
    outcome_.acks = s.acks;
    outcome_.faults = s.faults;
    last_progress_vt_ = s.virtual_time;
  }

  Graph topology_;
  AsyncConfig config_;
  bool reliable_;
  std::vector<NodeId> ids_;
  const ProgramFactory* factory_;  // outlives the engine (recovery replicas)
  Rng delay_rng_;
  std::optional<FaultInjector> injector_;
  std::uint64_t base_rto_ = 0;
  std::uint64_t namespace_size_ = 0;
  std::uint64_t rejoin_delay_ = 0;
  bool log_enabled_ = false;
  std::vector<InboxLog> inbox_log_;
  Vertex pending_recoveries_ = 0;
  std::uint64_t last_progress_vt_ = 0;
  /// Materialized CSR view of topology_ (owned by it).
  const GraphCsr* csr_ = nullptr;
  /// rev_port_[e] = receiver-side port of directed edge e = offsets[v] + p.
  std::vector<std::uint32_t> rev_port_;
  /// Per-run frame plane; nodes (and recovery replicas) hold row pointers.
  detail::FrameArena inbox_arena_;
  detail::FrameArena outbox_arena_;
  std::vector<std::vector<std::uint64_t>> link_watermark_;
  std::vector<std::unique_ptr<detail::NodeState>> nodes_;
  static constexpr Vertex kNoPhaseRef = static_cast<Vertex>(-1);
  Vertex phase_ref_ = kNoPhaseRef;  // see name_phases
  std::uint64_t phase_named_ = 0;   // pulses [0, phase_named_) named
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  std::vector<SyncState> sync_;
  std::vector<std::vector<LinkSender>> senders_;      // reliable mode only
  std::vector<std::vector<LinkReceiver>> receivers_;  // reliable mode only
  EventQueue events_;
  /// The packets of queued Data events, apart from the events themselves.
  Slab<DataPacket> packets_;
  /// Reused by every reliable delivery, so its frame buffer is allocated once.
  LinkReceiver::Accept accept_;
  std::uint64_t next_event_seq_ = 0;
  Vertex halted_count_ = 0;   // gracefully halted
  Vertex stopped_count_ = 0;  // halted or crashed
  bool pulse_cap_hit_ = false;
  bool timing_ = false;
  // csd-metrics-v2 plane (non-owning; nullptr = every site inert).
  obs::Telemetry* telemetry_ = nullptr;
  obs::Counter m_pulses_, m_frames_, m_retransmits_, m_crc_rejects_, m_drops_,
      m_corrupts_, m_crashes_, m_recoveries_;
  obs::Gauge m_queue_depth_;
  obs::Histogram m_payload_hist_;
  AsyncRunOutcome outcome_;
};

}  // namespace

AsyncRunOutcome run_async(const Graph& topology, const AsyncConfig& config,
                          std::vector<NodeId> ids,
                          const ProgramFactory& factory) {
  AsyncEngine engine(topology, config, std::move(ids), factory);
  return engine.run();
}

AsyncRunOutcome run_async(const Graph& topology, const AsyncConfig& config,
                          const ProgramFactory& factory) {
  std::vector<NodeId> ids(topology.num_vertices());
  for (Vertex v = 0; v < topology.num_vertices(); ++v) ids[v] = v;
  return run_async(topology, config, std::move(ids), factory);
}

AsyncRunOutcome resume_async(const Graph& topology, const AsyncConfig& config,
                             std::vector<NodeId> ids,
                             const ProgramFactory& factory,
                             const Snapshot& snapshot) {
  AsyncEngine engine(topology, config, std::move(ids), factory);
  return engine.resume(snapshot);
}

AsyncRunOutcome resume_async(const Graph& topology, const AsyncConfig& config,
                             const ProgramFactory& factory,
                             const Snapshot& snapshot) {
  std::vector<NodeId> ids(topology.num_vertices());
  for (Vertex v = 0; v < topology.num_vertices(); ++v) ids[v] = v;
  return resume_async(topology, config, std::move(ids), factory, snapshot);
}

}  // namespace csd::congest

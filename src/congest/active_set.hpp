// Internal: active-set scheduling for the synchronous engine's workers
// (network.cpp).
//
// Pregel's vote-to-halt with wake-on-message, made round-addressed: a node
// that calls NodeApi::sleep_until(R) is not run again before round R unless
// a frame is delivered to it (after fault fates: a dropped frame does not
// wake it, a corrupted one does) or its fault-plan crash round comes first.
// A round then costs O(nodes due + frames) instead of O(n + m). Nodes due
// in a round run in ascending index order, the order the unscheduled loop
// used, so violations, crashes, fault-fate draws and trace rows keep their
// order. A snapshot resume wakes every live node.
//
// The set is split into lanes, one per worker. Each lane keeps its own due
// list and deadline buckets; the per-node arrays are shared, but a lane
// only ever touches its own nodes, so lanes run concurrently without locks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "congest/faults.hpp"
#include "congest/node_state.hpp"
#include "congest/program.hpp"
#include "congest/snapshot.hpp"
#include "graph/graph.hpp"

namespace csd::congest::detail {

class ActiveSet {
 public:
  /// Lane of node v is owner[v] (all nodes in lane 0 when owner is null).
  /// Every node starts due in the first collected round.
  ActiveSet(Vertex n, std::uint32_t lanes, const std::uint32_t* owner);

  /// The nodes of `lane` due in `round`, ascending: those that stayed
  /// awake or were woken by a frame in the previous round, and sleepers
  /// whose deadline is `round`. Rounds must be collected in order; the
  /// list stays valid until the lane's next collect.
  const std::vector<Vertex>& collect(std::uint32_t lane, std::uint64_t round);

  /// `v` ran in `round` and asked to sleep until `request` (0 = no sleep).
  /// It is due again at the earliest of `request`, its `crash` round and
  /// the round after a frame reaches it; never before round + 1.
  void reschedule(std::uint32_t lane, Vertex v, std::uint64_t round,
                  std::uint64_t request, std::optional<std::uint64_t> crash);

  /// A frame for `v` lands in its inbox: due next round. Idempotent.
  void wake(std::uint32_t lane, Vertex v) {
    if (queued_[v] != 0) return;
    queued_[v] = 1;
    lanes_[lane].next.push_back(v);
  }

 private:
  struct Lane {
    std::vector<Vertex> current;
    std::vector<Vertex> next;
    std::map<std::uint64_t, std::vector<Vertex>> deadlines;
  };

  std::vector<Lane> lanes_;
  // Per node: the deadline of its last sleep (0 = none; a bucket entry is
  // live only while it matches, and it may be stale after an early wake —
  // harmless, as a node that is due is also queued) and whether it is
  // already on its lane's list being built.
  std::vector<std::uint64_t> due_;
  std::vector<std::uint8_t> queued_;
};

/// Audit mode (NetworkConfig::audit_sleep): run a sleeping node anyway and
/// CHECK that it kept its promise — no send, no randomness, no reject, no
/// halt. Its inbox is empty (frames would have woken it).
void audit_sleeper(NodeState& node, NodeProgram& program, std::uint64_t round);

/// Rebuild program state for a resume from `snap`: replay rounds
/// [0, snap.round) through the fresh programs, feeding each node its
/// logged inboxes under the live loop's scheduling rules (the log holds
/// exactly the frames that woke nodes). Violations go to a scratch sink —
/// the caller re-points every node at the live report afterwards — and
/// `injector` (null when fault-free) supplies crash rounds. CHECKs that the
/// replay reproduces the snapshot's crash and halt flags; leaves every
/// inbox and outbox empty. Returns the lowest-index node that ran round 0
/// (n if none), the engine's phase_of reference.
Vertex replay_sync_log(
    const SyncSnapshot& snap,
    const std::vector<std::unique_ptr<NodeState>>& nodes,
    const std::vector<std::unique_ptr<NodeProgram>>& programs,
    std::vector<std::uint8_t>& crashed, const FaultInjector* injector);

}  // namespace csd::congest::detail

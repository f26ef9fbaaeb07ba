#include "congest/active_set.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace csd::congest::detail {

ActiveSet::ActiveSet(Vertex n, std::uint32_t lanes,
                     const std::uint32_t* owner)
    : lanes_(lanes), due_(n, 0), queued_(n, 1) {
  for (Vertex v = 0; v < n; ++v)
    lanes_[owner != nullptr ? owner[v] : 0].next.push_back(v);
}

const std::vector<Vertex>& ActiveSet::collect(std::uint32_t lane,
                                              std::uint64_t round) {
  Lane& l = lanes_[lane];
  l.current.swap(l.next);
  l.next.clear();
  while (!l.deadlines.empty() && l.deadlines.begin()->first <= round) {
    const auto bucket = l.deadlines.begin();
    // Stale entries (the node re-slept to another deadline, or is already
    // due through a frame) fail the due_/queued_ checks.
    for (const Vertex v : bucket->second) {
      if (due_[v] != bucket->first || queued_[v] != 0) continue;
      queued_[v] = 1;
      due_[v] = 0;
      l.current.push_back(v);
    }
    l.deadlines.erase(bucket);
  }
  for (const Vertex v : l.current) queued_[v] = 0;
  // Kept-awake nodes arrive ascending; frame wakes and deadlines do not.
  if (!std::is_sorted(l.current.begin(), l.current.end()))
    std::sort(l.current.begin(), l.current.end());
  return l.current;
}

void ActiveSet::reschedule(std::uint32_t lane, Vertex v, std::uint64_t round,
                           std::uint64_t request,
                           std::optional<std::uint64_t> crash) {
  std::uint64_t due = std::max(request, round + 1);
  if (crash.has_value() && *crash > round) due = std::min(due, *crash);
  if (due == round + 1) {
    wake(lane, v);
    return;
  }
  // A node that woke early and sleeps to the same deadline again still has
  // its bucket entry (due_ survives the early wake).
  if (due_[v] == due) return;
  due_[v] = due;
  lanes_[lane].deadlines[due].push_back(v);
}

void audit_sleeper(NodeState& node, NodeProgram& program,
                   std::uint64_t round) {
  for (std::uint32_t p = 0; p < node.degree(); ++p)
    CSD_CHECK_MSG(node.inbox(p) == nullptr,
                  "audit-sleep: node " << node.index() << " has a frame in "
                                       << "round " << round
                                       << " but was not woken");
  const Verdict before = node.verdict();
  node.begin_round(round);
  program.on_round(node);
  CSD_CHECK_MSG(node.sends() == 0 && !node.rng_touched() && !node.halted() &&
                    node.verdict() == before,
                "audit-sleep: node " << node.index()
                                     << " broke its sleep promise in round "
                                     << round << " (sends " << node.sends()
                                     << ", rng " << node.rng_touched()
                                     << ", halted " << node.halted()
                                     << ", rejected "
                                     << (node.verdict() != before) << ")");
}

Vertex replay_sync_log(
    const SyncSnapshot& snap,
    const std::vector<std::unique_ptr<NodeState>>& nodes,
    const std::vector<std::unique_ptr<NodeProgram>>& programs,
    std::vector<std::uint8_t>& crashed, const FaultInjector* injector) {
  const auto n = static_cast<Vertex>(nodes.size());
  const std::uint64_t rounds = snap.round;
  // Nodes a logged frame wakes, by the round the frame is read in.
  std::vector<std::vector<Vertex>> woken(rounds + 1);
  for (Vertex v = 0; v < n; ++v) {
    const auto& entries = snap.inbox[v].entries;
    for (std::uint64_t r = 1; r < std::min<std::uint64_t>(entries.size(),
                                                          rounds + 1);
         ++r)
      if (std::any_of(entries[r].begin(), entries[r].end(),
                      [](const auto& slot) { return slot.has_value(); }))
        woken[r].push_back(v);
  }

  std::vector<ProtocolViolation> scratch;
  for (const auto& node : nodes) node->set_violation_sink(&scratch);
  ActiveSet active(n, 1, nullptr);
  Vertex phase_ref = n;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (const Vertex v : active.collect(0, r)) {
      NodeState& node = *nodes[v];
      if (node.halted() || crashed[v] != 0) continue;
      std::optional<std::uint64_t> crash;
      if (injector != nullptr) crash = injector->crash_round(v);
      if (crash.has_value() && r >= *crash) {
        crashed[v] = 1;
        continue;
      }
      const auto& entries = snap.inbox[v].entries;
      if (r < entries.size())
        for (std::uint32_t p = 0; p < entries[r].size(); ++p)
          if (entries[r][p].has_value())
            node.deliver(p, BitVec(*entries[r][p]));
      node.begin_round(r);
      bool threw = false;
      if (injector != nullptr) {
        try {
          programs[v]->on_round(node);
        } catch (const CheckFailure&) {
          threw = true;
        }
      } else {
        programs[v]->on_round(node);
      }
      // These sends were delivered before the snapshot; their payloads are
      // the log rows of the receivers.
      node.clear_inbox();
      node.discard_outbox();
      if (threw) {
        crashed[v] = 1;
        continue;
      }
      if (r == 0 && phase_ref == n) phase_ref = v;
      if (!node.halted())
        active.reschedule(0, v, r, node.sleep_request(), crash);
    }
    for (const Vertex v : woken[r + 1]) active.wake(0, v);
  }
  for (Vertex v = 0; v < n; ++v) {
    CSD_CHECK_MSG(crashed[v] == snap.crashed[v],
                  "resume replay diverged: node " << v << " crash state");
    CSD_CHECK_MSG(nodes[v]->halted() == (snap.halted[v] != 0),
                  "resume replay diverged: node " << v << " halt state");
  }
  return phase_ref;
}

}  // namespace csd::congest::detail

// Toy programs for the active-set scheduling tests (NodeApi::sleep_until):
// a scripted sleeper whose every wake-up is predictable, a randomized one
// that exercises frames, randomness, rejects and staggered halts, and the
// NoSleep wrapper that hides sleep_until — the unscheduled reference every
// scheduled run must match bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "congest/program.hpp"
#include "support/wire.hpp"

namespace csd::congest::sleepy {

/// Sends one bit on port 0 in each round of `sends`, halts at `halt_at`,
/// and otherwise sleeps to the next round of `deadlines` (or to halt_at).
/// Rejects once it has received `reject_after` frames (0 = never). When
/// `calls` is set, appends every round it is called in (test probe only;
/// one vector per node, so sharded runs never share one).
class ScriptedSleeper final : public NodeProgram {
 public:
  struct Script {
    std::vector<std::uint64_t> sends;
    std::vector<std::uint64_t> deadlines;
    std::uint64_t halt_at = 8;
    std::uint32_t reject_after = 0;
  };

  ScriptedSleeper(Script script, std::vector<std::uint64_t>* calls)
      : script_(std::move(script)), calls_(calls) {}

  void on_round(NodeApi& api) override {
    const std::uint64_t r = api.round();
    if (calls_ != nullptr) calls_->push_back(r);
    for (std::uint32_t p = 0; p < api.degree(); ++p)
      if (api.inbox(p) != nullptr) ++received_;
    if (script_.reject_after != 0 && received_ >= script_.reject_after)
      api.reject();
    if (std::count(script_.sends.begin(), script_.sends.end(), r) != 0 &&
        api.degree() > 0) {
      wire::Writer w(api.scratch());
      w.boolean(true);
      api.send(0, std::move(w).take());
    }
    if (r >= script_.halt_at) {
      api.halt();
      return;
    }
    std::uint64_t wake = script_.halt_at;
    for (const std::uint64_t d : script_.deadlines)
      if (d > r) wake = std::min(wake, d);
    api.sleep_until(wake);
  }

 private:
  Script script_;
  std::vector<std::uint64_t>* calls_;
  std::uint32_t received_ = 0;
};

/// Randomized sleeper. When due it draws randomness, sends small payloads
/// on a random subset of ports, may reject, and picks a random next
/// deadline; a frame makes it fold the payload into its state and act
/// early. Called while asleep with an empty inbox (an audit call) it only
/// re-declares its sleep. Halts at a node-staggered final round.
class RandomSleeper final : public NodeProgram {
 public:
  explicit RandomSleeper(std::uint64_t rounds) : rounds_(rounds) {}

  void on_round(NodeApi& api) override {
    const std::uint64_t r = api.round();
    bool got = false;
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      const BitVec* msg = api.inbox(p);
      if (msg == nullptr) continue;
      got = true;
      wire::Reader reader(*msg);
      state_ = state_ * 31 + reader.u(6) + p;
    }
    if (!got && r != 0 && r < deadline_) {
      api.sleep_until(deadline_);
      return;
    }
    if (r + 1 >= rounds_ + api.id() % 4) {
      if (state_ % 7 == 3) api.reject();
      api.halt();
      return;
    }
    for (std::uint32_t p = 0; p < api.degree(); ++p) {
      if (api.rng().below(3) != 0) continue;
      wire::Writer w(api.scratch());
      w.u((state_ + api.rng().below(64)) % 64, 6);
      api.send(p, std::move(w).take());
    }
    if (api.rng().below(500) == 0) api.reject();
    deadline_ = r + 1 + api.rng().below(6);
    api.sleep_until(deadline_);
  }

  std::string_view phase_of(std::uint64_t r) const override {
    return r < rounds_ / 2 ? "early" : "late";
  }

 private:
  std::uint64_t rounds_;
  std::uint64_t deadline_ = 0;
  std::uint64_t state_ = 0;
};

/// Forwards everything except sleep_until.
class NoSleepApi final : public NodeApi {
 public:
  explicit NoSleepApi(NodeApi& inner) : inner_(inner) {}
  NodeId id() const override { return inner_.id(); }
  std::uint32_t degree() const override { return inner_.degree(); }
  NodeId neighbor_id(std::uint32_t port) const override {
    return inner_.neighbor_id(port);
  }
  std::uint64_t round() const override { return inner_.round(); }
  std::uint64_t network_size() const override { return inner_.network_size(); }
  std::uint64_t namespace_size() const override {
    return inner_.namespace_size();
  }
  std::uint64_t bandwidth() const override { return inner_.bandwidth(); }
  const BitVec* inbox(std::uint32_t port) const override {
    return inner_.inbox(port);
  }
  void send(std::uint32_t port, BitVec payload) override {
    inner_.send(port, std::move(payload));
  }
  void broadcast(const BitVec& payload) override { inner_.broadcast(payload); }
  Rng& rng() override { return inner_.rng(); }
  BitVec scratch() override { return inner_.scratch(); }
  void phase(std::string_view name) override { inner_.phase(name); }
  void reject() override { inner_.reject(); }
  void halt() override { inner_.halt(); }

 private:
  NodeApi& inner_;
};

class NoSleep final : public NodeProgram {
 public:
  explicit NoSleep(std::unique_ptr<NodeProgram> inner)
      : inner_(std::move(inner)) {}
  void on_round(NodeApi& api) override {
    NoSleepApi hidden(api);
    inner_->on_round(hidden);
  }
  std::string_view phase_of(std::uint64_t round) const override {
    return inner_->phase_of(round);
  }

 private:
  std::unique_ptr<NodeProgram> inner_;
};

/// The unscheduled reference of `inner`: every node runs every round.
inline ProgramFactory no_sleep(ProgramFactory inner) {
  return [inner = std::move(inner)](std::uint32_t v) {
    return std::make_unique<NoSleep>(inner(v));
  };
}

inline ProgramFactory random_sleepers(std::uint64_t rounds) {
  return [rounds](std::uint32_t) {
    return std::make_unique<RandomSleeper>(rounds);
  };
}

}  // namespace csd::congest::sleepy

// Usefulness counters for detection programs, measured from outside the
// engines: a ProgramFactory wrapper that forwards every NodeApi call to the
// engine unchanged and counts, per node-round, whether the program was
// invoked at all and whether the node did anything (received a message or
// sent one). Used in the traced run only; the runner checks that wrapped
// and unwrapped runs give identical verdicts and exact counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "congest/program.hpp"

namespace perfbench {

/// Shared sink; programs of one run may execute on several shard workers,
/// so each program keeps private counts and adds them here once, when the
/// engine destroys it.
struct Usefulness {
  std::atomic<std::uint64_t> invoked{0};
  std::atomic<std::uint64_t> active{0};

  void reset() {
    invoked = 0;
    active = 0;
  }
};

class CountingApi final : public csd::congest::NodeApi {
 public:
  explicit CountingApi(csd::congest::NodeApi& inner) : inner_(inner) {}

  csd::congest::NodeId id() const override { return inner_.id(); }
  std::uint32_t degree() const override { return inner_.degree(); }
  csd::congest::NodeId neighbor_id(std::uint32_t port) const override {
    return inner_.neighbor_id(port);
  }
  std::uint64_t round() const override { return inner_.round(); }
  std::uint64_t network_size() const override { return inner_.network_size(); }
  std::uint64_t namespace_size() const override {
    return inner_.namespace_size();
  }
  std::uint64_t bandwidth() const override { return inner_.bandwidth(); }
  const csd::BitVec* inbox(std::uint32_t port) const override {
    return inner_.inbox(port);
  }
  void send(std::uint32_t port, csd::BitVec payload) override {
    sent_ = true;
    inner_.send(port, std::move(payload));
  }
  void broadcast(const csd::BitVec& payload) override {
    sent_ = true;
    inner_.broadcast(payload);
  }
  csd::Rng& rng() override { return inner_.rng(); }
  csd::BitVec scratch() override { return inner_.scratch(); }
  void phase(std::string_view name) override { inner_.phase(name); }
  void reject() override { inner_.reject(); }
  void halt() override { inner_.halt(); }

  bool sent() const { return sent_; }

 private:
  csd::congest::NodeApi& inner_;
  bool sent_ = false;
};

class CountingProgram final : public csd::congest::NodeProgram {
 public:
  CountingProgram(std::unique_ptr<csd::congest::NodeProgram> inner,
                  Usefulness& sink)
      : inner_(std::move(inner)), sink_(sink) {}
  ~CountingProgram() override {
    sink_.invoked += invoked_;
    sink_.active += active_;
  }
  CountingProgram(const CountingProgram&) = delete;
  CountingProgram& operator=(const CountingProgram&) = delete;

  void on_round(csd::congest::NodeApi& api) override {
    bool received = false;
    for (std::uint32_t p = 0; p < api.degree() && !received; ++p)
      received = api.inbox(p) != nullptr;
    CountingApi counted(api);
    inner_->on_round(counted);
    ++invoked_;
    if (received || counted.sent()) ++active_;
  }

 private:
  std::unique_ptr<csd::congest::NodeProgram> inner_;
  Usefulness& sink_;
  std::uint64_t invoked_ = 0;
  std::uint64_t active_ = 0;
};

/// `sink` must outlive every program the returned factory creates.
inline csd::congest::ProgramFactory counting_factory(
    csd::congest::ProgramFactory inner, Usefulness& sink) {
  return [inner = std::move(inner), &sink](std::uint32_t v) {
    return std::make_unique<CountingProgram>(inner(v), sink);
  };
}

}  // namespace perfbench

// Passive per-layer timing for the traced benchmark pass.
//
// Every span is taken from outside the program, at a public entry point:
// agents are wrapped through Simulator::SetAgent, and the benchmark brackets
// its own calls into the layers. Nothing here schedules events, draws
// random numbers or alters a datagram, so a traced pass simulates exactly
// what an untraced one does (the benchmark checks this by fingerprint).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>

#include "common/cycle_clock.h"
#include "netsim/simulator.h"
#include "packet/ipv4.h"

namespace perfbench {

/// Where a span's time is attributed. Agent buckets are filled by
/// TimedAgent; the rest by the benchmark around its own calls.
enum class Span : std::uint8_t {
  kRouterData,     // CbtRouter::OnDatagram on CBT-mode or native data
  kRouterControl,  // CbtRouter::OnDatagram on CBT control (UDP)
  kRouterIgmp,     // CbtRouter::OnDatagram on IGMP
  kStation,        // MembershipAggregate::OnDatagram (data and IGMP)
  kHost,           // HostAgent::OnDatagram (the data sender)
  kJoin,           // MembershipAggregate::Join from the churn runner
  kLeave,          // MembershipAggregate::Leave (churn and end-of-run)
  kSend,           // HostAgent::SendToGroup from the data pump
  kSlice,          // one Simulator::RunUntil slice of the window
  kAudit,          // one invariant audit
  kCount,
};

/// Tick and call accumulators, one pair per Span.
struct SpanTotals {
  std::array<std::uint64_t, static_cast<std::size_t>(Span::kCount)> ticks{};
  std::array<std::uint64_t, static_cast<std::size_t>(Span::kCount)> calls{};

  void Add(Span span, std::uint64_t delta) {
    ticks[static_cast<std::size_t>(span)] += delta;
    ++calls[static_cast<std::size_t>(span)];
  }
  std::uint64_t Ticks(Span span) const {
    return ticks[static_cast<std::size_t>(span)];
  }
  std::uint64_t Calls(Span span) const {
    return calls[static_cast<std::size_t>(span)];
  }
  SpanTotals Minus(const SpanTotals& earlier) const {
    SpanTotals out;
    for (std::size_t i = 0; i < ticks.size(); ++i) {
      out.ticks[i] = ticks[i] - earlier.ticks[i];
      out.calls[i] = calls[i] - earlier.calls[i];
    }
    return out;
  }
};

/// Brackets one call; a null `totals` (the untraced pass) makes it free
/// apart from one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanTotals* totals, Span span)
      : totals_(totals), span_(span), start_(totals ? cbt::CycleNow() : 0) {}
  ~ScopedSpan() {
    if (totals_ != nullptr) totals_->Add(span_, cbt::CycleNow() - start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTotals* totals_;
  Span span_;
  std::uint64_t start_;
};

/// Wraps a node's agent and times every datagram handed to it. Routers
/// sort datagrams by the IP protocol byte, which is all a dispatcher
/// needs and costs no parse.
class TimedAgent : public cbt::netsim::NetworkAgent {
 public:
  enum class Role : std::uint8_t { kRouter, kStation, kHost };

  TimedAgent(cbt::netsim::NetworkAgent* inner, Role role, SpanTotals* totals)
      : inner_(inner), role_(role), totals_(totals) {}

  void OnDatagram(cbt::VifIndex vif, cbt::Ipv4Address link_src,
                  cbt::Ipv4Address link_dst,
                  std::span<const std::uint8_t> datagram) override {
    const Span span = Classify(datagram);
    const std::uint64_t start = cbt::CycleNow();
    inner_->OnDatagram(vif, link_src, link_dst, datagram);
    totals_->Add(span, cbt::CycleNow() - start);
  }
  void Start() override { inner_->Start(); }
  void ResetProtocolCounters() override { inner_->ResetProtocolCounters(); }

  cbt::netsim::NetworkAgent* inner() const { return inner_; }
  void set_inner(cbt::netsim::NetworkAgent* inner) { inner_ = inner; }

 private:
  Span Classify(std::span<const std::uint8_t> datagram) const {
    if (role_ == Role::kStation) return Span::kStation;
    if (role_ == Role::kHost) return Span::kHost;
    if (datagram.size() < cbt::packet::kIpv4HeaderSize) {
      return Span::kRouterControl;  // malformed: rejected by the parser
    }
    switch (static_cast<cbt::packet::IpProtocol>(datagram[9])) {
      case cbt::packet::IpProtocol::kIgmp:
        return Span::kRouterIgmp;
      case cbt::packet::IpProtocol::kCbt:
      case cbt::packet::IpProtocol::kTest:
        return Span::kRouterData;
      default:
        return Span::kRouterControl;
    }
  }

  cbt::netsim::NetworkAgent* inner_;
  Role role_;
  SpanTotals* totals_;
};

/// Owns the wrappers of one simulation. Wrap() installs a wrapper over a
/// node's current agent; calling it again (after a router restart)
/// re-installs the same wrapper over whatever agent the node now has.
class AgentWrappers {
 public:
  explicit AgentWrappers(SpanTotals* totals) : totals_(totals) {}

  void Wrap(cbt::netsim::Simulator& sim, cbt::NodeId node,
            TimedAgent::Role role) {
    cbt::netsim::NetworkAgent* current = sim.node(node).agent;
    auto& slot = wrappers_[node];
    if (!slot) {
      slot = std::make_unique<TimedAgent>(current, role, totals_);
    } else if (current != slot.get()) {
      slot->set_inner(current);
    }
    sim.SetAgent(node, slot.get());
  }

  /// Puts the original agents back, so the simulation may outlive this
  /// object's wrappers.
  void Unwrap(cbt::netsim::Simulator& sim) {
    for (auto& [node, wrapper] : wrappers_) {
      if (sim.node(node).agent == wrapper.get()) {
        sim.SetAgent(node, wrapper->inner());
      }
    }
  }

 private:
  SpanTotals* totals_;
  std::map<cbt::NodeId, std::unique_ptr<TimedAgent>> wrappers_;
};

}  // namespace perfbench

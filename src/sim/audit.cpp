#include "sim/audit.hpp"

#include <utility>

#include "sim/simulator.hpp"

namespace netrs::sim {

void AuditSummary::merge(const AuditSummary& other) {
  enabled = enabled || other.enabled;
  checks += other.checks;
  violations_total += other.violations_total;
  for (const AuditViolation& v : other.violations) {
    if (violations.size() >= Auditor::kMaxDetailedViolations) break;
    violations.push_back(v);
  }
  packets_injected += other.packets_injected;
  packets_delivered += other.packets_delivered;
  packets_in_flight_at_end += other.packets_in_flight_at_end;
  for (const auto& [reason, n] : other.drops_by_reason) {
    drops_by_reason[reason] += n;
  }
}

void Auditor::record(const char* rule, std::string detail) {
  if constexpr (!kAuditEnabled) {
    (void)rule;
    (void)detail;
    return;
  }
  ++violations_total_;
  if (violations_.size() >= kMaxDetailedViolations) return;
  AuditViolation v;
  v.rule = rule;
  v.detail = std::move(detail);
  if (sim_ != nullptr) {
    v.when = sim_->now();
    v.event_seq = sim_->events_fired();
  }
  violations_.push_back(std::move(v));
}

AuditSummary Auditor::summary() const {
  AuditSummary s;
  s.enabled = kAuditEnabled;
  s.checks = checks_;
  s.violations_total = violations_total_;
  s.violations = violations_;
  s.packets_injected = packets_injected_;
  s.packets_delivered = packets_delivered_;
  s.packets_in_flight_at_end = packets_in_flight_at_end_;
  s.drops_by_reason = drops_by_reason_;
  return s;
}

void Auditor::clear() {
  checks_ = 0;
  violations_total_ = 0;
  violations_.clear();
  packets_injected_ = 0;
  packets_delivered_ = 0;
  packets_in_flight_at_end_ = 0;
  drops_by_reason_.clear();
}

// --- StationLedger ----------------------------------------------------------

void StationLedger::check_depth(Auditor& a, const char* op,
                                std::size_t actual_depth) {
  const std::uint64_t expected = enqueued_ - dequeued_ - removed_;
  a.check(expected == actual_depth, "queue-accounting", [&] {
    return name_ + " after " + op + ": ledger depth " +
           std::to_string(expected) + " (enq " + std::to_string(enqueued_) +
           " - deq " + std::to_string(dequeued_) + " - removed " +
           std::to_string(removed_) + ") != live depth " +
           std::to_string(actual_depth);
  });
}

void StationLedger::on_enqueue(Auditor& a, std::size_t actual_depth) {
  if constexpr (!kAuditEnabled) {
    (void)a;
    (void)actual_depth;
    return;
  }
  ++enqueued_;
  check_depth(a, "enqueue", actual_depth);
}

void StationLedger::on_dequeue(Auditor& a, std::size_t actual_depth) {
  if constexpr (!kAuditEnabled) {
    (void)a;
    (void)actual_depth;
    return;
  }
  ++dequeued_;
  check_depth(a, "dequeue", actual_depth);
}

void StationLedger::on_remove(Auditor& a, std::size_t actual_depth) {
  if constexpr (!kAuditEnabled) {
    (void)a;
    (void)actual_depth;
    return;
  }
  ++removed_;
  check_depth(a, "remove", actual_depth);
}

void StationLedger::on_service_start(Auditor& a, int busy_after,
                                     int capacity) {
  a.check(busy_after >= 1 && busy_after <= capacity, "service-slot-overflow",
          [&] {
            return name_ + ": " + std::to_string(busy_after) +
                   " busy slots after service start, capacity " +
                   std::to_string(capacity);
          });
}

void StationLedger::on_service_finish(Auditor& a, int busy_after,
                                      int capacity) {
  a.check(busy_after >= 0 && busy_after < capacity, "service-slot-underflow",
          [&] {
            return name_ + ": " + std::to_string(busy_after) +
                   " busy slots after service finish, capacity " +
                   std::to_string(capacity);
          });
}

void StationLedger::check_busy_time(Auditor& a, Duration busy,
                                    Duration window, int cores) {
  a.check(busy <= window * cores, "busy-time-overflow", [&] {
    return name_ + ": accrued busy time " + std::to_string(busy) +
           " ns exceeds window " + std::to_string(window) + " ns x " +
           std::to_string(cores) + " cores";
  });
}

}  // namespace netrs::sim

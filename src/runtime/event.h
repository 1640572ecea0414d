// Copyright (c) the ROD reproduction authors.
//
// The simulator's scheduled events: what each type means and the record
// the event queue orders. Kept apart from the queue so the engine's
// public result can count events by type without pulling in the queue.

#ifndef ROD_RUNTIME_EVENT_H_
#define ROD_RUNTIME_EVENT_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace rod::sim {

/// What a scheduled event means.
enum class EventType {
  kExternalArrival,   ///< Next tuple of input stream `index` arrives.
  kNodeDone,          ///< Node `index` finishes its current task.
  kNetworkDelivery,   ///< The oldest in-flight network transfer lands.
  kFault,             ///< Scheduled fault `index` fires (see chaos.h).
  kFailureDetected,   ///< The supervisor notices node `index` crashed.
  kMigrationRelease,  ///< Operator `index` finishes its migration pause.
  kOverloadCheck,     ///< The overload detector's periodic sample fires.
};

inline constexpr size_t kNumEventTypes =
    static_cast<size_t>(EventType::kOverloadCheck) + 1;

/// Snake-case name of each EventType, indexed by its value.
inline constexpr std::array<const char*, kNumEventTypes> kEventTypeNames = {
    "external_arrival",  "node_done",         "network_delivery", "fault",
    "failure_detected",  "migration_release", "overload_check"};

/// One scheduled simulation event.
struct Event {
  double time = 0.0;
  uint64_t seq = 0;  ///< Insertion order; makes equal-time ordering total.
  EventType type = EventType::kExternalArrival;
  uint32_t index = 0;  ///< Input stream id or node id, per `type`.
  uint64_t tag = 0;    ///< Optional payload; kNodeDone carries the service
                       ///< token so crashes can cancel stale completions.
};

}  // namespace rod::sim

#endif  // ROD_RUNTIME_EVENT_H_

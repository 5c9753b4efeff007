#include "core/runtime/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/telemetry_names.h"

namespace unify::core {

const char* ServeEventKindName(ServeEventKind kind) {
  switch (kind) {
    case ServeEventKind::kAdmit:
      return telemetry::kEventAdmit;
    case ServeEventKind::kStart:
      return telemetry::kEventStart;
    case ServeEventKind::kComplete:
      return telemetry::kEventComplete;
    case ServeEventKind::kReject:
      return telemetry::kEventReject;
    case ServeEventKind::kDeadlineMiss:
      return telemetry::kEventDeadlineMiss;
    case ServeEventKind::kReplan:
      return telemetry::kEventReplan;
    case ServeEventKind::kDegraded:
      return telemetry::kEventDegraded;
    case ServeEventKind::kSloBreach:
      return telemetry::kEventSloBreach;
    case ServeEventKind::kShed:
      return telemetry::kEventShed;
    case ServeEventKind::kTenantReject:
      return telemetry::kEventTenantReject;
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(Options options)
    : options_(options), epoch_(std::chrono::steady_clock::now()) {
  if (options_.capacity == 0) options_.capacity = 1;
  ring_.reserve(std::min<size_t>(options_.capacity, 256));
}

uint64_t FlightRecorder::Record(ServeEvent event) {
  // The clock is read under the lock, so wall_seconds never decreases
  // along seq even when recorders race.
  std::lock_guard<std::mutex> lock(mu_);
  event.seq = next_seq_++;
  event.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    epoch_)
          .count();
  const uint64_t seq = event.seq;
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(event));
  } else {
    ring_[static_cast<size_t>(seq % options_.capacity)] = std::move(event);
  }
  return seq;
}

void FlightRecorder::RecordSlow(SlowQuery query) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.slow_queries == 0) return;
  slow_.push_back(std::move(query));
  std::sort(slow_.begin(), slow_.end(),
            [](const SlowQuery& a, const SlowQuery& b) {
              return a.total_seconds > b.total_seconds;
            });
  if (slow_.size() > options_.slow_queries) {
    slow_.resize(options_.slow_queries);
  }
}

std::vector<ServeEvent> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ServeEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < options_.capacity) {
    out = ring_;
  } else {
    // Slot (next_seq_ % capacity) holds the oldest retained event.
    const size_t start = static_cast<size_t>(next_seq_ % options_.capacity);
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(start + i) % ring_.size()]);
    }
  }
  return out;
}

std::vector<SlowQuery> FlightRecorder::slow_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_;
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::string FlightRecorder::ToJsonl() const {
  std::ostringstream os;
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  for (const ServeEvent& e : events()) {
    os << "{\"kind\":\"" << ServeEventKindName(e.kind) << "\",\"seq\":"
       << e.seq << ",\"wall_seconds\":" << num(e.wall_seconds)
       << ",\"query_id\":" << e.query_id;
    if (!e.client_tag.empty()) {
      os << ",\"client_tag\":\"" << JsonEscape(e.client_tag) << "\"";
    }
    if (!e.phase.empty()) {
      os << ",\"phase\":\"" << JsonEscape(e.phase) << "\"";
    }
    if (!e.detail.empty()) {
      os << ",\"detail\":\"" << JsonEscape(e.detail) << "\"";
    }
    if (e.queue_wall_seconds != 0) {
      os << ",\"queue_wall_seconds\":" << num(e.queue_wall_seconds);
    }
    if (e.plan_seconds != 0) {
      os << ",\"plan_seconds\":" << num(e.plan_seconds);
    }
    if (e.exec_seconds != 0) {
      os << ",\"exec_seconds\":" << num(e.exec_seconds);
    }
    if (e.total_seconds != 0) {
      os << ",\"total_seconds\":" << num(e.total_seconds);
    }
    os << "}\n";
  }
  return os.str();
}

std::string FlightRecorder::SlowQueriesToJsonl() const {
  std::ostringstream os;
  char buf[64];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  for (const SlowQuery& s : slow_queries()) {
    os << "{\"query_id\":" << s.query_id;
    if (!s.client_tag.empty()) {
      os << ",\"client_tag\":\"" << JsonEscape(s.client_tag) << "\"";
    }
    os << ",\"text\":\"" << JsonEscape(s.text) << "\""
       << ",\"total_seconds\":" << num(s.total_seconds)
       << ",\"plan_seconds\":" << num(s.plan_seconds)
       << ",\"exec_seconds\":" << num(s.exec_seconds)
       << ",\"has_trace\":" << (s.trace != nullptr ? "true" : "false")
       << "}\n";
  }
  return os.str();
}

}  // namespace unify::core

#include "obs/shard_obs.hpp"

#include <utility>

namespace netrs::obs {

ShardObserverSet::ShardObserverSet(const ObsConfig& cfg, int lanes)
    : cfg_(cfg) {
  if (lanes < 1) lanes = 1;
  lanes_.reserve(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Observer>(cfg));
  }
  if (lanes > 1) coord_ = std::make_unique<Observer>(cfg);
  for (const std::unique_ptr<Observer>& o : lanes_) {
    flight_lanes_.push_back(&o->flight());
    decision_lanes_.push_back(&o->decisions());
  }
  if (coord_ != nullptr) {
    flight_lanes_.push_back(&coord_->flight());
    decision_lanes_.push_back(&coord_->decisions());
  }
}

void ObsChunk::clear() {
  flight.clear();
  decisions.clear();
  metrics.times.clear();
  metrics.values.clear();
}

void ShardObserverSet::set_tid_name(std::int32_t tid,
                                    const std::string& name) {
  for (const std::unique_ptr<Observer>& o : lanes_) {
    o->set_tid_name(tid, name);
  }
  if (coord_ != nullptr) coord_->set_tid_name(tid, name);
}

TraceSnapshot ShardObserverSet::take_trace() const {
  std::vector<TraceSnapshot> parts;
  parts.reserve(lanes_.size() + 1);
  for (const std::unique_ptr<Observer>& o : lanes_) {
    parts.push_back(o->take_trace());
  }
  if (coord_ != nullptr) parts.push_back(coord_->take_trace());
  return merge_traces(std::move(parts),
                      cfg_.want_trace() ? cfg_.trace_capacity : 0);
}

void ShardObserverSet::set_measure_from(sim::Time t) {
  for (FlightRecorder* rec : flight_lanes_) rec->set_measure_from(t);
  replay_ = DecisionReplay(kHerdWindow, t);
}

void ShardObserverSet::flush(sim::Time watermark, ObsChunk& chunk) {
  if (attributing()) {
    chunk.flight.enabled = true;
    merge_flights(flight_lanes_, watermark, chunk.flight);
  }
  if (deciding()) {
    chunk.decisions.enabled = true;
    replay_.flush(decision_lanes_, watermark, chunk.decisions);
  }
  if (metering()) metrics_.take(chunk.metrics);
}

std::vector<TraceLaneCounts> ShardObserverSet::lane_trace_counts() const {
  std::vector<TraceLaneCounts> out;
  out.reserve(lanes_.size() + 1);
  for (const std::unique_ptr<Observer>& o : lanes_) {
    const TraceRing& ring = o->ring();
    out.push_back(TraceLaneCounts{ring.recorded(), ring.dropped()});
  }
  if (coord_ != nullptr) {
    const TraceRing& ring = coord_->ring();
    out.push_back(TraceLaneCounts{ring.recorded(), ring.dropped()});
  }
  return out;
}

}  // namespace netrs::obs

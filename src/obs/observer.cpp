#include "obs/observer.hpp"

#include <utility>

namespace netrs::obs {

Observer::Observer(const ObsConfig& cfg)
    : ring_(cfg.want_trace() ? cfg.trace_capacity : 0),
      flight_(cfg.want_attribution()),
      decisions_(cfg.want_decisions(), cfg.herd_window),
      metering_(cfg.want_metrics()) {}

void Observer::span(const char* name, const char* cat, std::int32_t tid,
                    sim::Time ts, sim::Duration dur, std::uint64_t id,
                    const char* arg0_name, std::uint64_t arg0,
                    const char* arg1_name, std::uint64_t arg1) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'X';
  e.tid = tid;
  e.ts = ts;
  e.dur = dur;
  e.id = id;
  e.arg0_name = arg0_name;
  e.arg0 = arg0;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  ring_.record(e);
}

void Observer::instant(const char* name, const char* cat, std::int32_t tid,
                       sim::Time ts, std::uint64_t id, const char* arg0_name,
                       std::uint64_t arg0, const char* arg1_name,
                       std::uint64_t arg1) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'i';
  e.tid = tid;
  e.ts = ts;
  e.id = id;
  e.arg0_name = arg0_name;
  e.arg0 = arg0;
  e.arg1_name = arg1_name;
  e.arg1 = arg1;
  ring_.record(e);
}

void Observer::set_tid_name(std::int32_t tid, std::string name) {
  ring_.set_tid_name(tid, std::move(name));
}

TraceSnapshot Observer::take_trace() const {
  TraceSnapshot snap;
  snap.events = ring_.in_order();
  snap.tid_names = ring_.tid_names();
  snap.recorded = ring_.recorded();
  snap.dropped = ring_.dropped();
  return snap;
}

}  // namespace netrs::obs

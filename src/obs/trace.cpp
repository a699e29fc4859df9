#include "obs/trace.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <utility>

#include "obs/text_sink.hpp"

namespace netrs::obs {
namespace {

/// Appends `s` as JSON string contents; json_escape() runs only when `s`
/// holds a character that needs it.
void put_json(TextSink& out, std::string_view s) {
  const bool plain = std::none_of(s.begin(), s.end(), [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
  if (plain) {
    out.put(s);
  } else {
    out.put(json_escape(s));
  }
}

/// Emits one trace event as a JSON object (no trailing comma).
void write_event(TextSink& out, const TraceEvent& e, std::size_t pid) {
  out.put("{\"name\":\"");
  put_json(out, e.name != nullptr ? e.name : "?");
  out.put("\",\"cat\":\"");
  put_json(out, e.cat != nullptr ? e.cat : "sim");
  out.put("\",\"ph\":\"").put(e.phase).put("\",\"pid\":").put_int(pid)
      .put(",\"tid\":").put_int(e.tid).put(",\"ts\":").put_time_us(e.ts);
  if (e.phase == 'X') out.put(",\"dur\":").put_time_us(e.dur);
  if (e.phase == 'i') out.put(",\"s\":\"t\"");  // thread-scoped instant
  const bool has_args =
      e.id != 0 || e.arg0_name != nullptr || e.arg1_name != nullptr;
  if (has_args) {
    out.put(",\"args\":{");
    bool sep = false;
    if (e.id != 0) {
      out.put("\"req\":").put_int(e.id);
      sep = true;
    }
    if (e.arg0_name != nullptr) {
      if (sep) out.put(',');
      out.put('"');
      put_json(out, e.arg0_name);
      out.put("\":").put_int(e.arg0);
      sep = true;
    }
    if (e.arg1_name != nullptr) {
      if (sep) out.put(',');
      out.put('"');
      put_json(out, e.arg1_name);
      out.put("\":").put_int(e.arg1);
    }
    out.put('}');
  }
  out.put('}');
}

/// Emits a Chrome metadata event ('M') that names a process or thread
/// (`tid` < 0: a process).
void write_metadata(TextSink& out, const char* what, std::size_t pid,
                    std::int32_t tid, std::string_view prefix,
                    std::string_view value) {
  out.put("{\"name\":\"").put(what).put("\",\"ph\":\"M\",\"pid\":")
      .put_int(pid);
  if (tid >= 0) out.put(",\"tid\":").put_int(tid);
  out.put(",\"args\":{\"name\":\"").put(prefix);
  put_json(out, value);
  out.put("\"}}");
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity) {
  ring_.reserve(capacity_);
}

void TraceRing::record(const TraceEvent& e) {
  if (capacity_ == 0) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[head_] = e;
    if (++head_ == capacity_) head_ = 0;
    ++dropped_;
  }
  ++recorded_;
}

std::vector<TraceEvent> TraceRing::in_order() const {
  // Oldest first: [head_, end) then [begin, head_); head_ is 0 until the
  // ring wraps.
  const auto head = ring_.begin() + static_cast<std::ptrdiff_t>(head_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  out.insert(out.end(), head, ring_.end());
  out.insert(out.end(), ring_.begin(), head);
  return out;
}

void TraceRing::set_tid_name(std::int32_t tid, std::string name) {
  if (capacity_ == 0) return;
  tid_names_[tid] = std::move(name);
}

TraceSnapshot merge_traces(std::vector<TraceSnapshot> parts,
                           std::size_t capacity) {
  TraceSnapshot out;
  std::size_t total = 0;
  for (const TraceSnapshot& p : parts) total += p.events.size();
  for (TraceSnapshot& p : parts) {
    if (out.events.empty()) {
      out.events = std::move(p.events);  // the single-ring case: no copy
      out.events.reserve(total);
    } else {
      out.events.insert(out.events.end(), p.events.begin(), p.events.end());
    }
    out.recorded += p.recorded;
    for (auto& [tid, name] : p.tid_names) {
      out.tid_names.emplace(tid, std::move(name));  // first writer wins
    }
  }
  // A span records when it ends (`ts + dur`), an instant when it fires;
  // sorting by that record time reproduces the single-ring record order.
  // The sort is stable and parts arrive in shard order, so exact-time
  // same-tid ties keep a deterministic order too.
  const auto record_time = [](const TraceEvent& e) {
    return e.phase == 'X' ? e.ts + e.dur : e.ts;
  };
  std::stable_sort(out.events.begin(), out.events.end(),
                   [&record_time](const TraceEvent& a, const TraceEvent& b) {
                     const sim::Time ra = record_time(a);
                     const sim::Time rb = record_time(b);
                     if (ra != rb) return ra < rb;
                     return a.tid < b.tid;
                   });
  if (capacity > 0 && out.events.size() > capacity) {
    out.events.erase(out.events.begin(),
                     out.events.end() -
                         static_cast<std::ptrdiff_t>(capacity));
  }
  out.dropped = out.recorded - out.events.size();
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_trace_begin(TextSink& out) { out.put("{\"traceEvents\":["); }

void write_trace_repeat(TextSink& out, std::size_t repeat,
                        const TraceSnapshot& snap) {
  // Every section opens with its process name, so only repeat 0's first
  // entry goes without a separator.
  out.put(repeat == 0 ? "\n" : ",\n");
  char pid[kMaxNumberChars];
  const std::string_view pid_text(
      pid, static_cast<std::size_t>(write_int(pid, repeat) - pid));
  write_metadata(out, "process_name", repeat, -1, "repeat ", pid_text);
  for (const auto& [tid, name] : snap.tid_names) {
    out.put(",\n");
    write_metadata(out, "thread_name", repeat, tid, "", name);
  }
  for (const TraceEvent& e : snap.events) {
    out.put(",\n");
    write_event(out, e, repeat);
  }
}

void write_trace_end(TextSink& out) {
  out.put("\n],\"displayTimeUnit\":\"ns\"}\n");
}

}  // namespace netrs::obs

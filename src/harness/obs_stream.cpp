#include "harness/obs_stream.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/attribution.hpp"
#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "obs/text_sink.hpp"

namespace netrs::harness {
namespace {

// Copies `from` (rewound) to the end of `to`; false on a read error.
bool append(std::FILE* from, std::FILE* to) {
  std::rewind(from);
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), from)) > 0) {
    std::fwrite(buf, 1, n, to);
  }
  return std::ferror(from) == 0;
}

}  // namespace

ObsFiles::ObsFiles(const obs::ObsConfig& cfg, int repeats) {
  const std::string* paths[] = {&cfg.trace_path, &cfg.metrics_path,
                                &cfg.attribution_path, &cfg.decision_path};
  for (int kind = 0; kind < 4; ++kind) {
    File& f = files_[kind];
    if (paths[kind]->empty()) continue;
    f.path = *paths[kind];
    f.out = std::fopen(f.path.c_str(), "wb");
    if (f.out == nullptr) {
      throw std::invalid_argument("cannot open obs output \"" + f.path +
                                  "\" for writing");
    }
    // TextSink buffers every write, so the C stream need not.
    std::setvbuf(f.out, nullptr, _IONBF, 0);
    f.spools.resize(static_cast<std::size_t>(repeats), nullptr);
  }
}

ObsFiles::~ObsFiles() {
  for (File& f : files_) {
    for (std::FILE* spool : f.spools) {
      if (spool != nullptr) std::fclose(spool);
    }
    if (f.out != nullptr) std::fclose(f.out);
  }
}

ObsSinks ObsFiles::sinks(std::size_t repeat) {
  std::FILE* sink[4] = {};
  for (int kind = 0; kind < 4; ++kind) {
    File& f = files_[kind];
    if (f.out == nullptr) continue;
    if (repeat == 0) {
      sink[kind] = f.out;
      continue;
    }
    f.spools[repeat] = std::tmpfile();
    if (f.spools[repeat] == nullptr) {
      throw std::runtime_error("cannot create a spool file for \"" + f.path +
                               "\"");
    }
    std::setvbuf(f.spools[repeat], nullptr, _IONBF, 0);
    sink[kind] = f.spools[repeat];
  }
  return {sink[0], sink[1], sink[2], sink[3]};
}

void ObsFiles::finish() {
  for (int kind = 0; kind < 4; ++kind) {
    File& f = files_[kind];
    if (f.out == nullptr) continue;
    bool ok = true;
    for (std::FILE*& spool : f.spools) {
      if (spool == nullptr) continue;
      ok = append(spool, f.out) && ok;
      std::fclose(spool);
      spool = nullptr;
    }
    if (kind == 0) {
      obs::TextSink out(f.out);
      obs::write_trace_end(out);
    }
    ok = std::ferror(f.out) == 0 && ok;
    ok = std::fclose(f.out) == 0 && ok;
    f.out = nullptr;
    if (!ok) {
      throw std::runtime_error("writing obs output \"" + f.path +
                               "\" failed");
    }
  }
}

ObsWriter::ObsWriter(const ObsSinks& sinks, std::size_t repeat, Fold fold,
                     obs::MetricsSnapshot metrics_layout)
    : sinks_(sinks),
      repeat_(repeat),
      fold_(std::move(fold)),
      layout_(std::move(metrics_layout)) {
  thread_ = std::thread([this] { loop(); });
}

ObsWriter::~ObsWriter() {
  if (!thread_.joinable()) return;
  {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return !pending_; });
    abandon_ = last_ = pending_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void ObsWriter::hand_over(bool last) {
  // netrs-lint: allow(wall-clock): wait_seconds is a harness diagnostic.
  const auto start = std::chrono::steady_clock::now();
  {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return !pending_; });
    filling_ = 1 - filling_;
    last_ = last;
    pending_ = true;
  }
  // netrs-lint: allow(wall-clock): see start above.
  const auto end = std::chrono::steady_clock::now();
  cv_.notify_one();
  wait_seconds_ += std::chrono::duration<double>(end - start).count();
  ++handoffs_;
}

void ObsWriter::submit() {
  hand_over(false);
  // The writer finished this chunk before hand_over() could return.
  chunks_[filling_].clear();
}

void ObsWriter::finish(const obs::TraceSnapshot& trace) {
  trace_ = &trace;
  hand_over(true);
  thread_.join();
  if (error_) std::rethrow_exception(error_);
}

void ObsWriter::loop() {
  // One sink per requested file for the whole repeat, so its buffer is
  // allocated once. A failure here or below is kept for finish() to
  // rethrow; the loop still takes every chunk, so the simulation thread
  // never waits forever.
  std::optional<obs::TextSink> trace, metrics, attribution, decisions;
  try {
    if (sinks_.trace != nullptr) trace.emplace(sinks_.trace);
    if (sinks_.metrics != nullptr) metrics.emplace(sinks_.metrics);
    if (sinks_.attribution != nullptr) {
      attribution.emplace(sinks_.attribution);
    }
    if (sinks_.decisions != nullptr) decisions.emplace(sinks_.decisions);
    // Repeat 0 writes straight into the files, after their headers.
    if (repeat_ == 0) {
      if (trace) obs::write_trace_begin(*trace);
      if (metrics) obs::write_metrics_header(*metrics);
      if (attribution) obs::write_attribution_header(*attribution);
      if (decisions) obs::write_decision_header(*decisions);
    }
  } catch (...) {
    error_ = std::current_exception();
  }
  for (bool last = false; !last;) {
    obs::ObsChunk* chunk = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return pending_; });
      if (abandon_) return;
      chunk = &chunks_[1 - filling_];
      last = last_;
    }
    // netrs-lint: allow(wall-clock): busy_seconds is a harness diagnostic.
    const auto start = std::chrono::steady_clock::now();
    // Lend the chunk the metric layout while it is written and folded; the
    // simulation thread only ever touches the chunk's rows.
    chunk->metrics.columns.swap(layout_.columns);
    chunk->metrics.summarize.swap(layout_.summarize);
    if (!error_) {
      try {
        if (metrics) obs::write_metrics_rows(*metrics, repeat_, chunk->metrics);
        if (attribution) {
          obs::write_attribution_rows(*attribution, repeat_, chunk->flight);
        }
        if (decisions) {
          obs::write_decision_rows(*decisions, repeat_, chunk->decisions);
        }
        fold_(*chunk);
        if (last && trace) obs::write_trace_repeat(*trace, repeat_, *trace_);
      } catch (...) {
        error_ = std::current_exception();
      }
    }
    chunk->metrics.columns.swap(layout_.columns);
    chunk->metrics.summarize.swap(layout_.summarize);
    if (last) {
      for (std::optional<obs::TextSink>* sink :
           {&trace, &metrics, &attribution, &decisions}) {
        if (*sink) (*sink)->flush();
      }
    }
    // netrs-lint: allow(wall-clock): see start above.
    const auto end = std::chrono::steady_clock::now();
    busy_seconds_ += std::chrono::duration<double>(end - start).count();
    {
      std::lock_guard lock(mu_);
      pending_ = false;
    }
    cv_.notify_one();
  }
}

}  // namespace netrs::harness

// Streams the obs output files while the repeats run (DESIGN.md §8.6).
//
// ObsFiles opens every requested file before the first repeat (a path
// that cannot be written fails the run before any simulation) and hands
// each repeat its destinations: repeat 0 writes the headers and its
// sections straight into the files,
// every later repeat into spools of its own (std::tmpfile()), which
// finish() appends in repeat order — so the bytes do not depend on
// --jobs. ObsWriter is one repeat's writer thread: the simulation thread
// fills one chunk (obs::ObsChunk) per flush watermark and hands it over
// while the writer formats and writes the previous one and folds it into
// the repeat's report summaries, so writing overlaps the run and the two
// chunk buffers are reused throughout.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/observer.hpp"
#include "obs/shard_obs.hpp"
#include "obs/trace.hpp"

namespace netrs::harness {

/// One repeat's destinations for the four obs files; null where the file
/// was not requested.
struct ObsSinks {
  std::FILE* trace = nullptr;
  std::FILE* metrics = nullptr;
  std::FILE* attribution = nullptr;
  std::FILE* decisions = nullptr;
};

/// The requested obs output files of one run_experiment() call, with one
/// spool per file per later repeat (see the file comment).
class ObsFiles {
 public:
  /// Opens every file `cfg` names (repeat 0's writer writes the headers).
  /// Throws std::invalid_argument naming the first path that cannot be
  /// opened.
  ObsFiles(const obs::ObsConfig& cfg, int repeats);
  ObsFiles(const ObsFiles&) = delete;
  ObsFiles& operator=(const ObsFiles&) = delete;
  ~ObsFiles();

  /// Repeat `repeat`'s destinations, creating its spools on first use.
  /// Distinct repeats may call this concurrently. Throws
  /// std::runtime_error if a spool cannot be created.
  [[nodiscard]] ObsSinks sinks(std::size_t repeat);

  /// Appends the spools in repeat order, closes the trace JSON and every
  /// file. Throws std::runtime_error naming a file whose writes failed.
  void finish();

 private:
  struct File {
    std::string path;
    std::FILE* out = nullptr;
    std::vector<std::FILE*> spools;  // [r] for repeat r >= 1
  };
  // trace, metrics, attribution, decisions; `out` is null when the file
  // was not requested.
  File files_[4];
};

/// One repeat's obs writer thread (see the file comment).
class ObsWriter {
 public:
  /// Called on the writer thread with every chunk, in order, after its
  /// rows are written.
  using Fold = std::function<void(const obs::ObsChunk&)>;

  /// Starts the writer for repeat `repeat` into `sinks`. `metrics_layout`
  /// holds the metric columns (MetricsRegistry::layout()); the writer
  /// lends it to each chunk while writing and folding it.
  ObsWriter(const ObsSinks& sinks, std::size_t repeat, Fold fold,
            obs::MetricsSnapshot metrics_layout);
  ObsWriter(const ObsWriter&) = delete;
  ObsWriter& operator=(const ObsWriter&) = delete;
  /// Stops a writer that finish() did not, dropping its last chunk.
  ~ObsWriter();

  /// The chunk the simulation thread fills; empty after submit().
  [[nodiscard]] obs::ObsChunk& chunk() { return chunks_[filling_]; }

  /// Hands the filled chunk to the writer, first waiting for it to finish
  /// the previous one, and returns the other chunk emptied.
  void submit();

  /// Hands over the filled chunk as the last one, then `trace` as the
  /// repeat's trace section, and waits for both to be written and the
  /// sinks flushed. Rethrows what the writer threw.
  void finish(const obs::TraceSnapshot& trace);

  /// Wall-clock seconds the writer spent writing and folding chunks;
  /// read after finish().
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }

 private:
  void hand_over(bool last);
  void loop();

  const ObsSinks sinks_;
  const std::size_t repeat_;
  const Fold fold_;
  obs::MetricsSnapshot layout_;
  obs::ObsChunk chunks_[2];
  int filling_ = 0;  // chunks_[1 - filling_] is the writer's
  std::mutex mu_;
  std::condition_variable cv_;
  bool pending_ = false;  // the writer's chunk waits to be written
  bool last_ = false;     // ... and it is the last one
  bool abandon_ = false;  // stop without writing (destructor)
  const obs::TraceSnapshot* trace_ = nullptr;
  std::exception_ptr error_;
  double busy_seconds_ = 0.0;
  std::thread thread_;
};

}  // namespace netrs::harness

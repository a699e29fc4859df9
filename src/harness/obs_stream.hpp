// Streams the obs output files while the repeats run (DESIGN.md §8.6).
//
// ObsFiles opens every requested file before the first repeat (a path
// that cannot be written fails the run before any simulation) and hands
// each repeat its destinations: repeat 0 writes the headers and its
// sections straight into the files,
// every later repeat into spools of its own (std::tmpfile()), which
// finish() appends in repeat order — so the bytes do not depend on
// --jobs. ObsWriter is one repeat's writer thread: the simulation thread
// appends every flush watermark's records to one chunk (obs::ObsChunk)
// and hands it over once it holds kObsChunkRows rows, and at the end,
// while the writer formats and writes the previous one and folds it into
// the repeat's report summaries. Writing overlaps the run, the two chunk
// buffers are reused throughout, and the simulation thread meets the
// writer about once per kObsChunkRows rows rather than at every
// watermark, so it seldom waits for the writer to wake.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
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

/// Rows (ObsChunk::rows()) a chunk collects before the simulation thread
/// hands it to the writer. Large enough that a handoff costs little
/// against the rows it carries, small enough that a chunk's buffers stay
/// a few hundred KiB.
inline constexpr std::size_t kObsChunkRows = 2048;

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
  /// the previous one, and makes the other chunk, emptied, the one to
  /// fill. The caller hands over only full chunks (kObsChunkRows).
  void submit();

  /// Hands over the filled chunk as the last one, then `trace` as the
  /// repeat's trace section, and waits for both to be written and the
  /// sinks flushed. Rethrows what the writer threw.
  void finish(const obs::TraceSnapshot& trace);

  /// Wall-clock seconds the writer spent writing and folding chunks;
  /// read after finish().
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }
  /// Wall-clock seconds submit() and finish() spent waiting for the writer
  /// to finish the previous chunk (not finish()'s join); read after
  /// finish().
  [[nodiscard]] double wait_seconds() const { return wait_seconds_; }
  /// Chunks handed to the writer, the last one included.
  [[nodiscard]] std::uint64_t handoffs() const { return handoffs_; }

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
  double wait_seconds_ = 0.0;   // simulation thread only
  std::uint64_t handoffs_ = 0;  // simulation thread only
  std::thread thread_;
};

}  // namespace netrs::harness

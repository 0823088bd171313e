// Per-query structured logging: the planner emits one QueryRecord per
// planned query, and QueryLog appends it as a single JSONL line to a
// shared sink. Where the metrics Registry answers "how is the process
// doing", the query log answers "which query was slow and why" — the
// unit of observation is one (origin, destination, departure) request,
// with its per-phase durations, search effort and chosen-route energy
// summary. Writes are serialized under a mutex so concurrent workers
// never interleave lines; records above a configurable slow-query
// threshold are additionally logged at Warn.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sunchase/common/units.h"
#include "sunchase/obs/metrics.h"

namespace sunchase::obs {

/// Everything one planned query leaves behind. Plain data: core fills
/// it, QueryLog serializes it; obs stays ignorant of routing types.
struct QueryRecord {
  std::string mode = "plan";     ///< "plan" or "batch"
  std::int64_t index = -1;       ///< position within a batch; -1 single
  std::uint64_t origin = 0;      ///< origin node id
  std::uint64_t destination = 0; ///< destination node id
  std::string departure;         ///< "HH:MM:SS"
  std::string pricing = "exact"; ///< edge pricing mode: "exact" or "slot"
  std::string status = "ok";     ///< "ok" or "error"
  std::string error;             ///< exception message when status=error
  /// Version of the world snapshot the query was priced against
  /// (core::World::version()); emitted as "world.version". -1 (the
  /// default) omits the field for callers without snapshot context.
  std::int64_t world_version = -1;
  /// 32-hex W3C trace id of the request that planned this query
  /// (obs::TraceContext::trace_id_hex()); emitted as "trace_id" when
  /// non-empty, so one id joins the HTTP response header, this record
  /// and the /debug/trace span export.
  std::string trace_id;

  // Per-phase durations, in seconds.
  double mlc_seconds = 0.0;        ///< multi-label correcting search
  double kmeans_seconds = 0.0;     ///< bisecting k-means inside selection
  double selection_seconds = 0.0;  ///< whole selection pipeline
  double total_seconds = 0.0;      ///< submit-to-record wall clock
  /// Thread CPU milliseconds the query actually burned
  /// (CLOCK_THREAD_CPUTIME_ID delta across search + selection) — the
  /// resource-accounting companion to the wall-clock fields: wall ≫ cpu
  /// means the query waited, cpu ≈ wall means it computed.
  double cpu_ms = 0.0;

  // Search effort (MlcStats of the query).
  std::uint64_t labels_created = 0;
  std::uint64_t labels_dominated = 0;
  std::uint64_t dominance_checks = 0;  ///< staircase probes
  std::uint64_t queue_pops = 0;
  std::uint64_t pareto_size = 0;
  std::uint64_t labels_pruned_bound = 0;  ///< time-budget prune rejections
  double lower_bound_seconds = 0.0;       ///< reverse-Dijkstra build time

  // Chosen-route summary (the recommended candidate; zero on error).
  std::uint64_t candidate_count = 0;
  double travel_time_s = 0.0;
  double shaded_time_s = 0.0;
  double energy_out_wh = 0.0;  ///< EV consumption (Eq. 6)
  double energy_in_wh = 0.0;   ///< solar harvested (Eq. 2)

  /// One JSON object on a single line (no trailing newline). Error and
  /// route-summary fields appear only when meaningful.
  [[nodiscard]] std::string to_json() const;
};

/// Thread-safe JSONL sink. Serialization happens outside the lock; the
/// lock only covers the single-line append, so concurrent planner
/// workers get exactly one unbroken line per record.
class QueryLog {
 public:
  /// Opens (truncates) `path`; throws IoError when unwritable.
  explicit QueryLog(const std::string& path);
  /// Appends to a caller-owned stream (tests, in-memory sinks); the
  /// stream must outlive the log.
  explicit QueryLog(std::ostream& sink);
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Queries slower than this (total_seconds) are also logged at Warn;
  /// zero (the default) disables the slow-query path entirely.
  void set_slow_threshold(Seconds threshold) noexcept {
    slow_threshold_seconds_.store(threshold.value(),
                                  std::memory_order_relaxed);
  }
  [[nodiscard]] Seconds slow_threshold() const noexcept {
    return Seconds{slow_threshold_seconds_.load(std::memory_order_relaxed)};
  }

  /// Appends `record` as one JSONL line (flushed, so a crashed run
  /// keeps every completed query).
  void write(const QueryRecord& record);

  /// Serialized lines the in-memory ring still holds (most recent
  /// kTailCapacity). The backend of GET /debug/queries?n= — live
  /// introspection without re-reading (or even having) the log file.
  static constexpr std::size_t kTailCapacity = 256;
  [[nodiscard]] std::vector<std::string> tail(std::size_t n) const;

  [[nodiscard]] std::uint64_t record_count() const noexcept {
    return records_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t slow_count() const noexcept {
    return slow_.load(std::memory_order_relaxed);
  }

 private:
  std::ofstream owned_;   ///< backing file for the path constructor
  std::ostream& sink_;    ///< owned_ or the caller's stream
  mutable std::mutex mutex_;  ///< serializes appends and tail reads
  std::deque<std::string> tail_;  ///< last kTailCapacity lines
  std::atomic<double> slow_threshold_seconds_{0.0};
  std::atomic<std::uint64_t> records_{0};
  std::atomic<std::uint64_t> slow_{0};
  Counter& records_metric_;  ///< "querylog.records"
  Counter& slow_metric_;     ///< "querylog.slow_queries"
};

}  // namespace sunchase::obs

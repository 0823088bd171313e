// The server-side memory behind GET /explain/{query_id}: a bounded
// ring of recently answered queries, each holding the WorldPtr pin of
// the snapshot that priced it, the recommended route, and the search's
// criteria vector. An explain request replays the route with
// core::RouteExplainer against that exact pinned snapshot — never the
// store's current one — so the ledger stays bit-identical to the
// response the client saw, no matter how many worlds were published in
// between. The ring bounds how many old snapshots explainability keeps
// alive: an evicted id answers 404, and its pin is dropped.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sunchase/common/time_of_day.h"
#include "sunchase/core/criteria.h"
#include "sunchase/core/edge_cost.h"
#include "sunchase/core/world_fwd.h"
#include "sunchase/roadnet/path.h"

namespace sunchase::serve {

/// Everything needed to re-derive one answered query's per-edge ledger.
struct LedgerEntry {
  std::uint64_t query_id = 0;  ///< assigned by QueryLedger::record
  core::WorldPtr world;        ///< the snapshot that priced the query
  roadnet::NodeId origin = roadnet::kInvalidNode;
  roadnet::NodeId destination = roadnet::kInvalidNode;
  TimeOfDay departure;
  core::PricingMode pricing = core::PricingMode::Exact;
  bool time_dependent = true;
  std::size_t vehicle = 0;
  roadnet::Path route;   ///< the recommended route of the response
  core::Criteria cost;   ///< its search criteria (conservation reference)
  /// 32-hex trace id of the request that answered the query; lets an
  /// /explain response point back at the original request's trace.
  std::string trace_id;
  /// Resource accounting stamped when the query was answered: worker
  /// CPU milliseconds plus the search-effort counters that explain
  /// them. /explain surfaces these as the "what did this query cost"
  /// record alongside the energy ledger.
  double cpu_ms = 0.0;
  std::uint64_t labels_created = 0;
  std::uint64_t queue_pops = 0;
  std::uint64_t dominance_checks = 0;
};

/// Thread-safe fixed-capacity ring keyed by a dense monotonic query id.
/// record() under concurrent batch workers never blocks readers for
/// long: both sides take one short mutex hold.
class QueryLedger {
 public:
  /// Throws InvalidArgument when capacity is zero.
  explicit QueryLedger(std::size_t capacity = 256);

  /// Assigns the next query id, stores the entry (evicting the entry
  /// `capacity` ids older), and returns the id.
  std::uint64_t record(LedgerEntry entry);

  /// The entry for `id`, or nullopt when unknown or already evicted.
  [[nodiscard]] std::optional<LedgerEntry> find(std::uint64_t id) const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Total queries ever recorded (ids run 1..recorded()).
  [[nodiscard]] std::uint64_t recorded() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;        ///< guarded by mutex_
  std::vector<LedgerEntry> ring_;    ///< slot (id - 1) % capacity_
};

}  // namespace sunchase::serve

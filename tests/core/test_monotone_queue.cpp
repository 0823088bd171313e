// The Pareto search's radix queue must pop exactly what the binary heap
// it replaced popped: the least travel time, ties within
// kCriteriaEpsilon broken by (shade, energy) and then creation order.
// Differential runs feed both the same monotone push/pop streams.
#include "sunchase/core/monotone_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "sunchase/common/assert.h"
#include "sunchase/core/criteria.h"

namespace sunchase::core::detail {
namespace {

constexpr double kEps = kCriteriaEpsilon;

/// The search's tie order, over a test arena of costs.
struct PopsFirst {
  const std::vector<Criteria>* costs;

  bool operator()(std::uint32_t a, std::uint32_t b) const noexcept {
    const Criteria& x = (*costs)[a];
    const Criteria& y = (*costs)[b];
    int c = fuzzy_cmp(x.shaded_time.value(), y.shaded_time.value());
    if (c == 0) c = fuzzy_cmp(x.energy_out.value(), y.energy_out.value());
    return c != 0 ? c < 0 : a < b;
  }
};

/// The binary heap the queue replaced, with its comparator verbatim.
class ReferenceHeap {
 public:
  explicit ReferenceHeap(const std::vector<Criteria>& costs)
      : costs_(&costs) {}

  void push(double key, std::uint32_t id) {
    heap_.push_back(Entry{key, id});
    std::push_heap(heap_.begin(), heap_.end(), PopsLater{costs_});
  }
  MonotoneQueue::Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), PopsLater{costs_});
    const Entry top = heap_.back();
    heap_.pop_back();
    return MonotoneQueue::Entry{top.travel_time, top.label};
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  /// The least key queued (the radix queue's base after a pop).
  [[nodiscard]] double least() const {
    double least = std::numeric_limits<double>::infinity();
    for (const Entry& e : heap_) least = std::min(least, e.travel_time);
    return least;
  }
  /// Any queued id, chosen by `pick`.
  [[nodiscard]] std::uint32_t any(std::size_t pick) const {
    return heap_[pick % heap_.size()].label;
  }

 private:
  struct Entry {
    double travel_time;
    std::uint32_t label;
  };
  struct PopsLater {
    const std::vector<Criteria>* arena;
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      int c = fuzzy_cmp(b.travel_time, a.travel_time);
      if (c == 0) c = lex_compare((*arena)[b.label], (*arena)[a.label]);
      return c != 0 ? c < 0 : a.label > b.label;
    }
  };

  const std::vector<Criteria>* costs_;
  std::vector<Entry> heap_;
};

/// Key `which` (0-6) of the near-tie cluster at `anchor`: the anchor
/// itself, 1-3 ulps above it, and eps/8, eps/4 and 3 eps/8 above it.
/// Every cluster spans less than eps while anchors lie at least 1e-3 s
/// apart, so the heap's fuzzy comparator is a strict weak order on the
/// stream and its pop order is well defined.
double cluster_key(double anchor, int which) {
  if (which == 0) return anchor;
  if (which <= 3) {
    double key = anchor;
    for (int i = 0; i < which; ++i)
      key = std::nextafter(key, std::numeric_limits<double>::infinity());
    return key;
  }
  return anchor + (which - 3) * kEps / 8;
}

/// One MLC-like stream: each pop queues 0-3 children at the popped
/// key's cluster (exact, ulp and sub-eps ties), at another queued
/// entry's cluster, or at a new anchor 1e-3 s to 1e5 s later. Shades
/// and energies come from a small set with one pair inside eps, so
/// the (shade, energy) tie-break and creation order both decide.
/// Returns the number of pops compared.
std::size_t run_stream(std::mt19937_64& rng, MonotoneQueue& queue) {
  std::vector<Criteria> costs;
  std::vector<double> anchors;  // per id
  ReferenceHeap reference(costs);
  queue.clear();

  const double shades[] = {0.0, 1.0, 1.0 + kEps / 2, 2.0};
  const double energies[] = {0.0, 1.0, 2.0};
  std::uniform_int_distribution<int> pick_shade(0, 3);
  std::uniform_int_distribution<int> pick_energy(0, 2);
  std::uniform_int_distribution<int> pick_children(0, 3);
  std::uniform_int_distribution<int> pick_member(0, 6);
  std::uniform_int_distribution<int> pick_source(0, 9);
  std::uniform_real_distribution<double> log_delta(-3.0, 5.0);
  std::uniform_int_distribution<std::size_t> pick_any;

  auto push = [&](double anchor, double key) {
    const auto id = static_cast<std::uint32_t>(costs.size());
    costs.push_back(Criteria{Seconds{key}, Seconds{shades[pick_shade(rng)]},
                             WattHours{energies[pick_energy(rng)]}});
    anchors.push_back(anchor);
    queue.push(key, id);
    reference.push(key, id);
  };

  push(0.0, 0.0);
  std::size_t pops = 0;
  const auto max_labels =
      static_cast<std::size_t>(40 + 40 * pick_children(rng));
  while (!reference.empty()) {
    const double floor = reference.least();
    const MonotoneQueue::Entry expected = reference.pop();
    const MonotoneQueue::Entry got = queue.pop(PopsFirst{&costs});
    EXPECT_EQ(got.id, expected.id) << "pop " << pops;
    EXPECT_EQ(got.key, expected.key) << "pop " << pops;
    if (got.id != expected.id) return pops;
    ++pops;

    for (int child = pick_children(rng);
         child > 0 && costs.size() < max_labels; --child) {
      double anchor = anchors[expected.id];
      const int source = pick_source(rng);
      if (source >= 6) {
        // Up to 2e5 s, where 3 ulps stay below eps / 8.
        const double delta = std::pow(10.0, log_delta(rng));
        anchor += anchor + delta > 2e5 ? 1e-3 : delta;
      } else if (source >= 3 && !reference.empty()) {
        anchor = anchors[reference.any(pick_any(rng))];
      }
      // Members below the least key at the last pop break the queue's
      // precondition, which the search never does: skip to one above.
      double key = cluster_key(anchor, pick_member(rng));
      for (int which = 0; key < floor; ++which)
        key = cluster_key(anchor, which);
      push(anchor, key);
    }
  }
  EXPECT_TRUE(queue.empty());
  return pops;
}

TEST(MonotoneQueue, MatchesTheBinaryHeapOnRandomMonotoneStreams) {
  std::mt19937_64 rng(1990);
  MonotoneQueue queue;  // reused across streams, like the workspace's
  std::size_t pops = 0;
  for (int stream = 0; stream < 10000; ++stream) {
    pops += run_stream(rng, queue);
    if (::testing::Test::HasFailure()) FAIL() << "stream " << stream;
  }
  EXPECT_GT(pops, 500000u);
}

TEST(MonotoneQueue, PopsTheLeastKeyFirst) {
  MonotoneQueue queue;
  const std::vector<Criteria> costs(6);
  for (const double key : {5.0, 0.25, 1e5, 0.0, 3.0, 1e-3})
    queue.push(key, static_cast<std::uint32_t>(queue.size()));
  std::vector<double> keys;
  while (!queue.empty()) keys.push_back(queue.pop(PopsFirst{&costs}).key);
  EXPECT_EQ(keys, (std::vector<double>{0.0, 1e-3, 0.25, 3.0, 5.0, 1e5}));
}

TEST(MonotoneQueue, NearTiesPopByShadeThenEnergyThenCreation) {
  // 10 s, 10 s + eps/2 and 10 s + 2 eps: the first two tie, so the
  // less shaded second pops first; the third is past eps and pops
  // last despite the least shade. Equal keys and costs: creation order.
  const std::vector<Criteria> costs{
      {Seconds{10.0}, Seconds{2.0}, WattHours{1.0}},
      {Seconds{10.0 + kEps / 2}, Seconds{1.0}, WattHours{1.0}},
      {Seconds{10.0 + 2 * kEps}, Seconds{0.0}, WattHours{0.0}},
      {Seconds{20.0}, Seconds{1.0}, WattHours{3.0}},
      {Seconds{20.0}, Seconds{1.0}, WattHours{2.0}},
      {Seconds{20.0}, Seconds{1.0}, WattHours{2.0}}};
  MonotoneQueue queue;
  for (std::uint32_t id = 0; id < costs.size(); ++id)
    queue.push(costs[id].travel_time.value(), id);
  std::vector<std::uint32_t> order;
  while (!queue.empty()) order.push_back(queue.pop(PopsFirst{&costs}).id);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 0, 2, 4, 5, 3}));
}

TEST(MonotoneQueue, RejectsKeysBelowTheLeastKeyAtTheLastPop) {
  const std::vector<Criteria> costs(8);
  MonotoneQueue queue;
  queue.push(5.0, 0);
  queue.push(7.0, 1);
  EXPECT_EQ(queue.pop(PopsFirst{&costs}).id, 0u);  // least key now 5
  EXPECT_THROW(queue.push(4.999, 2), ContractViolation);
  queue.push(5.0, 2);  // equal to it is fine
  queue.push(6.0, 3);
  EXPECT_EQ(queue.pop(PopsFirst{&costs}).key, 5.0);
  EXPECT_EQ(queue.pop(PopsFirst{&costs}).key, 6.0);  // least key now 6
  EXPECT_THROW(queue.push(5.5, 4), ContractViolation);
  EXPECT_EQ(queue.size(), 1u);  // a rejected push queues nothing
  EXPECT_EQ(queue.pop(PopsFirst{&costs}).key, 7.0);
  EXPECT_TRUE(queue.empty());
  queue.clear();  // re-bases at 0
  queue.push(0.0, 5);
  EXPECT_EQ(queue.pop(PopsFirst{&costs}).id, 5u);
}

TEST(MonotoneQueue, RejectsNegativeAndNaNKeys) {
  MonotoneQueue queue;
  EXPECT_THROW(queue.push(-1.0, 0), ContractViolation);
  EXPECT_THROW(queue.push(-0.0, 0), ContractViolation);
  EXPECT_THROW(queue.push(std::numeric_limits<double>::quiet_NaN(), 0),
               ContractViolation);
  EXPECT_TRUE(queue.empty());
  queue.push(std::numeric_limits<double>::infinity(), 1);
  queue.push(std::numeric_limits<double>::denorm_min(), 2);
  const std::vector<Criteria> costs(3);
  EXPECT_EQ(queue.pop(PopsFirst{&costs}).id, 2u);
  EXPECT_EQ(queue.pop(PopsFirst{&costs}).id, 1u);
}

TEST(MonotoneQueue, ClearKeepsCapacity) {
  MonotoneQueue queue;
  for (std::uint32_t i = 0; i < 100; ++i) queue.push(i * 1.5, i);
  const std::size_t bytes = queue.capacity_bytes();
  EXPECT_GE(bytes, 100 * sizeof(MonotoneQueue::Entry));
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.capacity_bytes(), bytes);
}

}  // namespace
}  // namespace sunchase::core::detail

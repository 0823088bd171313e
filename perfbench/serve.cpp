// publish-churn: an in-process RouteService behind a real HttpServer on
// the 10×10 city `sunchase_cli serve` builds by default, driven over
// loopback sockets by an open-loop generator (seeded Poisson /plan
// arrivals; every 8th request also a 4-query /batch, every 3rd answered
// plan replayed through /explain), plus a crowd-fold POST /world/publish
// at a fixed interval.
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "sunchase/common/rng.h"
#include "sunchase/core/planner.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/profiler.h"
#include "sunchase/serve/client.h"
#include "sunchase/serve/http.h"
#include "sunchase/serve/json.h"
#include "sunchase/serve/server.h"
#include "sunchase/serve/service.h"

namespace perfbench {

using namespace sunchase;

namespace {

/// Client connections that send /plan; one more carries publishes, so
/// the process never uses more than four client threads and connections.
constexpr std::size_t kPlanConnections = 3;
/// A /plan slower than this (from its due time) misses the limit.
constexpr double kLimitMs = 20.0;
/// The offered /plan rate. It is not taken from a deployment: it is a
/// sixteenth to an eighth of the capacity the closed-loop phase measured
/// (3200–6300 req/s on one CPU of a shared 4-vCPU virtual machine, see
/// perfbench/README.md), so the server is loaded but has headroom for
/// the publishes and their cold refills.
constexpr double kBaseRate = 400.0;
/// Requests of the closed-loop phase that measures throughput_ops.
constexpr std::size_t kClosedLoopRequests = 30000;
/// Interval between publishes, and crowd reports per publish body. Not
/// taken from a deployment either (unverified): a compressed cadence
/// that gives a run some sixty publishes for publish_latency_ms and
/// keeps a share of /plan answers on freshly published, cold worlds.
constexpr double kPublishIntervalS = 0.25;
constexpr std::size_t kFoldReports = 64;
/// Complete set-ups per run: each takes about 0.1 s, so a few host
/// stalls move a single one by half.
constexpr int kSetups = 9;

const char* const kHost = "127.0.0.1";

struct Query {
  roadnet::NodeId origin = 0;
  roadnet::NodeId destination = 0;
  TimeOfDay departure;
  std::string body;
};

/// Query `index` of the seed's stream: any two distinct intersections,
/// departing on the minute between 08:00 and 16:59.
Query make_query(std::uint64_t seed, std::uint64_t index,
                 const roadnet::GridCity& city) {
  Rng rng(derive_seed(seed, 2, index));
  const int n = city.options().rows;
  Query q;
  for (;;) {
    q.origin = city.node_at(static_cast<int>(rng.uniform_int(0, n - 1)),
                            static_cast<int>(rng.uniform_int(0, n - 1)));
    q.destination = city.node_at(static_cast<int>(rng.uniform_int(0, n - 1)),
                                 static_cast<int>(rng.uniform_int(0, n - 1)));
    if (q.origin != q.destination) break;
  }
  q.departure = TimeOfDay::hms(8 + static_cast<int>(rng.uniform_int(0, 8)),
                               static_cast<int>(rng.uniform_int(0, 59)));
  q.body = "{\"origin\":" + std::to_string(q.origin) +
           ",\"destination\":" + std::to_string(q.destination) +
           ",\"departure\":\"" + q.departure.to_string() + "\"}";
  return q;
}

std::string batch_body(const std::vector<Query>& queries, std::size_t first) {
  std::string body = "{\"queries\":[";
  for (std::size_t b = 0; b < 4; ++b) {
    if (b != 0) body += ',';
    body += queries[(first + b) % queries.size()].body;
  }
  return body + "]}";
}

std::string trace_id(std::uint64_t seed, std::uint64_t index) {
  char id[33];
  std::snprintf(id, sizeof id, "%016" PRIx64 "%016" PRIx64, seed, index + 1);
  return id;
}

/// The route server as `sunchase_cli serve` runs it without
/// --world-dir: a WorldStore over the generated city, the default
/// RouteService (slot pricing) and HttpServer (4 workers). The store
/// keeps no journal: on the shared disks this was built on, one fsync
/// took 2 ms in one minute and 50 ms in the next, and even unsynced
/// snapshot writes swung by 4x, which no change to this program could
/// move. The traced run times the journal's layers on their own.
struct Rig {
  CityWorld city;
  core::WorldPtr initial;
  std::unique_ptr<core::WorldStore> store;
  std::unique_ptr<serve::RouteService> service;
  std::unique_ptr<serve::HttpServer> server;  ///< last: stops first
  std::uint16_t port = 0;
};

std::unique_ptr<Rig> start_rig(CityWorld city) {
  auto rig = std::make_unique<Rig>();
  rig->city = std::move(city);
  rig->initial = rig->city.world;
  rig->store = std::make_unique<core::WorldStore>(rig->initial);
  rig->service = std::make_unique<serve::RouteService>(*rig->store);
  rig->server = std::make_unique<serve::HttpServer>(*rig->service);
  rig->server->start();
  rig->port = rig->server->port();
  serve::HttpClient probe(kHost, rig->port);
  while (probe.get("/healthz").status != 200)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  return rig;
}

/// Thread-safe failure tally of one phase.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex mutex;
  std::string first;  ///< guarded by mutex

  void add(bool ok, const std::string& what) {
    attempted.fetch_add(1);
    if (ok) return;
    if (failed.fetch_add(1) == 0) {
      const std::lock_guard<std::mutex> lock(mutex);
      first = what;
    }
  }
  void flush(Report& report) {
    report.ops(attempted.exchange(0), failed.exchange(0), first);
  }
};

/// One /plan of an open-loop phase; times in seconds from phase start.
struct PlanSample {
  double due = 0, pickup = 0, send = 0, done = 0;
  bool ok = false;
};

struct PhaseResult {
  std::vector<PlanSample> plans;
  std::vector<double> publish_s;
  double wall_s = 0.0;
  /// Process CPU less the client threads' and the KeepAwake threads'
  /// own: the server's.
  double cpu_s = 0.0;
  double client_cpu_s = 0.0;
  double batch_cpu_s = 0.0;
  /// Wall × the CPUs a /batch could use (its workers, but at most the
  /// one CPU the run is pinned to), summed over all /batch.
  double batch_capacity_s = 0.0;

  [[nodiscard]] std::vector<double> latency_ms() const {
    std::vector<double> out;
    out.reserve(plans.size());
    for (const PlanSample& s : plans) out.push_back((s.done - s.due) * 1e3);
    return out;
  }
  [[nodiscard]] std::size_t ok_count() const {
    return static_cast<std::size_t>(std::count_if(
        plans.begin(), plans.end(), [](const PlanSample& s) { return s.ok; }));
  }
  /// Completed plans per second, from the first due time to the last
  /// answer.
  [[nodiscard]] double completed_rate() const {
    if (plans.empty()) return 0.0;
    double end = 0.0;
    for (const PlanSample& s : plans) end = std::max(end, s.done);
    return end > plans.front().due
               ? static_cast<double>(ok_count()) / (end - plans.front().due)
               : 0.0;
  }
  /// Realised offered rate and the rate the generator actually sent.
  [[nodiscard]] std::pair<double, double> offered_and_sent() const {
    if (plans.size() < 2) return {0.0, 0.0};
    double first_send = plans.front().send, last_send = first_send;
    for (const PlanSample& s : plans) {
      first_send = std::min(first_send, s.send);
      last_send = std::max(last_send, s.send);
    }
    const double n = static_cast<double>(plans.size() - 1);
    return {n / (plans.back().due - plans.front().due),
            n / (last_send - first_send)};
  }
  /// Mean wait for one of the generator's own connections to come free,
  /// and the generator's mean oversleep when it was idle at the due time.
  [[nodiscard]] std::pair<double, double> conn_wait_and_late_ms() const {
    double queue = 0.0, late = 0.0;
    std::size_t idle = 0;
    for (const PlanSample& s : plans) {
      if (s.pickup > s.due) {
        queue += s.pickup - s.due;
      } else {
        late += s.send - s.due;
        ++idle;
      }
    }
    return {plans.empty() ? 0.0 : queue / static_cast<double>(plans.size()) * 1e3,
            idle == 0 ? 0.0 : late / static_cast<double>(idle) * 1e3};
  }
  /// A backlog that grew shows as the step's last tenth of requests
  /// waiting for a connection far longer than the latency limit allows.
  [[nodiscard]] bool backlog_flat() const {
    const std::size_t tail = std::max<std::size_t>(1, plans.size() / 10);
    std::vector<double> waits;
    for (std::size_t i = plans.size() - tail; i < plans.size(); ++i)
      waits.push_back(std::max(0.0, plans[i].pickup - plans[i].due) * 1e3);
    return median(waits) <= kLimitMs / 2;
  }
};

struct PhaseConfig {
  double rate = kBaseRate;  ///< 0: a closed loop, every request due at once
  std::size_t count = 0;
  std::uint64_t first_index = 0;  ///< stream index of the first request
  bool publishes = false;         ///< run the publisher too
  SpanLog* spans = nullptr;       ///< record per-request spans live
};

/// Pins the process, and every thread it starts from then on, to the
/// first CPU it may run on. On a shared VM an idle virtual CPU halts,
/// and waking a server worker or client thread there waits for the
/// host. Splitting clients and server over two or four
/// CPUs, each kept awake, put the /plan p99 at 1–12 ms and its five-run
/// spread at 65–200%, so the clients, the server and their hand-offs
/// share one CPU, and the latencies include time-slicing against the
/// clients' own work.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
}

/// Keeps the pinned CPU from going idle for its lifetime. On a shared
/// VM a halted virtual CPU is rescheduled by the host milliseconds late
/// at the 99th percentile, and every sleeping client or server thread
/// would wake that late. The thread spins at SCHED_IDLE priority, so it
/// runs only when nothing else is runnable and never takes the CPU from
/// the server or the clients.
class KeepAwake {
 public:
  KeepAwake() : thread_([this] { spin(); }) {
    pthread_getcpuclockid(thread_.native_handle(), &clock_);
  }
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  /// CPU the spinning thread has used so far.
  [[nodiscard]] double cpu_seconds() const {
    timespec ts{};
    clock_gettime(clock_, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
  }

 private:
  void spin() {
    const sched_param idle{};
    pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
    while (!stop_.load(std::memory_order_relaxed)) {
    }
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< after stop_, which it reads
  clockid_t clock_{};
};

/// Runs one phase: `count` seeded /plan requests spread over the plan
/// connections. In an open loop their due times follow a Poisson process
/// at `rate` and each request is timed from its due time; in a closed
/// loop each connection sends its next request as soon as it is free.
PhaseResult run_phase(const Rig& rig, std::uint64_t seed,
                      const PhaseConfig& config, const KeepAwake& awake,
                      Tally& tally) {
  const roadnet::GridCity& city = *rig.city.city;
  std::vector<Query> queries;
  queries.reserve(config.count);
  for (std::size_t k = 0; k < config.count; ++k)
    queries.push_back(make_query(seed, config.first_index + k, city));
  std::vector<double> due(config.count);
  Rng arrivals(derive_seed(seed, 3, config.first_index));
  if (config.rate > 0.0)
    for (std::size_t k = 1; k < config.count; ++k)
      due[k] = due[k - 1] + arrivals.exponential(1.0 / config.rate);

  PhaseResult result;
  result.plans.resize(config.count);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> plans_done{false};
  std::mutex batch_mutex;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto since = [&](Clock::time_point t) {
    return seconds_between(start, t);
  };
  const double cpu0 = process_cpu_seconds() - awake.cpu_seconds();

  const auto plan_worker = [&] {
    serve::HttpClient client(kHost, rig.port);
    std::uint64_t last_version = 0;
    double batch_cpu = 0.0, batch_capacity = 0.0;
    const double client_cpu0 = obs::thread_cpu_seconds();
    for (;;) {
      const std::size_t k = next.fetch_add(1);
      if (k >= config.count) break;
      const std::uint64_t index = config.first_index + k;
      PlanSample& sample = result.plans[k];
      sample.due = due[k];
      const Clock::time_point due_at =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[k]));
      const Clock::time_point pickup = Clock::now();
      if (pickup < due_at) std::this_thread::sleep_until(due_at);
      const Clock::time_point send = Clock::now();
      const std::string id = trace_id(seed, index);
      std::string why;
      std::uint64_t query_id = 0;
      try {
        const serve::HttpResponse response = client.request(
            "POST", "/plan", queries[k].body,
            {{"traceparent", "00-" + id + "-00000000000000a1-01"}});
        const Clock::time_point done = Clock::now();
        sample.pickup = since(pickup);
        sample.send = since(send);
        sample.done = since(done);
        if (config.spans != nullptr) {
          const auto op = static_cast<std::uint32_t>(k);
          const int root = config.spans->add("client.plan", op, -1, due_at, done);
          config.spans->add("client.wait", op, root, due_at, send);
          config.spans->add("client.exchange", op, root, send, done);
        }
        const std::string* echoed = response.header("x-sunchase-request-id");
        if (response.status != 200) {
          why = "/plan answered " + std::to_string(response.status);
        } else if (echoed == nullptr || *echoed != id) {
          why = "/plan did not echo the request id";
        } else {
          const serve::JsonValue doc = serve::JsonValue::parse(response.body);
          const auto version =
              static_cast<std::uint64_t>(doc.number_or("world_version", 0));
          query_id = static_cast<std::uint64_t>(doc.number_or("query_id", 0));
          const serve::JsonValue* candidates = doc.find("candidates");
          if (version < last_version)
            why = "world version went backwards";
          else if (candidates == nullptr || !candidates->is_array() ||
                   candidates->as_array().empty())
            why = "/plan returned no candidates";
          last_version = version;
        }
      } catch (const std::exception& e) {
        const Clock::time_point done = Clock::now();
        sample.pickup = since(pickup);
        sample.send = since(send);
        sample.done = since(done);
        why = std::string("/plan: ") + e.what();
      }
      sample.ok = why.empty();
      tally.add(sample.ok, why);

      try {
        if (sample.ok && index % 3 == 0) {
          const serve::HttpResponse explain =
              client.get("/explain/" + std::to_string(query_id));
          bool ok = false;
          if (explain.status == 200) {
            const serve::JsonValue doc = serve::JsonValue::parse(explain.body);
            const serve::JsonValue* c = doc.find("conserves");
            ok = c != nullptr && c->is_bool() && c->as_bool();
          }
          tally.add(ok, "/explain replay did not conserve");
        }
        if (index % 8 == 0) {
          const serve::HttpResponse batch =
              client.post("/batch", batch_body(queries, k));
          bool ok = batch.status == 200;
          if (ok) {
            const serve::JsonValue doc = serve::JsonValue::parse(batch.body);
            const serve::JsonValue* rows = doc.find("results");
            const serve::JsonValue* stats = doc.find("stats");
            ok = rows != nullptr && stats != nullptr &&
                 rows->as_array().size() == 4;
            for (std::size_t r = 0; ok && r < 4; ++r)
              ok = rows->as_array()[r].string_or("status", "") == "ok";
            if (ok) {
              batch_cpu += stats->number_or("cpu_seconds", 0);
              batch_capacity +=
                  stats->number_or("wall_seconds", 0) *
                  std::min(stats->number_or("workers", 0), 1.0);
            }
          }
          tally.add(ok, "/batch failed");
        }
      } catch (const std::exception& e) {
        tally.add(false, std::string("/explain or /batch: ") + e.what());
      }
    }
    const std::lock_guard<std::mutex> lock(batch_mutex);
    result.batch_cpu_s += batch_cpu;
    result.batch_capacity_s += batch_capacity;
    result.client_cpu_s += obs::thread_cpu_seconds() - client_cpu0;
  };

  const auto publisher = [&] {
    serve::HttpClient admin(kHost, rig.port);
    std::uint64_t last_version = rig.store->version();
    for (std::uint64_t p = 0; !plans_done.load(); ++p) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          kPublishIntervalS * static_cast<double>(p + 1))));
      if (plans_done.load()) break;
      const std::string body = crowd_fold_body(
          derive_seed(seed, 4, config.first_index + p),
          rig.initial->graph().edge_count(), kFoldReports);
      const Clock::time_point t0 = Clock::now();
      try {
        const serve::HttpResponse response =
            admin.post("/world/publish", body);
        result.publish_s.push_back(seconds_between(t0, Clock::now()));
        const auto version = static_cast<std::uint64_t>(
            response.status == 200
                ? serve::JsonValue::parse(response.body)
                      .number_or("world_version", 0)
                : 0);
        tally.add(response.status == 200 && version > last_version,
                  "/world/publish failed or did not advance the version");
        last_version = std::max(last_version, version);
      } catch (const std::exception& e) {
        tally.add(false, std::string("/world/publish: ") + e.what());
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kPlanConnections; ++c)
    threads.emplace_back(plan_worker);
  std::thread admin;
  if (config.publishes) admin = std::thread(publisher);
  for (std::thread& t : threads) t.join();
  plans_done.store(true);
  if (admin.joinable()) admin.join();
  result.wall_s = seconds_between(start, Clock::now());
  result.cpu_s = process_cpu_seconds() - awake.cpu_seconds() - cpu0 -
                 result.client_cpu_s;
  return result;
}

double histogram_delta_sum(const obs::MetricsSnapshot& before,
                           const obs::MetricsSnapshot& after,
                           const std::string& key, std::uint64_t* count) {
  const auto a = after.histograms.find(key);
  if (a == after.histograms.end()) return 0.0;
  const auto b = before.histograms.find(key);
  const double sum0 = b == before.histograms.end() ? 0.0 : b->second.sum;
  const std::uint64_t n0 = b == before.histograms.end() ? 0 : b->second.count;
  if (count != nullptr) *count = a->second.count - n0;
  return a->second.sum - sum0;
}

/// p-quantile of the observations a histogram gained between snapshots.
double histogram_delta_quantile(const obs::MetricsSnapshot& before,
                                const obs::MetricsSnapshot& after,
                                const std::string& key, double q) {
  const auto a = after.histograms.find(key);
  if (a == after.histograms.end()) return 0.0;
  obs::HistogramSnapshot delta = a->second;
  const auto b = before.histograms.find(key);
  if (b != before.histograms.end()) {
    for (std::size_t i = 0; i < delta.buckets.size(); ++i)
      delta.buckets[i] -= b->second.buckets[i];
    delta.count -= b->second.count;
    delta.sum -= b->second.sum;
  }
  delta.min = 0.0;
  return delta.quantile(q);
}

/// Raw request bytes, as a client would put them on the wire.
std::string request_bytes(const char* method, const std::string& target,
                          const std::string& body, const std::string& id) {
  std::string out = std::string(method) + " " + target + " HTTP/1.1\r\n";
  out += "Host: 127.0.0.1\r\n";
  out += "traceparent: 00-" + id + "-00000000000000a1-01\r\n";
  if (!body.empty()) out += "Content-Type: application/json\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  return out + body;
}

struct ReplayCounts {
  PlanLayerCounts plans;
  /// Summed over the replayed publishes. World::create and
  /// save_world_snapshot are timed on their own, outside the span tree:
  /// rewriting one probe file reads slower than the journal's fresh
  /// files, so as children of the publish they would over-attribute it.
  PublishTiming publish;
  double publishes = 0;
};

/// The traced replay: the seed's stream on one thread through the
/// server's layers without a socket, each layer timed from here, then
/// the layers under /plan run again on the same query to split it.
ReplayCounts replay(Rig& rig, std::uint64_t seed, std::uint64_t first_index,
                    double seconds, bool publishes, const std::string& scratch,
                    SpanLog& spans, Tally& tally) {
  ReplayCounts counts;
  const roadnet::GridCity& city = *rig.city.city;
  core::PlannerOptions options;
  options.mlc = rig.service->options().mlc;
  options.selection = rig.service->options().selection;
  // Keeps no journal, like the rig's store; save_world_snapshot is timed
  // on its own (see ReplayCounts).
  core::WorldStore scratch_store(rig.store->current());

  const auto exchange = [&](std::uint32_t op, const char* method,
                            const std::string& target, const std::string& body,
                            const char* handle_name, int& handle_span,
                            std::string& response_body) {
    const std::string id = trace_id(seed, first_index + op);
    const std::string bytes = request_bytes(method, target, body, id);
    const Clock::time_point t0 = Clock::now();
    serve::HttpParser parser;
    parser.feed(bytes);
    const Clock::time_point t1 = Clock::now();
    const serve::HttpResponse response = rig.service->handle(parser.message());
    const Clock::time_point t2 = Clock::now();
    const std::string wire = response.to_bytes(false);
    const Clock::time_point t3 = Clock::now();
    const int root = spans.add("op", op, -1, t0, t3);
    spans.add("http.parse", op, root, t0, t1);
    handle_span = spans.add(handle_name, op, root, t1, t2);
    spans.add("http.render", op, root, t2, t3);
    const std::string* echoed = response.header("x-sunchase-request-id");
    tally.add(parser.state() == serve::HttpParser::State::Complete &&
                  response.status == 200 && echoed != nullptr && *echoed == id &&
                  !wire.empty(),
              std::string(target) + " failed in the replay");
    response_body = response.body;
  };
  const auto json_span = [&](std::uint32_t op, int parent,
                             const std::string& body) {
    const Clock::time_point t0 = Clock::now();
    (void)serve::JsonValue::parse(body);
    spans.add("json.parse", op, parent, t0, Clock::now());
  };

  std::vector<Query> recent;
  const Clock::time_point start = Clock::now();
  for (std::uint32_t k = 0;
       k == 0 || seconds_between(start, Clock::now()) < seconds; ++k) {
    const std::uint64_t index = first_index + k;
    const Query q = make_query(seed, index, city);
    recent.push_back(q);
    int handle = -1;
    std::string body;
    exchange(k, "POST", "/plan", q.body, "service.plan", handle, body);
    json_span(k, handle, q.body);
    const core::WorldPtr world = rig.store->current();
    const Clock::time_point t0 = Clock::now();
    try {
      (void)core::SunChasePlanner(world, options)
          .plan(q.origin, q.destination, q.departure);
      const int plan = spans.add("planner.plan", k, handle, t0, Clock::now());
      split_plan(spans, k, plan, world, options, q.origin, q.destination,
                 q.departure, counts.plans);
    } catch (const std::exception& e) {
      tally.add(false, std::string("replayed plan: ") + e.what());
    }

    if (index % 3 == 0) {
      const auto id = static_cast<std::uint64_t>(
          serve::JsonValue::parse(body).number_or("query_id", 0));
      std::string ledger;
      exchange(k, "GET", "/explain/" + std::to_string(id), "",
               "service.explain", handle, ledger);
    }
    if (index % 8 == 0) {
      const std::string bundle = batch_body(recent, recent.size() - 1);
      std::string out;
      exchange(k, "POST", "/batch", bundle, "service.batch", handle, out);
      json_span(k, handle, bundle);
    }
    if (publishes && k % 16 == 15) {
      const std::string fold = crowd_fold_body(
          derive_seed(seed, 4, index),
          rig.initial->graph().edge_count(), kFoldReports);
      std::string out;
      exchange(k, "POST", "/world/publish", fold, "service.publish", handle,
               out);
      json_span(k, handle, fold);
      const PublishTiming t =
          time_publish_layers(scratch_store, scratch + "/probe.scsnap");
      const Clock::time_point now = Clock::now();
      const auto back = [&](double s) {
        return now - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s));
      };
      spans.add("world_store.publish", k, handle, back(t.store_publish_s),
                now);
      counts.publish.world_create_s += t.world_create_s;
      counts.publish.snapshot_write_s += t.snapshot_write_s;
      counts.publishes += 1;
    }
    if (recent.size() > 8) recent.erase(recent.begin());
  }
  return counts;
}

/// Consecutive phases over one seed's request stream: each phase takes
/// the next stream indices, so no request repeats.
class Stream {
 public:
  Stream(const Rig& rig, std::uint64_t seed, const KeepAwake& awake,
         Tally& tally)
      : rig_(rig), seed_(seed), awake_(awake), tally_(tally) {}

  /// An open loop at `rate` for about `seconds`.
  PhaseResult phase(double rate, double seconds, bool publishes,
                    SpanLog* spans = nullptr) {
    return run(rate,
               std::max<std::size_t>(
                   40, static_cast<std::size_t>(std::lround(rate * seconds))),
               publishes, spans);
  }
  /// A closed loop of `count` requests, with publishes.
  PhaseResult closed(std::size_t count) {
    return run(0.0, count, true, nullptr);
  }
  /// Reserves `n` stream indices; returns the first.
  std::uint64_t take(std::uint64_t n = 1) {
    const std::uint64_t first = next_;
    next_ += n;
    return first;
  }

 private:
  PhaseResult run(double rate, std::size_t count, bool publishes,
                  SpanLog* spans) {
    PhaseConfig config;
    config.rate = rate;
    config.count = count;
    config.first_index = take(config.count);
    config.publishes = publishes;
    config.spans = spans;
    return run_phase(rig_, seed_, config, awake_, tally_);
  }

  const Rig& rig_;
  std::uint64_t seed_;
  const KeepAwake& awake_;
  Tally& tally_;
  std::uint64_t next_ = 0;
};

/// The traced run: per-layer metrics.
void measure_layers(Rig& rig, const SetupTimes& setup, Stream& stream,
                    const Args& args, const std::string& work, Tally& tally,
                    Report& report) {
  // The same base-rate stream twice, spans on and off, alternating
  // which goes first by seed; counters are read around the traced one.
  SpanLog client_spans;
  PhaseResult traced, untraced;
  obs::MetricsSnapshot before, after;
  const auto run_traced = [&] {
    before = obs::Registry::global().snapshot();
    traced = stream.phase(kBaseRate, 0.2 * args.seconds, true, &client_spans);
    after = obs::Registry::global().snapshot();
  };
  if (args.seed % 2 == 0) run_traced();
  untraced = stream.phase(kBaseRate, 0.2 * args.seconds, true);
  if (args.seed % 2 == 1) run_traced();

  // Serial exchanges on one connection: client round trip against the
  // server's own handling time for the same requests.
  const obs::MetricsSnapshot serial0 = obs::Registry::global().snapshot();
  std::vector<double> rtt;
  {
    serve::HttpClient client(kHost, rig.port);
    const Clock::time_point start = Clock::now();
    for (std::uint64_t k = 0;
         k < 20 || seconds_between(start, Clock::now()) < 0.1 * args.seconds;
         ++k) {
      const Query q = make_query(args.seed, stream.take(), *rig.city.city);
      const Clock::time_point t0 = Clock::now();
      const serve::HttpResponse r = client.post("/plan", q.body);
      rtt.push_back(seconds_between(t0, Clock::now()));
      tally.add(r.status == 200, "serial /plan failed");
    }
  }
  const obs::MetricsSnapshot serial1 = obs::Registry::global().snapshot();
  const std::string plan_key =
      obs::series_key("serve.latency_seconds", {{"endpoint", "/plan"}});
  std::uint64_t handled = 0;
  const double handle_sum =
      histogram_delta_sum(serial0, serial1, plan_key, &handled);
  const double overhead_ms =
      handled == 0 ? 0.0
                   : (mean(rtt) - handle_sum / static_cast<double>(handled)) *
                         1e3;

  SpanLog spans;
  const ReplayCounts counts = replay(rig, args.seed, stream.take(0),
                                        0.3 * args.seconds, true, work,
                                        spans, tally);
  tally.flush(report);

  // Where the /plan tail (latency_tail_ms's percentile) goes, from the
  // traced open-loop phase: each tail request's time splits into waiting
  // for one of the generator's connections (busy with an earlier
  // request), the generator sending late, and the exchange; the
  // exchange's percentile is compared with the server's own handling
  // time at that percentile over the same requests. The server's own
  // admission queue holds connections, not requests, and with four
  // keep-alive connections and four HTTP workers it never fills.
  const std::vector<double> lat = traced.latency_ms();
  const TailPercentile tail = tail_percentile(lat);
  const double q = tail.percentile / 100.0;
  double conn_share = 0.0, late_share = 0.0, tail_n = 0.0;
  std::vector<double> exchange_ms;
  for (const PlanSample& x : traced.plans) {
    exchange_ms.push_back((x.done - x.send) * 1e3);
    if ((x.done - x.due) * 1e3 < tail.value) continue;
    const double wait = std::max(0.0, x.pickup - x.due);
    conn_share += wait / (x.done - x.due);
    late_share += (x.send - x.due - wait) / (x.done - x.due);
    tail_n += 1;
  }
  conn_share = tail_n > 0 ? conn_share / tail_n : 0.0;
  late_share = tail_n > 0 ? late_share / tail_n : 0.0;
  const double exchange_share = 1.0 - conn_share - late_share;
  const double exchange_tail = quantile(exchange_ms, q);
  const double handling_tail =
      histogram_delta_quantile(before, after, plan_key, q) * 1e3;
  const double handling_share =
      exchange_tail > 0 ? std::min(1.0, handling_tail / exchange_tail) : 0.0;
  const char* verdict =
      conn_share >= std::max(late_share, exchange_share) ? "connection wait"
      : late_share >= exchange_share ? "the generator sending late"
      : handling_share >= 0.5        ? "handling"
                                     : "the write and transport";
  std::printf("/plan tail: p%g %.3f ms over %zu requests. Tail requests "
              "spent %.0f%% waiting for a busy connection, %.0f%% on the "
              "generator sending late and %.0f%% in the exchange (exchange "
              "p%g %.3f ms, server handling p%g %.3f ms). The tail is "
              "mostly %s.\n",
              tail.percentile, tail.value, lat.size(), conn_share * 100.0,
              late_share * 100.0, exchange_share * 100.0, tail.percentile,
              exchange_tail, tail.percentile, handling_tail, verdict);
  const auto [offered, sent] = traced.offered_and_sent();
  const auto [conn_wait_ms, late_ms] = traced.conn_wait_and_late_ms();
  std::printf("open loop: offered %.1f req/s (realised %.1f), sent %.1f "
              "req/s, generator late by %.4f ms on average\n",
              kBaseRate, offered, sent, late_ms);
  client_spans.print_table("client view of the traced open-loop phase");
  spans.print_table("traced replay (one thread, no socket)");
  spans.write(args.work_dir + "/spans-" + args.workload + "-" +
              std::to_string(args.seed) + ".json");

  const double conservation = spans.over_attributed_share();
  std::printf("conservation: layer self times sum to the replayed "
              "operations' wall time with %.2f%% over-attributed "
              "(tolerance %.0f%%); mlc.search is %.1f%% of plan time and "
              "%.1f%% of operation time\n",
              conservation * 100.0, kConservationTolerance * 100.0,
              100.0 * spans.total_s("mlc.search") /
                  std::max(1e-12, spans.total_s("planner.plan")),
              100.0 * spans.total_s("mlc.search") /
                  std::max(1e-12, spans.root_total_s()));
  if (conservation > kConservationTolerance)
    report.check_failed("traced layer self times do not add up");

  const auto per_call_us = [&](const char* name) {
    const SpanLog::Layer l = spans.layer(name);
    return l.count == 0 ? 0.0 : l.total_s / static_cast<double>(l.count) * 1e6;
  };
  const double hits = static_cast<double>(
      counter_delta(before, after, "slotcache.hits"));
  const double misses = static_cast<double>(
      counter_delta(before, after, "slotcache.misses"));
  std::uint64_t fills = 0;
  const double fill_s =
      histogram_delta_sum(before, after, "slotcache.fill_seconds", &fills);
  std::uint64_t batch_waits = 0;
  const double batch_wait_s = histogram_delta_sum(
      before, after, "batch.queue_wait_seconds", &batch_waits);
  const double traced_plans = static_cast<double>(traced.plans.size());

  report_plan_layers(report, spans, counts.plans);
  report.metric("solar.evaluate_calls_per_op",
                static_cast<double>(
                    counter_delta(before, after, "solar.evaluate_calls")) /
                    std::max(1.0, traced_plans),
                "calls/op");
  report.metric("slotcache.hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report.metric("slotcache.fills", static_cast<double>(fills), "count");
  report.metric("slotcache.fill_ms", fill_s * 1e3, "ms");
  report.metric("batch.queue_wait_ms",
                batch_waits == 0
                    ? 0.0
                    : batch_wait_s / static_cast<double>(batch_waits) * 1e3,
                "ms");
  report.metric("batch.cpu_utilization",
                traced.batch_capacity_s > 0
                    ? traced.batch_cpu_s / traced.batch_capacity_s
                    : 0.0,
                "ratio");
  const double publishes = std::max(1.0, counts.publishes);
  report.metric("world.create_ms",
                counts.publish.world_create_s / publishes * 1e3, "ms");
  report.metric("world_store.publish_ms",
                per_call_us("world_store.publish") / 1e3, "ms");
  report.metric("snapshot.write_ms",
                counts.publish.snapshot_write_s / publishes * 1e3, "ms");
  report.metric("http.parse_us", per_call_us("http.parse"), "us");
  report.metric("http.render_us", per_call_us("http.render"), "us");
  report.metric("json.parse_us", per_call_us("json.parse"), "us");
  report.metric("service.handle_ms", per_call_us("service.plan") / 1e3,
                "ms");
  report.metric("service.self_ms",
                spans.layer("service.plan").self_s /
                    std::max(1.0, counts.plans.plans) * 1e3,
                "ms");
  report.metric("server.overhead_ms", overhead_ms, "ms");
  report.metric("loadgen.conn_wait_ms", conn_wait_ms, "ms");
  report.metric("tail.conn_wait_share", conn_share, "ratio");
  report.metric("tail.handling_share", handling_share, "ratio");
  report.metric("setup.citygen_s", setup.citygen_s, "s");
  report.metric("setup.shading_s", setup.shading_s, "s");
  report.metric("setup.world_s", setup.world_s, "s");
  report.metric("loadgen.late_ms", late_ms, "ms");
  report.metric("loadgen.sent_ratio", offered > 0 ? sent / offered : 0.0,
                "ratio");
  const double untraced_p50 = median(untraced.latency_ms());
  report.metric("obs.trace_overhead_ratio",
                untraced_p50 > 0 ? median(lat) / untraced_p50 : 0.0, "ratio");
  report.metric("trace.conservation_error", conservation, "ratio");
}

/// The untraced run: end-to-end metrics.
void measure_end_to_end(const Rig& rig, const SetupTimes& setup,
                        Stream& stream, const Args& args, Tally& tally,
                        Report& report) {
  // Capacity first: the plan connections send back to back.
  const PhaseResult closed =
      stream.closed(args.tiny ? 200 : kClosedLoopRequests);
  const PhaseResult base = stream.phase(kBaseRate, 0.7 * args.seconds, true);
  tally.flush(report);
  std::vector<double> publish_ms;
  for (const double p : base.publish_s) publish_ms.push_back(p * 1e3);

  const std::vector<double> lat = base.latency_ms();
  const TailPercentile tail = tail_percentile(lat);
  // Plans per second that met the limit at the base rate, counted only
  // while the backlog stayed flat. Far below capacity this equals the
  // offered rate: it guards against a collapse, not a capacity change.
  const auto met = static_cast<double>(std::count_if(
      base.plans.begin(), base.plans.end(), [](const PlanSample& x) {
        return x.ok && (x.done - x.due) * 1e3 <= kLimitMs;
      }));
  const double slo_rate = base.backlog_flat() ? met / base.wall_s : 0.0;
  const auto [offered, sent] = base.offered_and_sent();
  const auto [conn_wait_ms, late_ms] = base.conn_wait_and_late_ms();
  const double capacity = closed.completed_rate();
  std::printf("publish-churn: %dx%d city, seed %" PRIu64 ", closed-loop "
              "capacity %.1f req/s over %zu requests; open loop at %.0f "
              "req/s (%.1f%% of capacity; realised %.1f, sent %.1f, "
              "generator late %.4f ms, connection wait %.4f ms); %zu /plan "
              "samples, tail = p%g; %zu publishes\n",
              rig.city.city->options().rows, rig.city.city->options().cols,
              args.seed, capacity, closed.plans.size(), kBaseRate,
              100.0 * kBaseRate / capacity, offered, sent, late_ms,
              conn_wait_ms, tail.samples, tail.percentile, publish_ms.size());

  std::printf("/plan latency from due time (ms): p50 %.4f, p90 %.4f, p95 "
              "%.4f, p98 %.4f, p99 %.4f, p99.9 %.4f\n",
              quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.95),
              quantile(lat, 0.98), quantile(lat, 0.99), quantile(lat, 0.999));

  report.metric("setup_s", setup.setup_s, "s");
  report.metric("latency_p50_ms", median(lat), "ms");
  report.metric("latency_tail_ms", tail.value, "ms");
  report.metric("throughput_ops", capacity, "1/s");
  report.metric("slo_rate_qps", slo_rate, "1/s");
  report.metric("cpu_ms_per_op",
                base.cpu_s / static_cast<double>(std::max<std::size_t>(
                                 1, base.ok_count())) *
                    1e3,
                "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.metric("success_ratio",
                1.0 - static_cast<double>(report.failed()) /
                          static_cast<double>(report.attempted()),
                "ratio");
  report.metric("publish_latency_ms", median(publish_ms), "ms");
}

}  // namespace

void run_churn(const Args& args, Report& report) {
  pin_to_one_cpu();
  const std::string work =
      args.work_dir + "/churn-" + std::to_string(::getpid());
  std::filesystem::create_directories(work);
  Tally tally;
  SetupTimes setup;
  std::unique_ptr<Rig> rig = set_up(args.tiny ? 5 : 10, kSetups, start_rig, setup);
  const KeepAwake awake;
  Stream stream(*rig, args.seed, awake, tally);
  // Warm-up: slot-cache columns for the day fill, connections open.
  (void)stream.phase(kBaseRate, 0.05 * args.seconds, false);
  if (args.trace)
    measure_layers(*rig, setup, stream, args, work, tally, report);
  else
    measure_end_to_end(*rig, setup, stream, args, tally, report);
  rig.reset();
  std::filesystem::remove_all(work);
}

}  // namespace perfbench

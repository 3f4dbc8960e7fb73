// Fixed-work benchmark of the DDUp engine, driven only through its public
// API. One process runs one workload from one seed:
//
//   ddup_perfbench --workload <drift_stream|mixed> --seed <n> --seconds <s>
//                  --trace <0|1> --workdir <dir>
//
// A run is a fixed number of whole rounds: one warm-up round plus the
// workload's measured rounds. Every round does the same work: generate the
// inputs, build and train the tables, feed one fixed drift
// stream, flush, serve, score and checkpoint. Metrics pool the samples of
// the measured rounds. --seconds is only a guard: a run that has not
// finished its rounds after twice that time stops and reports
// "correct": false. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// README.md in this directory describes the workloads and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model_factory.h"
#include "api/router.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/detector_zoo.h"
#include "core/interfaces.h"
#include "datagen/scenarios.h"
#include "datagen/star_schema.h"
#include "exec/estimator_engine.h"
#include "io/checkpoint.h"
#include "io/codec.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/pool.h"
#include "perfbench/oracle.h"
#include "perfbench/trace.h"
#include "storage/packed.h"
#include "storage/sampling.h"
#include "workload/join_query.h"
#include "workload/query.h"

namespace perfbench {
namespace {

using ddup::Rng;
using ddup::Status;
using ddup::StatusOr;
using ddup::api::Engine;
using ddup::api::EngineConfig;
using ddup::api::EstimateRequest;
using ddup::storage::Table;
using ddup::workload::CompareOp;
using ddup::workload::JoinQuery;
using ddup::workload::Predicate;
using ddup::workload::Query;

// ---------------------------------------------------------------------------
// Inputs. Every size is fixed, so every round of every run does the same
// work. The data of round r is the same in every run; --seed changes the
// queries and the request order.
// ---------------------------------------------------------------------------
// The engine's default flush threshold; one scenario step is one micro-batch.
const int64_t kMicroBatchRows = EngineConfig().micro_batch_rows;
const int64_t kStepRows = kMicroBatchRows;  // rows per scenario time step
constexpr int64_t kBaseRows = 3000;      // census-like base table
constexpr int kSteps = 8;                // time steps in the stream
constexpr int kOnset = 2;                // first drifted step
constexpr int64_t kChunkRows = 128;      // rows per Ingest call
constexpr int64_t kFactRows = 2000;      // star-schema fact rows
constexpr int kScoreQueries = 1024;      // scored queries per serving table
constexpr int kScoreJoins = 512;         // scored join queries
constexpr int kServePool = 512;          // serving queries per table
constexpr int kServeRequests = 6000;     // per client, quiescent serving
constexpr int kServeClients = 2;
constexpr int kCheckpointRepeats = 5;

// The census tables, one per model family, all fed the stream. The first
// kServingFamilies serve estimates (mdn: AQP COUNT, spn and darn:
// cardinality); tvae and gbdt serve none.
struct Family {
  const char* kind;
  const char* table;
  bool aqp;
};
constexpr Family kFamilies[] = {
    {"mdn", "census_mdn", true},    {"spn", "census_spn", false},
    {"darn", "census_darn", false}, {"tvae", "census_tvae", false},
    {"gbdt", "census_gbdt", false},
};
constexpr int kNumFamilies = static_cast<int>(std::size(kFamilies));
constexpr int kServingFamilies = 3;
constexpr const char* kFact = "title";

// Measured rounds after the warm-up round. The pooled update p90 falls
// among the darn distills; with four rounds it lies two to three samples
// inside that group rather than on the gap below it (README.md).
constexpr int kMeasuredRounds = 4;
// The traced run measures this many pairs of a traced and an untraced
// round on the same inputs, after the warm-up round.
constexpr int kTracePairs = 3;

struct WorkloadSpec {
  int update_workers = 0;   // 0 = synchronous engine
  int pool_threads = 1;     // DDUP_THREADS for ThreadPool::Global()
};

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  // Busy threads on a 4-core host: drift_stream runs one client plus one
  // extra bootstrap thread of ThreadPool::Global() while ingesting, and two
  // clients while serving; mixed runs one ingest client, two estimate
  // clients and one update worker, whose bootstrap loop runs on the worker
  // thread itself.
  if (name == "drift_stream") {
    *spec = {0, 2};
    return true;
  }
  if (name == "mixed") {
    *spec = {1, 1};
    return true;
  }
  return false;
}

// Every model and every update-loop setting keeps the library's default;
// the options below are only those a model needs (the MDN's AQP columns,
// the GBDT's target) and the seed.
ddup::api::ModelOptions OptionsFor(const std::string& kind, uint64_t seed) {
  const std::string s = std::to_string(seed);
  if (kind == "mdn") {
    return {{"categorical", "education"}, {"numeric", "hours_per_week"}, {"seed", s}};
  }
  if (kind == "gbdt") return {{"target", "income"}};
  return {{"seed", s}};
}

// The synchronous engine is EngineConfig's default. The asynchronous one
// bounds each table's backlog, since "block" admission stalls an Ingest
// only when a bound is set (0 = unbounded).
EngineConfig MakeConfig(uint64_t seed, int update_workers) {
  EngineConfig config;
  config.update_workers = update_workers;
  if (update_workers > 0) {
    config.max_backlog_batches = 2;
    config.admission_policy = "block";
  }
  config.controller.seed = seed;
  return config;
}

// The generated inputs of one seed.
struct Inputs {
  ddup::datagen::DriftStream stream;
  ddup::datagen::StarDataset star;
};

Inputs MakeInputs(uint64_t seed) {
  ddup::datagen::ScenarioConfig sc;
  sc.scenario = "sudden";
  sc.dataset = "census";
  sc.base_rows = kBaseRows;
  sc.batch_rows = kStepRows;
  sc.num_batches = kSteps;
  sc.onset_batch = kOnset;
  sc.seed = seed;
  Inputs in;
  in.stream = ddup::datagen::MakeScenario(sc);
  in.star = ddup::datagen::ImdbLike(kFactRows, seed + 1);
  in.star.fact.set_name(kFact);
  return in;
}

// The Ingest calls of the stream, in send order: every step is cut into
// chunks smaller than a micro-batch, and each chunk goes to every
// ingesting table before the next chunk.
std::vector<Table> StreamChunks(const ddup::datagen::DriftStream& stream) {
  std::vector<Table> chunks;
  for (const Table& step : stream.batches) {
    for (int64_t begin = 0; begin < step.num_rows(); begin += kChunkRows) {
      std::vector<int64_t> rows;
      for (int64_t r = begin; r < std::min(begin + kChunkRows, step.num_rows());
           ++r) {
        rows.push_back(r);
      }
      chunks.push_back(step.TakeRows(rows));
    }
  }
  return chunks;
}

// ---------------------------------------------------------------------------
// Queries, generated by the benchmark from the seed. Each is anchored on a
// row of the table it targets, so its true answer is at least 1.
// ---------------------------------------------------------------------------
Query CardinalityQuery(const ScanTable& table, const Table& schema, Rng& rng) {
  Query q;
  const int64_t row = rng.UniformInt(0, table.rows() - 1);
  const int k = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<int64_t> cols =
      rng.SampleWithoutReplacement(schema.num_columns(), k);
  std::sort(cols.begin(), cols.end());
  for (int64_t c64 : cols) {
    const int c = static_cast<int>(c64);
    const double v = table.column(c)[static_cast<size_t>(row)];
    if (!schema.column(c).is_numeric()) {
      q.predicates.push_back({c, CompareOp::kEq, v});
      continue;
    }
    const double width = rng.Uniform(0.05, 0.4) * (schema.column(c).MaxAsDouble() -
                                                   schema.column(c).MinAsDouble());
    q.predicates.push_back({c, CompareOp::kGe, v - width * rng.Uniform()});
    q.predicates.push_back({c, CompareOp::kLe, v + width * rng.Uniform()});
  }
  return q;
}

Query AqpCountQuery(const ScanTable& table, const Table& schema, Rng& rng) {
  const int cat = schema.ColumnIndex("education");
  const int num = schema.ColumnIndex("hours_per_week");
  const int64_t row = rng.UniformInt(0, table.rows() - 1);
  const double v = table.column(num)[static_cast<size_t>(row)];
  const double width = rng.Uniform(2.0, 20.0);
  Query q;
  q.predicates = {{cat, CompareOp::kEq, table.column(cat)[static_cast<size_t>(row)]},
                  {num, CompareOp::kGe, v - width * rng.Uniform()},
                  {num, CompareOp::kLe, v + width * rng.Uniform()}};
  return q;
}

std::vector<ddup::workload::JoinEdge> StarEdges() {
  return {{kFact, "company_id", "company", "co_id"},
          {kFact, "it_fk", "info_type", "it_id"}};
}

JoinQuery StarJoinQuery(const ScanTable& fact, const Table& schema, Rng& rng) {
  JoinQuery jq;
  jq.joins = StarEdges();
  const int64_t row = rng.UniformInt(0, fact.rows() - 1);
  const int year = schema.ColumnIndex("production_year");
  const double v = fact.column(year)[static_cast<size_t>(row)];
  const double width = rng.Uniform(2.0, 15.0);
  jq.predicates.push_back({kFact, {year, CompareOp::kGe, v - width}});
  jq.predicates.push_back({kFact, {year, CompareOp::kLe, v + width}});
  if (rng.Bernoulli(0.5)) {
    const int it = schema.ColumnIndex("info_type_id");
    jq.predicates.push_back(
        {kFact, {it, CompareOp::kEq, fact.column(it)[static_cast<size_t>(row)]}});
  }
  return jq;
}

// ---------------------------------------------------------------------------
// Statistics helpers.
// ---------------------------------------------------------------------------
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Harrell-Davis estimate of the q-quantile: the mean of all order
// statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density over each
// one's share of [0, 1]. The update times fall into separated groups (a
// darn distill costs several times any other batch), and the pooled 90th
// percentile lies near the edge of one; interpolating between the two
// nearest samples jumps by the gap whenever samples there swap places from
// run to run, while this weighted mean moves smoothly.
double SmoothQuantile(std::vector<double> v, double q) {
  if (v.size() < 2) return Quantile(v, q);
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  constexpr int kPoints = 16;  // midpoint rule over each sample's share
  double sum = 0.0, weights = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    double w = 0.0;
    for (int k = 0; k < kPoints; ++k) {
      const double x = (static_cast<double>(i) + (k + 0.5) / kPoints) / n;
      w += std::exp((a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x) - log_beta);
    }
    sum += w * v[i];
    weights += w;
  }
  return sum / weights;
}

double QError(double estimate, double truth) {
  const double e = std::max(estimate, 1.0);
  const double t = std::max(truth, 1.0);
  return std::max(e / t, t / e);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

// Wall time of a fixed integer loop on `threads` threads at once: run
// context printed before and after the workload, so a run taken while the
// host's parallel capacity collapsed can be recognised. Not a metric.
double SpinSeconds(int threads) {
  auto spin = [] {
    volatile uint64_t sink = 0;
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 40000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
  };
  const int64_t start = NowNs();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) workers.emplace_back(spin);
  for (std::thread& w : workers) w.join();
  return MsSince(start) * 1e-3;
}

// ---------------------------------------------------------------------------
// Run-wide state: operation counts, the first failed check, samples.
// ---------------------------------------------------------------------------
struct Run {
  WorkloadSpec spec;
  uint64_t seed = 0;
  // Round r trains and streams the data of data_seed = r + 1 in every run, so
  // every run makes the same detector decisions and does the same update
  // work; the queries and the request order come from query_seed, drawn
  // from (--seed, r).
  uint64_t data_seed = 0;
  uint64_t query_seed = 0;
  std::string workdir;
  Tracer tracer;

  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};
  std::mutex check_mu;
  std::string first_check_failure;  // guarded by check_mu

  // End-to-end samples. Serving and ingest figures are taken per round
  // (each round answers thousands of estimates, so its p99 has ten samples
  // beyond it) and reported as the median over rounds, so one round hit by
  // a host stall does not move the figure. A round runs only 50
  // micro-batches, so the update and freshness percentiles pool the
  // micro-batches of all measured rounds.
  std::vector<double> setup_s;
  std::vector<double> round_qps, round_p50_us, round_p99_us, round_join_qps;
  std::vector<double> round_ingest_rate;
  std::vector<double> update_ms, fresh_ms;
  size_t b1_samples = 0, single_queries = 0, join_queries = 0, rows_ingested = 0;
  std::vector<double> qerror;
  std::vector<double> save_ms, load_ms;
  std::vector<double> checkpoint_bytes;
  // Determinism reference: the scored answers of the first round.
  std::vector<double> first_round_answers;

  // Per-layer samples (traced rounds only).
  std::map<std::string, std::vector<double>> layer;
  void Layer(const std::string& name, double value) {
    layer[name].push_back(value);
  }
  std::vector<double> traced_wall_ms, untraced_wall_ms;
  // Probe totals: Engine::Estimate walls and the exec-engine walls of the
  // same single queries.
  double probe_engine_ms = 0.0, probe_exec_ms = 0.0;
  // Peak resident memory at the end of the first round: one engine's life
  // from set-up to checkpoint. Later rounds add what earlier rounds left
  // cached (per-thread matrix pools, allocator arenas).
  double first_round_peak_rss_mb = 0.0;

  // The first round warms caches, thread pools and the matrix pools; its
  // timings are dropped. Its answers, checks and set-up time are kept.
  void DiscardWarmup() {
    round_qps.clear();
    round_p50_us.clear();
    round_p99_us.clear();
    round_join_qps.clear();
    round_ingest_rate.clear();
    update_ms.clear();
    fresh_ms.clear();
    b1_samples = single_queries = join_queries = rows_ingested = 0;
    save_ms.clear();
    load_ms.clear();
    untraced_wall_ms.clear();
  }

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard<std::mutex> lock(check_mu);
    if (first_check_failure.empty()) first_check_failure = what;
  }
  bool correct() {
    std::lock_guard<std::mutex> lock(check_mu);
    return first_check_failure.empty();
  }
  // Counts one attempted operation and whether it failed.
  bool Op(const Status& status, const std::string& what) {
    attempted.fetch_add(1);
    if (status.ok()) return true;
    failed.fetch_add(1);
    std::fprintf(stderr, "operation failed: %s: %s\n", what.c_str(),
                 status.ToString().c_str());
    return false;
  }
};

// A failure after which the round cannot continue.
struct RoundAbort {
  std::string what;
};

void Must(Run& run, const Status& status, const std::string& what) {
  if (!run.Op(status, what)) throw RoundAbort{what};
}

// ---------------------------------------------------------------------------
// One round.
// ---------------------------------------------------------------------------
struct ServingSet {
  // Per serving family: the queries clients send and the scored queries.
  std::vector<std::vector<Query>> serve;
  std::vector<std::vector<Query>> score;
  std::vector<JoinQuery> serve_joins;
  std::vector<JoinQuery> score_joins;
};

EstimateRequest TableRequest(int family, std::vector<Query> queries) {
  EstimateRequest r;
  r.kind = kFamilies[family].aqp ? EstimateRequest::Kind::kAqp
                                 : EstimateRequest::Kind::kCardinality;
  r.table = kFamilies[family].table;
  r.queries = ddup::workload::QueryBatch(std::move(queries));
  return r;
}

EstimateRequest JoinRequest(std::vector<JoinQuery> joins,
                            const std::string& combiner = {}) {
  EstimateRequest r;
  r.joins = ddup::workload::JoinQueryBatch(std::move(joins));
  r.combiner = combiner;
  return r;
}

// What one estimate client measured.
struct ClientLog {
  std::vector<double> b1_us;
  double single_queries = 0, single_seconds = 0;
  double join_queries = 0, join_seconds = 0;
};

// A closed loop of estimate requests: each is sent when the previous one
// returned. The request mix repeats every 8 requests: two batch-1 requests
// per serving family, one batch-32 request (rotating family) and one join.
void EstimateClient(Run& run, const Engine& engine, const ServingSet& set,
                    int client, int requests, const std::atomic<bool>* stop,
                    ClientLog* log) {
  Rng rng(run.query_seed * 31 + static_cast<uint64_t>(client));
  for (int i = 0; requests < 0 || i < requests; ++i) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    const int slot = i % 8;
    EstimateRequest request;
    int batch = 1;
    bool join = false;
    if (slot < 6) {
      const int f = slot % kServingFamilies;
      request = TableRequest(
          f, {set.serve[f][static_cast<size_t>(rng.UniformInt(0, kServePool - 1))]});
    } else if (slot == 6) {
      const int f = (i / 8) % kServingFamilies;
      std::vector<Query> qs;
      for (int k = 0; k < 32; ++k) {
        qs.push_back(
            set.serve[f][static_cast<size_t>(rng.UniformInt(0, kServePool - 1))]);
      }
      request = TableRequest(f, std::move(qs));
      batch = 32;
    } else {
      request = JoinRequest({set.serve_joins[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(set.serve_joins.size()) - 1))]});
      join = true;
    }
    ScopedSpan span(run.tracer, join ? "api.Estimate.join" : "api.Estimate",
                    (static_cast<int64_t>(client) << 32) + i);
    const int64_t start = NowNs();
    StatusOr<ddup::api::EstimateResponse> response = engine.Estimate(request);
    const double us = static_cast<double>(NowNs() - start) * 1e-3;
    if (!run.Op(response.status(), "Estimate")) continue;
    for (double a : response.value().answers) {
      run.Check(std::isfinite(a) && a >= 0.0, "estimate answer finite and >= 0");
    }
    if (join) {
      log->join_queries += 1;
      log->join_seconds += us * 1e-6;
    } else {
      log->single_queries += batch;
      log->single_seconds += us * 1e-6;
      if (batch == 1) log->b1_us.push_back(us);
    }
  }
}

// One round's serving figures. Throughput is queries over the time the
// clients spent waiting for those requests, times the client count.
void FoldClients(Run& run, const std::vector<ClientLog>& logs) {
  std::vector<double> b1_us;
  double single_queries = 0, single_seconds = 0;
  double join_queries = 0, join_seconds = 0;
  for (const ClientLog& log : logs) {
    b1_us.insert(b1_us.end(), log.b1_us.begin(), log.b1_us.end());
    single_queries += log.single_queries;
    single_seconds += log.single_seconds;
    join_queries += log.join_queries;
    join_seconds += log.join_seconds;
  }
  if (b1_us.empty() || join_seconds <= 0.0) return;  // no request finished
  const double clients = static_cast<double>(logs.size());
  run.round_qps.push_back(single_queries / single_seconds * clients);
  run.round_join_qps.push_back(join_queries / join_seconds * clients);
  run.round_p50_us.push_back(Quantile(b1_us, 0.5));
  run.round_p99_us.push_back(Quantile(b1_us, 0.99));
  run.b1_samples += b1_us.size();
  run.single_queries += static_cast<size_t>(single_queries);
  run.join_queries += static_cast<size_t>(join_queries);
}

// Creates and trains every table; returns the engine.
std::unique_ptr<Engine> Setup(Run& run, const EngineConfig& config,
                              Inputs* inputs) {
  ScopedSpan span(run.tracer, "setup");
  const int64_t start = NowNs();
  {
    ScopedSpan gen(run.tracer, "datagen");
    *inputs = MakeInputs(run.data_seed);
  }
  auto engine = std::make_unique<Engine>(config);
  for (int f = 0; f < kNumFamilies; ++f) {
    ScopedSpan create(run.tracer, "api.CreateTable");
    Must(run, engine->CreateTable(kFamilies[f].table, inputs->stream.base),
         "CreateTable");
  }
  Must(run, engine->CreateTable(kFact, inputs->star.fact), "CreateTable");
  Must(run, engine->CreateTable("company", inputs->star.dims[0]), "CreateTable");
  Must(run, engine->CreateTable("info_type", inputs->star.dims[1]),
       "CreateTable");
  for (int f = 0; f < kNumFamilies; ++f) {
    const std::string kind = kFamilies[f].kind;
    ScopedSpan attach(run.tracer, "models." + kind + ".train");
    const int64_t t0 = NowNs();
    Must(run, engine->AttachModel(kFamilies[f].table,
                                  {kind, OptionsFor(kind, run.data_seed)}),
         "AttachModel");
    if (run.tracer.enabled()) run.Layer("models." + kind + ".train_s", MsSince(t0) * 1e-3);
  }
  Must(run, engine->AttachModel(kFact, {"darn", OptionsFor("darn", run.data_seed)}),
       "AttachModel");
  run.setup_s.push_back(MsSince(start) * 1e-3);
  return engine;
}

Table FinalCensus(const Inputs& in) {
  Table rows = in.stream.base;
  for (const Table& step : in.stream.batches) rows.Append(step);
  return rows;
}

ServingSet MakeServingSet(const Inputs& in, const ScanTable& final_census,
                          const ScanTable& fact, uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  ServingSet set;
  const Table& schema = in.stream.base;
  set.serve.resize(kServingFamilies);
  set.score.resize(kServingFamilies);
  for (int f = 0; f < kServingFamilies; ++f) {
    for (int i = 0; i < kServePool + kScoreQueries; ++i) {
      Query q = kFamilies[f].aqp ? AqpCountQuery(final_census, schema, rng)
                                 : CardinalityQuery(final_census, schema, rng);
      (i < kServePool ? set.serve[f] : set.score[f]).push_back(std::move(q));
    }
  }
  for (int i = 0; i < kServePool + kScoreJoins; ++i) {
    JoinQuery jq = StarJoinQuery(fact, in.star.fact, rng);
    (i < kServePool ? set.serve_joins : set.score_joins).push_back(std::move(jq));
  }
  return set;
}

// A round's inputs and what the checks derive from them. The star scan
// points into the members, so the object stays where it was built.
struct RoundData {
  RoundData(Inputs inputs, uint64_t seed)
      : in(std::move(inputs)),
        accumulated(FinalCensus(in)),
        census(accumulated),
        fact(in.star.fact),
        company(in.star.dims[0]),
        info_type(in.star.dims[1]),
        star{kFact,
             &fact,
             {{"company", &company, "company_id", "co_id"},
              {"info_type", &info_type, "it_fk", "it_id"}}},
        set(MakeServingSet(in, census, fact, seed)),
        chunks(StreamChunks(in.stream)) {}
  RoundData(const RoundData&) = delete;
  RoundData& operator=(const RoundData&) = delete;

  Inputs in;
  Table accumulated;  // every census table's rows after the stream
  ScanTable census, fact, company, info_type;
  StarScan star;
  ServingSet set;
  std::vector<Table> chunks;  // the Ingest calls of one table, in order
};

// The per-micro-batch record of one table in the stream.
struct BatchTiming {
  int64_t seal_start_ns = 0;  // start of the Ingest call that completed it
  int64_t seal_end_ns = 0;    // when that call returned
  int64_t visible_ns = 0;     // when the updated model serves
  int64_t ingest_span = -1;   // span of that Ingest call
};

struct StreamResult {
  // [table][batch]
  std::vector<std::vector<BatchTiming>> timing;
  std::vector<std::vector<ddup::core::InsertionReport>> reports;
};

void FoldReports(Run& run, const StreamResult& result) {
  for (size_t t = 0; t < result.reports.size(); ++t) {
    run.Check(result.reports[t].size() ==
                  static_cast<size_t>(kSteps * kStepRows / kMicroBatchRows),
              "micro-batch count matches the stream");
    for (size_t b = 0; b < result.reports[t].size(); ++b) {
      const ddup::core::InsertionReport& r = result.reports[t][b];
      const double stages_ms =
          (r.detect_seconds + r.update_seconds + r.offline_refresh_seconds) * 1e3;
      run.update_ms.push_back(stages_ms);
      if (b >= result.timing[t].size()) continue;
      const BatchTiming& bt = result.timing[t][b];
      const double fresh = static_cast<double>(bt.visible_ns - bt.seal_start_ns) * 1e-6;
      run.fresh_ms.push_back(fresh);
      if (!run.tracer.enabled()) continue;
      run.Layer("core.report.detect_ms", r.detect_seconds * 1e3);
      run.Layer("core.report.update_ms", r.update_seconds * 1e3);
      run.Layer("core.report.refresh_ms", r.offline_refresh_seconds * 1e3);
      run.Layer("core.report.queue_ms", r.queue_seconds * 1e3);
      // The reported stage times, laid end to end before the batch became
      // visible, inside the span that waited for them: the sealing Ingest
      // call (sync), or an "update.batch" span from the moment the call
      // handed the batch over to the publish (async). That span's self
      // time is what the stage times leave unaccounted.
      int64_t parent = bt.ingest_span;
      int64_t wait_start = bt.seal_start_ns;
      if (bt.visible_ns != bt.seal_end_ns) {
        wait_start = bt.seal_end_ns;
        parent = run.tracer.Add("update.batch", -1, wait_start, bt.visible_ns,
                                static_cast<int64_t>(b));
      }
      run.Layer("api.unaccounted_ms",
                static_cast<double>(bt.visible_ns - wait_start) * 1e-6 -
                    stages_ms - r.queue_seconds * 1e3);
      int64_t end = bt.visible_ns;
      const std::pair<const char*, double> stages[] = {
          {"core.refresh", r.offline_refresh_seconds},
          {"models.update", r.update_seconds},
          {"core.detect", r.detect_seconds},
          {"serving.queue", r.queue_seconds}};
      for (const auto& [name, seconds] : stages) {
        if (seconds <= 0.0) continue;
        const int64_t begin = end - static_cast<int64_t>(seconds * 1e9);
        run.tracer.Add(name, parent, begin, end, static_cast<int64_t>(b));
        end = begin;
      }
    }
  }
  if (!run.tracer.enabled()) return;
  // Decisions over all tables of the round.
  int64_t distills = 0, finetunes = 0, stale = 0;
  for (const auto& reports : result.reports) {
    for (const auto& r : reports) {
      distills += r.action == ddup::core::UpdateAction::kDistill;
      finetunes += r.action == ddup::core::UpdateAction::kFineTune;
      stale += r.action == ddup::core::UpdateAction::kKeepStale;
    }
  }
  run.Layer("core.distills", static_cast<double>(distills));
  run.Layer("core.finetunes", static_cast<double>(finetunes));
  run.Layer("core.kept_stale", static_cast<double>(stale));
}

// Feeds the stream. Synchronous engines run each completed micro-batch
// inside the Ingest call that completed it; asynchronous engines hand it to
// the update worker, and a watcher notes when each snapshot is published.
StreamResult FeedStream(Run& run, Engine& engine,
                        const std::vector<Table>& chunks, bool async) {
  const int tables = kNumFamilies;
  StreamResult result;
  result.timing.resize(static_cast<size_t>(tables));
  result.reports.resize(static_cast<size_t>(tables));
  std::vector<int64_t> publishes0(static_cast<size_t>(tables), 0);
  for (int t = 0; t < tables; ++t) {
    StatusOr<ddup::api::TableReport> rep = engine.Report(kFamilies[t].table);
    Must(run, rep.status(), "Report");
    publishes0[static_cast<size_t>(t)] = rep.value().snapshot_publishes;
  }
  std::atomic<bool> done{false};
  std::vector<std::vector<int64_t>> published(static_cast<size_t>(tables));
  std::thread watcher;
  if (async) {
    // Polls with sleeps, so it is not a busy thread. It stops once every
    // micro-batch of the stream is published, or after one last poll when
    // the stream ended early.
    watcher = std::thread([&] {
      std::vector<int64_t> seen = publishes0;
      const int64_t expected = kSteps * kStepRows / kMicroBatchRows;
      for (;;) {
        const bool last = done.load(std::memory_order_acquire);
        int64_t complete = 0;
        for (int t = 0; t < tables; ++t) {
          StatusOr<ddup::api::TableReport> rep =
              engine.Report(kFamilies[t].table);
          if (!rep.ok()) continue;
          const int64_t now = NowNs();
          while (seen[static_cast<size_t>(t)] < rep.value().snapshot_publishes) {
            published[static_cast<size_t>(t)].push_back(now);
            ++seen[static_cast<size_t>(t)];
          }
          complete += static_cast<int64_t>(
                          published[static_cast<size_t>(t)].size()) >= expected;
        }
        if (last || complete == tables) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  const bool traced = run.tracer.enabled();
  int64_t rows = 0;
  int64_t max_buffered = 0, max_backlog = 0;
  double sealing_ingest_ms = 0.0;
  const int64_t allocs0 =
      static_cast<int64_t>(ddup::nn::MatrixPool::AggregateCounters().heap_allocs);
  // Stops and joins the watcher on every way out of this function.
  struct WatcherGuard {
    std::atomic<bool>& done;
    std::thread& thread;
    ~WatcherGuard() {
      done.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
  } guard{done, watcher};
  const int64_t start = NowNs();
  {
    ScopedSpan span(run.tracer, "stream");
    std::vector<int64_t> table_rows(static_cast<size_t>(tables), 0);
    int64_t request = 0;
    for (const Table& chunk : chunks) {
      for (int t = 0; t < tables; ++t, ++request) {
        int64_t& trows = table_rows[static_cast<size_t>(t)];
        const bool seals = (trows + chunk.num_rows()) / kMicroBatchRows >
                           trows / kMicroBatchRows;
        const int64_t id = run.tracer.Begin("api.Ingest", request);
        const int64_t t0 = NowNs();
        StatusOr<ddup::api::IngestResult> r =
            engine.Ingest(kFamilies[t].table, chunk);
        const int64_t t1 = NowNs();
        run.tracer.End(id);
        if (!run.Op(r.status(), "Ingest")) throw RoundAbort{"Ingest"};
        trows += chunk.num_rows();
        rows += chunk.num_rows();
        if (seals) {
          // Sync: the batch's stage spans sit inside this Ingest call.
          result.timing[static_cast<size_t>(t)].push_back(
              {t0, t1, async ? 0 : t1, id});
          sealing_ingest_ms += static_cast<double>(t1 - t0) * 1e-6;
          for (const auto& rep : r.value().reports) {
            result.reports[static_cast<size_t>(t)].push_back(rep);
          }
        } else if (traced) {
          run.Layer("api.ingest_call_us", static_cast<double>(t1 - t0) * 1e-3);
        }
        if (traced) {
          max_backlog = std::max(max_backlog, r.value().backlog_batches);
          StatusOr<ddup::api::TableReport> rep = engine.Report(kFamilies[t].table);
          if (rep.ok()) max_buffered = std::max(max_buffered, rep.value().buffered_bytes);
        }
      }
    }
    for (int t = 0; t < tables; ++t) {
      ScopedSpan flush(run.tracer, "api.Flush");
      StatusOr<ddup::api::IngestResult> r = engine.Flush(kFamilies[t].table);
      Must(run, r.status(), "Flush");
      for (const auto& rep : r.value().reports) {
        result.reports[static_cast<size_t>(t)].push_back(rep);
      }
    }
  }
  run.round_ingest_rate.push_back(static_cast<double>(rows) /
                                  (MsSince(start) * 1e-3));
  run.rows_ingested += static_cast<size_t>(rows);
  done.store(true, std::memory_order_release);
  if (watcher.joinable()) watcher.join();
  if (async) {
    for (int t = 0; t < tables; ++t) {
      auto& timing = result.timing[static_cast<size_t>(t)];
      const auto& pubs = published[static_cast<size_t>(t)];
      run.Check(pubs.size() == timing.size(),
                "one snapshot publish per micro-batch");
      for (size_t b = 0; b < timing.size() && b < pubs.size(); ++b) {
        timing[b].visible_ns = pubs[b];
      }
    }
  }
  if (traced) {
    const int64_t allocs1 = static_cast<int64_t>(
        ddup::nn::MatrixPool::AggregateCounters().heap_allocs);
    int64_t batches = 0;
    for (const auto& r : result.reports) batches += static_cast<int64_t>(r.size());
    run.Layer("nn.heap_allocs_per_update",
              static_cast<double>(allocs1 - allocs0) /
                  static_cast<double>(std::max<int64_t>(1, batches)));
    run.Layer("storage.buffered_bytes", static_cast<double>(max_buffered));
    run.Layer("serving.backlog_batches", static_cast<double>(max_backlog));
    run.Layer("serving.admission_wait_ms", async ? sealing_ingest_ms : 0.0);
  }
  FoldReports(run, result);
  return result;
}

// Asks every scored query one at a time and in batches of 32, checks the
// answers and returns them in a fixed order (serving families, then joins).
std::vector<double> Score(Run& run, const Engine& engine, const RoundData& data,
                          bool record) {
  const ServingSet& set = data.set;
  ScopedSpan span(run.tracer, "score");
  std::vector<double> all;
  for (int f = 0; f < kServingFamilies; ++f) {
    StatusOr<ddup::api::TableReport> rep = engine.Report(kFamilies[f].table);
    Must(run, rep.status(), "Report");
    const double rows = static_cast<double>(rep.value().rows);
    std::vector<double> batched;
    for (size_t begin = 0; begin < set.score[f].size(); begin += 32) {
      std::vector<Query> qs(set.score[f].begin() + static_cast<long>(begin),
                            set.score[f].begin() +
                                static_cast<long>(std::min(begin + 32, set.score[f].size())));
      auto r = engine.Estimate(TableRequest(f, std::move(qs)));
      Must(run, r.status(), "Estimate");
      batched.insert(batched.end(), r.value().answers.begin(),
                     r.value().answers.end());
    }
    std::vector<double> singles;
    for (const Query& q : set.score[f]) {
      auto r = engine.Estimate(TableRequest(f, {q}));
      Must(run, r.status(), "Estimate");
      singles.push_back(r.value().answers.at(0));
    }
    run.Check(SameBits(batched, singles),
              std::string(kFamilies[f].kind) +
                  ": batch answers bit-identical to one-at-a-time answers");
    for (size_t i = 0; i < batched.size(); ++i) {
      const double a = batched[i];
      run.Check(std::isfinite(a) && a >= 0.0 && a <= rows,
                std::string(kFamilies[f].kind) + ": answer finite and in [0, rows]");
      if (record) {
        run.qerror.push_back(
            QError(a, static_cast<double>(data.census.Count(set.score[f][i]))));
      }
    }
    all.insert(all.end(), batched.begin(), batched.end());
  }
  // Joins: the unpredicated clean-FK join is exact under every combiner.
  JoinQuery unfiltered;
  unfiltered.joins = StarEdges();
  const double exact = static_cast<double>(data.star.JoinCount(unfiltered));
  for (const std::string& combiner : ddup::api::RegisteredJoinCombiners()) {
    auto r = engine.Estimate(JoinRequest({unfiltered}, combiner));
    Must(run, r.status(), "Estimate");
    run.Check(r.value().answers.at(0) == exact,
              "unpredicated join exact under " + combiner);
  }
  auto batched = engine.Estimate(JoinRequest(set.score_joins));
  Must(run, batched.status(), "Estimate");
  std::vector<double> singles;
  for (const JoinQuery& jq : set.score_joins) {
    auto r = engine.Estimate(JoinRequest({jq}));
    Must(run, r.status(), "Estimate");
    singles.push_back(r.value().answers.at(0));
  }
  run.Check(SameBits(batched.value().answers, singles),
            "join batch answers bit-identical to one-at-a-time answers");
  for (size_t i = 0; i < singles.size(); ++i) {
    const double a = singles[i];
    run.Check(std::isfinite(a) && a >= 0.0 && a <= exact,
              "join answer finite and in [0, join rows]");
    if (record) {
      run.qerror.push_back(
          QError(a, static_cast<double>(data.star.JoinCount(set.score_joins[i]))));
    }
  }
  all.insert(all.end(), singles.begin(), singles.end());
  return all;
}

// ---------------------------------------------------------------------------
// Per-layer probes (traced rounds): calls into each layer's public
// functions on the round's final state, timed by the benchmark.
// ---------------------------------------------------------------------------
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

void ProbeLayers(Run& run, Engine& engine, const EngineConfig& config,
                 const ServingSet& set, const Table& accumulated,
                 const Table& last_batch, const std::string& checkpoint) {
  ScopedSpan probe(run.tracer, "probe");
  const ddup::exec::EstimatorEngine* exec =
      ddup::exec::FindEstimatorEngine(config.estimate_engine);
  Rng rng(run.query_seed + 99);
  const int64_t sample_rows = std::max<int64_t>(
      config.controller.detector.min_sample_rows,
      static_cast<int64_t>(config.controller.detector.old_sample_fraction *
                           static_cast<double>(accumulated.num_rows())));
  const Table sample = ddup::storage::SampleRows(accumulated, rng, sample_rows);

  // exec + api: batch calls straight into the exec engine against Engine
  // estimates of the same queries.
  std::vector<double> api_us;
  for (int f = 0; f < kServingFamilies; ++f) {
    const std::string kind = kFamilies[f].kind;
    ddup::core::UpdatableModel* model = engine.model(kFamilies[f].table);
    const auto* card = dynamic_cast<const ddup::core::CardinalityEstimator*>(model);
    const auto* aqp = dynamic_cast<const ddup::core::AqpEstimator*>(model);
    auto run_exec = [&](const ddup::workload::QueryBatch& batch) {
      std::vector<double> out;
      Status st = kFamilies[f].aqp
                      ? exec->EstimateAqpBatch(*aqp, accumulated, batch, &out)
                      : exec->EstimateCardinalityBatch(*card, batch, &out);
      run.Op(st, "exec batch");
    };
    std::vector<double> b1;
    for (const Query& q : set.score[f]) {
      const ddup::workload::QueryBatch one({q});
      double exec_ms;
      {
        ScopedSpan s(run.tracer, "exec." + kind + ".b1");
        exec_ms = MedianMs(3, [&] { run_exec(one); });
      }
      b1.push_back(exec_ms * 1e3);
      const EstimateRequest request = TableRequest(f, {q});
      const int64_t id = run.tracer.Begin("api.Estimate.probe");
      const double api_ms = MedianMs(3, [&] {
        run.Op(engine.Estimate(request).status(), "Estimate");
      });
      run.tracer.End(id);
      api_us.push_back((api_ms - exec_ms) * 1e3);
      run.probe_engine_ms += api_ms;
      run.probe_exec_ms += exec_ms;
    }
    run.Layer("exec." + kind + ".b1_us_per_query", Median(b1));
    std::vector<double> b32;
    for (size_t begin = 0; begin + 32 <= set.score[f].size(); begin += 32) {
      const ddup::workload::QueryBatch batch(std::vector<Query>(
          set.score[f].begin() + static_cast<long>(begin),
          set.score[f].begin() + static_cast<long>(begin + 32)));
      ScopedSpan s(run.tracer, "exec." + kind + ".b32");
      b32.push_back(MedianMs(3, [&] { run_exec(batch); }) * 1e3 / 32.0);
    }
    run.Layer("exec." + kind + ".b32_us_per_query", Median(b32));
  }
  run.Layer("api.estimate_call_us", Median(api_us));

  {
    const ddup::api::QueryRouter router(&engine);
    std::vector<double> plan_us;
    for (const JoinQuery& jq : set.score_joins) {
      ScopedSpan s(run.tracer, "api.QueryRouter.Plan");
      plan_us.push_back(MedianMs(3, [&] {
                          run.Op(router.Plan(jq).status(), "Plan");
                        }) * 1e3);
    }
    run.Layer("api.router_plan_us", Median(plan_us));
  }

  // models + core + api clone, per family.
  for (int f = 0; f < kNumFamilies; ++f) {
    const std::string kind = kFamilies[f].kind;
    ddup::core::UpdatableModel* model = engine.model(kFamilies[f].table);
    {
      ScopedSpan s(run.tracer, "models." + kind + ".AverageLoss");
      run.Layer("models." + kind + ".avg_loss_ms",
                MedianMs(5, [&] { (void)model->AverageLoss(sample); }));
    }
    {
      ScopedSpan s(run.tracer, "api.CloneModel");
      run.Layer("api.clone_ms." + kind, MedianMs(3, [&] {
                  run.Op(ddup::api::CloneModel(kind, *model).status(), "CloneModel");
                }));
    }
    auto clone = ddup::api::CloneModel(kind, *model);
    Must(run, clone.status(), "CloneModel");
    {
      Rng transfer_rng(run.data_seed + 5);
      const Table transfer = ddup::storage::SampleFraction(
          accumulated, transfer_rng, config.controller.policy.transfer_fraction);
      ddup::core::DistillConfig distill = config.controller.policy.distill;
      distill.alpha = ddup::core::ResolveAlpha(distill, accumulated.num_rows(),
                                               last_batch.num_rows());
      ScopedSpan s(run.tracer, "models." + kind + ".DistillUpdate");
      const int64_t t0 = NowNs();
      clone.value()->DistillUpdate(transfer, last_batch, distill);
      run.Layer("models." + kind + ".distill_ms", MsSince(t0));
    }
    {
      ScopedSpan s(run.tracer, "models." + kind + ".FineTune");
      const int64_t t0 = NowNs();
      clone.value()->FineTune(last_batch, config.controller.policy.finetune_base_lr,
                              config.controller.policy.finetune_epochs);
      run.Layer("models." + kind + ".finetune_ms", MsSince(t0));
    }
    auto detector = ddup::core::MakeDriftDetector(config.controller.detector);
    Must(run, detector.status(), "MakeDriftDetector");
    {
      ScopedSpan s(run.tracer, "core.DriftDetector.Fit");
      const int64_t t0 = NowNs();
      detector.value()->Fit(*model, accumulated);
      run.Layer("core." + kind + ".refresh_ms", MsSince(t0));
    }
    {
      ScopedSpan s(run.tracer, "core.DriftDetector.Test");
      run.Layer("core." + kind + ".detect_ms", MedianMs(5, [&] {
                  (void)detector.value()->Test(*model, last_batch);
                }));
    }
  }

  // nn: the GEMM kernel the models run on.
  {
    ScopedSpan s(run.tracer, "nn.GemmInto");
    ddup::nn::Matrix a(256, 256), b(256, 256), c(256, 256);
    for (int i = 0; i < 256; ++i) {
      for (int j = 0; j < 256; ++j) {
        a(i, j) = rng.Uniform(-1.0, 1.0);
        b(i, j) = rng.Uniform(-1.0, 1.0);
      }
    }
    const double ms = MedianMs(9, [&] { ddup::nn::GemmInto(a, b, false, &c); });
    run.Layer("nn.gemm256_gflops", 2.0 * 256 * 256 * 256 / (ms * 1e-3) * 1e-9);
  }

  // storage: the packed accumulator and the bootstrap sampler.
  {
    ScopedSpan s(run.tracer, "storage.MicroBatchBuffer");
    ddup::storage::MicroBatchBuffer buffer;
    buffer.Reset(accumulated.Head(0), kMicroBatchRows, config.packed_accumulator);
    std::vector<double> append_us, slice_us;
    for (int64_t begin = 0; begin + kChunkRows <= accumulated.num_rows();
         begin += kChunkRows) {
      std::vector<int64_t> rows;
      for (int64_t r = begin; r < begin + kChunkRows; ++r) rows.push_back(r);
      const Table chunk = accumulated.TakeRows(rows);
      int64_t t0 = NowNs();
      buffer.Append(chunk);
      append_us.push_back(MsSince(t0) * 1e3);
      if (buffer.num_rows() >= kMicroBatchRows) {
        t0 = NowNs();
        const Table drained = buffer.Slice(0, kMicroBatchRows);
        buffer.DropFront(kMicroBatchRows);
        slice_us.push_back(MsSince(t0) * 1e3);
        run.Check(drained.num_rows() == kMicroBatchRows, "drained micro-batch size");
      }
    }
    run.Layer("storage.append_us", Median(append_us));
    run.Layer("storage.materialize_us", Median(slice_us));
  }
  {
    ScopedSpan s(run.tracer, "storage.BootstrapRows");
    run.Layer("storage.bootstrap_rows_us", MedianMs(15, [&] {
                (void)ddup::storage::BootstrapRows(accumulated, rng, sample_rows);
              }) * 1e3);
  }

  // io: every codec over this round's own checkpoint sections.
  auto reader = ddup::io::CheckpointReader::FromFileBuffered(checkpoint);
  Must(run, reader.status(), "CheckpointReader");
  std::vector<std::string> payloads;
  std::map<std::string, double> section_bytes;
  for (const auto& info : reader.value().Sections()) {
    auto payload = reader.value().Section(info.name);
    Must(run, payload.status(), "Section");
    const std::string kind = info.name.substr(0, info.name.find(':'));
    section_bytes[kind] += static_cast<double>(payload.value().size());
    payloads.push_back(std::move(payload).value());
  }
  for (const auto& [kind, bytes] : section_bytes) {
    run.Layer("io.section_bytes." + kind, bytes);
  }
  double total = 0.0;
  for (const std::string& p : payloads) total += static_cast<double>(p.size());
  for (const std::string& name : ddup::io::RegisteredCodecNames()) {
    const ddup::io::Codec* codec = ddup::io::FindCodecByName(name);
    std::vector<std::string> packed(payloads.size());
    double compress_ms, decompress_ms;
    {
      ScopedSpan s(run.tracer, "io." + name + ".Compress");
      compress_ms = MedianMs(3, [&] {
        for (size_t i = 0; i < payloads.size(); ++i) {
          codec->Compress(payloads[i], &packed[i]);
        }
      });
    }
    std::vector<std::string> unpacked(payloads.size());
    {
      ScopedSpan s(run.tracer, "io." + name + ".Decompress");
      decompress_ms = MedianMs(3, [&] {
        for (size_t i = 0; i < payloads.size(); ++i) {
          run.Op(codec->Decompress(packed[i], payloads[i].size(), &unpacked[i]),
                 "Decompress");
        }
      });
    }
    run.Check(unpacked == payloads, name + ": codec round trip exact");
    run.Layer("io." + name + ".compress_mbps", total / (compress_ms * 1e-3) * 1e-6);
    run.Layer("io." + name + ".decompress_mbps", total / (decompress_ms * 1e-3) * 1e-6);
  }
}

void SetRoundSeeds(Run& run, int round) {
  run.data_seed = static_cast<uint64_t>(round) + 1;
  run.query_seed = run.seed * 1000 + static_cast<uint64_t>(round);
}

// What a round leaves for the probes: its engine, inputs and checkpoint.
struct RoundState {
  EngineConfig config;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<RoundData> data;
  std::string checkpoint;
};

// Set-up, stream, serving, score and checkpoint of one round. `data_round`
// picks the inputs; `round` only labels the round.
RoundState RunRound(Run& run, int round, int data_round, bool traced,
                    const std::string& setup_ckpt) {
  SetRoundSeeds(run, data_round);
  run.tracer.set_enabled(traced);
  ScopedSpan round_span(run.tracer, "round", round);
  const bool async = run.spec.update_workers > 0;
  RoundState state;
  state.config = MakeConfig(run.data_seed, run.spec.update_workers);
  Inputs in;
  state.engine = Setup(run, state.config, &in);
  Engine* engine = state.engine.get();
  if (!setup_ckpt.empty()) Must(run, engine->Save(setup_ckpt), "Save");
  state.data = std::make_unique<RoundData>(std::move(in), run.query_seed);
  const RoundData& data = *state.data;
  const ServingSet& set = data.set;

  const int64_t work_start = NowNs();
  std::vector<ClientLog> logs(kServeClients);
  if (async) {
    // Estimate clients run until the stream is absorbed.
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (int c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&, c] {
        EstimateClient(run, *engine, set, c, -1, &stop,
                       &logs[static_cast<size_t>(c)]);
      });
    }
    try {
      FeedStream(run, *engine, data.chunks, true);
    } catch (...) {
      stop.store(true, std::memory_order_release);
      for (std::thread& t : clients) t.join();
      throw;
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : clients) t.join();
  } else {
    FeedStream(run, *engine, data.chunks, false);
    ScopedSpan serve(run.tracer, "serve");
    std::vector<std::thread> clients;
    for (int c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&, c] {
        EstimateClient(run, *engine, set, c, kServeRequests, nullptr,
                       &logs[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  FoldClients(run, logs);
  for (int f = 0; f < kNumFamilies; ++f) {
    auto rep = engine->Report(kFamilies[f].table);
    Must(run, rep.status(), "Report");
    run.Check(rep.value().rows == kBaseRows + kSteps * kStepRows,
              "rows after Flush equal base plus ingested rows");
    run.Check(rep.value().insertions == kSteps * kStepRows / kMicroBatchRows,
              "micro-batch count matches the stream");
    if (traced && async) {
      run.Layer("serving.snapshot_publishes",
                static_cast<double>(rep.value().snapshot_publishes));
    }
  }
  if (traced && !async) run.Layer("serving.snapshot_publishes", 0.0);

  const uint64_t allocs0 = ddup::nn::MatrixPool::AggregateCounters().heap_allocs;
  std::vector<double> answers = Score(run, *engine, data, true);
  if (traced) {
    run.Layer("nn.heap_allocs_per_estimate",
              static_cast<double>(ddup::nn::MatrixPool::AggregateCounters().heap_allocs -
                                  allocs0) /
                  static_cast<double>(answers.size()));
  }
  if (round == 0) run.first_round_answers = answers;

  // Checkpoint: repeated Save, then repeated Load of the same file. A
  // traced round keeps its file for the probes.
  state.checkpoint = run.workdir + (traced ? "/traced.ckpt" : "/engine.ckpt");
  const std::string& path = state.checkpoint;
  {
    ScopedSpan ckpt(run.tracer, "checkpoint");
    for (int i = 0; i < kCheckpointRepeats; ++i) {
      ScopedSpan s(run.tracer, "api.Save");
      const int64_t t0 = NowNs();
      Must(run, engine->Save(path), "Save");
      run.save_ms.push_back(MsSince(t0));
    }
    run.checkpoint_bytes.push_back(
        static_cast<double>(std::filesystem::file_size(path)));
    const EngineConfig load_config = MakeConfig(run.data_seed, 0);
    for (int i = 0; i < kCheckpointRepeats; ++i) {
      std::unique_ptr<Engine> loaded;
      {
        ScopedSpan s(run.tracer, "api.Load");
        const int64_t t0 = NowNs();
        auto r = Engine::Load(path, load_config);
        run.load_ms.push_back(MsSince(t0));
        Must(run, r.status(), "Load");
        loaded = std::move(r).value();
      }
      if (i == 0) {
        run.Check(SameBits(Score(run, *loaded, data, false), answers),
                  "Save->Load engine answers bit-identically");
      }
    }
  }
  const double work_ms = MsSince(work_start);
  (traced ? run.traced_wall_ms : run.untraced_wall_ms).push_back(work_ms);
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  if (round == 0) {
    run.first_round_peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  const bool served = !run.round_qps.empty();
  std::printf("round %d%s: setup %.3f s, work %.1f ms, estimate %.0f q/s "
              "(b1 p50 %.2f us, p99 %.2f us), ingest %.0f rows/s, peak rss "
              "%.1f MiB\n",
              round, traced ? " (traced)" : "", run.setup_s.back(), work_ms,
              served ? run.round_qps.back() : 0.0,
              served ? run.round_p50_us.back() : 0.0,
              served ? run.round_p99_us.back() : 0.0,
              run.round_ingest_rate.back(),
              static_cast<double>(usage.ru_maxrss) / 1024.0);
  return state;
}

// mixed: the asynchronous engine's final answers must equal a synchronous
// replay of the same stream from the same trained state.
void CheckSyncReplay(Run& run, const std::string& setup_ckpt) {
  SetRoundSeeds(run, 0);
  const EngineConfig config = MakeConfig(run.data_seed, 0);
  auto loaded = Engine::Load(setup_ckpt, config);
  Must(run, loaded.status(), "Load");
  Engine& engine = *loaded.value();
  const RoundData data(MakeInputs(run.data_seed), run.query_seed);
  for (const Table& chunk : data.chunks) {
    for (int t = 0; t < kNumFamilies; ++t) {
      Must(run, engine.Ingest(kFamilies[t].table, chunk).status(), "Ingest");
    }
  }
  Must(run, engine.FlushAll().status(), "FlushAll");
  run.Check(SameBits(Score(run, engine, data, false), run.first_round_answers),
            "async final answers bit-identical to a synchronous replay");
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

void PrintResult(Run& run, const std::vector<Metric>& metrics) {
  std::printf("samples:");
  for (const Metric& m : metrics) std::printf(" %s=%zu", m.name.c_str(), m.samples);
  std::printf("\n");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              run.correct() ? "true" : "false",
              static_cast<long long>(run.attempted.load()),
              static_cast<long long>(run.failed.load()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<Metric> EndToEnd(Run& run) {
  return {
      {"setup_s", Median(run.setup_s), "s", run.setup_s.size()},
      {"peak_rss_mb", run.first_round_peak_rss_mb, "MiB", 1},
      {"estimate_qps", Median(run.round_qps), "queries/s", run.single_queries},
      {"estimate_p50_us", Median(run.round_p50_us), "us", run.b1_samples},
      {"estimate_p99_us", Median(run.round_p99_us), "us", run.b1_samples},
      {"join_qps", Median(run.round_join_qps), "queries/s", run.join_queries},
      {"ingest_rows_per_s", Median(run.round_ingest_rate), "rows/s",
       run.rows_ingested},
      {"update_p50_ms", SmoothQuantile(run.update_ms, 0.5), "ms", run.update_ms.size()},
      {"update_p90_ms", SmoothQuantile(run.update_ms, 0.9), "ms", run.update_ms.size()},
      {"freshness_p50_ms", SmoothQuantile(run.fresh_ms, 0.5), "ms", run.fresh_ms.size()},
      {"qerror_p50", Quantile(run.qerror, 0.5), "ratio", run.qerror.size()},
      {"qerror_p95", Quantile(run.qerror, 0.95), "ratio", run.qerror.size()},
      {"checkpoint_save_ms", Median(run.save_ms), "ms", run.save_ms.size()},
      {"checkpoint_load_ms", Median(run.load_ms), "ms", run.load_ms.size()},
      {"checkpoint_bytes", Median(run.checkpoint_bytes), "bytes",
       run.checkpoint_bytes.size()},
  };
}

std::string LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_us") || ends("_us_per_query")) return "us";
  if (ends("_ms") || name.rfind("api.clone_ms", 0) == 0) return "ms";
  if (ends("_s")) return "s";
  if (ends("_gflops")) return "GFLOP/s";
  if (ends("_mbps")) return "MB/s";
  if (ends("_pct")) return "%";
  if (name.rfind("io.section_bytes", 0) == 0 || ends("_bytes")) return "bytes";
  return "count";
}

// The traced round's work wall over its untraced twin's, per pair, in %.
std::vector<double> OverheadPct(const Run& run) {
  std::vector<double> pct;
  for (size_t i = 0;
       i < std::min(run.traced_wall_ms.size(), run.untraced_wall_ms.size()); ++i) {
    pct.push_back((run.traced_wall_ms[i] / run.untraced_wall_ms[i] - 1.0) * 100.0);
  }
  return pct;
}

std::vector<Metric> PerLayer(Run& run) {
  std::vector<Metric> out;
  for (const auto& [name, values] : run.layer) {
    out.push_back({name, Median(values), LayerUnit(name), values.size()});
  }
  const std::vector<double> overhead = OverheadPct(run);
  out.push_back({"trace.overhead_pct", Median(overhead), "%", overhead.size()});
  return out;
}

void PrintSelfTimes(Run& run) {
  const auto rows = run.tracer.SelfTimes();
  std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, row] : rows) {
    std::printf("%-34s %8lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(row.count), row.total_ms, row.self_ms);
  }
  auto find = [&](const char* name) {
    auto it = rows.find(name);
    return it == rows.end() ? Tracer::Row{} : it->second;
  };
  // The spans that hold the reported stage times: the Ingest calls
  // (synchronous engine) or the hand-over-to-publish waits (asynchronous).
  for (const char* name : {"api.Ingest", "update.batch"}) {
    const Tracer::Row row = find(name);
    if (row.count == 0) continue;
    std::printf("%s walls %.3f ms = stage spans %.3f ms + residual %.3f ms\n",
                name, row.total_ms, row.total_ms - row.self_ms, row.self_ms);
  }
  std::printf("estimate probe walls %.3f ms = exec engine %.3f ms + api "
              "residual %.3f ms\n",
              run.probe_engine_ms, run.probe_exec_ms,
              run.probe_engine_ms - run.probe_exec_ms);
  // Resolved only when every pair moves the same way.
  const std::vector<double> overhead = OverheadPct(run);
  const double lo = overhead.empty() ? 0.0 : *std::min_element(overhead.begin(), overhead.end());
  const double hi = overhead.empty() ? 0.0 : *std::max_element(overhead.begin(), overhead.end());
  std::printf("tracing overhead: traced work %.3f ms vs untraced %.3f ms; "
              "median %.2f %% over %zu pairs (range %.2f .. %.2f %%): %s\n",
              Median(run.traced_wall_ms), Median(run.untraced_wall_ms),
              Median(overhead), overhead.size(), lo, hi,
              lo > 0.0 || hi < 0.0 ? "resolved" : "unresolved, within the spread of the pairs");
}

int Main(int argc, char** argv) {
  std::string workload, workdir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(value.c_str());
    else if (key == "--trace") trace = std::atoi(value.c_str());
    else if (key == "--workdir") workdir = value;
    else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  Run run;
  if (!FindWorkload(workload, &run.spec)) {
    std::fprintf(stderr, "unknown workload '%s' (drift_stream, mixed)\n",
                 workload.c_str());
    return 2;
  }
  // Sizes ThreadPool::Global() before anything creates it.
  setenv("DDUP_THREADS", std::to_string(run.spec.pool_threads).c_str(), 1);
  run.seed = seed;
  run.workdir = workdir;
  std::filesystem::create_directories(workdir);
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  std::printf("host probe before: spin 1 thread %.3f s, %d threads %.3f s\n",
              SpinSeconds(1), nproc, SpinSeconds(nproc));
  const std::string setup_ckpt =
      run.spec.update_workers > 0 ? workdir + "/setup.ckpt" : std::string();
  // A fixed number of rounds. The traced run measures pairs of a traced
  // and an untraced round on the same inputs, so it can report its own
  // overhead; which of the two runs first alternates from pair to pair,
  // and the probes of the traced round run after both.
  const int planned = 1 + (trace ? 2 * kTracePairs : kMeasuredRounds);
  const double guard_s = 2.0 * seconds;
  const int64_t start = NowNs();
  int rounds = 0;
  try {
    RunRound(run, rounds++, 0, false, setup_ckpt);
    run.DiscardWarmup();
    while (rounds < planned && MsSince(start) * 1e-3 < guard_s) {
      if (!trace) {
        RunRound(run, rounds, rounds, false, {});
        ++rounds;
        continue;
      }
      const int pair = (rounds - 1) / 2;
      const bool traced_first = pair % 2 == 0;
      RoundState traced_round;
      for (int i = 0; i < 2; ++i, ++rounds) {
        const bool traced = (i == 0) == traced_first;
        RoundState state = RunRound(run, rounds, pair + 1, traced, {});
        if (traced) traced_round = std::move(state);
      }
      run.tracer.set_enabled(true);
      const RoundData& data = *traced_round.data;
      ProbeLayers(run, *traced_round.engine, traced_round.config, data.set,
                  data.accumulated, data.in.stream.batches.back(),
                  traced_round.checkpoint);
      run.tracer.set_enabled(false);
    }
    run.Check(rounds == planned,
              "ran " + std::to_string(rounds) + " of " + std::to_string(planned) +
                  " rounds within the guard of " + std::to_string(guard_s) + " s");
    run.tracer.set_enabled(false);
    if (!setup_ckpt.empty()) CheckSyncReplay(run, setup_ckpt);
  } catch (const RoundAbort& abort) {
    run.Check(false, "round aborted at " + abort.what);
  }
  std::printf("host probe after: spin 1 thread %.3f s, %d threads %.3f s\n",
              SpinSeconds(1), nproc, SpinSeconds(nproc));
  std::printf("workload %s seed %llu: %d of %d rounds in %.2f s\n",
              workload.c_str(), static_cast<unsigned long long>(seed), rounds,
              planned, MsSince(start) * 1e-3);
  if (!run.correct()) {
    std::printf("check failed: %s\n", run.first_check_failure.c_str());
  }
  std::error_code ec;
  std::filesystem::remove(workdir + "/engine.ckpt", ec);
  std::filesystem::remove(workdir + "/traced.ckpt", ec);
  if (!setup_ckpt.empty()) std::filesystem::remove(setup_ckpt, ec);
  if (trace) {
    PrintSelfTimes(run);
    const std::string spans = workdir + "/spans-" + workload + "-" +
                              std::to_string(seed) + ".jsonl";
    run.Check(run.tracer.WriteJsonLines(spans), "spans written");
    std::printf("spans: %zu written to %s\n", run.tracer.size(), spans.c_str());
    PrintResult(run, PerLayer(run));
  } else {
    PrintResult(run, EndToEnd(run));
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

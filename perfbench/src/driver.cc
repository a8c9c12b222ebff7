// CrossMine benchmark driver.
//
// One process runs one workload: it generates (or reuses) the seeded input
// files, then times calls into the public API of each module from outside —
// storage::OpenDatabase, Relation::GetAttrIndex/GetSortedIndex,
// CrossMineClassifier::Train, PredictBatchChecked, LoadModel, and the
// in-process PredictionServer — and checks every output it times.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--dir DIR] [--db-seed N] [--prepare 1]
//
// --prepare 1 only generates the inputs and exits, so that measured runs,
// each a fresh process, never pay generation in their time or peak RSS.
//
// Every workload runs the same five phases, each given a share of --seconds
// and interleaved in rounds (see RunPass):
//   train    CrossMineClassifier::Train on a freshly opened database (lazy
//            index builds included), 1 thread: a stratified 4/5 split, or on
//            serve workloads a retrain of the served model;
//   setup    open the served database with checksums verified, build every
//            attribute index, LoadModel, AddModel, Start;
//   score    PredictBatchChecked over every target id in 1024-id chunks;
//   latency  closed loop, one caller, one request in flight: single-id
//            predict requests interleaved 4:1 with 64-id predict_batch;
//   qps      the same request mix, one generator keeping 8 requests in
//            flight through SubmitAsync.
// Before every slice the driver times a fixed reference kernel (see
// host_speed.h) and reports the end-to-end timings scaled to a nominal host
// speed, so that the host's drift does not read as a change of the program.
// The last stdout line is one JSON object: correct/attempted/failed and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). A
// traced run measures every phase twice, untraced then traced, and reports
// the difference as the tracing overhead.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/synthetic.h"
#include "relational/index_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "storage/storage.h"
#include "host_speed.h"
#include "trace.h"

using namespace crossmine;
using perfbench::HostSpeed;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

constexpr uint64_t kDefaultSeed = 29;
constexpr size_t kScoreChunk = 1024;
constexpr int kBatchIds = 64;
constexpr int kInFlight = 8;
// Percentile sample floors: p90 needs >= 10 samples beyond it.
constexpr size_t kMinSingles = 100;
constexpr size_t kMinBatches = 20;
// The phases of a pass interleave in this many rounds.
constexpr int kRounds = 3;

struct Workload {
  const char* name;
  int64_t size;        ///< synthetic R20.T<size>.F2
  int64_t model_size;  ///< >0: served model comes from R20.T<model_size>.F2
  // Shares of --seconds given to train, setup, score, latency, qps.
  double share[5];
  // Pinned outputs for --db-seed 29: holdout hits/total and the FNV-1a hash
  // of the SerializeModel bytes of the trained (train workloads) or served
  // (serve workloads) model.
  int64_t pinned_hits;
  int64_t pinned_total;
  uint64_t pinned_model_hash;
};

const Workload kWorkloads[] = {
    {"train_t10k", 10000, 0, {0.45, 0.05, 0.08, 0.27, 0.15},
     1818, 1999, 0x68cf30561227fb72ULL},
    {"serve_t100k", 100000, 1000, {0.06, 0.30, 0.30, 0.22, 0.12},
     87146, 100000, 0x837e09c06f63a1a7ULL},
};

// ---------------------------------------------------------------------------
// Small utilities.

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Get(const MetricsSnapshot& snap, const char* key) {
  auto it = snap.find(key);
  return it == snap.end() ? 0.0 : it->second;
}

/// Operation accounting: every timed operation and every output check is
/// one attempt; a failed call or a wrong answer is one failure.
struct Ledger {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> first_failures;

  bool Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failures.size() < 8) first_failures.push_back(what);
    }
    return ok;
  }
};

// ---------------------------------------------------------------------------
// Inputs. Generated once per (generator, config, seed) into --dir and reused;
// the measured code only ever sees these files.

std::string SyntheticPath(const std::string& dir, int64_t tuples,
                          uint64_t seed) {
  return dir + "/synthetic-R20.T" + std::to_string(tuples) + ".F2-s" +
         std::to_string(seed) + ".cmdb";
}

std::string TmpName(const std::string& path) {
  return path + ".tmp" + std::to_string(getpid()) + ".cmdb";
}

Status Publish(const std::string& tmp, const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::Internal("rename " + tmp + ": " + ec.message());
  return Status::OK();
}

Status EnsureSynthetic(const std::string& path, int64_t tuples, uint64_t seed) {
  if (std::filesystem::exists(path)) return Status::OK();
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 20;
  cfg.expected_tuples = tuples;
  cfg.expected_fkeys = 2;
  cfg.seed = seed;
  std::string tmp = TmpName(path);
  CM_RETURN_IF_ERROR(datagen::GenerateSyntheticDatabaseToFile(cfg, tmp));
  return Publish(tmp, path);
}

/// The Figure 11 configuration: categorical literals only, negative sampling.
CrossMineOptions TrainOptions(uint64_t sampling_seed) {
  CrossMineOptions o;
  o.use_numerical_literals = false;
  o.use_aggregation_literals = false;
  o.use_sampling = true;
  o.num_threads = 1;
  o.seed = sampling_seed;
  return o;
}

/// Stratified 4/5 split: each class's ids are shuffled with `seed` and every
/// fifth goes to the holdout. Both halves are returned ascending.
void StratifiedSplit(const Database& db, uint64_t seed,
                     std::vector<TupleId>* train, std::vector<TupleId>* test) {
  std::vector<std::vector<TupleId>> by_class(
      static_cast<size_t>(std::max(db.num_classes(), 1)));
  const std::vector<ClassId>& labels = db.labels();
  for (TupleId t = 0; t < static_cast<TupleId>(labels.size()); ++t) {
    by_class[static_cast<size_t>(labels[t])].push_back(t);
  }
  uint64_t state = seed * 0x2545F4914F6CDD1DULL + 1;
  for (std::vector<TupleId>& ids : by_class) {
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[SplitMix64(&state) % i]);
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      (i % 5 == 4 ? test : train)->push_back(ids[i]);
    }
  }
  std::sort(train->begin(), train->end());
  std::sort(test->begin(), test->end());
}

struct Inputs {
  std::string train_db;   ///< database the train phase trains on
  std::string served_db;  ///< database the server answers over
  std::string model;      ///< served model, trained here on train_db
};

/// Generates the workload's databases and its served model, each unless a
/// file for the same generator, config and seed is already in `dir`. The
/// served model is trained (untimed) on every tuple of `train_db` with a
/// fixed sampling seed, so serving measures the same model whatever --seed
/// a run uses.
Status PrepareInputs(const Workload& w, const std::string& dir,
                     uint64_t db_seed, Inputs* in) {
  std::filesystem::create_directories(dir);
  in->served_db = SyntheticPath(dir, w.size, db_seed);
  CM_RETURN_IF_ERROR(EnsureSynthetic(in->served_db, w.size, db_seed));
  in->train_db = in->served_db;
  if (w.model_size > 0) {
    // Same generator seed, so the same schema fingerprint as served_db.
    in->train_db = SyntheticPath(dir, w.model_size, db_seed);
    CM_RETURN_IF_ERROR(EnsureSynthetic(in->train_db, w.model_size, db_seed));
  }
  std::string stem = std::filesystem::path(in->train_db).stem().string();
  in->model = dir + "/model-" + stem + "-fig11.cmm";
  if (std::filesystem::exists(in->model)) return Status::OK();
  StatusOr<Database> db = storage::OpenDatabase(in->train_db);
  if (!db.ok()) return db.status();
  std::vector<TupleId> all(db->target_relation().num_tuples());
  for (TupleId t = 0; t < static_cast<TupleId>(all.size()); ++t) all[t] = t;
  CrossMineClassifier model(TrainOptions(/*sampling_seed=*/1));
  CM_RETURN_IF_ERROR(model.Train(*db, all));
  std::string tmp = in->model + ".tmp" + std::to_string(getpid());
  CM_RETURN_IF_ERROR(SaveModel(model, *db, tmp));
  return Publish(tmp, in->model);
}

// ---------------------------------------------------------------------------
// Run state.

struct Context {
  const Workload* w = nullptr;
  uint64_t seed = kDefaultSeed;
  uint64_t db_seed = kDefaultSeed;
  Inputs in;
  Tracer* tracer = nullptr;
  Ledger* ledger = nullptr;
  HostSpeed* host = nullptr;
};

/// Keeps repeating while the phase budget lasts: at least `min_reps`, and
/// another one only if the last one would still fit.
bool Continue(const Stopwatch& phase, double budget, double last, size_t reps,
              size_t min_reps) {
  if (reps < min_reps) return true;
  return phase.ElapsedSeconds() + last <= budget;
}

// ---------------------------------------------------------------------------
// Phases. A pass runs kRounds rounds; each round gives every phase
// 1/kRounds of its share, in the order train, setup, score, latency, qps, and
// then stops the server. Interleaving spreads each metric's samples over the
// whole run, so a few seconds of interference from other tenants of the host
// move every metric a little instead of one metric a lot.

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct TrainState {
  std::vector<double> secs;
  double accuracy = 0.0;
  std::vector<MetricsSnapshot> snaps;  ///< traced: one per repetition
  uint64_t first_hash = 0;
};

/// Train workloads train on a stratified 4/5 split and score the other
/// fifth; the split and the sampling seed follow --db-seed, so every run on
/// one database trains the same model and train_s varies with the host only.
/// Serve workloads retrain their served model (every tuple of the small
/// database, sampling seed 1), which must come out byte for byte equal to the
/// model file the server loads.
void TrainSlice(Context* cx, double budget, TrainState* st) {
  const Workload& w = *cx->w;
  const bool traced = cx->tracer->enabled();
  const bool retrain_served = w.model_size > 0;
  Stopwatch slice;
  double last = 0.0;
  for (size_t n = 0; Continue(slice, budget, last, n, 1); ++n) {
    const size_t rep = st->secs.size();
    const int64_t id = static_cast<int64_t>(rep);
    ScopedSpan rep_span(cx->tracer, "bench.train_rep", id);
    StatusOr<Database> db = [&] {
      ScopedSpan s(cx->tracer, "storage.OpenDatabase", id);
      return storage::OpenDatabase(cx->in.train_db);
    }();
    if (!cx->ledger->Op(db.ok(), "open " + cx->in.train_db)) return;
    std::vector<TupleId> train, test;
    if (retrain_served) {
      train.resize(db->target_relation().num_tuples());
      for (TupleId t = 0; t < static_cast<TupleId>(train.size()); ++t) {
        train[t] = t;
      }
    } else {
      StratifiedSplit(*db, cx->db_seed, &train, &test);
    }

    CrossMineClassifier model(
        TrainOptions(retrain_served ? 1 : cx->db_seed));
    MetricsRegistry registry;
    if (traced) {
      TouchStandardTrainMetrics(&registry);
      model.set_metrics(&registry);
    }
    Stopwatch wall;
    Status status = [&] {
      ScopedSpan s(cx->tracer, "core.Train", id);
      return model.Train(*db, train);
    }();
    last = wall.ElapsedSeconds();
    if (!cx->ledger->Op(status.ok(), "train: " + status.ToString())) return;
    st->secs.push_back(last);
    if (traced) st->snaps.push_back(registry.Snapshot());
    model.set_metrics(nullptr);

    std::string bytes = [&] {
      ScopedSpan s(cx->tracer, "core.SerializeModel", id);
      return SerializeModel(model, *db);
    }();
    uint64_t hash = Fnv1a(bytes);
    if (retrain_served) {
      cx->ledger->Op(bytes == ReadFile(cx->in.model),
                     "retrained model differs from the served model file");
      continue;
    }
    if (rep > 0) {
      cx->ledger->Op(hash == st->first_hash,
                     "model bytes differ between train repetitions");
      continue;
    }
    st->first_hash = hash;
    StatusOr<std::vector<ClassId>> pred = [&] {
      ScopedSpan s(cx->tracer, "core.PredictBatchChecked", id);
      return model.PredictBatchChecked(*db, test);
    }();
    if (!cx->ledger->Op(pred.ok(), "holdout predict")) return;
    int64_t hits = 0;
    for (size_t i = 0; i < test.size(); ++i) {
      hits += (*pred)[i] == db->labels()[test[i]];
    }
    st->accuracy = test.empty() ? 0.0 : static_cast<double>(hits) / test.size();
    std::printf("# trained model: %zu bytes, fnv1a %016llx, holdout %lld/%zu\n",
                bytes.size(), static_cast<unsigned long long>(hash),
                static_cast<long long>(hits), test.size());
    if (cx->db_seed == kDefaultSeed) {
      cx->ledger->Op(hits == w.pinned_hits &&
                         static_cast<int64_t>(test.size()) == w.pinned_total,
                     "holdout hits " + std::to_string(hits) + "/" +
                         std::to_string(test.size()) + " != pinned " +
                         std::to_string(w.pinned_hits) + "/" +
                         std::to_string(w.pinned_total));
      cx->ledger->Op(hash == w.pinned_model_hash,
                     "model hash differs from the pinned hash");
    }
  }
}

struct Served {
  std::unique_ptr<Database> db;
  std::unique_ptr<serve::PredictionServer> server;
  std::unique_ptr<CrossMineClassifier> direct;  ///< same model, no server
};

/// Checks the server's own accounting, then drains and frees everything.
void StopServer(Context* cx, Served* s) {
  if (s->server) {
    MetricsSnapshot stats = s->server->StatsSnapshot();
    cx->ledger->Op(Get(stats, "serve.sheds") == 0, "server shed requests");
    cx->ledger->Op(Get(stats, "serve.deadline_exceeded") == 0,
                   "requests exceeded their deadline");
    cx->ledger->Op(Get(stats, "serve.errors") == 0, "server answered errors");
    s->server->Drain();
  }
  s->server.reset();
  s->direct.reset();
  s->db.reset();
}

serve::ServerOptions ServeOptions() {
  serve::ServerOptions o;
  o.threads = 1;
  o.batch_size = 32;
  o.max_queue = 4096;  // deep enough that the 8-in-flight loop never sheds
  return o;
}

void BuildAllIndexes(const Database& db) {
  for (RelId r = 0; r < db.num_relations(); ++r) {
    const Relation& rel = db.relation(r);
    for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
      if (rel.schema().attr(a).kind == AttrKind::kNumerical) {
        rel.GetSortedIndex(a);
      } else {
        rel.GetAttrIndex(a);
      }
    }
  }
}

struct SetupState {
  std::vector<double> secs;
  uint64_t index_bytes = 0;
};

/// Sets the server up at least once and keeps the last one in `out`.
void SetupSlice(Context* cx, double budget, SetupState* st, Served* out) {
  Stopwatch slice;
  double last = 0.0;
  for (size_t n = 0; Continue(slice, budget, last, n, 1); ++n) {
    StopServer(cx, out);
    const int64_t id = static_cast<int64_t>(st->secs.size());
    ScopedSpan rep_span(cx->tracer, "bench.setup_rep", id);
    Stopwatch wall;
    StatusOr<Database> db = [&] {
      ScopedSpan s(cx->tracer, "storage.OpenDatabase", id);
      return storage::OpenDatabase(cx->in.served_db);
    }();
    if (!cx->ledger->Op(db.ok(), "open " + cx->in.served_db)) return;
    Served s;
    s.db = std::make_unique<Database>(std::move(*db));
    {
      ScopedSpan span(cx->tracer, "relational.BuildIndexes", id);
      BuildAllIndexes(*s.db);
    }
    StatusOr<CrossMineClassifier> model = [&] {
      ScopedSpan span(cx->tracer, "core.LoadModel", id);
      return LoadModel(*s.db, cx->in.model);
    }();
    if (!cx->ledger->Op(model.ok(), "load model")) return;
    s.server = std::make_unique<serve::PredictionServer>(s.db.get(),
                                                         ServeOptions());
    Status status = [&] {
      ScopedSpan span(cx->tracer, "serve.AddModel", id);
      return s.server->AddModel(
          "m", std::make_unique<CrossMineClassifier>(*model));
    }();
    if (!cx->ledger->Op(status.ok(), "add model")) return;
    status = [&] {
      ScopedSpan span(cx->tracer, "serve.Start", id);
      return s.server->Start();
    }();
    if (!cx->ledger->Op(status.ok(), "start server")) return;
    last = wall.ElapsedSeconds();
    st->secs.push_back(last);
    s.direct = std::make_unique<CrossMineClassifier>(std::move(*model));
    *out = std::move(s);
    st->index_bytes = IndexCache::Global().stats().current_bytes;
  }
}

struct ScoreState {
  TupleId cursor = 0;             ///< next id of the pass in progress
  double pass_time = 0.0;         ///< scoring time of the pass in progress
  std::vector<ClassId> current;   ///< answers of the first pass so far
  std::vector<ClassId> expected;  ///< the first complete pass
  std::vector<double> pass_secs;
  uint64_t scored = 0;
  double scoring = 0.0;

  double ids_per_s() const {
    return scoring > 0 ? static_cast<double>(scored) / scoring : 0.0;
  }
};

/// Scores 1024-id chunks for the budget (at least one), continuing the pass
/// the last slice left off. With `finish`, keeps going until one pass over
/// every target id is complete. Every chunk scored after the first pass is
/// checked against the first pass's answers for the same ids.
void ScoreSlice(Context* cx, double budget, ScoreState* st, const Served& s,
                bool finish) {
  const Database& db = *s.db;
  const TupleId n = db.target_relation().num_tuples();
  Stopwatch slice;
  std::vector<TupleId> chunk;
  for (size_t k = 0; k == 0 || slice.ElapsedSeconds() < budget ||
                     (finish && st->expected.empty());
       ++k) {
    const int64_t pass = static_cast<int64_t>(st->pass_secs.size());
    TupleId hi = std::min<TupleId>(n, st->cursor + kScoreChunk);
    chunk.clear();
    for (TupleId t = st->cursor; t < hi; ++t) chunk.push_back(t);
    Stopwatch wall;
    StatusOr<std::vector<ClassId>> pred = [&] {
      ScopedSpan span(cx->tracer, "core.PredictBatchChecked", pass);
      return s.direct->PredictBatchChecked(db, chunk);
    }();
    double secs = wall.ElapsedSeconds();
    if (!cx->ledger->Op(pred.ok(), "score chunk")) return;
    if (st->expected.empty()) {
      st->current.insert(st->current.end(), pred->begin(), pred->end());
    } else {
      cx->ledger->Op(std::equal(pred->begin(), pred->end(),
                                st->expected.begin() + st->cursor),
                     "score chunk differs from the first pass");
    }
    st->pass_time += secs;
    st->scoring += secs;
    st->scored += chunk.size();
    st->cursor = hi;
    if (st->cursor < n) continue;
    st->pass_secs.push_back(st->pass_time);
    if (st->expected.empty()) st->expected = std::move(st->current);
    st->current.clear();
    st->cursor = 0;
    st->pass_time = 0.0;
  }
}

/// The seeded request stream of the latency and qps loops: every fifth
/// request is a 64-id predict_batch, the rest single-id predict.
class RequestStream {
 public:
  struct Req {
    std::string line;
    std::vector<TupleId> ids;
    bool batch = false;
  };

  void Reset(uint64_t seed, TupleId num_targets) {
    state_ = seed ^ 0x5DEECE66DULL;
    n_ = num_targets;
  }
  bool ready() const { return n_ > 0; }
  int64_t count() const { return i_; }

  Req Next() {
    Req r;
    r.batch = (i_++ % 5) == 4;
    int count = r.batch ? kBatchIds : 1;
    for (int k = 0; k < count; ++k) {
      r.ids.push_back(static_cast<TupleId>(SplitMix64(&state_) % n_));
    }
    if (r.batch) {
      r.line = "{\"verb\":\"predict_batch\",\"ids\":[";
      for (size_t k = 0; k < r.ids.size(); ++k) {
        if (k > 0) r.line += ',';
        r.line += std::to_string(r.ids[k]);
      }
      r.line += "]}";
    } else {
      r.line = "{\"verb\":\"predict\",\"id\":" + std::to_string(r.ids[0]) + "}";
    }
    return r;
  }

 private:
  uint64_t state_ = 0;
  TupleId n_ = 0;
  int64_t i_ = 0;
};

/// A served response, checked against the score pass once the run ends.
struct Answer {
  RequestStream::Req req;
  std::string got;
};

void CheckAnswers(Context* cx, const std::vector<Answer>& answers,
                  const std::vector<ClassId>& expected) {
  for (const Answer& a : answers) {
    std::string want;
    if (!a.req.batch) {
      want = serve::EncodePrediction(expected[a.req.ids[0]], "");
    } else {
      std::vector<ClassId> preds;
      for (TupleId t : a.req.ids) preds.push_back(expected[t]);
      want = serve::EncodePredictions(preds, "");
    }
    cx->ledger->Op(a.got == want, "response mismatch: " + a.got);
  }
}

struct LatencyState {
  RequestStream stream;
  std::vector<double> single_ms, batch_ms;
  // Traced only: the same requests without the server, and the codec.
  std::vector<double> direct_single_ms, direct_batch_ms, self_ms, codec_us;
  std::vector<Answer> answers;
};

/// Closed loop with one caller. With `finish`, keeps going until the
/// percentile sample floors are met.
void LatencySlice(Context* cx, double budget, LatencyState* st,
                  const Served& s, bool finish) {
  const bool traced = cx->tracer->enabled();
  if (!st->stream.ready()) {
    st->stream.Reset(cx->seed, s.db->target_relation().num_tuples());
  }
  Stopwatch slice;
  while (slice.ElapsedSeconds() < budget ||
         (finish && (st->single_ms.size() < kMinSingles ||
                     st->batch_ms.size() < kMinBatches))) {
    RequestStream::Req req = st->stream.Next();
    const int64_t id = st->stream.count();
    ScopedSpan root(cx->tracer, "bench.request", id);
    Stopwatch wall;
    std::string got;
    {
      ScopedSpan span(cx->tracer, "serve.Submit", id);
      got = s.server->Submit(req.line);
    }
    double ms = wall.ElapsedMillis();
    (req.batch ? st->batch_ms : st->single_ms).push_back(ms);
    if (traced) {
      Stopwatch direct;
      StatusOr<std::vector<ClassId>> pred = [&] {
        ScopedSpan span(cx->tracer, "core.PredictBatchChecked", id);
        return s.direct->PredictBatchChecked(*s.db, req.ids);
      }();
      double direct_ms = direct.ElapsedMillis();
      if (!cx->ledger->Op(pred.ok(), "direct predict")) return;
      (req.batch ? st->direct_batch_ms : st->direct_single_ms)
          .push_back(direct_ms);
      st->self_ms.push_back(ms - direct_ms);

      Stopwatch codec;
      std::string encoded;
      {
        ScopedSpan span(cx->tracer, "serve.codec", id);
        StatusOr<serve::Request> parsed = serve::ParseRequest(req.line);
        if (!cx->ledger->Op(parsed.ok(), "parse request")) return;
        encoded = req.batch ? serve::EncodePredictions(*pred, "")
                            : serve::EncodePrediction((*pred)[0], "");
      }
      st->codec_us.push_back(codec.ElapsedMillis() * 1000.0);
      cx->ledger->Op(encoded == got, "direct answer differs from the server's");
    }
    st->answers.push_back(Answer{std::move(req), std::move(got)});
  }
}

struct QpsState {
  RequestStream stream;
  int64_t completed = 0;
  double secs = 0.0;
  double batches = 0.0;
  double batched = 0.0;
  double queue_highwater = 0.0;
  std::vector<Answer> answers;

  double qps() const { return secs > 0 ? completed / secs : 0.0; }
  double mean_batch_size() const {
    return batches > 0 ? batched / batches : 0.0;
  }
};

/// One generator keeping kInFlight requests in flight, then draining them.
void QpsSlice(Context* cx, double budget, QpsState* st, const Served& s) {
  ScopedSpan span(cx->tracer, "bench.qps_slice", st->completed);
  if (!st->stream.ready()) {
    st->stream.Reset(cx->seed + 1, s.db->target_relation().num_tuples());
  }
  MetricsSnapshot before = s.server->StatsSnapshot();
  std::deque<std::pair<std::future<std::string>, RequestStream::Req>> flight;
  Stopwatch wall;
  auto complete_oldest = [&] {
    std::string got = flight.front().first.get();
    st->answers.push_back(Answer{std::move(flight.front().second), got});
    flight.pop_front();
    ++st->completed;
  };
  while (wall.ElapsedSeconds() < budget) {
    while (flight.size() < static_cast<size_t>(kInFlight)) {
      RequestStream::Req req = st->stream.Next();
      std::future<std::string> f = s.server->SubmitAsync(req.line);
      flight.emplace_back(std::move(f), std::move(req));
    }
    complete_oldest();
  }
  while (!flight.empty()) complete_oldest();
  st->secs += wall.ElapsedSeconds();
  MetricsSnapshot after = s.server->StatsSnapshot();
  st->batches += Get(after, "serve.batches") - Get(before, "serve.batches");
  st->batched += Get(after, "serve.batched_requests") -
                 Get(before, "serve.batched_requests");
  st->queue_highwater =
      std::max(st->queue_highwater, Get(after, "serve.queue_highwater"));
}

// ---------------------------------------------------------------------------
// One measured pass over all five phases.

struct PassResult {
  TrainState train;
  SetupState setup;
  ScoreState score;
  LatencyState latency;
  QpsState qps;
  double accuracy = 0.0;
  MetricsSnapshot predict_snap;  ///< traced: the direct models' counters
  double reference_s = 0.0;      ///< median host reference over the pass

  double train_s() const { return Median(train.secs); }
  double setup_s() const { return Median(setup.secs); }
  double p50() const { return Percentile(latency.single_ms, 0.50); }
  double p90() const { return Percentile(latency.single_ms, 0.90); }
  double b50() const { return Percentile(latency.batch_ms, 0.50); }
};

void PrintReps(const char* what, const std::vector<double>& secs) {
  std::printf("# %s (s):", what);
  for (double v : secs) std::printf(" %.4f", v);
  std::printf("\n");
}

void RunPass(Context* cx, double seconds, PassResult* p) {
  const Workload& w = *cx->w;
  const double round = seconds / kRounds;
  MetricsRegistry predict_registry;
  if (cx->tracer->enabled()) TouchStandardPredictMetrics(&predict_registry);
  // The host reference is probed before every slice and once at the end, so
  // its median covers the same stretch of time as the phases' medians.
  const size_t first_probe = cx->host->probes();
  for (int r = 0; r < kRounds; ++r) {
    const bool last = r + 1 == kRounds;
    cx->host->Probe();
    TrainSlice(cx, round * w.share[0], &p->train);
    cx->host->Probe();
    Served served;
    SetupSlice(cx, round * w.share[1], &p->setup, &served);
    if (!served.server) break;
    if (cx->tracer->enabled()) served.direct->set_metrics(&predict_registry);
    cx->host->Probe();
    ScoreSlice(cx, round * w.share[2], &p->score, served, last);
    cx->host->Probe();
    LatencySlice(cx, round * w.share[3], &p->latency, served, last);
    cx->host->Probe();
    QpsSlice(cx, round * w.share[4], &p->qps, served);
    StopServer(cx, &served);
  }
  cx->host->Probe();
  p->reference_s = cx->host->reference_s(first_probe);
  p->predict_snap = predict_registry.Snapshot();
  PrintReps("train repetitions", p->train.secs);
  PrintReps("setup repetitions", p->setup.secs);
  PrintReps("score passes", p->score.pass_secs);
  std::printf("# host reference: median %.4f s over %zu probes "
              "(nominal %.3f s)\n",
              p->reference_s, cx->host->probes() - first_probe,
              HostSpeed::kNominalSeconds);
  std::printf("# latency samples: %zu single, %zu batch64 (p50 %.3f ms); "
              "qps loop: %lld requests in %.3f s\n",
              p->latency.single_ms.size(), p->latency.batch_ms.size(),
              p->b50(), static_cast<long long>(p->qps.completed), p->qps.secs);

  const std::vector<ClassId>& expected = p->score.expected;
  if (!cx->ledger->Op(!expected.empty(), "no complete score pass")) return;
  CheckAnswers(cx, p->latency.answers, expected);
  CheckAnswers(cx, p->qps.answers, expected);
  // Labels of the served database, read from the file the server used.
  StatusOr<Database> db = storage::OpenDatabase(cx->in.served_db);
  if (!cx->ledger->Op(db.ok(), "reopen " + cx->in.served_db)) return;
  int64_t hits = 0;
  for (TupleId t = 0; t < static_cast<TupleId>(expected.size()); ++t) {
    hits += expected[t] == db->labels()[t];
  }
  const uint64_t served_hash = Fnv1a(ReadFile(cx->in.model));
  std::printf("# served model: fnv1a %016llx, %lld/%zu served ids correct\n",
              static_cast<unsigned long long>(served_hash),
              static_cast<long long>(hits), expected.size());
  p->accuracy = w.model_size > 0
                    ? static_cast<double>(hits) / expected.size()
                    : p->train.accuracy;
  if (w.model_size > 0 && cx->db_seed == kDefaultSeed) {
    cx->ledger->Op(hits == w.pinned_hits &&
                       static_cast<int64_t>(expected.size()) == w.pinned_total,
                   "served accuracy differs from the pinned value");
    cx->ledger->Op(served_hash == w.pinned_model_hash,
                   "served model hash differs from the pinned hash");
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  double error_ratio = static_cast<double>(ledger.failed) /
                       static_cast<double>(std::max<int64_t>(ledger.attempted, 1));
  std::printf("%-40s %16.6f ratio (%lld failed of %lld attempted)\n",
              "error_ratio", error_ratio, static_cast<long long>(ledger.failed),
              static_cast<long long>(ledger.attempted));
  for (const std::string& f : ledger.first_failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\":";
  json += ledger.failed == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(ledger.attempted);
  json += ",\"failed\":" + std::to_string(ledger.failed);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", metrics[i].value);
    if (i > 0) json += ',';
    json += "\"" + metrics[i].name + "\":{\"value\":" + buf +
            ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// The end-to-end timings of a pass. With `nominal`, scaled to the nominal
/// host speed (see host_speed.h): times shrink and rates grow while the host
/// runs slow. Otherwise as measured.
std::vector<Metric> Timings(const PassResult& p, bool nominal) {
  const double f = nominal ? HostSpeed::kNominalSeconds / p.reference_s : 1.0;
  return {
      {"setup_s", p.setup_s() * f, "s"},
      {"train_s", p.train_s() * f, "s"},
      {"score_ids_per_s", p.score.ids_per_s() / f, "1/s"},
      {"predict_p50_ms", p.p50() * f, "ms"},
      {"predict_p90_ms", p.p90() * f, "ms"},
      {"serve_qps", p.qps.qps() / f, "1/s"},
  };
}

/// The end-to-end metrics. The timings as measured are printed as comments.
std::vector<Metric> EndToEnd(const PassResult& p, const HostSpeed& host) {
  for (const Metric& m : Timings(p, /*nominal=*/false)) {
    std::printf("# measured %-31s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::vector<Metric> out = Timings(p, /*nominal=*/true);
  out.push_back({"holdout_accuracy", p.accuracy, "ratio"});
  // The reference kernel's buffer is resident for the whole run.
  const double host_mb = static_cast<double>(host.resident_bytes()) / 1048576.0;
  out.push_back({"peak_rss_mb", PeakRssMb() - host_mb, "MB"});
  return out;
}

double MedianOf(const std::vector<MetricsSnapshot>& snaps, const char* key) {
  std::vector<double> v;
  for (const MetricsSnapshot& s : snaps) v.push_back(Get(s, key));
  return Median(v);
}

double DurationsMedian(const Tracer& t, const std::string& name,
                       const std::string& parent) {
  std::vector<double> v;
  for (const perfbench::Span& s : t.spans()) {
    if (s.name != name || s.parent < 0) continue;
    if (t.spans()[static_cast<size_t>(s.parent)].name == parent) {
      v.push_back(s.end_s - s.start_s);
    }
  }
  return Median(v);
}

std::vector<Metric> PerLayer(const PassResult& plain, const PassResult& traced,
                             const Tracer& t) {
  const std::vector<MetricsSnapshot>& ts = traced.train.snaps;
  const MetricsSnapshot last = ts.empty() ? MetricsSnapshot{} : ts.back();
  double hits = Get(last, "train.propagation.cache_hits");
  double refreshes = Get(last, "train.propagation.cache_refreshes");
  double misses = Get(last, "train.propagation.cache_misses");
  double lookups = hits + refreshes + misses;
  double tuples = Get(traced.predict_snap, "predict.tuples");
  std::vector<Metric> out = {
      {"storage.open_s", DurationsMedian(t, "storage.OpenDatabase",
                                         "bench.setup_rep"), "s"},
      {"relational.index_build_s",
       DurationsMedian(t, "relational.BuildIndexes", "bench.setup_rep"), "s"},
      {"relational.index_bytes", static_cast<double>(traced.setup.index_bytes),
       "bytes"},
      {"core.train.propagation_s",
       MedianOf(ts, "train.phase.propagation_seconds"), "s"},
      {"core.train.lookahead_s", MedianOf(ts, "train.phase.lookahead_seconds"),
       "s"},
      {"core.train.literal_search_s",
       MedianOf(ts, "train.phase.literal_search_seconds"), "s"},
      {"core.train.prop_cache_reuse_ratio",
       lookups > 0 ? (hits + refreshes) / lookups : 0.0, "ratio"},
      {"core.train.peak_id_bytes",
       Get(last, "train.propagation.peak_id_bytes"), "bytes"},
      {"core.train.literals_scored", Get(last, "train.literals_scored"),
       "count"},
      {"core.train.search_tasks", Get(last, "train.search.tasks"), "count"},
      {"core.train.clauses_built", Get(last, "train.clauses_built"), "count"},
      {"core.predict.score_s", Median(traced.score.pass_secs), "s"},
      {"core.predict.single_ms_p50",
       Percentile(traced.latency.direct_single_ms, 0.5), "ms"},
      {"core.predict.batch64_ms_p50",
       Percentile(traced.latency.direct_batch_ms, 0.5), "ms"},
      {"serve.batch64_ms_p50", traced.b50(), "ms"},
      {"core.predict.clauses_evaluated_per_id",
       tuples > 0 ? Get(traced.predict_snap, "predict.clauses_evaluated") /
                        tuples
                  : 0.0,
       "count"},
      {"serve.self_ms_p50", Percentile(traced.latency.self_ms, 0.5), "ms"},
      {"serve.codec_us_p50", Percentile(traced.latency.codec_us, 0.5), "us"},
      {"serve.mean_batch_size", traced.qps.mean_batch_size(), "count"},
      {"serve.queue_highwater", traced.qps.queue_highwater, "count"},
      {"host.reference_s", traced.reference_s, "s"},
  };
  // Tracing overhead at the nominal host speed, so that the host's drift
  // between the two passes does not read as overhead.
  std::vector<Metric> on = Timings(traced, /*nominal=*/true);
  std::vector<Metric> off = Timings(plain, /*nominal=*/true);
  for (size_t i = 0; i < on.size(); ++i) {
    out.push_back({"overhead." + on[i].name, on[i].value - off[i].value,
                   on[i].unit});
  }
  return out;
}

/// Pins the process, and so every thread it starts later, to the CPU it is
/// running on. All phases use one core at a time (the closed loop has one
/// request in flight; the qps loop's generator and dispatcher mostly wait on
/// the single pool worker), so pinning costs little. It removes the spread
/// of cross-core migrations: on the 4-vCPU host that defined the bounds,
/// train_t10k's train_s spread 5.9 % over five seeds unpinned and 2.3 %
/// pinned, and predict_p90_ms 20.8 % and 9.7 %.
void PinToCurrentCpu() {
  int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  if (cpu < 0 || sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::printf("# could not pin to one CPU; running unpinned\n");
    return;
  }
  std::printf("# pinned to CPU %d\n", cpu);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--dir DIR] "
               "[--db-seed N] [--prepare 1]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, dir = ".bench_build/perfbench-data";
  uint64_t seed = kDefaultSeed, db_seed = kDefaultSeed, seconds = 35, trace = 0;
  uint64_t prepare = 0;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--dir") {
      dir = value;
    } else if (flag == "--seed") {
      ok = ParseU64(value, &seed);
    } else if (flag == "--db-seed") {
      ok = ParseU64(value, &db_seed);
    } else if (flag == "--seconds") {
      ok = ParseU64(value, &seconds) && seconds > 0;
    } else if (flag == "--trace") {
      ok = ParseU64(value, &trace) && trace <= 1;
    } else if (flag == "--prepare") {
      ok = ParseU64(value, &prepare) && prepare <= 1;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (!ok) Usage(("bad value for " + flag).c_str());
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (workload == c.name) w = &c;
  }
  if (w == nullptr) Usage(("unknown workload '" + workload + "'").c_str());

  Context cx;
  cx.w = w;
  cx.seed = seed;
  cx.db_seed = db_seed;
  Status st = PrepareInputs(*w, dir, db_seed, &cx.in);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench_driver: inputs: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  if (prepare == 1) return 0;
  std::printf("# workload %s seed %llu db-seed %llu seconds %llu trace %llu\n",
              w->name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(db_seed),
              static_cast<unsigned long long>(seconds),
              static_cast<unsigned long long>(trace));

  PinToCurrentCpu();
  Ledger ledger;
  cx.ledger = &ledger;
  HostSpeed host;
  cx.host = &host;
  const double secs = static_cast<double>(seconds);
  if (trace == 0) {
    Tracer off(false);
    cx.tracer = &off;
    PassResult p;
    RunPass(&cx, secs, &p);
    PrintResult(ledger, EndToEnd(p, host));
    return 0;
  }

  Tracer off(false);
  cx.tracer = &off;
  PassResult plain;
  RunPass(&cx, secs / 2, &plain);
  Tracer on(true);
  cx.tracer = &on;
  PassResult traced;
  RunPass(&cx, secs / 2, &traced);
  std::string trace_dir = dir + "/traces";
  std::filesystem::create_directories(trace_dir);
  std::string path = trace_dir + "/" + w->name + "-s" + std::to_string(seed) +
                     ".spans.jsonl";
  ledger.Op(on.WriteJsonl(path), "write " + path);
  std::printf("# %zu spans written to %s\n# self time by span:\n%s",
              on.spans().size(), path.c_str(), on.SelfTimeTable().c_str());
  PrintResult(ledger, PerLayer(plain, traced, on));
  return 0;
}

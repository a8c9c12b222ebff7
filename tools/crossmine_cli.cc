// crossmine — command-line front end for the library. `crossmine help`
// prints every command and flag, generated from the table in tools/flags.cc.
// Every <db> goes through storage::OpenDatabase (a CSV + schema.txt
// directory or a mmap-backed `.cmdb`). `--report json` prints one object
// per line in the bench/bench_json.h convention.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "baselines/foil.h"
#include "baselines/tilde.h"
#include "common/faultpoint.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "datagen/financial.h"
#include "datagen/mutagenesis.h"
#include "datagen/synthetic.h"
#include "common/shutdown.h"
#include "eval/cross_validation.h"
#include "eval/metrics.h"
#include "relational/index_cache.h"
#include "serve/server.h"
#include "storage/columnar.h"
#include "storage/storage.h"
#include "serve/tcp.h"
#include "flags.h"

using namespace crossmine;

namespace {

/// Process high-water resident set size in KiB (0 where unsupported).
uint64_t PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss) / 1024;  // bytes on macOS
#else
  return static_cast<uint64_t>(usage.ru_maxrss);  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// The model options evaluate and train read from flags.
CrossMineOptions ModelOptions(const cli::Args& args) {
  CrossMineOptions o;
  o.use_sampling = args.Has("sampling");
  o.look_one_ahead = !args.Has("no-lookahead");
  o.use_aggregation_literals = !args.Has("no-aggregations");
  o.seed = static_cast<uint64_t>(args.Int("seed", 1));
  o.neg_pos_ratio = args.Double("neg-pos-ratio", o.neg_pos_ratio);
  o.max_num_negative =
      static_cast<uint32_t>(args.Int("max-negative", o.max_num_negative));
  o.min_foil_gain = args.Double("min-gain", o.min_foil_gain);
  o.num_threads = static_cast<int>(args.Int("threads", 0));
  return o;
}

/// `--mode` (evaluate, predict).
PredictionMode Mode(const cli::Args& args) {
  const std::string mode = args.Str("mode", "best");
  if (mode == "vote") return PredictionMode::kWeightedVote;
  if (mode == "list") return PredictionMode::kDecisionList;
  return PredictionMode::kBestClause;
}

/// Opens a database of either format, honoring `--no-verify`, and prints
/// the failure to stderr so subcommands can just bail on !ok().
StatusOr<Database> LoadDb(const std::string& path, const cli::Args& args) {
  storage::OpenOptions open_opts;
  open_opts.verify_checksums = !args.Has("no-verify");
  StatusOr<Database> db = storage::OpenDatabase(path, open_opts);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
  }
  return db;
}

/// Loads a model saved against `db`'s schema, printing the failure.
StatusOr<CrossMineClassifier> LoadModelFor(const Database& db,
                                           const std::string& path) {
  StatusOr<CrossMineClassifier> model = LoadModel(db, path);
  if (!model.ok()) {
    std::fprintf(stderr, "model load failed (%s): %s\n", path.c_str(),
                 model.status().ToString().c_str());
  }
  return model;
}

/// The database `generate <kind>` describes.
StatusOr<Database> GenerateDb(const cli::Args& args) {
  const std::string& kind = args.command();
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed", 42));
  if (kind == "generate synthetic") {
    datagen::SyntheticConfig cfg;
    cfg.seed = seed;
    cfg.num_relations = static_cast<int>(args.Int("relations", 20));
    cfg.expected_tuples = args.Int("tuples", 500);
    cfg.expected_fkeys = static_cast<double>(args.Int("fkeys", 2));
    return datagen::GenerateSyntheticDatabase(cfg);
  }
  if (kind == "generate financial") {
    datagen::FinancialConfig cfg;
    cfg.seed = seed;
    cfg.num_loans = static_cast<int>(args.Int("loans", 400));
    return datagen::GenerateFinancialDatabase(cfg);
  }
  datagen::MutagenesisConfig cfg;
  cfg.seed = seed;
  cfg.num_molecules = static_cast<int>(args.Int("molecules", 188));
  return datagen::GenerateMutagenesisDatabase(cfg);
}

/// Saves `db` to `path` in the format its suffix names, and says so.
int SaveDb(const Database& db, const std::string& path) {
  Status st = storage::SaveDatabase(db, path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d relations, %llu tuples\n", path.c_str(),
              db.num_relations(),
              static_cast<unsigned long long>(db.TotalTuples()));
  return 0;
}

int Generate(const cli::Args& args) {
  StatusOr<Database> db = GenerateDb(args);
  if (!db.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  return SaveDb(*db, args.positionals()[0]);
}

int Convert(const cli::Args& args) {
  StatusOr<Database> db = LoadDb(args.positionals()[0], args);
  return db.ok() ? SaveDb(*db, args.positionals()[1]) : 1;
}

/// `info --json`: one JSON object with per-relation tuple / attribute
/// counts and on-disk segment bytes, straight from the footer manifest —
/// the sanity-check format for large generated databases (scripts diff
/// tuple counts and segment sizes without loading any column).
void PrintInfoJson(const std::string& path,
                   const storage::ColumnarInfo& info) {
  uint64_t total_tuples = 0;
  for (const storage::ColumnarRelationInfo& rel : info.relations) {
    total_tuples += rel.tuples;
  }
  std::string line = StrFormat(
      "\"report\":\"info\",\"path\":\"%s\",\"format\":\"cmdb\""
      ",\"file_bytes\":%llu,\"fingerprint\":%llu,\"num_classes\":%d"
      ",\"labels_bytes\":%llu,\"total_tuples\":%llu,\"relations\":[",
      path.c_str(), static_cast<unsigned long long>(info.file_bytes),
      static_cast<unsigned long long>(info.fingerprint), info.num_classes,
      static_cast<unsigned long long>(info.labels_bytes),
      static_cast<unsigned long long>(total_tuples));
  for (size_t r = 0; r < info.relations.size(); ++r) {
    const storage::ColumnarRelationInfo& rel = info.relations[r];
    uint64_t segment_bytes = 0;
    for (const storage::ColumnarAttrInfo& attr : rel.attrs) {
      segment_bytes += attr.column_bytes + attr.dict_bytes;
    }
    if (r > 0) line += ',';
    line += StrFormat(
        "{\"name\":\"%s\",\"tuples\":%llu,\"is_target\":%s"
        ",\"num_attrs\":%zu,\"segment_bytes\":%llu,\"attrs\":[",
        rel.name.c_str(), static_cast<unsigned long long>(rel.tuples),
        rel.is_target ? "true" : "false", rel.attrs.size(),
        static_cast<unsigned long long>(segment_bytes));
    for (size_t a = 0; a < rel.attrs.size(); ++a) {
      const storage::ColumnarAttrInfo& attr = rel.attrs[a];
      if (a > 0) line += ',';
      line += StrFormat(
          "{\"name\":\"%s\",\"kind\":\"%s\",\"column_bytes\":%llu",
          attr.name.c_str(), attr.kind.c_str(),
          static_cast<unsigned long long>(attr.column_bytes));
      if (!attr.fk_target.empty()) {
        line += StrFormat(",\"fk_target\":\"%s\"", attr.fk_target.c_str());
      }
      if (attr.dict_count > 0) {
        line += StrFormat(",\"dict_count\":%llu,\"dict_bytes\":%llu",
                          static_cast<unsigned long long>(attr.dict_count),
                          static_cast<unsigned long long>(attr.dict_bytes));
      }
      line += '}';
    }
    line += "]}";
  }
  line += ']';
  std::printf("{%s}\n", line.c_str());
}

int Info(const cli::Args& args) {
  const std::string& path = args.positionals()[0];
  bool json = args.Has("json");
  StatusOr<storage::Format> format = storage::SniffFormat(path);
  if (!format.ok()) {
    std::fprintf(stderr, "info failed: %s\n",
                 format.status().ToString().c_str());
    return 1;
  }
  if (*format == storage::Format::kCsvDir) {
    if (json) {
      // No manifest to report; keep the line parseable so callers can
      // branch on "format" instead of parsing prose.
      std::printf("{\"report\":\"info\",\"path\":\"%s\""
                  ",\"format\":\"csv_dir\"}\n",
                  path.c_str());
      return 0;
    }
    // CSV directories have no manifest to report beyond the schema; point
    // at `inspect`, which loads and summarizes either format.
    std::printf("%s: CSV + schema.txt directory (run `crossmine inspect` "
                "for schema and statistics, or `crossmine convert` to "
                "produce a .cmdb)\n",
                path.c_str());
    return 0;
  }
  // Columnar: report straight from the footer manifest — no column segment
  // is read or verified, so this is O(footer) even for huge databases.
  StatusOr<storage::ColumnarInfo> info = storage::ReadColumnarInfo(path);
  if (!info.ok()) {
    std::fprintf(stderr, "info failed: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  if (json) {
    PrintInfoJson(path, *info);
    return 0;
  }
  uint64_t total_tuples = 0;
  for (const storage::ColumnarRelationInfo& rel : info->relations) {
    total_tuples += rel.tuples;
  }
  std::printf("%s: columnar .cmdb, %llu bytes\n", path.c_str(),
              static_cast<unsigned long long>(info->file_bytes));
  std::printf("  schema fingerprint %llu, %zu relations, %llu tuples, "
              "%d classes\n",
              static_cast<unsigned long long>(info->fingerprint),
              info->relations.size(),
              static_cast<unsigned long long>(total_tuples),
              info->num_classes);
  for (const storage::ColumnarRelationInfo& rel : info->relations) {
    std::printf("  %-16s %8llu tuples%s\n", rel.name.c_str(),
                static_cast<unsigned long long>(rel.tuples),
                rel.is_target ? "  [target]" : "");
    for (const storage::ColumnarAttrInfo& attr : rel.attrs) {
      std::printf("    %-20s %-3s", attr.name.c_str(), attr.kind.c_str());
      if (attr.kind == "fk") {
        std::printf(" -> %-12s", attr.fk_target.c_str());
      } else {
        std::printf("    %-12s", "");
      }
      std::printf(" %10llu bytes",
                  static_cast<unsigned long long>(attr.column_bytes));
      if (attr.dict_count > 0) {
        std::printf("  + dict %llu labels, %llu bytes",
                    static_cast<unsigned long long>(attr.dict_count),
                    static_cast<unsigned long long>(attr.dict_bytes));
      }
      std::printf("\n");
    }
  }
  std::printf("  labels segment: %llu bytes\n",
              static_cast<unsigned long long>(info->labels_bytes));
  return 0;
}

int Inspect(const cli::Args& args) {
  const std::string& path = args.positionals()[0];
  StatusOr<Database> db = LoadDb(path, args);
  if (!db.ok()) return 1;
  std::printf("%s: %d relations, %llu tuples, %zu join edges, %d classes\n",
              path.c_str(), db->num_relations(),
              static_cast<unsigned long long>(db->TotalTuples()),
              db->edges().size(), db->num_classes());
  for (RelId r = 0; r < db->num_relations(); ++r) {
    const Relation& rel = db->relation(r);
    std::printf("  %-16s %8u tuples%s\n", rel.name().c_str(),
                rel.num_tuples(), r == db->target() ? "  [target]" : "");
    for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
      const Attribute& attr = rel.schema().attr(a);
      std::printf("    %-20s %s", attr.name.c_str(),
                  AttrKindName(attr.kind));
      if (attr.kind == AttrKind::kForeignKey) {
        std::printf(" -> %s", db->relation(attr.references).name().c_str());
      }
      std::printf("\n");
    }
  }
  std::vector<uint32_t> counts(static_cast<size_t>(db->num_classes()), 0);
  for (ClassId l : db->labels()) ++counts[static_cast<size_t>(l)];
  std::printf("class distribution:");
  for (size_t c = 0; c < counts.size(); ++c) {
    std::printf(" %zu:%u", c, counts[c]);
  }
  std::printf("\n");
  return 0;
}

/// One `{"report":"fold",...}` JSON line: fold header fields plus every
/// train/predict metric of that fold.
void PrintFoldJson(const char* classifier, int fold,
                   const eval::FoldResult& fr) {
  std::string line =
      StrFormat("\"report\":\"fold\",\"classifier\":\"%s\",\"fold\":%d"
                ",\"test_size\":%u",
                classifier, fold, fr.test_size);
  line += ",\"accuracy\":" + JsonNumber(fr.accuracy);
  line += ",\"train_seconds\":" + JsonNumber(fr.train_seconds);
  line += ",\"predict_seconds\":" + JsonNumber(fr.predict_seconds);
  std::string fields = SnapshotJsonFields(fr.train_report.metrics);
  if (!fields.empty()) line += "," + fields;
  fields = SnapshotJsonFields(fr.predict_report.metrics);
  if (!fields.empty()) line += "," + fields;
  std::printf("{%s}\n", line.c_str());
}

int Evaluate(const cli::Args& args) {
  int folds = static_cast<int>(args.Int("folds", 10));
  const std::string report = args.Str("report");
  const std::string classifier = args.Str("classifier", "crossmine");
  CrossMineOptions model_opts = ModelOptions(args);
  model_opts.prediction_mode = Mode(args);
  StatusOr<Database> db = LoadDb(args.positionals()[0], args);
  if (!db.ok()) return 1;
  eval::ClassifierFactory factory;
  const char* display = "CrossMine";
  if (classifier == "crossmine") {
    factory = [&] { return std::make_unique<CrossMineClassifier>(model_opts); };
  } else if (classifier == "foil") {
    display = "FOIL";
    factory = [] { return std::make_unique<baselines::FoilClassifier>(); };
  } else {
    display = "TILDE";
    factory = [] { return std::make_unique<baselines::TildeClassifier>(); };
  }

  eval::CrossValResult cv =
      eval::CrossValidate(*db, factory, folds, /*seed=*/1,
                          /*fold_time_limit_seconds=*/0.0,
                          /*collect_reports=*/!report.empty());

  if (report == "json") {
    for (size_t i = 0; i < cv.folds.size(); ++i) {
      PrintFoldJson(display, static_cast<int>(i), cv.folds[i]);
    }
    std::string line =
        StrFormat("\"report\":\"cv_totals\",\"classifier\":\"%s\""
                  ",\"folds\":%zu,\"truncated\":%d",
                  display, cv.folds.size(), cv.truncated ? 1 : 0);
    line += ",\"mean_accuracy\":" + JsonNumber(cv.mean_accuracy);
    line += ",\"mean_fold_seconds\":" + JsonNumber(cv.mean_fold_seconds);
    std::string fields = SnapshotJsonFields(cv.train_totals);
    if (!fields.empty()) line += "," + fields;
    fields = SnapshotJsonFields(cv.predict_totals);
    if (!fields.empty()) line += "," + fields;
    std::printf("{%s}\n", line.c_str());
    return 0;
  }
  if (report == "text") {
    for (size_t i = 0; i < cv.folds.size(); ++i) {
      const eval::FoldResult& fr = cv.folds[i];
      std::printf("fold %zu: %.1f%% accuracy, %.3fs train, %.3fs predict\n",
                  i, fr.accuracy * 100, fr.train_seconds, fr.predict_seconds);
      std::printf("%s%s", SnapshotText(fr.train_report.metrics).c_str(),
                  SnapshotText(fr.predict_report.metrics).c_str());
    }
    std::printf("totals over %zu folds:\n%s%s", cv.folds.size(),
                SnapshotText(cv.train_totals).c_str(),
                SnapshotText(cv.predict_totals).c_str());
  }
  std::printf("%d-fold cross validation (%s): %.1f%% accuracy, %.3fs per "
              "fold\n",
              folds, display, cv.mean_accuracy * 100, cv.mean_fold_seconds);
  return 0;
}

int Train(const cli::Args& args) {
  const std::string report = args.Str("report");
  const std::string& model_path = args.positionals()[1];
  StatusOr<Database> db = LoadDb(args.positionals()[0], args);
  if (!db.ok()) return 1;
  std::vector<TupleId> all(db->target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  CrossMineClassifier model(ModelOptions(args));

  MetricsRegistry train_metrics;
  if (!report.empty()) model.set_metrics(&train_metrics);
  Status st = model.Train(*db, all);
  model.set_metrics(nullptr);
  if (!st.ok()) {
    std::fprintf(stderr, "train failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (report == "json") {
    // peak_rss_kb: process high-water resident set, the ground truth the
    // out-of-core bench (tools/check_memory_budget.sh) records per budget.
    std::printf("{\"report\":\"train\",\"classifier\":\"%s\""
                ",\"peak_rss_kb\":%llu,%s}\n",
                model.name(),
                static_cast<unsigned long long>(PeakRssKb()),
                SnapshotJsonFields(train_metrics.Snapshot()).c_str());
  } else if (report == "text") {
    std::printf("training report:\n%s",
                SnapshotText(train_metrics.Snapshot()).c_str());
  }
  std::printf("%s", model.ToString(*db).c_str());
  st = SaveModel(model, *db, model_path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("model written to %s\n", model_path.c_str());
  return 0;
}

int Predict(const cli::Args& args) {
  const std::string report = args.Str("report");
  const std::vector<std::string>& pos = args.positionals();
  StatusOr<Database> db = LoadDb(pos[0], args);
  if (!db.ok()) return 1;
  StatusOr<CrossMineClassifier> model = LoadModelFor(*db, pos[1]);
  if (!model.ok()) return 1;
  model->set_prediction_mode(Mode(args));
  std::vector<TupleId> all(db->target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);
  MetricsRegistry predict_metrics;
  if (!report.empty()) model->set_metrics(&predict_metrics);
  StatusOr<std::vector<ClassId>> pred = model->PredictBatchChecked(*db, all);
  model->set_metrics(nullptr);
  if (!pred.ok()) {
    std::fprintf(stderr, "predict failed: %s\n",
                 pred.status().ToString().c_str());
    return 1;
  }
  if (report == "json") {
    std::printf("{\"report\":\"predict\",\"classifier\":\"CrossMine\",%s}\n",
                SnapshotJsonFields(predict_metrics.Snapshot()).c_str());
  } else if (report == "text") {
    std::printf("prediction report:\n%s",
                SnapshotText(predict_metrics.Snapshot()).c_str());
  }
  eval::ConfusionMatrix confusion(db->num_classes());
  for (TupleId t = 0; t < all.size(); ++t) {
    std::printf("%u\t%d\n", all[t], (*pred)[t]);
    confusion.Add(db->labels()[t], (*pred)[t]);
  }
  std::fprintf(stderr, "accuracy against stored labels: %.1f%%\n",
               confusion.Accuracy() * 100);
  return 0;
}

int Explain(const cli::Args& args) {
  const std::vector<std::string>& pos = args.positionals();
  int64_t id = 0;
  ParseInt64(pos[2], &id);  // the parser checked it is in [0, 2^32 - 1]
  StatusOr<Database> db = LoadDb(pos[0], args);
  if (!db.ok()) return 1;
  StatusOr<CrossMineClassifier> model = LoadModelFor(*db, pos[1]);
  if (!model.ok()) return 1;
  if (id >= static_cast<int64_t>(db->target_relation().num_tuples())) {
    std::fprintf(stderr, "tuple id %s is beyond the target relation\n",
                 pos[2].c_str());
    return 1;
  }
  CrossMineClassifier::Explanation ex =
      model->Explain(*db, static_cast<TupleId>(id));
  std::printf("tuple %lld: predicted class %d\n", static_cast<long long>(id),
              ex.predicted);
  if (ex.clause_index < 0) {
    std::printf("  no clause fired; default class applied\n");
  } else {
    const Clause& clause =
        model->clauses()[static_cast<size_t>(ex.clause_index)];
    std::printf("  deciding clause [acc=%.3f]: %s\n", clause.accuracy,
                clause.ToString(*db).c_str());
  }
  if (!ex.satisfied.empty()) {
    std::printf("  all satisfied clauses:\n");
    for (int i : ex.satisfied) {
      const Clause& clause = model->clauses()[static_cast<size_t>(i)];
      std::printf("    [acc=%.3f] %s\n", clause.accuracy,
                  clause.ToString(*db).c_str());
    }
  }
  return 0;
}

int Serve(const cli::Args& args) {
  const std::string report = args.Str("report");
  serve::ServerOptions server_opts;
  server_opts.threads = static_cast<int>(args.Int("threads", 1));
  server_opts.max_queue = static_cast<int>(args.Int("max-queue", 256));
  server_opts.batch_size = static_cast<int>(args.Int("batch-size", 32));
  // Capped at INT_MAX like the other serve flags: the server adds the
  // deadline to a steady_clock time point in nanoseconds, which overflows
  // beyond ~9.2e12 ms and expires every request at once.
  server_opts.default_deadline_ms = args.Int("deadline-ms", 0);
  serve::TcpOptions tcp_opts;
  tcp_opts.idle_timeout_ms = static_cast<int>(args.Int("idle-timeout-ms", 0));
  tcp_opts.max_connections = static_cast<int>(args.Int("max-connections", 0));
  int port = static_cast<int>(args.Int("port", 0));

  const std::vector<std::string>& pos = args.positionals();
  StatusOr<Database> db = LoadDb(pos[0], args);
  if (!db.ok()) return 1;
  serve::PredictionServer server(&*db, server_opts);

  for (size_t i = 1; i < pos.size(); ++i) {
    StatusOr<CrossMineClassifier> model = LoadModelFor(*db, pos[i]);
    if (!model.ok()) return 1;
    std::string name = std::filesystem::path(pos[i]).stem().string();
    Status st = server.AddModel(
        name, std::make_unique<CrossMineClassifier>(std::move(*model)));
    if (!st.ok()) {
      std::fprintf(stderr, "model registration failed (%s): %s\n",
                   name.c_str(), st.ToString().c_str());
      return 1;
    }
  }

  // Install the signal path before the socket goes live, so an early
  // SIGINT still drains instead of killing the process mid-request.
  ShutdownNotifier* shutdown = ShutdownNotifier::Install();

  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  serve::TcpServer tcp(&server, tcp_opts);
  st = tcp.Listen(port);
  if (!st.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Parsed by tools/check_serve_smoke.sh and serve_client wrappers; keep
  // the format stable.
  std::printf("serving on 127.0.0.1:%d\n", tcp.port());
  std::fflush(stdout);

  st = tcp.ServeUntilShutdown(shutdown);
  if (!st.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", st.ToString().c_str());
    return 1;
  }

  MetricsSnapshot final_snapshot = server.StatsSnapshot();
  if (report == "json") {
    std::printf("{\"report\":\"serve\",%s}\n",
                SnapshotJsonFields(final_snapshot).c_str());
  } else {
    std::printf("final serving snapshot:\n%s",
                SnapshotText(final_snapshot).c_str());
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::Parse(cli::Program::kCrossmine, argc, argv);
  const std::string& command = args.command();
  if (command == "help") {
    cli::PrintUsage(cli::Program::kCrossmine, stdout);
    return 0;
  }
  // Fault points (common/faultpoint.h has the plan grammar) and the index
  // budget apply to every subcommand. They are set before dispatch, so the
  // points arm ahead of any I/O and the first index build is budgeted.
  if (args.Has("fault-plan")) {
    Status st = FaultRegistry::Instance().ApplyPlan(args.Str("fault-plan"));
    if (!st.ok()) cli::Fail("crossmine: bad --fault-plan: " + st.ToString());
  }
  Status st = FaultRegistry::Instance().ApplyPlanFromEnv();
  if (!st.ok()) {
    cli::Fail("crossmine: bad CROSSMINE_FAULT_PLAN: " + st.ToString());
  }
  IndexCache::Global().SetBudgetBytes(
      static_cast<uint64_t>(args.Int("memory-budget-mb", 0)) << 20);

  if (command.starts_with("generate")) return Generate(args);
  if (command == "convert") return Convert(args);
  if (command == "info") return Info(args);
  if (command == "inspect") return Inspect(args);
  if (command == "evaluate") return Evaluate(args);
  if (command == "train") return Train(args);
  if (command == "predict") return Predict(args);
  if (command == "explain") return Explain(args);
  return Serve(args);
}

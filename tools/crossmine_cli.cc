// crossmine — command-line front end for the library.
//
//   crossmine generate <kind> <db> [options]    create a dataset
//   crossmine convert  <db> <db>                transcode between formats
//   crossmine info     <db>                     format-level layout report
//   crossmine inspect  <db>                     show schema & statistics
//   crossmine evaluate <db> [options]           k-fold cross validation
//   crossmine train    <db> <model>             train and save a model
//   crossmine predict  <db> <model>             load a model and classify
//   crossmine explain  <db> <model> <tuple>     explain one prediction
//   crossmine serve    <db> <model>...          long-lived prediction server
//
// Every <db> goes through storage::OpenDatabase, which accepts either a
// CSV + schema.txt directory (diff-able, producible by external tools) or
// a binary columnar `.cmdb` file (mmap-backed, the fast path for repeated
// runs); `generate` and `convert` pick the output format from the path
// (`.cmdb` suffix = columnar). Run `crossmine help` for the full option
// list.
//
// `--report text|json` on evaluate / train / predict surfaces the
// observability reports (phase timings, propagation-cache traffic, clause
// counts); JSON output is one object per line in the bench/bench_json.h
// convention.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
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
#include "shard/sharded_trainer.h"
#include "storage/columnar.h"
#include "storage/storage.h"
#include "serve/tcp.h"

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

int Usage() {
  std::printf(
      "crossmine — multi-relational classification (CrossMine, ICDE'04)\n\n"
      "usage:\n"
      "  crossmine generate synthetic <db> [--seed N] [--relations N]\n"
      "                                    [--tuples N] [--fkeys N]\n"
      "  crossmine generate financial <db> [--seed N] [--loans N]\n"
      "  crossmine generate mutagenesis <db> [--seed N] [--molecules N]\n"
      "  crossmine convert <db> <db>\n"
      "  crossmine info <db> [--json]\n"
      "  crossmine inspect <db>\n"
      "  crossmine evaluate <db> [--folds K] [--classifier crossmine|foil|tilde]\n"
      "                          [--report text|json] [model options]\n"
      "  crossmine train <db> <model-file> [--report text|json]\n"
      "                                    [model options]\n"
      "  crossmine predict <db> <model-file> [--mode best|vote|list]\n"
      "                                      [--report text|json]\n"
      "  crossmine explain <db> <model-file> <tuple-id>\n"
      "  crossmine serve <db> <model-file>... [--port N] [--threads N]\n"
      "                  [--max-queue N] [--batch-size N] [--deadline-ms N]\n"
      "                  [--idle-timeout-ms N] [--max-connections N]\n"
      "                  [--report text|json]\n"
      "\n"
      "databases: every <db> is either a CSV + schema.txt directory or a\n"
      "  binary columnar `.cmdb` file; the format is sniffed on load and\n"
      "  chosen by path suffix on write (`.cmdb` = columnar, else a CSV\n"
      "  directory). `convert` transcodes in either direction; `info`\n"
      "  prints the on-disk layout (segments, fingerprint) of a `.cmdb`.\n"
      "  --no-verify skips `.cmdb` checksum verification on load (for\n"
      "  databases much larger than RAM; structural checks still run).\n"
      "\n"
      "serve: answers newline-delimited JSON requests (predict,\n"
      "  predict_batch, explain, stats, health) on 127.0.0.1:<port>\n"
      "  (default: ephemeral; the bound port is printed on startup).\n"
      "  Models are registered under their file stem; the first is the\n"
      "  default. SIGINT/SIGTERM drains in-flight requests and prints a\n"
      "  final metrics snapshot. --idle-timeout-ms closes connections\n"
      "  with no readable bytes for that long; --max-connections sheds\n"
      "  excess connections with RESOURCE_EXHAUSTED (0 = unlimited).\n"
      "\n"
      "memory budget (any subcommand):\n"
      "  --memory-budget-mb N   cap cached index artifacts at N MiB (LRU\n"
      "  eviction + transparent rebuild; default unlimited). Trains a\n"
      "  `.cmdb` larger than RAM end to end; models are byte-identical at\n"
      "  any budget.\n"
      "\n"
      "fault injection (any subcommand, for failure testing):\n"
      "  --fault-plan \"point[@hit]=action[*count];...\"  arm named fault\n"
      "  points, e.g. \"model_io.save.rename@1=EIO\". Also read from the\n"
      "  CROSSMINE_FAULT_PLAN environment variable.\n"
      "\n"
      "flags: a flag's value is the next token unless it starts with\n"
      "  `--` (so negative numbers parse). An unknown flag, a value that\n"
      "  does not parse as a number, an out-of-range --shards or\n"
      "  --shard-sample, and an unknown --mode value each exit 2 naming\n"
      "  the flag.\n"
      "\n"
      "model options (evaluate / train):\n"
      "  --sampling             enable negative sampling (off by default)\n"
      "  --neg-pos-ratio R      negatives kept per positive when sampling\n"
      "  --max-negative N       hard cap on sampled negatives\n"
      "  --min-gain G           minimum FOIL gain to append a literal\n"
      "  --no-lookahead         disable the look-one-ahead second hop\n"
      "  --no-aggregations      disable aggregation literals\n"
      "  --threads N            clause-search worker threads (0 = auto)\n"
      "  --seed N               sampling seed\n"
      "  --mode best|vote|list  prediction mode\n"
      "  --shards K             shard-parallel training (K >= 1): hash-split\n"
      "                         the target relation into K shards, train\n"
      "                         them concurrently as threads of this\n"
      "                         process, merge deterministically (K=1\n"
      "                         reproduces unsharded byte-identically)\n"
      "  --shard-sample N       re-score merged clauses on N sampled\n"
      "                         training tuples (0 = full training set)\n");
  return 2;
}

/// Flags `main` applies before dispatch; every subcommand accepts them.
const char* const kGlobalFlags[] = {"fault-plan", "memory-budget-mb"};

/// Flags ParseCrossMineOptions reads (evaluate / train).
const char* const kModelFlags[] = {
    "sampling", "neg-pos-ratio", "max-negative", "min-gain", "no-lookahead",
    "no-aggregations", "threads", "seed", "mode", "shards", "shard-sample"};

/// `flags` plus the model flags.
std::vector<std::string> WithModelFlags(std::vector<std::string> flags) {
  flags.insert(flags.end(), std::begin(kModelFlags), std::end(kModelFlags));
  return flags;
}

/// Parses trailing --key value / --flag options. A flag's value is the next
/// token unless that starts with `--` (so `--seed -7` reads -7); a flag with
/// no value reads "1". A flag that is neither in `accepted` nor global exits
/// 2 naming it, before the subcommand writes any output.
std::map<std::string, std::string> ParseOptions(
    int argc, char** argv, int first,
    const std::vector<std::string>& accepted) {
  std::map<std::string, std::string> opts;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end() &&
        std::find(std::begin(kGlobalFlags), std::end(kGlobalFlags), key) ==
            std::end(kGlobalFlags)) {
      std::fprintf(stderr, "unknown flag --%s for %s\n", key.c_str(),
                   argv[1]);
      std::exit(2);
    }
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      opts[key] = argv[++i];
    } else {
      opts[key] = "1";
    }
  }
  return opts;
}

/// Rejects a present but malformed flag value: prints the flag and exits 2.
/// Subcommands read every flag before they write any output, so a rejected
/// run leaves stdout empty.
[[noreturn]] void BadFlagValue(const std::string& key, const std::string& value,
                               const char* want) {
  std::fprintf(stderr, "bad --%s value '%s' (want %s)\n", key.c_str(),
               value.c_str(), want);
  std::exit(2);
}

int64_t OptInt(const std::map<std::string, std::string>& opts,
               const std::string& key, int64_t fallback) {
  auto it = opts.find(key);
  if (it == opts.end()) return fallback;
  int64_t v = 0;
  if (!crossmine::ParseInt64(it->second, &v)) {
    BadFlagValue(key, it->second, "an integer");
  }
  return v;
}

double OptDouble(const std::map<std::string, std::string>& opts,
                 const std::string& key, double fallback) {
  auto it = opts.find(key);
  if (it == opts.end()) return fallback;
  double v = 0.0;
  if (!crossmine::ParseDouble(it->second, &v)) {
    BadFlagValue(key, it->second, "a number");
  }
  return v;
}

/// The one flag→CrossMineOptions mapping, shared by every subcommand that
/// configures a model (evaluate, train, predict).
CrossMineOptions ParseCrossMineOptions(
    const std::map<std::string, std::string>& opts) {
  CrossMineOptions o;
  o.use_sampling = opts.count("sampling") > 0;
  o.look_one_ahead = opts.count("no-lookahead") == 0;
  o.use_aggregation_literals = opts.count("no-aggregations") == 0;
  o.seed = static_cast<uint64_t>(OptInt(opts, "seed", 1));
  o.neg_pos_ratio = OptDouble(opts, "neg-pos-ratio", o.neg_pos_ratio);
  o.max_num_negative = static_cast<uint32_t>(
      OptInt(opts, "max-negative", o.max_num_negative));
  o.min_foil_gain = OptDouble(opts, "min-gain", o.min_foil_gain);
  // Clause-search worker threads: 0 (default) = hardware concurrency,
  // 1 = sequential. Any value trains the byte-identical model.
  o.num_threads = static_cast<int>(OptInt(opts, "threads", 0));
  o.num_shards = static_cast<int>(OptInt(opts, "shards", 1));
  if (o.num_shards < 1) {
    BadFlagValue("shards", opts.at("shards"), "an integer >= 1");
  }
  auto mode = opts.find("mode");
  if (mode != opts.end()) {
    if (mode->second == "best") {
      o.prediction_mode = PredictionMode::kBestClause;
    } else if (mode->second == "vote") {
      o.prediction_mode = PredictionMode::kWeightedVote;
    } else if (mode->second == "list") {
      o.prediction_mode = PredictionMode::kDecisionList;
    } else {
      BadFlagValue("mode", mode->second, "best, vote or list");
    }
  }
  return o;
}

/// Parses `--shard-sample` into shard::ShardOptions (the shard count itself
/// rides in CrossMineOptions::num_shards).
shard::ShardOptions ParseShardOptions(
    const std::map<std::string, std::string>& opts) {
  shard::ShardOptions out;
  int64_t sample = OptInt(opts, "shard-sample", 0);
  if (sample < 0) {
    BadFlagValue("shard-sample", opts.at("shard-sample"), "an integer >= 0");
  }
  out.merge_sample = static_cast<uint64_t>(sample);
  return out;
}

/// True when any shard flag was given — the signal to route train/evaluate
/// through the ShardedClassifier (even at --shards 1, so the identity path
/// is exercisable end to end).
bool WantsSharding(const std::map<std::string, std::string>& opts) {
  return opts.count("shards") > 0 || opts.count("shard-sample") > 0;
}

/// Opens a database of either format, honoring `--no-verify`, and prints
/// the failure to stderr so subcommands can just bail on !ok().
StatusOr<Database> LoadDb(const std::string& path,
                          const std::map<std::string, std::string>& opts) {
  storage::OpenOptions open_opts;
  open_opts.verify_checksums = opts.count("no-verify") == 0;
  StatusOr<Database> db = storage::OpenDatabase(path, open_opts);
  if (!db.ok()) {
    std::fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
  }
  return db;
}

enum class ReportMode { kNone, kText, kJson };

/// Parses `--report text|json` (absent = no report).
ReportMode ParseReportMode(const std::map<std::string, std::string>& opts) {
  auto it = opts.find("report");
  if (it == opts.end()) return ReportMode::kNone;
  if (it->second == "text") return ReportMode::kText;
  if (it->second == "json") return ReportMode::kJson;
  BadFlagValue("report", it->second, "text or json");
}

int Generate(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string kind = argv[2];
  std::string dir = argv[3];
  auto opts = ParseOptions(
      argc, argv, 4,
      {"seed", "relations", "tuples", "fkeys", "loans", "molecules"});
  uint64_t seed = static_cast<uint64_t>(OptInt(opts, "seed", 42));

  StatusOr<Database> db = Status::InvalidArgument("unknown kind: " + kind);
  if (kind == "synthetic") {
    datagen::SyntheticConfig cfg;
    cfg.seed = seed;
    cfg.num_relations = static_cast<int>(OptInt(opts, "relations", 20));
    cfg.expected_tuples = OptInt(opts, "tuples", 500);
    cfg.expected_fkeys = static_cast<double>(OptInt(opts, "fkeys", 2));
    db = datagen::GenerateSyntheticDatabase(cfg);
  } else if (kind == "financial") {
    datagen::FinancialConfig cfg;
    cfg.seed = seed;
    cfg.num_loans = static_cast<int>(OptInt(opts, "loans", 400));
    db = datagen::GenerateFinancialDatabase(cfg);
  } else if (kind == "mutagenesis") {
    datagen::MutagenesisConfig cfg;
    cfg.seed = seed;
    cfg.num_molecules = static_cast<int>(OptInt(opts, "molecules", 188));
    db = datagen::GenerateMutagenesisDatabase(cfg);
  }
  if (!db.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  Status st = storage::SaveDatabase(*db, dir);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d relations, %llu tuples\n", dir.c_str(),
              db->num_relations(),
              static_cast<unsigned long long>(db->TotalTuples()));
  return 0;
}

int Convert(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto opts = ParseOptions(argc, argv, 4, {"no-verify"});
  StatusOr<Database> db = LoadDb(argv[2], opts);
  if (!db.ok()) return 1;
  Status st = storage::SaveDatabase(*db, argv[3]);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d relations, %llu tuples\n", argv[3],
              db->num_relations(),
              static_cast<unsigned long long>(db->TotalTuples()));
  return 0;
}

/// `info --json`: one JSON object with per-relation tuple / attribute
/// counts and on-disk segment bytes, straight from the footer manifest —
/// the sanity-check format for XL shard runs (scripts diff tuple counts
/// and segment sizes without loading any column).
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

int Info(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string path = argv[2];
  auto opts = ParseOptions(argc, argv, 3, {"json"});
  bool json = opts.count("json") > 0;
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

int Inspect(int argc, char** argv) {
  if (argc < 3) return Usage();
  StatusOr<Database> db =
      LoadDb(argv[2], ParseOptions(argc, argv, 3, {"no-verify"}));
  if (!db.ok()) return 1;
  std::printf("%s: %d relations, %llu tuples, %zu join edges, %d classes\n",
              argv[2], db->num_relations(),
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

int Evaluate(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto opts = ParseOptions(
      argc, argv, 3,
      WithModelFlags({"folds", "classifier", "report", "no-verify"}));
  int folds = static_cast<int>(OptInt(opts, "folds", 10));
  ReportMode report = ParseReportMode(opts);

  std::string classifier = "crossmine";
  if (auto it = opts.find("classifier"); it != opts.end()) {
    classifier = it->second;
  }
  CrossMineOptions model_opts = ParseCrossMineOptions(opts);
  shard::ShardOptions shard_opts = ParseShardOptions(opts);
  StatusOr<Database> db = LoadDb(argv[2], opts);
  if (!db.ok()) return 1;
  eval::ClassifierFactory factory;
  const char* display = "CrossMine";
  if (classifier == "crossmine" && WantsSharding(opts)) {
    display = "ShardedCrossMine";
    factory = [&] {
      return std::make_unique<shard::ShardedClassifier>(model_opts,
                                                        shard_opts);
    };
  } else if (classifier == "crossmine") {
    factory = [&] { return std::make_unique<CrossMineClassifier>(model_opts); };
  } else if (classifier == "foil") {
    display = "FOIL";
    factory = [] { return std::make_unique<baselines::FoilClassifier>(); };
  } else if (classifier == "tilde") {
    display = "TILDE";
    factory = [] { return std::make_unique<baselines::TildeClassifier>(); };
  } else {
    std::fprintf(stderr,
                 "unknown --classifier '%s' (want crossmine, foil or tilde)\n",
                 classifier.c_str());
    return 2;
  }

  eval::CrossValResult cv =
      eval::CrossValidate(*db, factory, folds, /*seed=*/1,
                          /*fold_time_limit_seconds=*/0.0,
                          /*collect_reports=*/report != ReportMode::kNone);

  if (report == ReportMode::kJson) {
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
  if (report == ReportMode::kText) {
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

int Train(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto opts =
      ParseOptions(argc, argv, 4, WithModelFlags({"report", "no-verify"}));
  ReportMode report = ParseReportMode(opts);
  CrossMineOptions model_opts = ParseCrossMineOptions(opts);
  // Any shard flag routes through the sharded trainer — --shards 1
  // included, so the byte-identity path is exercisable end to end. The
  // saved model is the merged model: an ordinary .cmm.
  bool sharded = WantsSharding(opts);
  shard::ShardOptions shard_opts = ParseShardOptions(opts);
  StatusOr<Database> db = LoadDb(argv[2], opts);
  if (!db.ok()) return 1;
  std::vector<TupleId> all;
  for (TupleId t = 0; t < db->target_relation().num_tuples(); ++t) {
    all.push_back(t);
  }
  shard::ShardedClassifier sharded_model(model_opts, shard_opts);
  CrossMineClassifier model(model_opts);

  MetricsRegistry train_metrics;
  RelationalClassifier& trainer =
      sharded ? static_cast<RelationalClassifier&>(sharded_model)
              : static_cast<RelationalClassifier&>(model);
  if (report != ReportMode::kNone) trainer.set_metrics(&train_metrics);
  Status st = trainer.Train(*db, all);
  trainer.set_metrics(nullptr);
  if (!st.ok()) {
    std::fprintf(stderr, "train failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const CrossMineClassifier& trained =
      sharded ? sharded_model.merged_model() : model;
  if (report == ReportMode::kJson) {
    // peak_rss_kb: process high-water resident set, the ground truth the
    // out-of-core bench (tools/check_memory_budget.sh) records per budget.
    std::printf("{\"report\":\"train\",\"classifier\":\"%s\""
                ",\"peak_rss_kb\":%llu,%s}\n",
                trainer.name(),
                static_cast<unsigned long long>(PeakRssKb()),
                SnapshotJsonFields(train_metrics.Snapshot()).c_str());
  } else if (report == ReportMode::kText) {
    std::printf("training report:\n%s",
                SnapshotText(train_metrics.Snapshot()).c_str());
  }
  std::printf("%s", trained.ToString(*db).c_str());
  st = SaveModel(trained, *db, argv[3]);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("model written to %s\n", argv[3]);
  return 0;
}

int Predict(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto opts = ParseOptions(argc, argv, 4, {"mode", "report", "no-verify"});
  ReportMode report = ParseReportMode(opts);
  PredictionMode mode = ParseCrossMineOptions(opts).prediction_mode;
  StatusOr<Database> db = LoadDb(argv[2], opts);
  if (!db.ok()) return 1;
  StatusOr<CrossMineClassifier> model = LoadModel(*db, argv[3]);
  if (!model.ok()) {
    std::fprintf(stderr, "model load failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  model->set_prediction_mode(mode);
  std::vector<TupleId> all;
  for (TupleId t = 0; t < db->target_relation().num_tuples(); ++t) {
    all.push_back(t);
  }
  MetricsRegistry predict_metrics;
  if (report != ReportMode::kNone) model->set_metrics(&predict_metrics);
  StatusOr<std::vector<ClassId>> pred = model->PredictBatchChecked(*db, all);
  model->set_metrics(nullptr);
  if (!pred.ok()) {
    std::fprintf(stderr, "predict failed: %s\n",
                 pred.status().ToString().c_str());
    return 1;
  }
  if (report == ReportMode::kJson) {
    std::printf("{\"report\":\"predict\",\"classifier\":\"CrossMine\",%s}\n",
                SnapshotJsonFields(predict_metrics.Snapshot()).c_str());
  } else if (report == ReportMode::kText) {
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

int Explain(int argc, char** argv) {
  if (argc < 5) return Usage();
  StatusOr<Database> db =
      LoadDb(argv[2], ParseOptions(argc, argv, 5, {"no-verify"}));
  if (!db.ok()) return 1;
  StatusOr<CrossMineClassifier> model = LoadModel(*db, argv[3]);
  if (!model.ok()) {
    std::fprintf(stderr, "model load failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  int64_t id = -1;
  if (!crossmine::ParseInt64(argv[4], &id) || id < 0 ||
      id >= static_cast<int64_t>(db->target_relation().num_tuples())) {
    std::fprintf(stderr, "bad tuple id: %s\n", argv[4]);
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

int Serve(int argc, char** argv) {
  if (argc < 4) return Usage();
  // Positional model files run until the first --flag.
  int first_opt = 3;
  while (first_opt < argc && std::strncmp(argv[first_opt], "--", 2) != 0) {
    ++first_opt;
  }
  auto opts = ParseOptions(
      argc, argv, first_opt,
      {"threads", "max-queue", "batch-size", "deadline-ms", "idle-timeout-ms",
       "max-connections", "port", "report", "no-verify"});
  ReportMode report = ParseReportMode(opts);
  serve::ServerOptions server_opts;
  server_opts.threads = static_cast<int>(OptInt(opts, "threads", 1));
  server_opts.max_queue = static_cast<int>(OptInt(opts, "max-queue", 256));
  server_opts.batch_size = static_cast<int>(OptInt(opts, "batch-size", 32));
  server_opts.default_deadline_ms = OptInt(opts, "deadline-ms", 0);
  serve::TcpOptions tcp_opts;
  tcp_opts.idle_timeout_ms =
      static_cast<int>(OptInt(opts, "idle-timeout-ms", 0));
  tcp_opts.max_connections =
      static_cast<int>(OptInt(opts, "max-connections", 0));
  int port = static_cast<int>(OptInt(opts, "port", 0));

  StatusOr<Database> db = LoadDb(argv[2], opts);
  if (!db.ok()) return 1;
  serve::PredictionServer server(&*db, server_opts);

  for (int i = 3; i < first_opt; ++i) {
    StatusOr<CrossMineClassifier> model = LoadModel(*db, argv[i]);
    if (!model.ok()) {
      std::fprintf(stderr, "model load failed (%s): %s\n", argv[i],
                   model.status().ToString().c_str());
      return 1;
    }
    std::string name = std::filesystem::path(argv[i]).stem().string();
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
  if (report == ReportMode::kJson) {
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
  if (argc < 2) return Usage();
  // Global fault-injection hook, honored by every subcommand (see
  // common/faultpoint.h for the plan grammar). Applied before dispatch so
  // points arm ahead of any I/O; a malformed plan is a usage error.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--fault-plan") == 0) {
      Status st = FaultRegistry::Instance().ApplyPlan(argv[i + 1]);
      if (!st.ok()) {
        std::fprintf(stderr, "bad --fault-plan: %s\n", st.ToString().c_str());
        return 2;
      }
    }
    // Global index-memory budget, honored by every subcommand: caps the
    // summed footprint of cached index artifacts (LRU eviction + rebuild on
    // miss). Applied before dispatch so the very first index build is
    // already budgeted. 0 (the default) = unlimited.
    if (std::strcmp(argv[i], "--memory-budget-mb") == 0) {
      char* end = nullptr;
      unsigned long long mb = std::strtoull(argv[i + 1], &end, 10);
      if (end == argv[i + 1] || *end != '\0' || argv[i + 1][0] == '-') {
        std::fprintf(stderr, "bad --memory-budget-mb: %s\n", argv[i + 1]);
        return 2;
      }
      IndexCache::Global().SetBudgetBytes(static_cast<uint64_t>(mb) << 20);
    }
  }
  {
    Status st = FaultRegistry::Instance().ApplyPlanFromEnv();
    if (!st.ok()) {
      std::fprintf(stderr, "bad CROSSMINE_FAULT_PLAN: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  }
  std::string command = argv[1];
  if (command == "generate") return Generate(argc, argv);
  if (command == "convert") return Convert(argc, argv);
  if (command == "info") return Info(argc, argv);
  if (command == "inspect") return Inspect(argc, argv);
  if (command == "evaluate") return Evaluate(argc, argv);
  if (command == "train") return Train(argc, argv);
  if (command == "predict") return Predict(argc, argv);
  if (command == "explain") return Explain(argc, argv);
  if (command == "serve") return Serve(argc, argv);
  return Usage();
}

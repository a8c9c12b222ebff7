#include "flags.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <span>

#include "common/macros.h"
#include "common/string_util.h"

namespace crossmine::cli {
namespace {

enum Kind { kSwitch, kInt, kDouble, kString, kEnum };

constexpr int64_t kNoMin = INT64_MIN, kNoMax = INT64_MAX;
/// A worker pool spawns `n - 1` OS threads and serve_client one per
/// connection; no flag may ask for more.
constexpr int64_t kMaxThreads = 256;
/// `--memory-budget-mb` is shifted left by 20 into a uint64_t.
constexpr int64_t kMaxBudgetMb = (int64_t{1} << 44) - 1;

struct Command {
  const char* name;         // "train", "generate synthetic"; "" = none
  const char* positionals;  // "<db> <model-file>"; "..." repeats the last
  const char* help;
  int tuple_id = -1;  // index of the positional that is a tuple id
};

struct Flag {
  const char* name;
  Kind kind;
  const char* commands;  // comma-separated; "*" = every command
  const char* help;
  int64_t lo = 0, hi = 0;  // kInt / kDouble range; kNoMin / kNoMax = none
  const char* choices = nullptr;  // kEnum: "a|b|c"
};

struct Spec {
  const char* name;
  const char* about;
  std::span<const Command> commands;
  std::span<const Flag> flags;
};

const Command kCrossmineCommands[] = {
    {"generate synthetic", "<db>", "write a synthetic database (§7.1)"},
    {"generate financial", "<db>", "write a financial database (Table 2)"},
    {"generate mutagenesis", "<db>", "write a mutagenesis database (Table 3)"},
    {"convert", "<db> <db>", "transcode between CSV and .cmdb"},
    {"info", "<db>", "on-disk layout of a .cmdb"},
    {"inspect", "<db>", "schema, sizes and class balance"},
    {"evaluate", "<db>", "k-fold cross validation"},
    {"train", "<db> <model-file>", "train and save a model"},
    {"predict", "<db> <model-file>", "classify every target tuple"},
    {"explain", "<db> <model-file> <tuple-id>", "clauses a tuple satisfies", 2},
    {"serve", "<db> <model-file>...", "long-lived prediction server"},
    {"help", "", "print this usage"},
};

const Flag kCrossmineFlags[] = {
    {"fault-plan", kString, "*",
     "arm \"point[@hit]=action[*count];...\" (also $CROSSMINE_FAULT_PLAN)"},
    {"memory-budget-mb", kInt, "*",
     "cap cached indexes at N MiB, evicting LRU; 0 = unlimited", 0,
     kMaxBudgetMb},
    {"seed", kInt, "generate synthetic,generate financial,generate mutagenesis",
     "generator seed", kNoMin, kNoMax},
    {"relations", kInt, "generate synthetic", "relations", 2, INT_MAX},
    {"tuples", kInt, "generate synthetic", "tuples per relation", 1, INT_MAX},
    {"fkeys", kInt, "generate synthetic", "foreign keys per relation", 0,
     kNoMax},
    {"loans", kInt, "generate financial", "target loans", 1, INT_MAX},
    {"molecules", kInt, "generate mutagenesis", "target molecules", 1,
     INT_MAX},
    {"no-verify", kSwitch,
     "convert,inspect,evaluate,train,predict,explain,serve",
     "skip .cmdb checksums on load (structure is still checked)"},
    {"json", kSwitch, "info", "print one JSON object"},
    {"folds", kInt, "evaluate", "cross-validation folds", 2, INT_MAX},
    {"classifier", kEnum, "evaluate", "classifier to evaluate", 0, 0,
     "crossmine|foil|tilde"},
    {"sampling", kSwitch, "evaluate,train", "negative sampling (§6)"},
    {"neg-pos-ratio", kDouble, "evaluate,train",
     "negatives kept per positive when sampling (NEG_POS_RATIO)", 0, kNoMax},
    {"max-negative", kInt, "evaluate,train",
     "cap on sampled negatives (MAX_NUM_NEGATIVE)", 0, UINT32_MAX},
    {"min-gain", kDouble, "evaluate,train",
     "minimum FOIL gain to append a literal (MIN_FOIL_GAIN)", kNoMin, kNoMax},
    {"no-lookahead", kSwitch, "evaluate,train", "no look-one-ahead (§5.2)"},
    {"no-aggregations", kSwitch, "evaluate,train", "no aggregation literals"},
    {"threads", kInt, "evaluate,train",
     "clause-search workers; 0 (default) = hardware concurrency", 0,
     kMaxThreads},
    {"seed", kInt, "evaluate,train", "negative-sampling seed", kNoMin, kNoMax},
    {"mode", kEnum, "evaluate,predict", "prediction mode (default best)", 0, 0,
     "best|vote|list"},
    {"report", kEnum, "evaluate,train,predict,serve",
     "print metrics: phase timings, cache traffic, clause counts", 0, 0,
     "text|json"},
    {"port", kInt, "serve", "port on 127.0.0.1; 0 (default) = any", 0, 65535},
    {"threads", kInt, "serve",
     "prediction workers (default 1); 0 = hardware concurrency", 0,
     kMaxThreads},
    {"max-queue", kInt, "serve",
     "admission queue; a full queue sheds with RESOURCE_EXHAUSTED", 1,
     INT_MAX},
    {"batch-size", kInt, "serve", "requests per micro-batch", 1, INT_MAX},
    {"deadline-ms", kInt, "serve", "request deadline; 0 = none", 0, INT_MAX},
    {"idle-timeout-ms", kInt, "serve",
     "close a connection idle this long; 0 = never", 0, INT_MAX},
    {"max-connections", kInt, "serve",
     "shed connections beyond this many; 0 = unlimited", 0, INT_MAX},
};

const Command kServeClientCommands[] = {{"", "", ""}};

const Flag kServeClientFlags[] = {
    {"port", kInt, "*", "server port on --host (required)", 1, 65535},
    {"host", kString, "*", "server IPv4 address (default 127.0.0.1)"},
    {"requests", kInt, "*", "requests in total", 1, kNoMax},
    {"connections", kInt, "*", "connections, one thread each", 1, kMaxThreads},
    {"ids", kInt, "*", "tuple ids are drawn from [0, N)", 1, UINT32_MAX},
    {"batch", kInt, "*", "predict_batch size; 1 = no batches", 1, 1024},
    {"deadline-ms", kInt, "*", "request deadline; 0 = none", 0, INT_MAX},
    // Whole requests per second keep each connection's send interval
    // within a nanosecond clock's range.
    {"qps", kInt, "*", "open loop at N requests/s; 0 = closed loop", 0,
     1000000000},
    {"retries", kInt, "*",
     "backoff retries of a refused connect, a shed or a lost connection", 0,
     INT_MAX},
    {"seed", kInt, "*", "request-mix seed", kNoMin, kNoMax},
    {"json", kSwitch, "*", "print one JSON object"},
    {"dump", kSwitch, "*", "print `crossmine predict` lines for ids 0..N-1"},
    {"help", kSwitch, "*", "print this usage"},
};

const Spec kCrossmine = {
    "crossmine",
    "crossmine — multi-relational classification (CrossMine, ICDE'04)\n\n"
    "Every <db> is a CSV + schema.txt directory or a binary .cmdb file,\n"
    "sniffed on load; a `.cmdb` suffix writes the columnar format.",
    kCrossmineCommands, kCrossmineFlags};

const Spec kServeClient = {
    "serve_client", "serve_client — load generator for `crossmine serve`",
    kServeClientCommands, kServeClientFlags};

const Spec& SpecOf(Program program) {
  return program == Program::kCrossmine ? kCrossmine : kServeClient;
}

const Flag* FindFlag(const Spec& spec, const std::string& command,
                     std::string_view name) {
  for (const Flag& flag : spec.flags) {
    if (name == flag.name &&
        (std::string_view(flag.commands) == "*" ||
         StrFormat(",%s,", flag.commands).find("," + command + ",") !=
             std::string::npos)) {
      return &flag;
    }
  }
  return nullptr;
}

/// What a value of `flag` must be, for error messages and the usage.
std::string Want(const Flag& flag) {
  if (flag.kind == kEnum) return flag.choices;
  std::string want = flag.kind == kInt ? "an integer" : "a finite number";
  if (flag.hi != kNoMax) {
    return want + StrFormat(" in [%lld, %lld]", static_cast<long long>(flag.lo),
                            static_cast<long long>(flag.hi));
  }
  if (flag.lo == kNoMin) return want;
  return want + StrFormat(" >= %lld", static_cast<long long>(flag.lo));
}

bool Valid(const Flag& flag, const std::string& value) {
  int64_t i = 0;
  double d = 0;
  switch (flag.kind) {
    case kInt:
      return ParseInt64(value, &i) && i >= flag.lo && i <= flag.hi;
    case kDouble:
      return ParseDouble(value, &d) && std::isfinite(d) &&
             (flag.lo == kNoMin || d >= static_cast<double>(flag.lo)) &&
             (flag.hi == kNoMax || d <= static_cast<double>(flag.hi));
    case kEnum:
      return std::ranges::count(Split(flag.choices, '|'), value) > 0;
    default:
      return true;
  }
}

}  // namespace

void Fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

Args Parse(Program program, int argc, char** argv) {
  const Spec& spec = SpecOf(program);
  // The command is the table entry whose words lead argv.
  const Command* command = nullptr;
  int first = 1;
  for (const Command& c : spec.commands) {
    std::vector<std::string> words = Split(c.name, ' ');
    std::erase(words, "");
    if (words.size() < static_cast<size_t>(argc) &&
        std::equal(words.begin(), words.end(), argv + 1)) {
      command = &c;
      first += static_cast<int>(words.size());
      break;
    }
  }
  if (command == nullptr) {
    const std::string what = argc < 2 ? "missing command"
                             : StrFormat("unknown command '%s'", argv[1]);
    Fail(StrFormat("%s: %s (run `%s help`)", spec.name, what.c_str(),
                   spec.name));
  }
  const std::string where =
      *command->name ? StrFormat(" for %s", command->name) : "";

  Args args;
  args.program_ = program;
  args.command_ = command->name;
  for (int i = first; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (!token.starts_with('-')) {
      args.positionals_.emplace_back(token);
      continue;
    }
    const Flag* flag = token.starts_with("--")
                           ? FindFlag(spec, args.command_, token.substr(2))
                           : nullptr;
    if (flag == nullptr) {
      Fail(StrFormat("%s: unknown flag %s%s", spec.name, argv[i],
                     where.c_str()));
    }
    std::string& value = args.values_[flag->name];
    if (flag->kind == kSwitch) continue;
    if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
      Fail(StrFormat("%s: missing value for --%s", spec.name, flag->name));
    }
    value = argv[++i];
    if (!Valid(*flag, value)) {
      Fail(StrFormat("%s: bad --%s value '%s' (want %s)", spec.name,
                     flag->name, value.c_str(), Want(*flag).c_str()));
    }
  }

  std::vector<std::string> want = Split(command->positionals, ' ');
  std::erase(want, "");
  const std::vector<std::string>& got = args.positionals_;
  if (got.size() < want.size()) {
    const std::string& missing = want[got.size()];
    Fail(StrFormat("%s: missing %s%s", spec.name,
                   missing.substr(0, missing.find("...")).c_str(),
                   where.c_str()));
  }
  if (got.size() > want.size() &&
      (want.empty() || !want.back().ends_with("..."))) {
    Fail(StrFormat("%s: unexpected argument '%s'%s", spec.name,
                   got[want.size()].c_str(), where.c_str()));
  }
  if (command->tuple_id >= 0) {
    const size_t i = static_cast<size_t>(command->tuple_id);
    const Flag tuple_id = {"", kInt, "", "", 0, UINT32_MAX};
    if (!Valid(tuple_id, got[i])) {
      Fail(StrFormat("%s: bad %s value '%s' (want %s)", spec.name,
                     want[i].c_str(), got[i].c_str(), Want(tuple_id).c_str()));
    }
  }
  return args;
}

void PrintUsage(Program program, std::FILE* out) {
  const Spec& spec = SpecOf(program);
  const bool has_commands = spec.commands.size() > 1;
  std::fprintf(out, "%s\n\nusage: %s%s [flags]\n", spec.about, spec.name,
               has_commands ? " <command>" : "");
  for (const Command& c : spec.commands) {
    const std::string line = StrFormat("%s %s", c.name, c.positionals);
    if (has_commands) std::fprintf(out, "  %-37s %s\n", line.c_str(), c.help);
  }
  std::fprintf(
      out,
      "\nFlags may come in any order after the command. A value flag takes\n"
      "the next token, which must not start with `--` (so `--seed -7` reads\n"
      "-7). An unknown flag, a missing, malformed or out-of-range value and\n"
      "a wrong number of arguments exit 2 naming the flag or argument.\n\n"
      "flags:\n");
  for (const Flag& flag : spec.flags) {
    const char* metavar[] = {"", " N", " X", " STR", " "};
    std::string head = std::string("--") + flag.name + metavar[flag.kind] +
                       (flag.kind == kEnum ? flag.choices : "");
    std::string scope = !has_commands ? ""
                        : std::string_view(flag.commands) == "*"
                            ? "every command"
                            : Join(Split(flag.commands, ','), ", ");
    if (flag.kind == kInt || flag.kind == kDouble) {
      scope += (scope.empty() ? "" : "; ") + Want(flag);
    }
    if (!scope.empty()) head += "  (" + scope + ")";
    std::fprintf(out, "  %s\n      %s\n", head.c_str(), flag.help);
  }
}

const std::string* Args::Find(std::string_view flag) const {
  CM_CHECK(FindFlag(SpecOf(program_), command_, flag) != nullptr);
  auto it = values_.find(flag);
  return it == values_.end() ? nullptr : &it->second;
}

int64_t Args::Int(std::string_view flag, int64_t fallback) const {
  const std::string* value = Find(flag);
  if (value != nullptr) CM_CHECK(ParseInt64(*value, &fallback));
  return fallback;
}

double Args::Double(std::string_view flag, double fallback) const {
  const std::string* value = Find(flag);
  if (value != nullptr) CM_CHECK(ParseDouble(*value, &fallback));
  return fallback;
}

std::string Args::Str(std::string_view flag, std::string fallback) const {
  const std::string* value = Find(flag);
  return value != nullptr ? *value : fallback;
}

}  // namespace crossmine::cli

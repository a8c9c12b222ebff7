// Command-line flags of `crossmine` and `serve_client`: one table of every
// command and flag (tools/flags.cc) and one parser over it.
//
// A row names a flag, its kind, its range, the commands that accept it and
// one help line; a flag whose meaning differs by command is two rows.
// `Parse` reads the whole argv once, before the program does any I/O, and
// on any usage error prints one stderr line naming the flag or argument
// and exits 2, with nothing on stdout. `PrintUsage` renders the table.

#ifndef CROSSMINE_TOOLS_FLAGS_H_
#define CROSSMINE_TOOLS_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace crossmine::cli {

enum class Program { kCrossmine, kServeClient };

/// A parsed command line whose every value passed its row's checks. The
/// getters return `fallback` for an absent flag; naming a flag the command
/// does not accept is a programming error (CM_CHECK).
class Args {
 public:
  /// "train", "generate synthetic"; "" for a program without commands.
  const std::string& command() const { return command_; }
  const std::vector<std::string>& positionals() const { return positionals_; }

  bool Has(std::string_view flag) const { return Find(flag) != nullptr; }
  int64_t Int(std::string_view flag, int64_t fallback) const;
  double Double(std::string_view flag, double fallback) const;
  /// A string or enum flag's value.
  std::string Str(std::string_view flag, std::string fallback = "") const;

 private:
  friend Args Parse(Program program, int argc, char** argv);
  const std::string* Find(std::string_view flag) const;

  Program program_ = Program::kCrossmine;
  std::string command_;
  std::vector<std::string> positionals_;
  std::map<std::string, std::string, std::less<>> values_;
};

Args Parse(Program program, int argc, char** argv);

/// The usage text, generated from `program`'s table.
void PrintUsage(Program program, std::FILE* out);

/// A usage error found after parsing (a malformed fault plan, a missing
/// required flag): prints `message` as one stderr line and exits 2.
[[noreturn]] void Fail(const std::string& message);

}  // namespace crossmine::cli

#endif  // CROSSMINE_TOOLS_FLAGS_H_

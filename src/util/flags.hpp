// Command-line flags, declared once per binary.  A binary lists each flag in
// one table: its name and metavar, the option field it sets, its accepted
// range and the commands that read it.  Parse, PrintUsage and every unknown,
// misplaced or out-of-range error come from that table.  A flag given to a
// command that does not read it is refused like an unknown one, and so is a
// positional argument the command does not take.  `--help` (or `-h`)
// anywhere, or a `help` command word, asks for the generated usage.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace astra::flags {

// One bit per entry of Spec::commands, in order.
using Commands = std::uint32_t;
inline constexpr Commands kEveryCommand = ~Commands{0};

// Inclusive bounds of a numeric flag; the field's own type bounds it too.
struct Range {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
};

struct Flag {
  // A switch: given bare, it stores `v`.
  Flag(std::string_view n, bool* f, bool v = true, Commands c = kEveryCommand)
      : name(n), field(f), value(v), commands(c) {}
  Flag(std::string_view n, std::string_view m, std::string* f, Commands c = kEveryCommand)
      : name(n), metavar(m), field(f), commands(c) {}
  template <typename Number>
    requires std::is_arithmetic_v<Number> && (!std::is_same_v<Number, bool>)
  Flag(std::string_view n, std::string_view m, Number* f, Range r = {},
       Commands c = kEveryCommand)
      : name(n), metavar(m), field(f), range(r), commands(c) {}

  std::string_view name;     // "--nodes"
  std::string_view metavar;  // "N"; empty for a switch
  std::variant<bool*, int*, unsigned*, std::int64_t*, std::uint64_t*, double*,
               std::string*>
      field;
  Range range;
  bool value = true;
  Commands commands = kEveryCommand;
};

struct Command {
  std::string_view name = {};        // empty: the default command
  std::string_view positional = {};  // "DIR"; "PATH..." takes any number; empty: none
};

struct Spec {
  std::string program;
  std::string summary = {};              // printed above the usage lines
  std::vector<Command> commands = {{}};  // the first may be unnamed: the default
  std::vector<Flag> flags = {};
  std::string epilogue = {};             // printed below them
};

struct Parsed {
  Commands command = 1;  // the bit of the command that ran
  std::vector<std::string> positionals;
  std::vector<std::string_view> given;  // flag names, in argv order
  std::string error;                    // the first error; empty when none
  bool help = false;

  [[nodiscard]] bool Given(std::string_view name) const;
};

// Parse argv[1..argc): a command word when the spec names one, then flags
// and positionals.  Fields of flags given are written as they are parsed;
// the first error is kept and later arguments are still scanned for help.
[[nodiscard]] Parsed Parse(const Spec& spec, int argc, const char* const* argv);

void PrintUsage(std::ostream& out, const Spec& spec);

// Answer a help request (usage on stdout, 0) or an error (on stderr,
// `error_exit`); nullopt when the binary should go on.
[[nodiscard]] std::optional<int> Reply(const Spec& spec, const Parsed& parsed,
                                       int error_exit = 1);

}  // namespace astra::flags

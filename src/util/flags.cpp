#include "util/flags.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "util/strings.hpp"

namespace astra::flags {
namespace {

// Store `text` in `*field` when it parses and lies in the flag's range and
// the field's type; otherwise return what the flag expects.
template <typename T>
std::string Assign(T* field, std::string_view text, const Flag& flag) {
  if constexpr (std::is_same_v<T, bool>) {
    *field = flag.value;
  } else if constexpr (std::is_same_v<T, std::string>) {
    *field = std::string(text);
  } else {
    using Limits = std::numeric_limits<T>;
    const T lo = flag.range.min <= static_cast<double>(Limits::lowest())
                     ? Limits::lowest()
                     : static_cast<T>(flag.range.min);
    const T hi = flag.range.max >= static_cast<double>(Limits::max())
                     ? Limits::max()
                     : static_cast<T>(flag.range.max);
    const auto value = [text] {
      if constexpr (std::is_floating_point_v<T>) return ParseDouble(text);
      else if constexpr (std::is_signed_v<T>) return ParseInt64(text);
      else return ParseUint64(text);
    }();
    if (value && *value >= lo && *value <= hi) {  // false for NaN
      *field = static_cast<T>(*value);
      return {};
    }
    std::ostringstream expects;
    expects << (std::is_integral_v<T> ? "an integer" : "a number");
    if (hi == Limits::max()) {
      expects << " >= " << lo;
    } else {
      expects << " in [" << lo << ", " << hi << "]";
    }
    return expects.str();
  }
  return {};
}

// Apply one `--name[=value]` argument to its flag; returns the error, if any.
std::string Apply(const Flag& flag, std::string_view arg) {
  const std::size_t eq = arg.find('=');
  const bool bare = eq == std::string_view::npos;
  std::string usage(flag.name);
  if (!flag.metavar.empty()) usage += "=" + std::string(flag.metavar);
  if (flag.metavar.empty() != bare) {
    return usage + (bare ? " needs a value" : " takes no value");
  }
  const std::string_view text = bare ? "" : arg.substr(eq + 1);
  const std::string expects = std::visit(
      [&](auto* field) { return Assign(field, text, flag); }, flag.field);
  if (expects.empty()) return {};
  return usage + " expects " + expects + ", got '" + std::string(text) + "'";
}

}  // namespace

bool Parsed::Given(std::string_view name) const {
  return std::find(given.begin(), given.end(), name) != given.end();
}

Parsed Parse(const Spec& spec, int argc, const char* const* argv) {
  Parsed parsed;
  const std::string_view word = argc > 1 ? argv[1] : "";
  const auto named = std::find_if(
      spec.commands.begin(), spec.commands.end(),
      [word](const Command& c) { return !c.name.empty() && c.name == word; });
  const bool has_word = named != spec.commands.end();
  const Command& cmd = has_word ? *named : spec.commands.front();
  if (!has_word && spec.commands.size() > 1 && word == "help") {
    parsed.help = true;
    return parsed;
  }
  if (!has_word && !cmd.name.empty() && word != "--help" && word != "-h") {
    parsed.error = spec.program + ": unknown command '" + std::string(word) +
                   "' (see `" + spec.program + " --help`)";
    return parsed;
  }
  parsed.command = Commands{1} << (&cmd - spec.commands.data());
  const std::string where =
      spec.program + (cmd.name.empty() ? "" : " " + std::string(cmd.name)) + ": ";
  const auto fail = [&](const std::string& message) {
    if (parsed.error.empty()) parsed.error = where + message;
  };
  for (int i = has_word ? 2 : 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      parsed.help = true;
      return parsed;
    }
    if (arg.substr(0, 2) != "--") {
      if (cmd.positional.empty() ||
          (!cmd.positional.ends_with("...") && !parsed.positionals.empty())) {
        fail("unexpected argument '" + std::string(arg) + "'");
      } else {
        parsed.positionals.emplace_back(arg);
      }
      continue;
    }
    const std::string_view name = arg.substr(0, arg.find('='));
    const auto flag = std::find_if(spec.flags.begin(), spec.flags.end(),
                                   [name](const Flag& f) { return f.name == name; });
    if (flag == spec.flags.end()) {
      fail("unknown flag '" + std::string(arg) + "' (see `" + spec.program + " --help`)");
    } else if ((flag->commands & parsed.command) == 0) {
      fail(std::string(name) + " is not a flag of `" + std::string(cmd.name) + "`");
    } else if (const std::string error = Apply(*flag, arg); !error.empty()) {
      fail(error);
    } else {
      parsed.given.push_back(flag->name);
    }
  }
  return parsed;
}

void PrintUsage(std::ostream& out, const Spec& spec) {
  if (!spec.summary.empty()) out << spec.summary << "\n\n";
  out << "usage:\n";
  for (std::size_t c = 0; c < spec.commands.size(); ++c) {
    const Command& cmd = spec.commands[c];
    std::string line = "  " + spec.program;
    for (const std::string_view word : {cmd.name, cmd.positional}) {
      if (!word.empty()) line += " " + std::string(word);
    }
    const std::size_t indent = line.size();
    for (const Flag& flag : spec.flags) {
      if ((flag.commands & (Commands{1} << c)) == 0) continue;
      std::string word = " [" + std::string(flag.name);
      if (!flag.metavar.empty()) word += "=" + std::string(flag.metavar);
      if (line.size() + word.size() >= 80) {
        out << line << '\n';
        line = std::string(indent, ' ');
      }
      line += word + "]";
    }
    out << line << '\n';
  }
  if (!spec.epilogue.empty()) out << '\n' << spec.epilogue;
}

std::optional<int> Reply(const Spec& spec, const Parsed& parsed, int error_exit) {
  if (parsed.help) {
    PrintUsage(std::cout, spec);
    return 0;
  }
  if (parsed.error.empty()) return std::nullopt;
  std::cerr << parsed.error << '\n';
  return error_exit;
}

}  // namespace astra::flags

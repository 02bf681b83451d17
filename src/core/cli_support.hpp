// Shared CLI support (DESIGN.md §16.5): one option table per tool, and the
// hardening every tool needs.
//
// Each tool lists its options once, as a table of cli::Option entries:
// name, value metavariable (empty for a switch), one help line and a typed
// target.  Parser::parse is the one argument loop.  Unknown options,
// missing values, malformed values (the whole token must parse; a sign on
// an unsigned target or a value out of bounds is malformed) and a wrong
// number of positional arguments are all usage errors: "<tool>: <reason>",
// then the usage text generated from the table, then a flushed
// --health-json report, then exit status 2.
//
// Two failure modes every tool here must survive:
//
//  * A downstream pipe closing early ("awesym_cli --dump-moments | head").
//    Default SIGPIPE semantics kill the process mid-dump with no exit
//    status a script can reason about.  install_sigpipe_guard() turns the
//    signal off so writes fail with EPIPE instead, and stdout_alive()
//    lets dump loops notice and stop quietly — a consumed-enough pipe is
//    SUCCESS, not an error.
//
//  * Dying before the --health-json report is written.  Supervisors and
//    the CI robustness matrix treat that file as the tool's black box
//    recorder; a usage error or a model-load throw must still produce
//    valid JSON.  HealthJsonSink pre-scans argv for --health-json BEFORE
//    any real argument parsing, so even "bad flags" exit paths can flush.
//
// Header-only on purpose: tools link different library subsets and this
// must not add a dependency edge.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "health/report.hpp"

namespace awe::cli {

/// Ignore SIGPIPE process-wide.  Call first thing in main(); after this a
/// closed-pipe write returns EPIPE (and sets the stream error flag)
/// instead of killing the process.
inline void install_sigpipe_guard() { std::signal(SIGPIPE, SIG_IGN); }

/// True while stdout has not failed.  After a write, a false return means
/// the consumer is gone (EPIPE under the guard above) — stop emitting and
/// exit 0: "| head" took what it wanted.
inline bool stdout_alive() {
  if (std::ferror(stdout)) return false;
  if (std::fflush(stdout) != 0) return false;
  return !std::ferror(stdout);
}

/// One row of a tool's option table.
struct Option {
  std::string name;  ///< "--order"
  std::string meta;  ///< value metavariable ("Q"); empty for a switch
  std::string help;  ///< one line of the usage text
  /// Stores the value (a switch gets ""); false or a throw means malformed.
  std::function<bool(const std::string&)> set;
};

/// The whole token as a decimal number in [lo, hi], or nullopt.  No
/// leading blank or '+', no trailing junk, no '-' on an unsigned type, no
/// infinity or NaN (they fail the bounds).
template <class V>
std::optional<V> parse_number(
    const std::string& s, std::type_identity_t<V> lo = std::numeric_limits<V>::lowest(),
    std::type_identity_t<V> hi = std::numeric_limits<V>::max()) {
  V v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || !(v >= lo && v <= hi))
    return std::nullopt;
  return v;
}

/// What number() parses for a target: the target itself, an optional's
/// value, or a duration's count (never negative).
template <class T>
struct NumberOf {
  using type = T;
  static constexpr T lo = std::numeric_limits<T>::lowest();
};
template <class T>
struct NumberOf<std::optional<T>> : NumberOf<T> {};
template <class R, class P>
struct NumberOf<std::chrono::duration<R, P>> {
  using type = R;
  static constexpr R lo = 0;
};

/// A switch: its presence stores `value` into `target`.
template <class T = bool>
Option flag(std::string name, T& target, std::string help, T value = true) {
  return {std::move(name), "", std::move(help), [&target, value](const std::string&) {
            target = value;
            return true;
          }};
}

inline Option text(std::string name, std::string meta, std::string& target,
                   std::string help) {
  return {std::move(name), std::move(meta), std::move(help),
          [&target](const std::string& v) {
            target = v;
            return true;
          }};
}

/// A number in [lo, hi] (defaults: the type's range; 0 up for durations).
template <class T, class V = typename NumberOf<T>::type>
Option number(std::string name, std::string meta, T& target, std::string help,
              std::type_identity_t<V> lo = NumberOf<T>::lo,
              std::type_identity_t<V> hi = std::numeric_limits<V>::max()) {
  return {std::move(name), std::move(meta), std::move(help),
          [&target, lo, hi](const std::string& v) {
            const std::optional<V> n = parse_number<V>(v, lo, hi);
            if (n) target = T(*n);
            return n.has_value();
          }};
}

/// Deterministic health-JSON flusher bound to the --health-json flag.
class HealthJsonSink {
 public:
  /// Pre-scan argv for "--health-json FILE".  Runs before real argument
  /// parsing so EVERY exit path — usage errors included — can flush().
  static HealthJsonSink from_argv(int argc, char** argv) {
    HealthJsonSink sink;
    for (int i = 1; i + 1 < argc; ++i)
      if (std::string(argv[i]) == "--health-json") sink.path_ = argv[i + 1];
    return sink;
  }

  /// The table row for --health-json; from_argv has already read its value.
  static Option option() {
    return {"--health-json", "FILE",
            "write a HealthReport as JSON to FILE (\"-\" = stdout) on every exit path",
            [](const std::string&) { return true; }};
  }

  /// Flush a fresh report carrying only the process-global counters: the
  /// early-exit form, valid JSON whatever already went wrong.
  void flush() const {
    if (path_.empty()) return;
    health::HealthReport report;
    health::absorb_global_counters(report);
    flush_report(report);
  }

  /// Flush a caller-built report.  Absorbs the process-global counters
  /// here, so callers need not.
  void flush_report(health::HealthReport report) const {
    if (path_.empty()) return;
    health::absorb_global_counters(report);
    const std::string json = report.to_json() + "\n";
    if (path_ == "-") {
      std::fputs(json.c_str(), stdout);
      std::fflush(stdout);
      return;
    }
    std::ofstream out(path_);
    if (out) out << json;
  }

 private:
  std::string path_;
};

/// A tool's command line: its option table and how many positional
/// arguments it takes.
struct Parser {
  std::string tool;      ///< program name for messages and the usage text
  std::string synopsis;  ///< the usage line after the program name
  std::vector<Option> options;
  std::size_t min_args = 0, max_args = 0;  ///< positional argument count
  const HealthJsonSink* sink = nullptr;    ///< flushed on a usage error

  /// The synopsis, then one help line per option.
  std::string usage() const {
    std::size_t width = 0;
    for (const Option& o : options)
      width = std::max(width, o.name.size() + o.meta.size());
    std::string out = "usage: " + tool + " " + synopsis + "\n";
    for (const Option& o : options) {
      std::string head = "  " + o.name + (o.meta.empty() ? "" : " " + o.meta);
      head.resize(width + 5, ' ');
      out += head + o.help + "\n";
    }
    return out;
  }

  /// Parse argv[1..argc) into the table's targets and the positional
  /// arguments (in order) into `args`.  Returns why the command line is a
  /// usage error, or "" when it is not.
  std::string try_parse(int argc, const char* const* argv,
                        std::vector<std::string>& args) const {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.size() < 2 || arg[0] != '-') {
        if (args.size() == max_args) return "unexpected argument '" + arg + "'";
        args.push_back(arg);
        continue;
      }
      const auto opt = std::find_if(options.begin(), options.end(),
                                    [&](const Option& o) { return o.name == arg; });
      if (opt == options.end()) return "unknown option '" + arg + "'";
      std::string value;
      if (!opt->meta.empty()) {
        if (++i == argc) return arg + " needs a value";
        value = argv[i];
      }
      std::string why;
      try {
        if (opt->set(value)) continue;
      } catch (const std::exception& e) {
        why = std::string(": ") + e.what();
      }
      return "invalid value '" + value + "' for " + arg + why;
    }
    return args.size() < min_args ? "missing argument" : "";
  }

  /// try_parse, or fail() with its reason.  Returns the positionals.
  std::vector<std::string> parse(int argc, char** argv) const {
    std::vector<std::string> args;
    const std::string why = try_parse(argc, argv, args);
    if (!why.empty()) fail(why);
    return args;
  }

  /// A usage error: reason and usage text on stderr, health JSON, exit 2.
  [[noreturn]] void fail(const std::string& reason) const {
    std::fprintf(stderr, "%s: %s\n%s", tool.c_str(), reason.c_str(), usage().c_str());
    if (sink) sink->flush();
    std::exit(2);
  }
};

}  // namespace awe::cli

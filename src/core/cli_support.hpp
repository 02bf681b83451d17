// Shared CLI hardening helpers (DESIGN.md §16.5).
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

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

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

  bool enabled() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

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

}  // namespace awe::cli

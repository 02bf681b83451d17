// awe_loadgen — concurrent load generator for awe_serve (DESIGN.md §16).
//
// Thin CLI over serve::loadgen::run_campaign — the SAME campaign code
// bench_serve_latency times for the committed perf baseline, so the CLI's
// percentiles and the gated bench rows can never disagree.
//
// Exit status: 0 when every connection completed its protocol (shed and
// deadline-expired responses are VALID protocol outcomes — the daemon
// degrading under load is what they measure); 1 when any connection hit a
// transport error or a malformed response.
#include <cstdio>
#include <string>

#include "core/cli_support.hpp"
#include "serve/loadgen.hpp"

int main(int argc, char** argv) {
  using namespace awe;
  cli::install_sigpipe_guard();
  serve::loadgen::CampaignOptions opt;
  bool json = false;
  bool quiet = false;
  const cli::Parser cli{
      .tool = "awe_loadgen",
      .synopsis = "(--unix PATH | --host H --port P) [options]",
      .options = {
          cli::text("--unix", "PATH", opt.unix_path, "daemon's unix socket"),
          cli::text("--host", "H", opt.host, "daemon's TCP host (default 127.0.0.1)"),
          cli::number("--port", "P", opt.port, "daemon's TCP port"),
          cli::number("--connections", "N", opt.connections,
                      "concurrent client connections (default 4)", 1),
          cli::number("--requests", "N", opt.requests,
                      "requests per connection (default 32)"),
          cli::number("--duration-ms", "T", opt.duration_ms,
                      "stop after T ms instead of a fixed count"),
          cli::text("--op", "OP", opt.op, "ping | eval (default eval)"),
          cli::number("--mc", "N", opt.mc,
                      "eval: server-side Monte Carlo points (default 64)"),
          cli::number("--deadline-ms", "D", opt.deadline_ms,
                      "attach a per-request deadline"),
          cli::flag("--summary", opt.summary, "ask for summary responses"),
          cli::number("--seed", "S", opt.seed,
                      "base seed; connection c uses S+c (default 1)"),
          cli::number("--timeout-ms", "T", opt.timeout_ms,
                      "client-side response timeout (default 30000)"),
          cli::flag("--json", json, "emit one machine-readable JSON summary line"),
          cli::flag("--quiet", quiet, "suppress the human summary")}};
  cli.parse(argc, argv);
  if (opt.unix_path.empty() == (opt.port == 0))
    cli.fail("needs exactly one of --unix, --port");
  if (opt.op != "ping" && opt.op != "eval") cli.fail("--op must be ping or eval");

  const serve::loadgen::CampaignResult res = serve::loadgen::run_campaign(opt);
  const double p50 = res.percentile_us(50);
  const double p90 = res.percentile_us(90);
  const double p99 = res.percentile_us(99);

  if (!quiet)
    std::printf(
        "awe_loadgen: %zu conns — %llu ok, %llu shed, %llu deadline-expired, %llu errors\n"
        "  latency_us p50=%.1f p90=%.1f p99=%.1f  requests_per_s=%.1f\n",
        opt.connections, static_cast<unsigned long long>(res.ok),
        static_cast<unsigned long long>(res.shed),
        static_cast<unsigned long long>(res.deadline_expired),
        static_cast<unsigned long long>(res.errors), p50, p90, p99,
        res.requests_per_s());
  if (json)
    std::printf(
        "{\"ok\":%llu,\"shed\":%llu,\"deadline_expired\":%llu,\"errors\":%llu,"
        "\"latency_p50_us\":%.1f,\"latency_p90_us\":%.1f,\"latency_p99_us\":%.1f,"
        "\"requests_per_s\":%.1f,\"transport_error\":%s}\n",
        static_cast<unsigned long long>(res.ok),
        static_cast<unsigned long long>(res.shed),
        static_cast<unsigned long long>(res.deadline_expired),
        static_cast<unsigned long long>(res.errors), p50, p90, p99,
        res.requests_per_s(), res.transport_error ? "true" : "false");
  return res.transport_error ? 1 : 0;
}

#include "serve/loadgen.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "serve/net.hpp"
#include "text/json.hpp"

namespace awe::serve::loadgen {
namespace {

using clock_type = std::chrono::steady_clock;

/// Per-connection tally, merged into the CampaignResult after the join.
struct Tally {
  std::vector<double> latencies_us;
  std::uint64_t ok = 0, shed = 0, deadline = 0, errors = 0;
  bool transport_error = false;
};

void run_connection(const CampaignOptions& opt, std::size_t index, Tally& tally,
                    const std::atomic<bool>& deadline_hit) {
  static const std::atomic<bool> never_stop{false};
  int fd = -1;
  try {
    fd = opt.unix_path.empty() ? net::connect_tcp(opt.host, opt.port)
                               : net::connect_unix(opt.unix_path);
  } catch (const std::exception&) {
    tally.transport_error = true;
    return;
  }
  net::LineReader reader(fd, 64u << 20);

  std::string request = "{\"op\":\"" + opt.op + "\"";
  if (opt.op == "eval") {
    request += ",\"mc\":" + std::to_string(opt.mc);
    request += ",\"seed\":" + std::to_string(opt.seed + index);
    if (opt.deadline_ms)
      request += ",\"deadline_ms\":" + std::to_string(opt.deadline_ms);
    if (opt.summary) request += ",\"summary\":true";
  }
  request += "}\n";

  const auto read_timeout = std::chrono::milliseconds(opt.timeout_ms);
  std::string line;
  for (std::size_t r = 0;
       opt.duration_ms ? !deadline_hit.load() : r < opt.requests; ++r) {
    const auto t0 = clock_type::now();
    if (!net::write_all(fd, request, read_timeout, never_stop)) {
      tally.transport_error = true;
      break;
    }
    const net::ReadStatus st =
        reader.read_line(line, read_timeout, read_timeout, never_stop);
    if (st != net::ReadStatus::kLine) {
      tally.transport_error = true;
      break;
    }
    const auto t1 = clock_type::now();
    tally.latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());

    try {
      const json::Value doc = json::parse(line);
      const json::Value* ok = doc.find("ok");
      if (ok && ok->is_bool() && ok->boolean) {
        const json::Value* dl = doc.find("deadline_expired");
        if (dl && dl->is_bool() && dl->boolean) ++tally.deadline;
        else ++tally.ok;
      } else {
        const json::Value* code = doc.find("error");
        if (code && code->is_string() && code->str == "overloaded") ++tally.shed;
        else ++tally.errors;
      }
    } catch (const std::exception&) {
      tally.transport_error = true;
      break;
    }
  }
  ::close(fd);
}

}  // namespace

double CampaignResult::percentile_us(double p) const {
  if (latencies_us.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(latencies_us.size() - 1) + 0.5);
  return latencies_us[std::min(idx, latencies_us.size() - 1)];
}

CampaignResult run_campaign(const CampaignOptions& opt) {
  std::vector<Tally> tallies(opt.connections);
  std::atomic<bool> deadline_hit{false};
  std::vector<std::thread> threads;
  const auto start = clock_type::now();
  for (std::size_t c = 0; c < opt.connections; ++c)
    threads.emplace_back(
        [&, c] { run_connection(opt, c, tallies[c], deadline_hit); });
  if (opt.duration_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.duration_ms));
    deadline_hit.store(true);
  }
  for (auto& t : threads) t.join();

  CampaignResult res;
  res.elapsed_s =
      std::chrono::duration<double>(clock_type::now() - start).count();
  for (const Tally& t : tallies) {
    res.ok += t.ok;
    res.shed += t.shed;
    res.deadline_expired += t.deadline;
    res.errors += t.errors;
    res.latencies_us.insert(res.latencies_us.end(), t.latencies_us.begin(),
                            t.latencies_us.end());
    res.transport_error = res.transport_error || t.transport_error;
  }
  std::sort(res.latencies_us.begin(), res.latencies_us.end());
  return res;
}

}  // namespace awe::serve::loadgen

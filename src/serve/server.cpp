#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "circuit/parser.hpp"
#include "health/failpoints.hpp"
#include "health/status.hpp"

namespace awe::serve {

namespace {

using clock = std::chrono::steady_clock;

std::int64_t now_ns() { return clock::now().time_since_epoch().count(); }

/// Sleep in ticks so a stop flag interrupts promptly.
void interruptible_sleep(std::chrono::milliseconds total, const std::atomic<bool>& stop) {
  const auto until = clock::now() + total;
  while (clock::now() < until && !stop.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

/// Append `field` (a literal such as ",\"count\":") and then `v`.
void put(std::string& out, std::string_view field, std::uint64_t v) {
  out += field;
  json::append_uint(out, v);
}

void append_stats(std::string& out, const ServeStats::Snapshot& s) {
  put(out, "{\"accepted\":", s.accepted);
  put(out, ",\"accept_faults\":", s.accept_faults);
  put(out, ",\"evicted\":", s.evicted);
  put(out, ",\"requests\":", s.requests);
  put(out, ",\"responses\":", s.responses);
  put(out, ",\"shed\":", s.shed);
  put(out, ",\"bad_requests\":", s.bad_requests);
  put(out, ",\"deadline_expired\":", s.deadline_expired);
  put(out, ",\"watchdog_kicks\":", s.watchdog_kicks);
  put(out, ",\"unavailable\":", s.unavailable);
  put(out, ",\"reloads_ok\":", s.reloads_ok);
  put(out, ",\"reload_failures\":", s.reload_failures);
  out += "}";
}

/// Each fail class's code as a JSON string literal: an eval response
/// carries one per point.
const std::array<std::string, health::kFailClassCount>& quoted_fail_codes() {
  static const auto codes = [] {
    std::array<std::string, health::kFailClassCount> q;
    for (std::size_t c = 0; c < q.size(); ++c)
      q[c] = json::quote(health::code(static_cast<health::FailClass>(c)));
    return q;
  }();
  return codes;
}

}  // namespace

ServeStats::Snapshot ServeStats::snapshot() const {
  return Snapshot{
      accepted.load(),        accept_faults.load(), evicted.load(),
      requests.load(),        responses.load(),     shed.load(),
      bad_requests.load(),    deadline_expired.load(),
      watchdog_kicks.load(),  unavailable.load(),   reloads_ok.load(),
      reload_failures.load(),
  };
}

Server::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)), store_("awe_serve") {}

Server::~Server() {
  stop();
  if (drain_thread_.joinable()) drain_thread_.join();
}

Server::Loaded Server::build_model() const {
  std::ifstream in(cfg_.deck_path);
  if (!in) throw std::runtime_error("cannot open deck " + cfg_.deck_path);
  const circuit::ParsedDeck deck = circuit::parse_deck(in);
  if (deck.symbol_elements.empty() || deck.input_source.empty() ||
      deck.output_node.empty())
    throw std::runtime_error("deck needs .symbol/.input/.output directives");
  // An empty cache_dir builds cold; otherwise a corrupt entry quarantines
  // to .bad and rebuilds (core/model_cache) instead of failing the reload.
  core::BuildOptions build_opts;
  build_opts.cache_dir = cfg_.cache_dir;
  Loaded loaded{core::CompiledModel::build(deck.netlist, deck.symbol_elements,
                                           deck.input_source, deck.output_node,
                                           cfg_.model, build_opts),
                std::make_shared<ModelMeta>()};
  ModelMeta& m = *loaded.meta;
  m.symbols = loaded.model.symbol_names();
  m.order = loaded.model.order();
  // Nominal values for server-side Monte Carlo, from the deck the model
  // was built from: the build has already resolved every symbol.
  const auto& elements = deck.netlist.elements();
  for (const auto& s : m.symbols)
    m.nominal.push_back(elements[deck.netlist.find_element(s).value()].value);
  return loaded;
}

std::shared_ptr<const Server::ModelMeta> Server::meta() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return meta_;
}

void Server::set_meta(std::shared_ptr<const ModelMeta> m) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  meta_ = std::move(m);
}

void Server::start() {
  // Build + publish generation 1 before binding: a daemon that cannot
  // serve its first request should fail its start, not its clients.
  {
    Loaded loaded = build_model();
    store_.publish(loaded.model);
    set_meta(std::move(loaded.meta));
  }

  if (cfg_.tcp) {
    listen_fd_ = net::listen_tcp(cfg_.host, cfg_.port, bound_port_);
  } else {
    if (cfg_.unix_path.empty())
      throw std::runtime_error("server needs a unix socket path or --tcp");
    listen_fd_ = net::listen_unix(cfg_.unix_path);
  }

  worker_slots_.clear();
  for (std::size_t i = 0; i < cfg_.workers; ++i)
    worker_slots_.push_back(std::make_unique<WorkerSlot>());
  for (std::size_t i = 0; i < cfg_.workers; ++i)
    worker_threads_.emplace_back([this, i] { worker_loop(i); });
  if (cfg_.watchdog) watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {wake_.read_fd(), POLLIN, 0}};
    const int pr = ::poll(pfds, 2, 200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    wake_.drain();
    if (stop_.load(std::memory_order_acquire)) break;
    if (!(pfds[0].revents & POLLIN)) continue;

    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) continue;
    if (draining_.load(std::memory_order_acquire)) {
      ::close(cfd);
      continue;
    }
    if (health::failpoints::fires(health::failpoints::sites::kServeAccept)) {
      // Injected accept-path fault: drop this connection, keep serving.
      stats_.accept_faults.fetch_add(1, std::memory_order_relaxed);
      ::close(cfd);
      continue;
    }
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_shared<Conn>();
    conn->fd = cfd;
    auto done = std::make_shared<std::atomic<bool>>(false);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = ++next_conn_id_;
      // Reap readers that already exited so a churn of short connections
      // doesn't accumulate thread handles forever.
      std::erase_if(reader_threads_, [](ReaderEntry& e) {
        if (!e.done->load(std::memory_order_acquire)) return false;
        e.thread.join();
        return true;
      });
      reader_threads_.push_back(ReaderEntry{
          std::thread([this, conn, done] {
            reader_loop(conn);
            done->store(true, std::memory_order_release);
          }),
          done});
    }
  }
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  net::LineReader reader(conn->fd, cfg_.max_line_bytes);
  std::string line;
  while (!stop_.load(std::memory_order_acquire) && !conn->dead.load()) {
    if (draining_.load(std::memory_order_acquire)) break;  // no new requests
    const net::ReadStatus st =
        reader.read_line(line, cfg_.idle_timeout, cfg_.read_stall_timeout, stop_);
    if (st == net::ReadStatus::kIdle) {
      if (cfg_.idle_timeout.count() < 0) continue;  // idleness is free
      evict(conn);
      break;
    }
    if (st == net::ReadStatus::kStalled || st == net::ReadStatus::kTooLong) {
      // Slow-loris / oversized line: answer if the pipe still works, evict.
      respond(conn, error_response("?", errors::kBadRequest,
                                   st == net::ReadStatus::kTooLong
                                       ? "request line too long"
                                       : "request stalled mid-line"));
      evict(conn);
      break;
    }
    if (st != net::ReadStatus::kLine) break;  // kClosed / kStopped / kError

    if (health::failpoints::fires(health::failpoints::sites::kServeRead)) {
      // Injected read-path fault: treat as an unreadable connection.
      evict(conn);
      break;
    }

    const auto m = meta();
    Request req;
    try {
      req = parse_request(line, m->symbols.size(), cfg_.max_points);
    } catch (const ProtocolError& e) {
      stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
      respond(conn, error_response("?", errors::kBadRequest, e.what()));
      continue;  // a malformed request poisons nothing; keep the connection
    }

    switch (req.op) {
      case Op::kPing:
        respond(conn, ok_response("ping", req.id, ""));
        continue;
      case Op::kInfo:
        respond(conn, ok_response("info", req.id, info_body()));
        continue;
      case Op::kStatus:
        respond(conn, ok_response("status", req.id, status_body()));
        continue;
      case Op::kSleep:
        if (!cfg_.debug_ops) {
          stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
          respond(conn, error_response("sleep", errors::kBadRequest,
                                       "sleep requires --debug-ops", req.id));
          continue;
        }
        break;
      case Op::kEval:
      case Op::kReload:
        break;
    }

    Job job;
    job.conn = conn;
    job.bytes = line.size();
    job.req = std::move(req);
    admit(std::move(job));
  }
}

bool Server::admit(Job job) {
  const char* op = to_string(job.req.op);
  if (draining_.load(std::memory_order_acquire)) {
    stats_.unavailable.fetch_add(1, std::memory_order_relaxed);
    respond(job.conn,
            error_response(op, errors::kUnavailable, "server is draining", job.req.id));
    return false;
  }
  bool shed_queue_full = false;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shed_queue_full = queue_.size() >= cfg_.max_queue;
    shed = shed_queue_full || inflight_bytes_ + job.bytes > cfg_.max_inflight_bytes;
    if (!shed) {
      inflight_bytes_ += job.bytes;
      if (job.req.op == Op::kEval)
        stats_.requests.fetch_add(1, std::memory_order_relaxed);
      queue_.push_back(std::move(job));
    }
  }
  if (shed) {
    // Respond OUTSIDE the queue lock: shedding must never block workers
    // behind a slow client's write timeout.
    stats_.shed.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> hlock(health_mu_);
      health_.record_failure(health::FailClass::kOverload);
    }
    respond(job.conn,
            error_response(op, errors::kOverloaded,
                           shed_queue_full ? "request queue full"
                                           : "in-flight byte budget full",
                           job.req.id, cfg_.retry_after_ms));
    return false;
  }
  queue_cv_.notify_one();
  return true;
}

void Server::fail_queue(const char* code, const std::string& message) {
  std::deque<Job> failed;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    failed.swap(queue_);
    for (const Job& j : failed) inflight_bytes_ -= j.bytes;
  }
  for (Job& j : failed) {
    stats_.unavailable.fetch_add(1, std::memory_order_relaxed);
    respond(j.conn, error_response(to_string(j.req.op), code, message, j.req.id));
  }
  if (!failed.empty()) queue_cv_.notify_all();
}

void Server::worker_loop(std::size_t index) {
  // Each worker owns its pool: ThreadPool::parallel_chunks is not
  // concurrently reentrant, and per-worker pools keep eval latency
  // independent across concurrent requests.
  sweep::ThreadPool pool(std::max<std::size_t>(1, cfg_.threads_per_worker));
  WorkerSlot& slot = *worker_slots_[index];

  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) || !queue_.empty();
      });
      // Hard stop fails fast: whatever is still queued gets an
      // "unavailable" answer from fail_queue() in stop(), not a worker.
      if (stop_.load(std::memory_order_acquire)) return;
      if (queue_.empty()) continue;
      job = std::move(queue_.front());
      queue_.pop_front();
      ++executing_;
    }

    slot.kicked.store(false, std::memory_order_relaxed);
    slot.busy_since_ns.store(now_ns(), std::memory_order_release);
    switch (job.req.op) {
      case Op::kEval: handle_eval(job, slot, pool); break;
      case Op::kReload: handle_reload(job); break;
      case Op::kSleep: handle_sleep(job, slot); break;
      default: break;  // inline ops never reach the queue
    }
    slot.busy_since_ns.store(0, std::memory_order_release);
    slot.deadline_ns.store(0, std::memory_order_relaxed);

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --executing_;
      inflight_bytes_ -= job.bytes;
    }
    queue_cv_.notify_all();  // wake the drain waiter and byte-budget shedders
  }
}

void Server::handle_eval(const Job& job, WorkerSlot& slot, sweep::ThreadPool& pool) {
  const EvalRequest& ev = job.req.eval;
  const auto m = meta();

  if (ev.cancel_after_checks != 0 && !cfg_.debug_ops) {
    stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
    respond(job.conn, error_response("eval", errors::kBadRequest,
                                     "cancel_after_checks requires --debug-ops",
                                     job.req.id));
    return;
  }

  std::uint64_t gen = 0;
  const auto model = store_.acquire(&gen);
  if (!model) {
    stats_.unavailable.fetch_add(1, std::memory_order_relaxed);
    respond(job.conn, error_response("eval", errors::kUnavailable,
                                     "no model published", job.req.id));
    return;
  }

  std::vector<double> points;
  std::size_t n = 0;
  if (ev.mc != 0) {
    // Server-side Monte Carlo: normal(nominal, 5% of |nominal|) per
    // symbol, seeded — the same (mc, seed) always evaluates the same
    // points whatever worker or thread count handles it.
    std::vector<sweep::Distribution> dists;
    dists.reserve(m->nominal.size());
    for (const double v : m->nominal)
      dists.push_back(sweep::Distribution::normal(v, 0.05 * std::abs(v)));
    points = sweep::sample_points(dists, ev.mc, ev.seed);
    n = ev.mc;
  } else {
    points = ev.points_soa;
    n = ev.num_points;
  }

  sweep::CancelToken token;
  std::uint64_t deadline_ms = ev.deadline_ms ? ev.deadline_ms : cfg_.default_deadline_ms;
  if (cfg_.max_deadline_ms && deadline_ms)
    deadline_ms = std::min(deadline_ms, cfg_.max_deadline_ms);
  if (deadline_ms)
    token.set_deadline(clock::now() + std::chrono::milliseconds(deadline_ms));
  if (ev.cancel_after_checks) token.cancel_after_checks(ev.cancel_after_checks);

  // Register with the watchdog for the duration of the sweep.
  slot.deadline_ns.store(
      deadline_ms ? now_ns() + static_cast<std::int64_t>(deadline_ms) * 1'000'000 : 0,
      std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(slot.token_mu);
    slot.token = &token;
  }

  sweep::SweepOptions opts;
  opts.pool = &pool;
  opts.cancel = &token;

  sweep::SweepResult res;
  bool failed = false;
  health::FailClass fail_cls = health::FailClass::kUnknown;
  std::string fail_code;
  std::string fail_msg;
  try {
    res = sweep::run_sweep(*model, std::move(points), n, opts);
  } catch (const std::exception& e) {
    // Request-level containment: whatever a poisoned deck or injected
    // fault threw stays inside this response; the worker and its pool are
    // intact for the next request.
    failed = true;
    fail_cls = health::fail_class_of(e);
    fail_code = health::code(fail_cls);
    fail_msg = e.what();
  }
  {
    std::lock_guard<std::mutex> lock(slot.token_mu);
    slot.token = nullptr;
  }

  if (failed) {
    {
      std::lock_guard<std::mutex> lock(health_mu_);
      health_.record_failure(fail_cls);
    }
    respond(job.conn, error_response("eval", errors::kInternal,
                                     fail_code + ": " + fail_msg, job.req.id));
    return;
  }

  const std::uint64_t deadline_points = res.health.failures(health::FailClass::kDeadline);
  if (deadline_points > 0)
    stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_.merge(res.health);
  }

  // The whole response line in one buffer, reserved once up front: a
  // double takes at most 24 bytes on the wire, a quoted fail code 24.
  const std::size_t per_point = ev.summary ? 0 : 25 * res.num_moments + 32;
  std::string out;
  out.reserve(320 + 170 * res.moment_stats.size() + per_point * res.num_points);
  append_ok_prefix(out, "eval", job.req.id);
  put(out, ",\"generation\":", gen);
  // Echo the EFFECTIVE deadline (request override, else server default,
  // clamped to max_deadline_ms) so clients can see what limit applied.
  put(out, ",\"deadline_ms\":", deadline_ms);
  put(out, ",\"num_points\":", res.num_points);
  put(out, ",\"ok_points\":", res.ok_count);
  put(out, ",\"degraded\":", res.health.points_degraded);
  put(out, ",\"quarantined\":", res.health.points_quarantined);
  put(out, ",\"deadline_points\":", deadline_points);
  out += deadline_points > 0 ? ",\"deadline_expired\":true" : ",\"deadline_expired\":false";
  out += ",\"moment_stats\":[";
  for (std::size_t k = 0; k < res.moment_stats.size(); ++k) {
    const sweep::Stats& s = res.moment_stats[k];
    out += k ? ",{\"min\":" : "{\"min\":";
    json::append_number(out, s.min);
    out += ",\"max\":";
    json::append_number(out, s.max);
    out += ",\"mean\":";
    json::append_number(out, s.mean);
    out += ",\"stddev\":";
    json::append_number(out, s.stddev);
    put(out, ",\"count\":", s.count);
    out += "}";
  }
  out += "]";
  if (!ev.summary) {
    out += ",\"moments\":[";
    for (std::size_t p = 0; p < res.num_points; ++p) {
      out += p ? ",[" : "[";
      for (std::size_t k = 0; k < res.num_moments; ++k) {
        if (k) out += ',';
        if (res.ok[p])
          json::append_number(out, res.moment(k, p));
        else
          out += "null";
      }
      out += ']';
    }
    out += "],\"point_ok\":[";
    for (std::size_t p = 0; p < res.num_points; ++p) {
      if (p) out += ',';
      out += res.ok[p] ? '1' : '0';
    }
    out += "],\"point_fail\":[";
    const auto& codes = quoted_fail_codes();
    for (std::size_t p = 0; p < res.num_points; ++p) {
      if (p) out += ',';
      out += codes[static_cast<std::size_t>(res.point_fail_class(p))];
    }
    out += "]";
  }
  out += "}";
  respond(job.conn, std::move(out));
}

void Server::handle_reload(const Job& job) {
  std::chrono::milliseconds backoff = cfg_.reload_backoff;
  std::string last_error;
  for (std::size_t attempt = 1; attempt <= std::max<std::size_t>(1, cfg_.reload_attempts);
       ++attempt) {
    try {
      // The swap failpoint sits INSIDE the retry loop: serve.swap=once
      // fails exactly the first attempt, proving the backoff path.
      health::failpoints::maybe_fail(health::failpoints::sites::kServeSwap);
      Loaded loaded = build_model();
      const std::uint64_t gen = store_.publish(loaded.model);
      set_meta(std::move(loaded.meta));
      stats_.reloads_ok.fetch_add(1, std::memory_order_relaxed);
      std::string body;
      put(body, ",\"generation\":", gen);
      put(body, ",\"attempts\":", attempt);
      respond(job.conn, ok_response("reload", job.req.id, body));
      return;
    } catch (const std::exception& e) {
      last_error = e.what();
      stats_.reload_failures.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(health_mu_);
        health_.record_failure(health::fail_class_of(e));
      }
      if (attempt < cfg_.reload_attempts) {
        interruptible_sleep(backoff, stop_);
        backoff *= 2;  // bounded exponential backoff between attempts
      }
    }
  }
  // Every attempt failed: the PREVIOUS generation keeps serving — a bad
  // deck on disk degrades reload, never evaluation.
  respond(job.conn, error_response("reload", errors::kReloadFailed, last_error,
                                   job.req.id));
}

void Server::handle_sleep(const Job& job, WorkerSlot& slot) {
  // Debug op: simulate a wedged worker.  The slot's deadline is set to
  // "now", so an armed watchdog sees it overdue after one grace period and
  // force-cancels — the sleep wakes early and the slot frees.
  sweep::CancelToken token;
  slot.deadline_ns.store(now_ns(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(slot.token_mu);
    slot.token = &token;
  }
  const auto until = clock::now() + std::chrono::milliseconds(job.req.sleep_ms);
  while (clock::now() < until && !token.cancelled() &&
         !stop_.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  {
    std::lock_guard<std::mutex> lock(slot.token_mu);
    slot.token = nullptr;
  }
  respond(job.conn, ok_response("sleep", job.req.id,
                                token.cancelled() ? ",\"cancelled\":true"
                                                  : ",\"cancelled\":false"));
}

void Server::watchdog_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    interruptible_sleep(cfg_.watchdog_interval, stop_);
    const std::int64_t now = now_ns();
    const std::int64_t grace_ns =
        static_cast<std::int64_t>(cfg_.watchdog_grace.count()) * 1'000'000;
    std::size_t busy = 0, wedged = 0;
    for (const auto& slot : worker_slots_) {
      const std::int64_t since = slot->busy_since_ns.load(std::memory_order_acquire);
      if (since == 0) continue;
      ++busy;
      const std::int64_t deadline = slot->deadline_ns.load(std::memory_order_relaxed);
      if (deadline == 0 || now < deadline + grace_ns) continue;
      if (!slot->kicked.exchange(true, std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(slot->token_mu);
        if (slot->token) {
          slot->token->cancel();
          stats_.watchdog_kicks.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ++wedged;
    }
    // Fail fast instead of hanging: with every worker wedged, queued
    // requests would only go stale waiting for slots that may never free.
    if (!worker_slots_.empty() && busy == worker_slots_.size() &&
        wedged == worker_slots_.size())
      fail_queue(errors::kUnavailable, "all workers wedged past deadline");
  }
}

std::string Server::info_body() const {
  const auto m = meta();
  std::string body = ",\"deck\":";
  json::append_quoted(body, cfg_.deck_path);
  put(body, ",\"order\":", m->order);
  put(body, ",\"moment_count\":", 2 * m->order);
  put(body, ",\"generation\":", store_.generation());
  body += ",\"symbols\":[";
  for (std::size_t i = 0; i < m->symbols.size(); ++i) {
    if (i) body += ",";
    json::append_quoted(body, m->symbols[i]);
  }
  body += "],\"nominal\":[";
  for (std::size_t i = 0; i < m->nominal.size(); ++i) {
    if (i) body += ",";
    json::append_number(body, m->nominal[i]);
  }
  body += "]";
  return body;
}

std::string Server::status_body() const {
  std::size_t depth = 0, executing = 0, inflight_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
    executing = executing_;
    inflight_bytes = inflight_bytes_;
  }
  health::HealthReport h;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    h = health_;
  }
  std::string body;
  put(body, ",\"generation\":", store_.generation());
  put(body, ",\"live_generations\":", store_.live_generations());
  put(body, ",\"queue_depth\":", depth);
  put(body, ",\"executing\":", executing);
  put(body, ",\"inflight_bytes\":", inflight_bytes);
  put(body, ",\"workers\":", cfg_.workers);
  body += draining_.load(std::memory_order_acquire) ? ",\"draining\":true"
                                                    : ",\"draining\":false";
  body += ",\"stats\":";
  append_stats(body, stats_.snapshot());
  put(body, ",\"points\":{\"total\":", h.points_total);
  put(body, ",\"ok\":", h.points_ok);
  put(body, ",\"degraded\":", h.points_degraded);
  put(body, ",\"quarantined\":", h.points_quarantined);
  body += "},\"fail_classes\":{";
  const auto& codes = quoted_fail_codes();
  for (std::size_t c = 0; c < codes.size(); ++c) {
    if (c) body += ",";
    body += codes[c];
    put(body, ":", h.fail_counts[c]);
  }
  body += "}";
  return body;
}

void Server::respond(const std::shared_ptr<Conn>& conn, std::string line) {
  if (conn->dead.load(std::memory_order_acquire)) return;
  line.push_back('\n');
  bool ok;
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    ok = net::write_all(conn->fd, line, cfg_.write_timeout, stop_);
  }
  if (!ok) {
    evict(conn);
    return;
  }
  stats_.responses.fetch_add(1, std::memory_order_relaxed);
}

void Server::evict(const std::shared_ptr<Conn>& conn) {
  if (conn->dead.exchange(true, std::memory_order_acq_rel)) return;
  stats_.evicted.fetch_add(1, std::memory_order_relaxed);
  // Shutdown (not close): the reader and any in-flight worker still hold
  // the fd; the Conn destructor closes it when the last holder drops.
  ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::request_drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  wake_.notify();
  drain_thread_ = std::thread([this] {
    const auto deadline = clock::now() + cfg_.drain_timeout;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_until(lock, deadline, [&] {
        return stop_.load(std::memory_order_acquire) ||
               (queue_.empty() && executing_ == 0);
      });
    }
    // Budget exhausted (or met): force-cancel stragglers so in-flight
    // evals deadline out with partial results rather than block the exit.
    for (const auto& slot : worker_slots_) {
      std::lock_guard<std::mutex> lock(slot->token_mu);
      if (slot->token) slot->token->cancel();
    }
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_for(lock, std::chrono::seconds(2), [&] {
        return stop_.load(std::memory_order_acquire) ||
               (queue_.empty() && executing_ == 0);
      });
    }
    stop();
  });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(finished_mu_);
    if (stop_.exchange(true, std::memory_order_acq_rel)) {
      return;  // first caller does the teardown
    }
  }
  draining_.store(true, std::memory_order_release);
  // Force-cancel in-flight evals: a hard stop must not wait a full sweep.
  for (const auto& slot : worker_slots_) {
    std::lock_guard<std::mutex> lock(slot->token_mu);
    if (slot->token) slot->token->cancel();
  }
  wake_.notify();
  queue_cv_.notify_all();

  if (accept_thread_.joinable()) accept_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  for (auto& t : worker_threads_) t.join();
  worker_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& e : reader_threads_) e.thread.join();
    reader_threads_.clear();
  }
  fail_queue(errors::kUnavailable, "server stopped");
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (!cfg_.tcp && !cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
  }
  {
    std::lock_guard<std::mutex> lock(finished_mu_);
    finished_.store(true, std::memory_order_release);
  }
  finished_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(finished_mu_);
  finished_cv_.wait(lock, [&] { return finished_.load(std::memory_order_acquire); });
}

health::HealthReport Server::health_snapshot() const {
  health::HealthReport report;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    report = health_;
  }
  const auto s = stats_.snapshot();
  report.serve_requests = s.requests;
  report.serve_shed = s.shed;
  report.serve_deadline_expired = s.deadline_expired;
  report.serve_evicted = s.evicted;
  report.serve_reload_failures = s.reload_failures;
  return report;
}

}  // namespace awe::serve

// awe_serve's fault-tolerant evaluation server (DESIGN.md §16).
//
// A long-running daemon answering line-delimited JSON eval requests
// against ONE logical compiled model held in a SharedModelStore.  The
// design goal is containment: no single client, request, or reload may
// take the process down or wedge it.
//
//   accept thread ──▶ one reader thread per connection ──▶ bounded queue
//                                                             │
//   watchdog thread ◀── heartbeats ── N worker threads ◀──────┘
//                                      (each owns a sweep ThreadPool)
//
// Robustness mechanisms, each independently testable:
//  * Deadlines — every eval carries a CancelToken; the sweep engine polls
//    it per SoA batch, so a timed-out request frees its worker within one
//    batch and answers with partial, kDeadline-accounted results.
//  * Admission control — a full queue or too many in-flight request bytes
//    sheds the request with {"error":"overloaded","retry_after_ms":...}
//    BEFORE any work happens; shedding is cheaper than queueing.
//  * Slow-client eviction — a connection stalled mid-request-line or
//    unable to absorb its response within the write timeout is evicted;
//    idle-but-silent connections are not (idleness is free).
//  * Watchdog — a monitor thread compares per-worker heartbeats against
//    request deadlines; a wedged worker's token is force-cancelled, and
//    when every worker is wedged the queue is failed fast ("unavailable")
//    instead of growing stale.
//  * Crash-safe reload — "reload" rebuilds from the deck and publishes a
//    new store generation with bounded exponential backoff; a reload that
//    keeps failing leaves the old generation serving.  In-flight sweeps
//    pinned the old generation and finish bit-identically (§15.4).
//  * Graceful drain — request_drain() (SIGTERM) stops accepting, lets
//    queued + running requests finish or deadline out within the drain
//    budget, then flushes a final HealthReport.
//
// Failpoints serve.accept / serve.read / serve.swap inject faults at the
// accept loop, the connection reader, and the reload publish for the CI
// robustness matrix.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/awesymbolic.hpp"
#include "core/model_store.hpp"
#include "engine/cancel.hpp"
#include "engine/sweep.hpp"
#include "health/report.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace awe::serve {

struct ServerConfig {
  // Endpoint: exactly one of unix_path / tcp (port may be 0 = ephemeral).
  std::string unix_path;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool tcp = false;

  // Model source.
  std::string deck_path;
  core::ModelOptions model;
  std::string cache_dir;  ///< BuildOptions::cache_dir of every (re)build; empty = cold

  // Concurrency.
  std::size_t workers = 2;             ///< eval worker threads
  std::size_t threads_per_worker = 1;  ///< sweep ThreadPool width per worker

  // Admission control.
  std::size_t max_queue = 16;                   ///< queued requests before shedding
  std::size_t max_line_bytes = 1u << 20;        ///< request line cap (evict beyond)
  std::size_t max_inflight_bytes = 8u << 20;    ///< queued request bytes before shedding
  std::size_t max_points = 1u << 20;            ///< per-request point cap
  std::uint64_t retry_after_ms = 50;            ///< hint in shed responses

  // Deadlines and timeouts (milliseconds).
  std::uint64_t default_deadline_ms = 0;   ///< applied when a request names none
  std::uint64_t max_deadline_ms = 60'000;  ///< requests are clamped to this
  std::chrono::milliseconds idle_timeout{-1};     ///< silent-connection cap; -1 = none
  std::chrono::milliseconds read_stall_timeout{2'000};  ///< mid-line stall → evict
  std::chrono::milliseconds write_timeout{2'000};       ///< response stall → evict
  std::chrono::milliseconds drain_timeout{10'000};      ///< SIGTERM drain budget

  // Watchdog.
  bool watchdog = false;
  std::chrono::milliseconds watchdog_interval{100};
  std::chrono::milliseconds watchdog_grace{500};  ///< past deadline before kicking

  // Reload.
  std::size_t reload_attempts = 3;
  std::chrono::milliseconds reload_backoff{25};  ///< doubles per attempt

  bool debug_ops = false;  ///< enable "sleep" and eval.cancel_after_checks
};

/// Monotonic daemon counters.  Deterministic under deterministic load (no
/// sampling, every event counted exactly once); snapshot() is the "stats"
/// object of a status response.
struct ServeStats {
  std::atomic<std::uint64_t> accepted{0};         ///< connections accepted
  std::atomic<std::uint64_t> accept_faults{0};    ///< serve.accept injections
  std::atomic<std::uint64_t> evicted{0};          ///< slow/oversized/faulted conns
  std::atomic<std::uint64_t> requests{0};         ///< eval requests admitted
  std::atomic<std::uint64_t> responses{0};        ///< response lines written
  std::atomic<std::uint64_t> shed{0};             ///< requests shed by admission
  std::atomic<std::uint64_t> bad_requests{0};     ///< protocol errors answered
  std::atomic<std::uint64_t> deadline_expired{0}; ///< evals that hit their deadline
  std::atomic<std::uint64_t> watchdog_kicks{0};   ///< tokens force-cancelled
  std::atomic<std::uint64_t> unavailable{0};      ///< failed fast (drain/wedge)
  std::atomic<std::uint64_t> reloads_ok{0};       ///< successful reload publishes
  std::atomic<std::uint64_t> reload_failures{0};  ///< reload attempts that failed

  struct Snapshot {
    std::uint64_t accepted, accept_faults, evicted, requests, responses, shed,
        bad_requests, deadline_expired, watchdog_kicks, unavailable, reloads_ok,
        reload_failures;
  };
  Snapshot snapshot() const;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Build + publish the initial model, bind, and spawn all threads.
  /// Throws std::runtime_error on any startup failure (nothing leaks).
  void start();

  /// Begin a graceful drain: stop accepting, answer queued work, let
  /// running evals finish or deadline out within drain_timeout, then stop.
  /// Callable from any thread (SIGTERM handler notifies via self-pipe).
  void request_drain();

  /// Hard stop: cancel everything, join all threads, close all sockets.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Block until stop() (or a completed drain) has finished.
  void wait();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  std::uint16_t bound_port() const { return bound_port_; }
  const ServeStats& stats() const { return stats_; }

  /// Server-lifetime HealthReport: every sweep's health merged plus the
  /// serve counters.  Process-global counters are NOT absorbed here — the
  /// shutdown flush (cli::HealthJsonSink::flush_report) does that once.
  health::HealthReport health_snapshot() const;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::mutex write_mu;
    std::atomic<bool> dead{false};
    ~Conn();
  };

  struct Job {
    std::shared_ptr<Conn> conn;
    Request req;
    std::size_t bytes = 0;  ///< request line size, for the in-flight budget
  };

  /// Per-worker watchdog slot: written by the worker around each job,
  /// read by the watchdog thread.
  struct WorkerSlot {
    std::atomic<std::int64_t> busy_since_ns{0};  ///< steady ns; 0 = idle
    std::atomic<std::int64_t> deadline_ns{0};    ///< steady ns; 0 = none
    std::atomic<bool> kicked{false};
    std::mutex token_mu;
    sweep::CancelToken* token = nullptr;  ///< guarded by token_mu
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Conn> conn);
  void worker_loop(std::size_t index);
  void watchdog_loop();

  /// True when accepted into the queue; false when shed (response sent).
  bool admit(Job job);
  void fail_queue(const char* code, const std::string& message);

  void handle_eval(const Job& job, WorkerSlot& slot, sweep::ThreadPool& pool);
  void handle_reload(const Job& job);
  void handle_sleep(const Job& job, WorkerSlot& slot);
  std::string status_body() const;
  std::string info_body() const;

  /// Serialize + send one response line; evicts the connection on failure.
  void respond(const std::shared_ptr<Conn>& conn, std::string line);
  void evict(const std::shared_ptr<Conn>& conn);

  /// Derived per-model facts readers need without touching the store.
  struct ModelMeta {
    std::vector<std::string> symbols;
    std::vector<double> nominal;  ///< deck values, for server-side MC
    std::size_t order = 0;
  };
  struct Loaded {
    core::CompiledModel model;
    std::shared_ptr<ModelMeta> meta;
  };
  /// Parse the deck once and build a fresh model (through the cache when
  /// configured) with its meta from that same parse.  Pure; throws on
  /// failure.
  Loaded build_model() const;
  std::shared_ptr<const ModelMeta> meta() const;
  void set_meta(std::shared_ptr<const ModelMeta> m);

  ServerConfig cfg_;
  core::SharedModelStore store_;
  mutable std::mutex meta_mu_;
  std::shared_ptr<const ModelMeta> meta_;

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  net::SelfPipe wake_;

  std::atomic<bool> stop_{false};      ///< hard-stop flag all loops poll
  std::atomic<bool> draining_{false};  ///< drain requested; no new accepts/reads
  std::atomic<bool> finished_{false};
  std::mutex finished_mu_;
  std::condition_variable finished_cv_;

  // Bounded request queue.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  std::size_t inflight_bytes_ = 0;   ///< queued + executing request bytes
  std::size_t executing_ = 0;        ///< jobs currently inside a worker

  std::thread accept_thread_;
  std::thread watchdog_thread_;
  std::thread drain_thread_;
  std::vector<std::thread> worker_threads_;
  std::vector<std::unique_ptr<WorkerSlot>> worker_slots_;

  /// One reader thread per live connection; `done` flips when the loop
  /// exits so the accept loop can join-and-reap finished readers instead
  /// of accumulating joinable handles across a long connection churn.
  struct ReaderEntry {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  mutable std::mutex conns_mu_;
  std::vector<ReaderEntry> reader_threads_;
  std::uint64_t next_conn_id_ = 0;

  ServeStats stats_;
  mutable std::mutex health_mu_;
  health::HealthReport health_;  ///< merged sweep health (server lifetime)
};

}  // namespace awe::serve

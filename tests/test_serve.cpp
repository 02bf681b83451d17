// In-process tests for the awe_serve evaluation daemon (DESIGN.md §16).
//
// serve_probe.py exercises the daemon as a black box over its CLI; these
// tests pin the same contracts at the library layer where gtest can watch
// the ServeStats counters directly:
//   - deadline semantics: a mid-sweep expiry answers ok with partial,
//     fully-accounted kDeadline points, and the worker AND connection are
//     immediately reusable;
//   - admission control: a full queue sheds with "overloaded" +
//     retry_after_ms while the queued request still completes;
//   - graceful drain: queued and in-flight work is answered, then the
//     server stops on its own and wait() returns;
//   - request containment: a malformed line is answered with
//     "bad_request" and the connection keeps serving;
//   - reload: the model and the nominal values info reports come from one
//     read of the deck;
//   - line framing: the max_line cap is exact whatever the read chunking,
//     and pipelined lines come back in order.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/net.hpp"
#include "serve/server.hpp"
#include "text/json.hpp"

namespace awe::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr const char* kDeck = R"(* serve test deck
Vin in 0 1
R1 in a 1k
C1 a 0 10p
R2 a out 2k
C2 out 0 5p
.symbol R2
.symbol C2
.input vin
.output out
.end
)";

/// Line-oriented JSON client over one Unix-socket connection.
class Client {
 public:
  explicit Client(const std::string& path, std::string label = "client")
      : fd_(net::connect_unix(path)), reader_(fd_, 1u << 20),
        label_(std::move(label)) {}
  ~Client() { ::close(fd_); }

  void send(const std::string& body) {
    ASSERT_TRUE(net::write_all(fd_, body + "\n", 5s, never_)) << label_;
  }

  json::Value recv(std::chrono::milliseconds timeout = 10s) {
    std::string line;
    const net::ReadStatus st = reader_.read_line(line, timeout, timeout, never_);
    EXPECT_EQ(st, net::ReadStatus::kLine) << label_;
    return json::parse(line);
  }

  json::Value request(const std::string& body) {
    send(body);
    return recv();
  }

 private:
  int fd_;
  net::LineReader reader_;
  std::string label_;
  std::atomic<bool> never_{false};
};

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("awe_serve_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    deck_ = (dir_ / "deck.sp").string();
    std::ofstream(deck_) << kDeck;
    cfg_.deck_path = deck_;
    cfg_.unix_path = (dir_ / "s.sock").string();
    cfg_.workers = 1;
    cfg_.debug_ops = true;  // cancel_after_checks + sleep
  }

  void TearDown() override {
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void start() {
    server_ = std::make_unique<Server>(cfg_);
    server_->start();
  }

  /// Spin (over a status connection) until a worker is executing a job.
  void wait_until_executing() {
    Client status(cfg_.unix_path, "status-poller");
    for (int i = 0; i < 400; ++i) {
      const json::Value st = status.request(R"({"op":"status"})");
      const json::Value* ex = st.find("executing");
      if (ex && ex->is_number() && ex->number >= 1) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "no worker started executing";
  }

  fs::path dir_;
  std::string deck_;
  ServerConfig cfg_;
  std::unique_ptr<Server> server_;
};

std::uint64_t num(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  EXPECT_NE(f, nullptr) << "missing field " << key;
  return f && f->is_number() ? static_cast<std::uint64_t>(f->number) : 0;
}

bool truthy(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f && f->is_bool() && f->boolean;
}

TEST_F(ServeTest, DeadlineMidSweepAnswersPartialAndStaysServable) {
  start();
  Client c(cfg_.unix_path);

  // cancel_after_checks=1 expires the token deterministically at the first
  // per-batch poll — no wall-clock sensitivity.
  json::Value r = c.request(
      R"({"op":"eval","mc":64,"summary":true,"cancel_after_checks":1})");
  EXPECT_TRUE(truthy(r, "ok"));
  EXPECT_TRUE(truthy(r, "deadline_expired"));
  EXPECT_GE(num(r, "deadline_points"), 1u);
  // Every point is accounted exactly once: ok + degraded + quarantined.
  EXPECT_EQ(num(r, "num_points"),
            num(r, "ok_points") + num(r, "degraded") + num(r, "quarantined"));
  EXPECT_GE(num(r, "quarantined"), num(r, "deadline_points"));

  // The SAME connection and the SAME (sole) worker serve the next request
  // cleanly — an expired token must not leak into the pool.
  json::Value r2 = c.request(R"({"op":"eval","mc":32,"summary":true})");
  EXPECT_TRUE(truthy(r2, "ok"));
  EXPECT_FALSE(truthy(r2, "deadline_expired"));
  EXPECT_EQ(num(r2, "deadline_points"), 0u);

  EXPECT_EQ(server_->stats().deadline_expired.load(), 1u);
  const auto h = server_->health_snapshot();
  EXPECT_GE(h.failures(health::FailClass::kDeadline), 1u);
}

TEST_F(ServeTest, FullQueueShedsWithRetryAfter) {
  cfg_.max_queue = 1;
  cfg_.retry_after_ms = 7;
  start();

  // Occupy the only worker, then overfill the queue of one.
  Client blocker(cfg_.unix_path);
  blocker.send(R"({"op":"sleep","ms":2000})");
  wait_until_executing();

  // The reader admits these sequentially, so the outcome is deterministic:
  // the first rides the queue, the other two find it full and are shed.
  Client c(cfg_.unix_path);
  c.send(R"({"op":"eval","mc":8,"summary":true,"id":0})");
  c.send(R"({"op":"eval","mc":8,"summary":true,"id":1})");
  c.send(R"({"op":"eval","mc":8,"summary":true,"id":2})");

  std::size_t ok = 0, shed = 0;
  for (int i = 0; i < 3; ++i) {
    const json::Value r = c.recv();
    if (truthy(r, "ok")) {
      ++ok;
    } else {
      const json::Value* code = r.find("error");
      ASSERT_NE(code, nullptr);
      EXPECT_EQ(code->str, "overloaded");
      EXPECT_EQ(num(r, "retry_after_ms"), 7u);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(shed, 2u);
  EXPECT_EQ(server_->stats().shed.load(), 2u);
  const auto h = server_->health_snapshot();
  EXPECT_EQ(h.failures(health::FailClass::kOverload), 2u);

  EXPECT_TRUE(truthy(blocker.recv(), "ok"));
}

TEST_F(ServeTest, DrainAnswersInFlightAndQueuedThenStops) {
  start();
  Client a(cfg_.unix_path);
  Client b(cfg_.unix_path);
  a.send(R"({"op":"sleep","ms":600})");
  wait_until_executing();  // the sleep holds the only worker
  b.send(R"({"op":"eval","mc":16,"summary":true})");
  // The eval must be ADMITTED before the drain begins, or a fast drain
  // could legitimately stop the server before the reader queues it.
  for (int i = 0; i < 400; ++i) {
    if (server_->stats().requests.load() >= 1) break;
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_GE(server_->stats().requests.load(), 1u);

  server_->request_drain();
  EXPECT_TRUE(server_->draining());

  // Both the in-flight sleep and the queued eval are answered during the
  // drain window, and the server then finishes without stop() being called.
  {
    SCOPED_TRACE("in-flight sleep response");
    EXPECT_TRUE(truthy(a.recv(), "ok"));
  }
  {
    SCOPED_TRACE("queued eval response");
    EXPECT_TRUE(truthy(b.recv(), "ok"));
  }
  server_->wait();
  EXPECT_EQ(server_->stats().unavailable.load(), 0u);
}

TEST_F(ServeTest, MalformedLineIsContainedToTheRequest) {
  start();
  Client c(cfg_.unix_path);
  const json::Value bad = c.request("this is not json");
  EXPECT_FALSE(truthy(bad, "ok"));
  const json::Value* code = bad.find("error");
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(code->str, "bad_request");

  // Wrong arity explicit points: also a bad_request, also non-fatal.
  const json::Value arity = c.request(R"({"op":"eval","points":[[1.0,2.0,3.0]]})");
  EXPECT_FALSE(truthy(arity, "ok"));

  const json::Value ping = c.request(R"({"op":"ping"})");
  EXPECT_TRUE(truthy(ping, "ok"));
  EXPECT_EQ(server_->stats().bad_requests.load(), 2u);
  EXPECT_EQ(server_->stats().evicted.load(), 0u);
}

TEST_F(ServeTest, DefaultDeadlineIsAppliedWhenRequestNamesNone) {
  cfg_.default_deadline_ms = 7;
  cfg_.max_deadline_ms = 5;
  start();
  Client c(cfg_.unix_path);

  // The response echoes the EFFECTIVE deadline, which makes the selection
  // rules testable without racing the clock: a request that names no
  // deadline gets the server default, clamped to max_deadline_ms ...
  const json::Value r = c.request(R"({"op":"eval","mc":8,"summary":true})");
  EXPECT_TRUE(truthy(r, "ok"));
  EXPECT_EQ(num(r, "deadline_ms"), 5u);

  // ... and an explicit per-request deadline overrides the default (still
  // under the clamp).
  const json::Value r2 =
      c.request(R"({"op":"eval","mc":8,"summary":true,"deadline_ms":3})");
  EXPECT_TRUE(truthy(r2, "ok"));
  EXPECT_EQ(num(r2, "deadline_ms"), 3u);
}

TEST_F(ServeTest, DefaultDeadlineExpiresAnUnboundedSweep) {
  cfg_.default_deadline_ms = 1;
  start();
  Client c(cfg_.unix_path);
  // MC large enough that 1ms cannot plausibly cover the sweep (the margin
  // is >10x the fastest observed point rate); once the token expires the
  // remaining points are quarantined in O(1) each, so the test stays fast.
  const json::Value r =
      c.request(R"({"op":"eval","mc":262144,"summary":true})");
  EXPECT_TRUE(truthy(r, "ok"));
  EXPECT_TRUE(truthy(r, "deadline_expired"));
  EXPECT_EQ(num(r, "num_points"),
            num(r, "ok_points") + num(r, "degraded") + num(r, "quarantined"));
}

TEST_F(ServeTest, ReloadReportsTheRewrittenDecksNominalValues) {
  start();
  Client c(cfg_.unix_path);
  // info's nominal values, in .symbol order (R2, C2).
  const auto expect_nominal = [](const json::Value& info, double r2) {
    const json::Value* n = info.find("nominal");
    ASSERT_NE(n, nullptr);
    ASSERT_EQ(n->array.size(), 2u);
    EXPECT_DOUBLE_EQ(n->array[0].number, r2);
    EXPECT_DOUBLE_EQ(n->array[1].number, 5e-12);
  };
  const json::Value before = c.request(R"({"op":"info"})");
  EXPECT_EQ(num(before, "generation"), 1u);
  expect_nominal(before, 2e3);

  std::string deck = kDeck;
  deck.replace(deck.find("R2 a out 2k"), 11, "R2 a out 3k");
  std::ofstream(deck_) << deck;
  const json::Value r = c.request(R"({"op":"reload"})");
  EXPECT_TRUE(truthy(r, "ok"));
  EXPECT_EQ(num(r, "generation"), 2u);

  const json::Value after = c.request(R"({"op":"info"})");
  EXPECT_EQ(num(after, "generation"), 2u);
  expect_nominal(after, 3e3);
}

/// A connected socketpair whose writer end is fed from a thread.
class LineReaderTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  void TearDown() override {
    ::shutdown(fds_[0], SHUT_RDWR);  // unblocks a writer the reader left behind
    if (writer_.joinable()) writer_.join();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }

  /// Write `data` from a thread in pieces of `piece` bytes.
  void write_in_pieces(std::string data, std::size_t piece) {
    writer_ = std::thread([this, data = std::move(data), piece] {
      for (std::size_t off = 0; off < data.size(); off += piece)
        if (!net::write_all(fds_[1], std::string_view(data).substr(off, piece), 5s, never_))
          return;
    });
  }

  net::ReadStatus read(net::LineReader& reader, std::string& line) {
    return reader.read_line(line, 10s, 10s, never_);
  }

  int fds_[2] = {-1, -1};
  std::thread writer_;
  std::atomic<bool> never_{false};
};

constexpr std::size_t kMaxLine = 1u << 20;

TEST_F(LineReaderTest, LineOfExactlyMaxBytesInChunksIsALine) {
  write_in_pieces(std::string(kMaxLine, 'x') + "\n", 4096);
  net::LineReader reader(fds_[0], kMaxLine);
  std::string line;
  EXPECT_EQ(read(reader, line), net::ReadStatus::kLine);
  EXPECT_EQ(line.size(), kMaxLine);
}

TEST_F(LineReaderTest, OneByteOverMaxIsTooLong) {
  // The newline lands in the same read as the extra byte: the cap is on the
  // line, so this is too long however the bytes were chunked.
  write_in_pieces(std::string(kMaxLine + 1, 'x') + "\n", 4096);
  net::LineReader reader(fds_[0], kMaxLine);
  std::string line;
  EXPECT_EQ(read(reader, line), net::ReadStatus::kTooLong);
}

TEST_F(LineReaderTest, PipelinedLinesComeBackInOrderWithoutCarriageReturns) {
  write_in_pieces("{\"op\":\"ping\"}\r\nsecond\n\r\nthird\r\n", 4096);
  net::LineReader reader(fds_[0], kMaxLine);
  std::string line;
  for (const char* want : {R"({"op":"ping"})", "second", "", "third"}) {
    ASSERT_EQ(read(reader, line), net::ReadStatus::kLine) << want;
    EXPECT_EQ(line, want);
  }
  EXPECT_EQ(reader.buffered(), 0u);
}

}  // namespace
}  // namespace awe::serve

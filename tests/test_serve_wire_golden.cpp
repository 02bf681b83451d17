// Byte-exact golden for the evaluation daemon's wire responses.
//
// tests/data/serve_wire_golden.txt pins every byte an in-process
// serve::Server writes back for a fixed script of requests, on two decks:
// the 741 (two symbols, conductance renamed to a resistor the way its deck
// form names it) and a 2 x 8 segment coupled-line pair (four symbols).
// The script covers the info body, explicit-point evals in full and in
// summary form with integral, tiny, huge and subnormal point values,
// request numbers in every accepted spelling (leading '+', underflow to
// zero), seeded Monte Carlo evals and malformed lines whose error messages
// carry parse offsets.  So a change anywhere in number encoding, number
// decoding or response assembly shows up as a changed byte.  "status" is
// left out: its counters depend on timing.
//
// File format: one "deck <name>" line per deck, then for each request a
// "> <request line>" and a "< <response line>" line.  The deck's temporary
// path in the info response is written as <deck>.  On a mismatch the test
// writes the whole file it expected to read to serve_wire_golden.actual.txt
// in its working directory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/parser.hpp"
#include "circuit/writer.hpp"
#include "circuits/coupled_lines.hpp"
#include "circuits/opamp741.hpp"
#include "serve/net.hpp"
#include "serve/server.hpp"

namespace awe::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// The 741 in deck form, as awe_serve would load it from disk.
std::string opamp_deck() {
  const circuits::Opamp741Circuit amp = circuits::make_opamp741();
  circuit::ParsedDeck d;
  d.netlist = amp.netlist;
  d.title = "linearized 741 op-amp";
  // A conductance becomes a resistor named "r<name>" in deck form.
  d.symbol_elements = {std::string("r") + circuits::Opamp741Circuit::kSymbolGout,
                       circuits::Opamp741Circuit::kSymbolCcomp};
  d.input_source = circuits::Opamp741Circuit::kInput;
  d.output_node = circuits::Opamp741Circuit::kOutputNode;
  return circuit::deck_to_string(d);
}

std::string coupled_deck() {
  circuits::CoupledLineValues v;
  v.segments = 8;
  circuit::ParsedDeck d;
  d.netlist = circuits::make_coupled_lines(v).netlist;
  d.title = "coupled RC line pair, 8 segments per line";
  d.symbol_elements = {"rdrv1", "rdrv2", "cload1", "cload2"};
  d.input_source = circuits::CoupledLinesCircuit::kInput;
  d.output_node = circuits::CoupledLinesCircuit::kCrosstalkOutput;
  return circuit::deck_to_string(d);
}

/// Malformed lines, answered the same on every deck.
const std::vector<std::string> kMalformed = {
    "[1.0",
    R"({"op":"eval","points":[[+1,2]]})",
    "1e999",
    "1e-400",
    "-",
    "--1",
    "1e",
    "0x10",
    R"({"op":"eval","points":[[1e999,1]]})",
    R"({"op":"eval","points":[[1.5e,1]]})",
    R"({"op":"eval","mc":0})",
    R"({"op":"eval","mc":1.5})",
    R"({"op":"info","id":-1})",
    R"({"op":"nope"})",
};

std::vector<std::string> opamp_script() {
  std::vector<std::string> s = {
      R"({"op":"info","id":1})",
      R"({"op":"ping","id":2})",
      R"({"op":"eval","id":3,"points":[[75,3e-11],[150,3e-11],[75,6e-11],[37.5,1.5e-11]]})",
      R"({"op":"eval","id":4,"summary":true,"points":[[75,3e-11],[150,3e-11],[75,6e-11],[37.5,1.5e-11]]})",
      // Integral, tiny, huge, subnormal, negative and zero symbol values.
      R"({"op":"eval","id":5,"points":[[1,1],[75,3e-11],[1e-300,1e300],[5e-324,3e-11],)"
      R"([75,4.9406564584124654e-324],[1e15,2.5e-11],[-75,3e-11],[0,0],[2.2250738585072014e-308,3e-11]]})",
      R"({"op":"eval","id":6,"summary":true,"points":[[1,1],[1e-300,1e300],[0,0]]})",
      // Every accepted spelling of a request number.
      R"({"op":"eval","id":7,"points":[[7.5e1,3.0E-11],[75.000,0.00000000003],[+75,3e-11],)"
      R"([00075,3e-11],[75.,3e-11],[7.5e+1,3e-400],[-0,1e-400]]})",
      R"({"op":"eval","id":8,"mc":24,"seed":7})",
      R"({"op":"eval","id":9,"mc":200,"seed":123,"summary":true})",
      R"({"op":"eval","points":[[1]]})",
  };
  s.insert(s.end(), kMalformed.begin(), kMalformed.end());
  return s;
}

std::vector<std::string> coupled_script() {
  std::vector<std::string> s = {
      R"({"op":"info","id":1})",
      R"({"op":"eval","id":2,"points":[[100,100,1e-12,1e-12],[50,200,2e-12,5e-13],[100.5,99.25,1.5e-12,1e-12]]})",
      R"({"op":"eval","id":3,"summary":true,"points":[[100,100,1e-12,1e-12],[50,200,2e-12,5e-13]]})",
      R"({"op":"eval","id":4,"points":[[1,1,1,1],[1e-300,1e300,1e-12,1e-12],[100,100,5e-324,1e-12],)"
      R"([1e15,100,1e-12,1e-12],[0,0,0,0],[-100,100,1e-12,1e-12]]})",
      R"({"op":"eval","id":5,"points":[[+100,1e2,1E-12,0.000000000001],[100,100,1e-400,1e-12]]})",
      R"({"op":"eval","id":6,"mc":16,"seed":1})",
      R"({"op":"eval","id":7,"mc":200,"seed":99,"summary":true})",
      R"({"op":"eval","points":[[1,2]]})",
  };
  s.insert(s.end(), kMalformed.begin(), kMalformed.end());
  return s;
}

/// Send each script line over one connection and transcribe the exchange.
std::string run_script(const std::string& name, const std::string& deck_text,
                       const std::vector<std::string>& script) {
  const fs::path dir = fs::temp_directory_path() /
                       ("awe_wire_golden_" + std::to_string(::getpid()) + "_" + name);
  fs::create_directories(dir);
  const std::string deck = (dir / "deck.sp").string();
  std::ofstream(deck) << deck_text;

  ServerConfig cfg;
  cfg.deck_path = deck;
  cfg.unix_path = (dir / "s.sock").string();
  cfg.workers = 1;
  std::string out = "deck " + name + "\n";
  {
    Server server(cfg);
    server.start();
    const int fd = net::connect_unix(cfg.unix_path);
    net::LineReader reader(fd, 1u << 24);
    std::atomic<bool> never{false};
    for (const std::string& req : script) {
      out += "> " + req + "\n";
      EXPECT_TRUE(net::write_all(fd, req + "\n", 5s, never)) << req;
      std::string line;
      EXPECT_EQ(reader.read_line(line, 30s, 30s, never), net::ReadStatus::kLine) << req;
      for (std::size_t at = line.find(deck); at != std::string::npos;
           at = line.find(deck, at))
        line.replace(at, deck.size(), "<deck>");
      out += "< " + line + "\n";
    }
    ::close(fd);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return out;
}

TEST(ServeWireGolden, ResponsesMatchCommittedBytes) {
  const std::string actual = run_script("opamp741", opamp_deck(), opamp_script()) +
                             run_script("coupled8", coupled_deck(), coupled_script());

  std::ifstream in(fs::path(AWE_DATA_DIR) / "serve_wire_golden.txt");
  std::stringstream golden;
  if (in) golden << in.rdbuf();
  if (golden.str() == actual) return;

  std::ofstream("serve_wire_golden.actual.txt") << actual;
  std::istringstream want(golden.str()), got(actual);
  std::string w, g;
  for (std::size_t line = 1;; ++line) {
    const bool hw = static_cast<bool>(std::getline(want, w));
    const bool hg = static_cast<bool>(std::getline(got, g));
    if (!hw && !hg) break;
    if (hw != hg || w != g) {
      ADD_FAILURE() << "first difference at line " << line << "\n  golden: " << w
                    << "\n  actual: " << g
                    << "\nserve_wire_golden.actual.txt holds the current bytes";
      return;
    }
  }
}

}  // namespace
}  // namespace awe::serve

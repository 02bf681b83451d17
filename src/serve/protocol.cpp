#include "serve/protocol.hpp"

#include <cmath>

namespace awe::serve {

namespace {

/// Non-negative integral number field, bounded.
std::uint64_t uint_field(const json::Value& v, const char* name, std::uint64_t max) {
  if (!v.is_number() || v.number < 0 || v.number != std::floor(v.number))
    throw ProtocolError(std::string(name) + " must be a non-negative integer");
  if (v.number > static_cast<double>(max))
    throw ProtocolError(std::string(name) + " too large");
  return static_cast<std::uint64_t>(v.number);
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kInfo: return "info";
    case Op::kStatus: return "status";
    case Op::kEval: return "eval";
    case Op::kReload: return "reload";
    case Op::kSleep: return "sleep";
  }
  return "?";
}

Request parse_request(const std::string& line, std::size_t num_symbols,
                      std::size_t max_points) {
  // `points` comes straight out of the parser as rows; only a shape the
  // rows consumer turns down lands in the tree, for the checks below.
  json::Rows rows{"points", num_symbols};
  json::Value doc;
  try {
    doc = json::parse(line, rows);
  } catch (const json::ParseError& e) {
    throw ProtocolError(e.what());
  }
  if (!doc.is_object()) throw ProtocolError("request must be a JSON object");

  Request req;
  const json::Value* op = doc.find("op");
  if (!op || !op->is_string()) throw ProtocolError("missing \"op\"");
  if (op->str == "ping") req.op = Op::kPing;
  else if (op->str == "info") req.op = Op::kInfo;
  else if (op->str == "status") req.op = Op::kStatus;
  else if (op->str == "eval") req.op = Op::kEval;
  else if (op->str == "reload") req.op = Op::kReload;
  else if (op->str == "sleep") req.op = Op::kSleep;
  else throw ProtocolError("unknown op \"" + op->str + "\"");

  if (const json::Value* id = doc.find("id"))
    req.id = uint_field(*id, "id", UINT64_MAX / 2);

  if (req.op == Op::kSleep) {
    if (const json::Value* ms = doc.find("ms"))
      req.sleep_ms = uint_field(*ms, "ms", 60'000);
    return req;
  }
  if (req.op != Op::kEval) return req;

  EvalRequest& ev = req.eval;
  const json::Value* points = rows.count ? nullptr : doc.find("points");
  const json::Value* mc = doc.find("mc");
  if ((rows.count != 0 || points != nullptr) == (mc != nullptr))
    throw ProtocolError("eval needs exactly one of \"points\" or \"mc\"");

  if (const std::size_t n = rows.count) {
    if (n > max_points) throw ProtocolError("too many points");
    ev.num_points = n;
    ev.points_soa.resize(num_symbols * n);
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t i = 0; i < num_symbols; ++i)
        ev.points_soa[i * n + p] = rows.values[p * num_symbols + i];
  } else if (points) {
    if (!points->is_array() || points->array.empty())
      throw ProtocolError("\"points\" must be a non-empty array of arrays");
    const std::size_t n = points->array.size();
    if (n > max_points) throw ProtocolError("too many points");
    ev.num_points = n;
    ev.points_soa.assign(num_symbols * n, 0.0);
    for (std::size_t p = 0; p < n; ++p) {
      const json::Value& row = points->array[p];
      if (!row.is_array() || row.array.size() != num_symbols)
        throw ProtocolError("each point must list exactly " +
                            std::to_string(num_symbols) + " symbol values");
      for (std::size_t i = 0; i < num_symbols; ++i) {
        const json::Value& cell = row.array[i];
        if (!cell.is_number()) throw ProtocolError("point values must be numbers");
        ev.points_soa[i * n + p] = cell.number;
      }
    }
  } else {
    ev.mc = uint_field(*mc, "mc", max_points);
    if (ev.mc == 0) throw ProtocolError("\"mc\" must be at least 1");
    if (const json::Value* seed = doc.find("seed"))
      ev.seed = uint_field(*seed, "seed", UINT64_MAX / 2);
  }

  if (const json::Value* dl = doc.find("deadline_ms"))
    ev.deadline_ms = uint_field(*dl, "deadline_ms", 3'600'000);
  if (const json::Value* cac = doc.find("cancel_after_checks"))
    ev.cancel_after_checks = uint_field(*cac, "cancel_after_checks", 1u << 30);
  if (const json::Value* s = doc.find("summary")) {
    if (!s->is_bool()) throw ProtocolError("\"summary\" must be a boolean");
    ev.summary = s->boolean;
  }
  return req;
}

std::string error_response(const char* op, const char* code, const std::string& message,
                           std::optional<std::uint64_t> id,
                           std::uint64_t retry_after_ms) {
  std::string out;
  out.reserve(96 + message.size());  // room for the '\n' respond() adds
  out += "{\"ok\":false,\"op\":";
  json::append_quoted(out, op);
  if (id) {
    out += ",\"id\":";
    json::append_uint(out, *id);
  }
  out += ",\"error\":";
  json::append_quoted(out, code);
  out += ",\"message\":";
  json::append_quoted(out, message);
  if (retry_after_ms) {
    out += ",\"retry_after_ms\":";
    json::append_uint(out, retry_after_ms);
  }
  out += "}";
  return out;
}

void append_ok_prefix(std::string& out, const char* op, std::optional<std::uint64_t> id) {
  out += "{\"ok\":true,\"op\":";
  json::append_quoted(out, op);
  if (id) {
    out += ",\"id\":";
    json::append_uint(out, *id);
  }
}

std::string ok_response(const char* op, std::optional<std::uint64_t> id,
                        std::string_view body) {
  std::string out;
  out.reserve(64 + body.size());  // room for the '\n' respond() adds
  append_ok_prefix(out, op, id);
  out += body;
  out += "}";
  return out;
}

}  // namespace awe::serve

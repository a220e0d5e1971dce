#include "serve/protocol.hpp"

#include <utility>

#include "re/types.hpp"

namespace relb::serve {

using io::Json;
using re::Error;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::string encodeFrame(std::string_view payload) {
  if (payload.size() > kMaxFramePayloadBytes) {
    throw Error("serve: frame payload of " + std::to_string(payload.size()) +
                " bytes exceeds the " +
                std::to_string(kMaxFramePayloadBytes) + "-byte cap");
  }
  std::string out = std::to_string(payload.size());
  out += '\n';
  out += payload;
  out += '\n';
  return out;
}

void FrameDecoder::feed(std::string_view bytes) {
  // Compact before growing: everything before pos_ was already handed out.
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  } else if (pos_ > 4096) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

void FrameDecoder::poison(const std::string& what) {
  poisoned_ = true;
  poisonReason_ = "serve: malformed frame: " + what;
  throw Error(poisonReason_);
}

std::optional<std::string> FrameDecoder::next() {
  if (poisoned_) throw Error(poisonReason_);

  // Header: 1..8 digits terminated by '\n'.
  constexpr std::size_t kMaxHeaderDigits = 8;
  std::size_t cursor = pos_;
  std::size_t length = 0;
  std::size_t digits = 0;
  while (true) {
    if (cursor >= buffer_.size()) {
      // Even an incomplete header must look like one.
      if (digits > kMaxHeaderDigits) poison("length header too long");
      return std::nullopt;
    }
    const char ch = buffer_[cursor];
    if (ch == '\n') {
      if (digits == 0) poison("empty length header");
      ++cursor;
      break;
    }
    if (ch < '0' || ch > '9') {
      poison(std::string("non-digit '") +
             (ch >= 0x20 && ch < 0x7f ? std::string(1, ch)
                                      : std::string("\\x??")) +
             "' in length header");
    }
    if (++digits > kMaxHeaderDigits) poison("length header too long");
    length = length * 10 + static_cast<std::size_t>(ch - '0');
    ++cursor;
  }
  if (length > kMaxFramePayloadBytes) {
    poison("payload length " + std::to_string(length) + " exceeds the " +
           std::to_string(kMaxFramePayloadBytes) + "-byte cap");
  }

  // Payload + terminator.
  if (buffer_.size() - cursor < length + 1) return std::nullopt;
  std::string payload = buffer_.substr(cursor, length);
  if (buffer_[cursor + length] != '\n') {
    poison("payload not terminated by newline");
  }
  pos_ = cursor + length + 1;
  return payload;
}

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kRequestFormat = "relb-request";
constexpr const char* kResponseFormat = "relb-response";

void checkEnvelope(const Json& j, const char* format) {
  if (!j.isObject()) throw Error("serve: envelope is not a JSON object");
  const std::string& got = j.at("format").asString();
  if (got != format) {
    throw Error("serve: expected format '" + std::string(format) +
                "', have '" + got + "'");
  }
  const std::int64_t version = j.at("version").asInt();
  if (version != kProtocolVersion) {
    throw Error("serve: unsupported " + std::string(format) + " version " +
                std::to_string(version) + " (this build speaks version " +
                std::to_string(kProtocolVersion) + ")");
  }
}

// Optional-member helpers: absent means "keep the default" (versioning rule:
// members may be added within a version, so decoders never require them).
std::int64_t intOr(const Json& j, std::string_view key, std::int64_t dflt) {
  const Json* member = j.find(key);
  return member == nullptr ? dflt : member->asInt();
}

bool boolOr(const Json& j, std::string_view key, bool dflt) {
  const Json* member = j.find(key);
  return member == nullptr ? dflt : member->asBool();
}

std::string stringOr(const Json& j, std::string_view key) {
  const Json* member = j.find(key);
  return member == nullptr ? std::string() : member->asString();
}

}  // namespace

Json requestToJson(const Request& request) {
  Json j = Json::object();
  j.set("format", kRequestFormat);
  j.set("version", kProtocolVersion);
  j.set("id", request.id);
  switch (request.kind) {
    case Request::Kind::kPing:
      j.set("kind", "ping");
      break;
    case Request::Kind::kProblem:
      j.set("kind", "problem");
      j.set("node", request.nodeSpec);
      j.set("edge", request.edgeSpec);
      j.set("max_steps", request.maxSteps);
      break;
    case Request::Kind::kChain:
      j.set("kind", "chain");
      j.set("delta", request.chainDelta);
      j.set("x0", request.chainX0);
      break;
  }
  if (request.deadlineMillis != 0) {
    j.set("deadline_ms", request.deadlineMillis);
  }
  if (request.wantCertificate) j.set("certificate", true);
  if (!request.wantStats) j.set("stats", false);
  return j;
}

Request requestFromJson(const Json& j) {
  checkEnvelope(j, kRequestFormat);
  Request request;
  request.id = j.at("id").asInt();
  if (request.id < 0) throw Error("serve: request id must be >= 0");
  const std::string& kind = j.at("kind").asString();
  if (kind == "ping") {
    request.kind = Request::Kind::kPing;
  } else if (kind == "problem") {
    request.kind = Request::Kind::kProblem;
    request.nodeSpec = j.at("node").asString();
    request.edgeSpec = j.at("edge").asString();
    if (request.nodeSpec.empty() || request.edgeSpec.empty()) {
      throw Error("serve: problem request needs non-empty node and edge");
    }
    const std::int64_t steps = intOr(j, "max_steps", 6);
    if (steps < 1 || steps > 64) {
      throw Error("serve: max_steps must be in [1, 64]");
    }
    request.maxSteps = static_cast<int>(steps);
  } else if (kind == "chain") {
    request.kind = Request::Kind::kChain;
    request.chainDelta = j.at("delta").asInt();
    if (request.chainDelta < 0) throw Error("serve: delta must be >= 0");
    request.chainX0 = intOr(j, "x0", 1);
  } else {
    throw Error("serve: unknown request kind '" + kind + "'");
  }
  request.deadlineMillis = intOr(j, "deadline_ms", 0);
  if (request.deadlineMillis < 0) {
    throw Error("serve: deadline_ms must be >= 0");
  }
  request.wantCertificate = boolOr(j, "certificate", false);
  request.wantStats = boolOr(j, "stats", true);
  return request;
}

std::int64_t SessionStats::totalHits() const {
  return static_cast<std::int64_t>(stepHits + edgeCompatHits + strengthHits +
                                   rightClosedHits + zeroRoundHits +
                                   canonicalHits + autoboundHits);
}

std::int64_t SessionStats::totalMisses() const {
  return static_cast<std::int64_t>(stepMisses + edgeCompatMisses +
                                   strengthMisses + rightClosedMisses +
                                   zeroRoundMisses + canonicalMisses +
                                   autoboundMisses);
}

std::string SessionStats::describeLine() const {
  return std::to_string(totalHits()) + " hits / " +
         std::to_string(totalMisses()) + " misses / " +
         std::to_string(storeWrites) + " writes";
}

std::string_view statusString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kBadRequest: return "bad-request";
    case StatusCode::kRejected: return "rejected";
    case StatusCode::kFailed: return "failed";
    case StatusCode::kBusy: return "busy";
    case StatusCode::kDeadlineExpired: return "deadline-expired";
  }
  return "unknown";
}

namespace {

/// The wire members of the cache counters, in wire order; encode and
/// decode both walk this table.
constexpr std::pair<const char*, std::size_t re::CacheStats::*>
    kCacheMembers[] = {
        {"step_hits", &re::CacheStats::stepHits},
        {"step_misses", &re::CacheStats::stepMisses},
        {"edge_compat_hits", &re::CacheStats::edgeCompatHits},
        {"edge_compat_misses", &re::CacheStats::edgeCompatMisses},
        {"strength_hits", &re::CacheStats::strengthHits},
        {"strength_misses", &re::CacheStats::strengthMisses},
        {"right_closed_hits", &re::CacheStats::rightClosedHits},
        {"right_closed_misses", &re::CacheStats::rightClosedMisses},
        {"zero_round_hits", &re::CacheStats::zeroRoundHits},
        {"zero_round_misses", &re::CacheStats::zeroRoundMisses},
        {"canonical_hits", &re::CacheStats::canonicalHits},
        {"canonical_misses", &re::CacheStats::canonicalMisses},
        {"autobound_hits", &re::CacheStats::autoboundHits},
        {"autobound_misses", &re::CacheStats::autoboundMisses},
        {"store_hits", &re::CacheStats::storeHits},
        {"store_misses", &re::CacheStats::storeMisses},
        {"store_writes", &re::CacheStats::storeWrites},
};

Json statsToJson(const SessionStats& stats) {
  Json j = Json::object();
  for (const auto& [name, field] : kCacheMembers) {
    j.set(name, static_cast<std::int64_t>(stats.*field));
  }
  j.set("queue_micros", stats.queueMicros);
  j.set("run_micros", stats.runMicros);
  return j;
}

SessionStats statsFromJson(const Json& j) {
  SessionStats stats;
  for (const auto& [name, field] : kCacheMembers) {
    stats.*field = static_cast<std::size_t>(intOr(j, name, 0));
  }
  stats.queueMicros = intOr(j, "queue_micros", 0);
  stats.runMicros = intOr(j, "run_micros", 0);
  return stats;
}

}  // namespace

Json responseToJson(const Response& response) {
  Json j = Json::object();
  j.set("format", kResponseFormat);
  j.set("version", kProtocolVersion);
  j.set("id", response.id);
  j.set("code", static_cast<std::int64_t>(response.code));
  j.set("status", response.status);
  if (!response.output.empty()) j.set("output", response.output);
  if (!response.diagnostics.empty()) {
    j.set("diagnostics", response.diagnostics);
  }
  if (!response.certificate.empty()) {
    j.set("certificate", response.certificate);
  }
  if (response.stats.has_value()) j.set("stats", statsToJson(*response.stats));
  return j;
}

Response responseFromJson(const Json& j) {
  checkEnvelope(j, kResponseFormat);
  Response response;
  response.id = j.at("id").asInt();
  const std::int64_t code = j.at("code").asInt();
  switch (code) {
    case 200: case 400: case 429: case 500: case 503: case 504:
      response.code = static_cast<StatusCode>(code);
      break;
    default:
      throw Error("serve: unknown response code " + std::to_string(code));
  }
  response.status = j.at("status").asString();
  response.output = stringOr(j, "output");
  response.diagnostics = stringOr(j, "diagnostics");
  response.certificate = stringOr(j, "certificate");
  const Json* stats = j.find("stats");
  if (stats != nullptr) response.stats = statsFromJson(*stats);
  return response;
}

Response errorResponse(std::int64_t id, StatusCode code,
                       std::string diagnostics) {
  Response response;
  response.id = id;
  response.code = code;
  response.status = std::string(statusString(code));
  response.diagnostics = std::move(diagnostics);
  return response;
}

}  // namespace relb::serve

// The relb service wire protocol: framed, versioned JSON envelopes.
//
// Framing (length-prefixed, line-delimited):
//
//     <decimal payload length>\n<payload bytes>\n
//
// The header is 1..8 ASCII digits, the payload is exactly that many bytes of
// JSON (one envelope), and the trailing newline keeps streams greppable and
// re-synchronizable by eye.  FrameDecoder consumes a byte stream
// incrementally and yields complete payloads; any framing violation (bad
// header, oversized length, missing terminator) poisons the stream -- the
// peer must answer with a protocol error and close, there is no way to
// re-synchronize a framed stream reliably.
//
// Envelopes (schema in docs/service.md; built on io::Json, so every string
// -- including parser diagnostics echoed back in error responses -- is
// emitted with control characters escaped):
//
//   request:  {"format":"relb-request","version":1,"id":N,"kind":...}
//     kind "ping"     liveness probe, answered without touching the queue;
//     kind "problem"  the CLI's positional-argument mode: node/edge
//                     configuration lists (';'-separated), max_steps;
//     kind "chain"    the CLI's --chain mode: delta, x0.
//     Options: deadline_ms (admission deadline, 0 = server default),
//     certificate (ship the certificate bytes), stats (ship session cache
//     stats).
//
//   response: {"format":"relb-response","version":1,"id":N,"code":C,
//              "status":S,...}
//     code/status pairs mirror HTTP where a mapping exists: 200 ok,
//     400 bad-request, 429 rejected (admission queue full), 500 failed,
//     503 busy|draining, 504 deadline-expired.  "output"/"diagnostics"
//     carry the exact bytes the CLI would print for the same request;
//     "certificate" carries the exact bytes --save-cert would write;
//     "stats" is the per-session cache traffic (see SessionStats).
//
// Versioning rules (docs/service.md): members may be ADDED within a
// version -- decoders ignore unknown members -- and any
// removed/renamed/retyped member bumps kProtocolVersion; a decoder rejects
// any version other than its own.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "io/json.hpp"
#include "re/engine.hpp"

namespace relb::serve {

/// Bumped on any incompatible envelope change (rules above).
inline constexpr int kProtocolVersion = 1;

/// Hard cap on one frame's payload; a header advertising more poisons the
/// stream.  Generous: certificates for the paper's chains are ~100 KiB.
inline constexpr std::size_t kMaxFramePayloadBytes = 8u * 1024 * 1024;

/// Wraps a payload in the framing above.
[[nodiscard]] std::string encodeFrame(std::string_view payload);

/// Incremental frame parser over an arbitrary byte stream.  feed() bytes as
/// they arrive, then drain next() until it returns nullopt.  next() throws
/// re::Error on a framing violation and the decoder stays poisoned (every
/// later call rethrows): close the connection.
class FrameDecoder {
 public:
  void feed(std::string_view bytes);

  /// The next complete payload, or nullopt when more bytes are needed.
  [[nodiscard]] std::optional<std::string> next();

  /// Bytes buffered but not yet returned.
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  [[noreturn]] void poison(const std::string& what);

  std::string buffer_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
  std::string poisonReason_;
};

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

struct Request {
  enum class Kind { kPing, kProblem, kChain };

  /// Echoed verbatim into the response; clients use it to match pipelined
  /// responses to requests.
  std::int64_t id = 0;
  Kind kind = Kind::kPing;

  // kProblem: the CLI's positional grammar ("M^3; P O^2").
  std::string nodeSpec;
  std::string edgeSpec;
  int maxSteps = 6;

  // kChain: exactChain(delta, x0).
  std::int64_t chainDelta = -1;
  std::int64_t chainX0 = 1;

  /// Admission deadline in milliseconds from receipt; a request still queued
  /// when it expires is answered 504 without being executed.  0 = use the
  /// server's default (which may be "none").
  std::int64_t deadlineMillis = 0;

  /// Ship the certificate bytes (exactly what --save-cert writes).
  bool wantCertificate = false;
  /// Ship per-session cache statistics in the response.
  bool wantStats = true;
};

[[nodiscard]] io::Json requestToJson(const Request& request);
/// Validates format/version/kind and per-kind required members; throws
/// re::Error with a message safe to echo into an error response.
[[nodiscard]] Request requestFromJson(const io::Json& j);

/// Per-session cache traffic attributed to one request -- the engine's own
/// counters (re::CacheStats; internedProblems stays off the wire) -- plus
/// queue/run wall times.  The sum of *Misses fields is the number of
/// computations the request actually paid for: a warm duplicate shows
/// totalMisses() == 0 and storeWrites == 0.
struct SessionStats : re::CacheStats {
  std::int64_t queueMicros = 0;
  std::int64_t runMicros = 0;

  [[nodiscard]] std::int64_t totalHits() const;
  [[nodiscard]] std::int64_t totalMisses() const;
  /// The loadgen/CI one-liner: "N hits / M misses / W writes".
  [[nodiscard]] std::string describeLine() const;
};

/// Response status codes (the `code` member).  Numbers mirror HTTP where a
/// mapping exists, so logs read naturally.
enum class StatusCode : int {
  kOk = 200,
  kBadRequest = 400,      // malformed envelope / parse or usage error
  kRejected = 429,        // admission queue full
  kFailed = 500,          // step / certification failure
  kBusy = 503,            // connection limit reached, or server draining
  kDeadlineExpired = 504, // expired while queued
};

/// The canonical status string for a code ("ok", "bad-request", ...).
[[nodiscard]] std::string_view statusString(StatusCode code);

struct Response {
  std::int64_t id = 0;
  StatusCode code = StatusCode::kOk;
  /// statusString(code) on the wire; kept as data so future minor versions
  /// can refine it without a code change.
  std::string status = "ok";
  /// Exactly the CLI's stdout / stderr bytes for the same request.
  std::string output;
  std::string diagnostics;
  /// Exactly the bytes --save-cert would write; empty when not requested or
  /// not produced.
  std::string certificate;
  /// Present iff the request asked for stats and was executed.
  std::optional<SessionStats> stats;

  [[nodiscard]] bool ok() const { return code == StatusCode::kOk; }
};

[[nodiscard]] io::Json responseToJson(const Response& response);
[[nodiscard]] Response responseFromJson(const io::Json& j);

/// Convenience: a response carrying just id/code/status/diagnostics.
[[nodiscard]] Response errorResponse(std::int64_t id, StatusCode code,
                                     std::string diagnostics);

}  // namespace relb::serve

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "io/json.hpp"
#include "re/types.hpp"

namespace relb::serve {
namespace {

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(Frame, EncodeDecodeRoundTrip) {
  const std::string payload = R"({"format":"relb-request"})";
  const std::string frame = encodeFrame(payload);
  EXPECT_EQ(frame, std::to_string(payload.size()) + "\n" + payload + "\n");

  FrameDecoder decoder;
  decoder.feed(frame);
  EXPECT_EQ(decoder.next(), payload);
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, EmptyPayloadAndBackToBackFrames) {
  FrameDecoder decoder;
  decoder.feed(encodeFrame("") + encodeFrame("abc") + encodeFrame("{}"));
  EXPECT_EQ(decoder.next(), "");
  EXPECT_EQ(decoder.next(), "abc");
  EXPECT_EQ(decoder.next(), "{}");
  EXPECT_EQ(decoder.next(), std::nullopt);
}

TEST(Frame, IncrementalFeedYieldsSamePayloads) {
  const std::string stream = encodeFrame("hello") + encodeFrame("world");
  FrameDecoder decoder;
  std::vector<std::string> got;
  for (const char byte : stream) {
    decoder.feed(std::string_view(&byte, 1));
    while (auto payload = decoder.next()) got.push_back(*payload);
  }
  EXPECT_EQ(got, (std::vector<std::string>{"hello", "world"}));
}

TEST(Frame, RejectsMalformedHeaders) {
  {
    FrameDecoder decoder;
    decoder.feed("abc\nxyz\n");  // non-digit header
    EXPECT_THROW((void)decoder.next(), re::Error);
    // Poison is sticky.
    EXPECT_THROW((void)decoder.next(), re::Error);
  }
  {
    FrameDecoder decoder;
    decoder.feed("\npayload\n");  // empty header
    EXPECT_THROW((void)decoder.next(), re::Error);
  }
  {
    FrameDecoder decoder;
    decoder.feed("123456789\n");  // more than 8 digits
    EXPECT_THROW((void)decoder.next(), re::Error);
  }
  {
    FrameDecoder decoder;
    decoder.feed("999999999");  // overlong header, terminator not even seen
    EXPECT_THROW((void)decoder.next(), re::Error);
  }
}

TEST(Frame, RejectsOversizedAndUnterminatedPayloads) {
  {
    FrameDecoder decoder;
    decoder.feed(std::to_string(kMaxFramePayloadBytes + 1) + "\n");
    EXPECT_THROW((void)decoder.next(), re::Error);
  }
  {
    FrameDecoder decoder;
    decoder.feed("3\nabcX");  // payload not followed by newline
    EXPECT_THROW((void)decoder.next(), re::Error);
  }
  EXPECT_THROW((void)encodeFrame(std::string(kMaxFramePayloadBytes + 1, 'x')),
               re::Error);
}

TEST(Frame, PartialFrameIsNotAnError) {
  FrameDecoder decoder;
  decoder.feed("5\nab");
  EXPECT_EQ(decoder.next(), std::nullopt);  // needs more bytes
  decoder.feed("cde\n");
  EXPECT_EQ(decoder.next(), "abcde");
}

// ---------------------------------------------------------------------------
// Request envelopes
// ---------------------------------------------------------------------------

TEST(RequestEnvelope, ProblemRoundTrip) {
  Request request;
  request.kind = Request::Kind::kProblem;
  request.id = 7;
  request.nodeSpec = "M^3; P O^2";
  request.edgeSpec = "M [P O]; O O";
  request.maxSteps = 4;
  request.deadlineMillis = 250;
  request.wantCertificate = true;
  request.wantStats = false;

  const Request back = requestFromJson(requestToJson(request));
  EXPECT_EQ(back.kind, Request::Kind::kProblem);
  EXPECT_EQ(back.id, 7);
  EXPECT_EQ(back.nodeSpec, request.nodeSpec);
  EXPECT_EQ(back.edgeSpec, request.edgeSpec);
  EXPECT_EQ(back.maxSteps, 4);
  EXPECT_EQ(back.deadlineMillis, 250);
  EXPECT_TRUE(back.wantCertificate);
  EXPECT_FALSE(back.wantStats);
}

TEST(RequestEnvelope, ChainAndPingRoundTrip) {
  Request chain;
  chain.kind = Request::Kind::kChain;
  chain.id = 3;
  chain.chainDelta = 5;
  chain.chainX0 = 2;
  const Request chainBack = requestFromJson(requestToJson(chain));
  EXPECT_EQ(chainBack.kind, Request::Kind::kChain);
  EXPECT_EQ(chainBack.chainDelta, 5);
  EXPECT_EQ(chainBack.chainX0, 2);

  Request ping;
  ping.kind = Request::Kind::kPing;
  ping.id = 9;
  const Request pingBack = requestFromJson(requestToJson(ping));
  EXPECT_EQ(pingBack.kind, Request::Kind::kPing);
  EXPECT_EQ(pingBack.id, 9);
}

TEST(RequestEnvelope, OptionalMembersDefaultAndUnknownMembersAreIgnored) {
  // Versioning rule: members may be added within a version, so a decoder
  // must default absent optionals and skip members it does not know.
  const Request request = requestFromJson(io::Json::parse(
      R"({"format":"relb-request","version":1,"id":1,"kind":"problem",)"
      R"("node":"M^3; P O^2","edge":"M [P O]; O O",)"
      R"("member_from_the_future":true})"));
  EXPECT_EQ(request.maxSteps, 6);
  EXPECT_EQ(request.deadlineMillis, 0);
  EXPECT_FALSE(request.wantCertificate);
  EXPECT_TRUE(request.wantStats);
}

TEST(RequestEnvelope, RejectsBadEnvelopes) {
  const auto reject = [](const std::string& text) {
    EXPECT_THROW((void)requestFromJson(io::Json::parse(text)), re::Error)
        << text;
  };
  reject(R"("not an object")");
  reject(R"({"version":1,"id":1,"kind":"ping"})");  // missing format
  reject(R"({"format":"wrong","version":1,"id":1,"kind":"ping"})");
  reject(R"({"format":"relb-request","version":2,"id":1,"kind":"ping"})");
  reject(R"({"format":"relb-request","version":1,"id":-1,"kind":"ping"})");
  reject(R"({"format":"relb-request","version":1,"id":1,"kind":"nope"})");
  // problem without specs
  reject(R"({"format":"relb-request","version":1,"id":1,"kind":"problem"})");
  reject(R"({"format":"relb-request","version":1,"id":1,"kind":"problem",)"
         R"("node":"","edge":"M M"})");
  // max_steps out of range
  reject(R"({"format":"relb-request","version":1,"id":1,"kind":"problem",)"
         R"("node":"M^3","edge":"M M","max_steps":0})");
  reject(R"({"format":"relb-request","version":1,"id":1,"kind":"problem",)"
         R"("node":"M^3","edge":"M M","max_steps":65})");
  // chain without delta / negative delta / negative deadline
  reject(R"({"format":"relb-request","version":1,"id":1,"kind":"chain"})");
  reject(
      R"({"format":"relb-request","version":1,"id":1,"kind":"chain","delta":-1})");
  reject(R"({"format":"relb-request","version":1,"id":1,"kind":"ping",)"
         R"("deadline_ms":-5})");
}

// ---------------------------------------------------------------------------
// Response envelopes
// ---------------------------------------------------------------------------

TEST(ResponseEnvelope, FullRoundTrip) {
  Response response;
  response.id = 11;
  response.code = StatusCode::kOk;
  response.status = "ok";
  response.output = "problem (Delta = 3, ...)\n";
  response.diagnostics = "";
  response.certificate = "{\n  \"format\": \"relb-cert\"\n}\n";
  SessionStats stats;
  stats.stepHits = 4;
  stats.stepMisses = 2;
  stats.storeWrites = 1;
  stats.queueMicros = 120;
  stats.runMicros = 4500;
  response.stats = stats;

  const Response back = responseFromJson(responseToJson(response));
  EXPECT_EQ(back.id, 11);
  EXPECT_TRUE(back.ok());
  EXPECT_EQ(back.output, response.output);
  EXPECT_EQ(back.certificate, response.certificate);
  ASSERT_TRUE(back.stats.has_value());
  EXPECT_EQ(back.stats->stepHits, 4);
  EXPECT_EQ(back.stats->stepMisses, 2);
  EXPECT_EQ(back.stats->storeWrites, 1);
  EXPECT_EQ(back.stats->queueMicros, 120);
  EXPECT_EQ(back.stats->runMicros, 4500);
}

TEST(ResponseEnvelope, StatsMembersArePinnedByteForByte) {
  // All nineteen stats members set to distinct values: the encoding's
  // member names and order are part of the wire contract (docs/service.md),
  // and the decoder must read every one back into its own field.
  Response response;
  response.id = 7;
  SessionStats stats;
  stats.stepHits = 1;
  stats.stepMisses = 2;
  stats.edgeCompatHits = 3;
  stats.edgeCompatMisses = 4;
  stats.strengthHits = 5;
  stats.strengthMisses = 6;
  stats.rightClosedHits = 7;
  stats.rightClosedMisses = 8;
  stats.zeroRoundHits = 9;
  stats.zeroRoundMisses = 10;
  stats.canonicalHits = 11;
  stats.canonicalMisses = 12;
  stats.autoboundHits = 13;
  stats.autoboundMisses = 14;
  stats.storeHits = 15;
  stats.storeMisses = 16;
  stats.storeWrites = 17;
  stats.queueMicros = 18;
  stats.runMicros = 19;
  response.stats = stats;
  const std::string expected =
      R"({"format":"relb-response","version":1,"id":7,"code":200,)"
      R"("status":"ok","stats":{"step_hits":1,"step_misses":2,)"
      R"("edge_compat_hits":3,"edge_compat_misses":4,"strength_hits":5,)"
      R"("strength_misses":6,"right_closed_hits":7,"right_closed_misses":8,)"
      R"("zero_round_hits":9,"zero_round_misses":10,"canonical_hits":11,)"
      R"("canonical_misses":12,"autobound_hits":13,"autobound_misses":14,)"
      R"("store_hits":15,"store_misses":16,"store_writes":17,)"
      R"("queue_micros":18,"run_micros":19}})";
  EXPECT_EQ(responseToJson(response).dump(), expected);

  const Response back = responseFromJson(io::Json::parse(expected));
  ASSERT_TRUE(back.stats.has_value());
  EXPECT_EQ(responseToJson(back).dump(), expected);
  EXPECT_EQ(back.stats->totalHits(), 1 + 3 + 5 + 7 + 9 + 11 + 13);
  EXPECT_EQ(back.stats->totalMisses(), 2 + 4 + 6 + 8 + 10 + 12 + 14);
  EXPECT_EQ(back.stats->describeLine(), "49 hits / 56 misses / 17 writes");
}

TEST(ResponseEnvelope, AutoboundStatsAreAddedWithinTheVersion) {
  Response response;
  response.id = 12;
  response.code = StatusCode::kOk;
  response.status = "ok";
  SessionStats stats;
  stats.autoboundHits = 1;
  stats.autoboundMisses = 2;
  response.stats = stats;
  const Response back = responseFromJson(responseToJson(response));
  ASSERT_TRUE(back.stats.has_value());
  EXPECT_EQ(back.stats->autoboundHits, 1);
  EXPECT_EQ(back.stats->autoboundMisses, 2);
  EXPECT_EQ(back.stats->totalHits(), 1);
  EXPECT_EQ(back.stats->totalMisses(), 2);

  // A response from a daemon that predates the members decodes as zeros.
  const Response old = responseFromJson(io::Json::parse(
      R"({"format":"relb-response","version":1,"id":3,"code":200,)"
      R"("status":"ok","stats":{"step_hits":2,"step_misses":0}})"));
  ASSERT_TRUE(old.stats.has_value());
  EXPECT_EQ(old.stats->stepHits, 2);
  EXPECT_EQ(old.stats->autoboundHits, 0);
  EXPECT_EQ(old.stats->autoboundMisses, 0);
}

TEST(ResponseEnvelope, ErrorResponseAndStatusStrings) {
  const Response rejected =
      errorResponse(5, StatusCode::kRejected, "admission queue full");
  EXPECT_EQ(rejected.status, "rejected");
  EXPECT_FALSE(rejected.ok());
  const Response back = responseFromJson(responseToJson(rejected));
  EXPECT_EQ(back.code, StatusCode::kRejected);
  EXPECT_EQ(back.diagnostics, "admission queue full");
  EXPECT_FALSE(back.stats.has_value());

  EXPECT_EQ(statusString(StatusCode::kOk), "ok");
  EXPECT_EQ(statusString(StatusCode::kBadRequest), "bad-request");
  EXPECT_EQ(statusString(StatusCode::kRejected), "rejected");
  EXPECT_EQ(statusString(StatusCode::kFailed), "failed");
  EXPECT_EQ(statusString(StatusCode::kBusy), "busy");
  EXPECT_EQ(statusString(StatusCode::kDeadlineExpired), "deadline-expired");
}

TEST(ResponseEnvelope, RejectsUnknownCodesAndVersions) {
  EXPECT_THROW((void)responseFromJson(io::Json::parse(
                   R"({"format":"relb-response","version":1,"id":1,)"
                   R"("code":418,"status":"teapot"})")),
               re::Error);
  EXPECT_THROW((void)responseFromJson(io::Json::parse(
                   R"({"format":"relb-response","version":9,"id":1,)"
                   R"("code":200,"status":"ok"})")),
               re::Error);
}

TEST(SessionStatsLine, DescribesWarmAndColdRuns) {
  SessionStats cold;
  cold.stepHits = 1;
  cold.stepMisses = 3;
  cold.canonicalHits = 2;
  cold.storeWrites = 3;
  EXPECT_EQ(cold.describeLine(), "3 hits / 3 misses / 3 writes");
  EXPECT_EQ(cold.totalHits(), 3);
  EXPECT_EQ(cold.totalMisses(), 3);

  SessionStats warm;
  warm.stepHits = 12;
  EXPECT_EQ(warm.describeLine(), "12 hits / 0 misses / 0 writes");
}

}  // namespace
}  // namespace relb::serve

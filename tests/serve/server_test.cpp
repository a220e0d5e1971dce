// End-to-end socket tests against a live Server: every byte here went
// through the real accept loop, the framed protocol, the scheduler, and a
// driver run over the shared core.  This suite also runs under the
// thread-sanitizer CI job -- it is the concurrent-sessions-over-one-core
// exercise for the whole service stack.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "re/types.hpp"
#include "serve/client.hpp"

namespace relb::serve {
namespace {

namespace fs = std::filesystem;

// The MIS_3 fixture the CLI golden tests pin, as protocol specs.
constexpr const char* kNodeSpec = "M^3; P O^2";
constexpr const char* kEdgeSpec = "M [P O]; O O";

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A unix-socket path short enough for sockaddr_un (TempDir can be long;
/// sun_path cannot).
std::string socketPath(const std::string& tag) {
  return "/tmp/relb-serve-test-" + tag + "-" + std::to_string(::getpid()) +
         ".sock";
}

/// A deliberately protocol-ignorant connection for speaking broken bytes
/// at the server -- something the Client library refuses to do.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw re::Error("raw socket: " + std::string(strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      throw re::Error("raw connect: " + std::string(strerror(errno)));
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void write(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  Response readResponse() {
    char buffer[65536];
    for (;;) {
      if (auto payload = decoder_.next(); payload.has_value()) {
        return responseFromJson(io::Json::parse(*payload));
      }
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed before a response arrived";
        return Response{};
      }
      decoder_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    }
  }

  /// True iff the server closed its end (EOF on the next read).
  bool peerClosed() {
    char byte;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

Request problemRequest(std::int64_t id, int maxSteps = 2) {
  Request request;
  request.kind = Request::Kind::kProblem;
  request.id = id;
  request.nodeSpec = kNodeSpec;
  request.edgeSpec = kEdgeSpec;
  request.maxSteps = maxSteps;
  return request;
}

/// What the serial CLI prints for the same request -- the reference the
/// server's bytes must equal.
driver::RunResult cliReference(int maxSteps) {
  driver::RunRequest request;
  request.mode = driver::RunRequest::Mode::kProblem;
  request.nodeSpec = kNodeSpec;
  request.edgeSpec = kEdgeSpec;
  request.maxSteps = maxSteps;
  return driver::run(request);
}

TEST(Server, PingOverUnixSocket) {
  ServeConfig config;
  config.unixSocketPath = socketPath("ping");
  Server server(config);
  server.start();
  EXPECT_TRUE(server.running());

  Client client = Client::connectUnix(config.unixSocketPath);
  Request ping;
  ping.kind = Request::Kind::kPing;
  ping.id = 41;
  const Response pong = client.roundTrip(ping);
  EXPECT_TRUE(pong.ok());
  EXPECT_EQ(pong.id, 41);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(Server, PingOverTcpEphemeralPort) {
  ServeConfig config;  // defaults: 127.0.0.1, port 0
  Server server(config);
  server.start();
  ASSERT_GT(server.port(), 0);
  Client client = Client::connectTcp("127.0.0.1", server.port());
  Request ping;
  ping.id = 1;
  EXPECT_TRUE(client.roundTrip(ping).ok());
  server.stop();
}

TEST(Server, ProblemResponseMatchesCliByteForByte) {
  const driver::RunResult reference = cliReference(2);
  ASSERT_EQ(reference.status, driver::RunStatus::kOk);

  ServeConfig config;
  config.unixSocketPath = socketPath("cli-bytes");
  Server server(config);
  server.start();
  Client client = Client::connectUnix(config.unixSocketPath);
  const Response response = client.roundTrip(problemRequest(1));
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(response.output, reference.output);
  EXPECT_EQ(response.diagnostics, reference.diagnostics);
  ASSERT_TRUE(response.stats.has_value());
  EXPECT_GT(response.stats->runMicros, 0);
  server.stop();
}

TEST(Server, EightConcurrentClientsGetBitIdenticalAnswers) {
  const driver::RunResult reference = cliReference(2);

  ServeConfig config;
  config.unixSocketPath = socketPath("concurrent");
  Server server(config);
  server.start();

  constexpr int kClients = 8;
  std::vector<std::string> outputs(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client = Client::connectUnix(config.unixSocketPath);
        // Two requests per connection: the first 8 race each other cold,
        // the second 8 are warm -- both must produce the same bytes.
        for (int round = 0; round < 2; ++round) {
          const Response response =
              client.roundTrip(problemRequest(c * 2 + round + 1));
          if (!response.ok()) {
            errors[static_cast<std::size_t>(c)] = response.diagnostics;
            return;
          }
          if (round == 0) {
            outputs[static_cast<std::size_t>(c)] = response.output;
          } else if (outputs[static_cast<std::size_t>(c)] !=
                     response.output) {
            errors[static_cast<std::size_t>(c)] = "warm != cold output";
            return;
          }
        }
      } catch (const re::Error& e) {
        errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[static_cast<std::size_t>(c)], "") << "client " << c;
    EXPECT_EQ(outputs[static_cast<std::size_t>(c)], reference.output)
        << "client " << c;
  }
  server.stop();
}

TEST(Server, ConcurrentBurstNeverTouchesTheThreadPool) {
  // Every request runs serially on its connection thread, so the
  // scheduler's worker cap is the whole CPU budget: a burst of concurrent
  // problem and chain requests submits no thread-pool batch at all.
  ServeConfig config;
  config.unixSocketPath = socketPath("no-pool");
  Server server(config);
  server.start();
  const auto batches = [] {
    return obs::Registry::global().snapshot().counterValue("pool.batches");
  };
  const std::uint64_t before = batches();

  constexpr int kClients = 8;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client = Client::connectUnix(config.unixSocketPath);
        Request request = problemRequest(c + 1, 3);
        if (c % 2 == 1) {
          request.kind = Request::Kind::kChain;
          request.chainDelta = 3;
          request.wantCertificate = true;
        }
        const Response response = client.roundTrip(request);
        if (!response.ok()) {
          errors[static_cast<std::size_t>(c)] = response.diagnostics;
        }
      } catch (const re::Error& e) {
        errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[static_cast<std::size_t>(c)], "") << "client " << c;
  }
  EXPECT_EQ(batches(), before);
  server.stop();
}

TEST(Server, WarmDuplicateChainHasZeroMissesAndIdenticalCertificate) {
  const fs::path storeDir = freshDir("serve_warm_chain_store");
  ServeConfig config;
  config.unixSocketPath = socketPath("warm-chain");
  config.storeDir = storeDir.string();
  Server server(config);
  server.start();

  Request chain;
  chain.kind = Request::Kind::kChain;
  chain.id = 1;
  chain.chainDelta = 3;
  chain.wantCertificate = true;

  Client client = Client::connectUnix(config.unixSocketPath);
  const Response cold = client.roundTrip(chain);
  ASSERT_TRUE(cold.ok()) << cold.diagnostics;
  ASSERT_FALSE(cold.certificate.empty());
  ASSERT_TRUE(cold.stats.has_value());
  EXPECT_GT(cold.stats->totalMisses(), 0);
  EXPECT_GT(cold.stats->storeWrites, 0);

  // The identical submission, warm: answered entirely from the shared
  // core -- zero recomputations, zero store writes, identical bytes.
  chain.id = 2;
  const Response warm = client.roundTrip(chain);
  ASSERT_TRUE(warm.ok()) << warm.diagnostics;
  ASSERT_TRUE(warm.stats.has_value());
  EXPECT_EQ(warm.stats->totalMisses(), 0);
  EXPECT_EQ(warm.stats->storeWrites, 0);
  EXPECT_GT(warm.stats->totalHits(), 0);
  EXPECT_EQ(warm.certificate, cold.certificate);
  EXPECT_EQ(warm.output, cold.output);

  // And the bytes are exactly what the CLI's --save-cert writes.
  driver::RunRequest reference;
  reference.mode = driver::RunRequest::Mode::kChain;
  reference.chainDelta = 3;
  reference.captureCert = true;
  const driver::RunResult cli = driver::run(reference);
  ASSERT_EQ(cli.status, driver::RunStatus::kOk);
  EXPECT_EQ(cold.certificate, cli.certificateBytes);
  server.stop();
}

TEST(Server, OutOfRangeChainStartFailsWithoutChainLines) {
  ServeConfig config;
  config.unixSocketPath = socketPath("bad-chain");
  Server server(config);
  server.start();
  Request chain;
  chain.kind = Request::Kind::kChain;
  chain.id = 1;
  chain.chainDelta = 32;
  chain.chainX0 = -5;
  Client client = Client::connectUnix(config.unixSocketPath);
  const Response response = client.roundTrip(chain);
  EXPECT_EQ(response.code, StatusCode::kFailed);
  EXPECT_EQ(response.output, "");
  EXPECT_EQ(response.diagnostics,
            "chain error: exactChain: x0 = -5 outside [0, delta = 32]\n");
  server.stop();
}

TEST(Server, WarmDuplicateProblemIsAnAutoboundHitWithZeroMisses) {
  const fs::path storeDir = freshDir("serve_warm_problem_store");
  ServeConfig config;
  config.unixSocketPath = socketPath("warm-problem");
  config.storeDir = storeDir.string();
  Server server(config);
  server.start();

  Client client = Client::connectUnix(config.unixSocketPath);
  const Response cold = client.roundTrip(problemRequest(1, 3));
  ASSERT_TRUE(cold.ok()) << cold.diagnostics;
  ASSERT_TRUE(cold.stats.has_value());
  EXPECT_EQ(cold.stats->autoboundMisses, 1);
  EXPECT_EQ(cold.stats->autoboundHits, 0);

  // The duplicate skips the whole autobound search: one memo hit, and no
  // computation or store write anywhere in the request.
  const Response warm = client.roundTrip(problemRequest(2, 3));
  ASSERT_TRUE(warm.ok()) << warm.diagnostics;
  ASSERT_TRUE(warm.stats.has_value());
  EXPECT_EQ(warm.stats->autoboundHits, 1);
  EXPECT_EQ(warm.stats->autoboundMisses, 0);
  EXPECT_EQ(warm.stats->totalMisses(), 0);
  EXPECT_EQ(warm.stats->storeWrites, 0);
  EXPECT_EQ(warm.output, cold.output);
  EXPECT_LT(warm.stats->totalHits(), cold.stats->totalHits() +
                                         cold.stats->totalMisses());
  server.stop();
}

TEST(Server, FullQueueAnswers429) {
  ServeConfig config;
  config.unixSocketPath = socketPath("queue-full");
  config.queueCapacity = 0;  // every admission is rejected, deterministically
  Server server(config);
  server.start();
  Client client = Client::connectUnix(config.unixSocketPath);
  const Response response = client.roundTrip(problemRequest(1));
  EXPECT_EQ(response.code, StatusCode::kRejected);
  EXPECT_EQ(response.status, "rejected");
  // Rejection is per-request: the connection survives, pings still work.
  Request ping;
  ping.id = 2;
  EXPECT_TRUE(client.roundTrip(ping).ok());
  server.stop();
}

TEST(Server, QueuedRequestPastDeadlineAnswers504) {
  ServeConfig config;
  config.unixSocketPath = socketPath("deadline");
  config.workers = 1;  // single lane: the slow request blocks the queue
  Server server(config);
  server.start();

  // Head-of-line: a request that takes far more than the 30 ms below of
  // real work -- MIS at Delta = 6, about 1 s on one core (MIS at Delta = 3
  // can finish within the 30 ms).
  std::thread slow([&] {
    Client client = Client::connectUnix(config.unixSocketPath);
    Request request = problemRequest(1, 6);
    request.nodeSpec = "M^6; P O^5";
    (void)client.roundTrip(request);
  });
  // Give the slow request time to be admitted and picked up by the lane.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  Client client = Client::connectUnix(config.unixSocketPath);
  Request request = problemRequest(2);
  request.deadlineMillis = 1;  // expires while queued behind the slow one
  const Response response = client.roundTrip(request);
  EXPECT_EQ(response.code, StatusCode::kDeadlineExpired);
  EXPECT_EQ(response.status, "deadline-expired");
  slow.join();
  server.stop();
}

TEST(Server, MalformedFrameGets400ThenClose) {
  ServeConfig config;
  config.unixSocketPath = socketPath("bad-frame");
  Server server(config);
  server.start();
  RawConn raw(config.unixSocketPath);
  raw.write("this is not a length header\n");
  const Response response = raw.readResponse();
  EXPECT_EQ(response.code, StatusCode::kBadRequest);
  // A poisoned stream cannot be re-synchronized: the server closes.
  EXPECT_TRUE(raw.peerClosed());
  server.stop();
}

TEST(Server, MalformedEnvelopeGets400AndKeepsConnection) {
  ServeConfig config;
  config.unixSocketPath = socketPath("bad-envelope");
  Server server(config);
  server.start();
  RawConn raw(config.unixSocketPath);
  // Correctly framed, but the payload is not a request envelope.
  raw.write(encodeFrame("{\"format\":\"wrong\",\"version\":1}"));
  const Response bad = raw.readResponse();
  EXPECT_EQ(bad.code, StatusCode::kBadRequest);
  // Envelope-level errors are per-request: the same connection still works.
  Request ping;
  ping.id = 5;
  raw.write(encodeFrame(requestToJson(ping).dump()));
  const Response pong = raw.readResponse();
  EXPECT_TRUE(pong.ok());
  EXPECT_EQ(pong.id, 5);
  server.stop();
}

TEST(Server, OverConnectionLimitAnswers503Busy) {
  ServeConfig config;
  config.unixSocketPath = socketPath("busy");
  config.maxConnections = 1;
  Server server(config);
  server.start();
  Client first = Client::connectUnix(config.unixSocketPath);
  Request ping;
  ping.id = 1;
  ASSERT_TRUE(first.roundTrip(ping).ok());  // first slot taken for sure
  RawConn second(config.unixSocketPath);
  const Response busy = second.readResponse();
  EXPECT_EQ(busy.code, StatusCode::kBusy);
  EXPECT_TRUE(second.peerClosed());
  // The first connection is unaffected.
  ping.id = 2;
  EXPECT_TRUE(first.roundTrip(ping).ok());
  server.stop();
}

TEST(Server, StopIsIdempotentAndRefusesRestart) {
  ServeConfig config;
  config.unixSocketPath = socketPath("stop");
  Server server(config);
  server.start();
  server.stop();
  server.stop();  // idempotent
  EXPECT_THROW(server.start(), re::Error);
  // The socket file is gone after stop.
  EXPECT_FALSE(fs::exists(config.unixSocketPath));
}

}  // namespace
}  // namespace relb::serve

// relb-served's engine room: a socket front end over one shared warm
// EngineCore.
//
// One Server owns
//   * a listening socket -- TCP loopback by default, or a unix-domain
//     socket when ServeConfig::unixSocketPath is set (CI uses the latter to
//     dodge port collisions);
//   * a Scheduler (the admission gate: bounded FIFO wait, capped number of
//     running requests, scheduler.hpp);
//   * one shared re::EngineCore, optionally warmed by a store::DiskStepStore
//     attached at start() -- every request's EngineSession runs over it, so
//     a request identical to an earlier one is answered from cache with
//     0 misses / 0 writes and bit-identical certificate bytes.
//
// Connection lifecycle: the accept thread admits up to maxConnections
// concurrent connections (one beyond the limit is answered 503 busy and
// closed).  Each connection gets a thread that speaks the framed protocol
// (protocol.hpp): requests are answered in order per connection; pings
// inline, work requests through the scheduler with an admission deadline
// (the request's deadline_ms, else defaultDeadlineMillis, else none).
// A framing violation gets a final 400 and the connection closed; a
// malformed envelope gets a 400 and the stream continues.
//
// Execution: each admitted request runs on the connection thread that read
// it, once the scheduler lets it start.  It becomes a driver::RunRequest
// (the CLI's own library entry point) run over the shared core with
// numThreads = 1: requests are serial inside and concurrent across, the
// scheduler's worker cap bounds how many run at once, and width invariance
// keeps the bytes equal to any CLI run's.  Each request runs under its own
// obs::SessionScope, which is what makes the per-response cache stats
// *attributable* rather than a slice of a global blur.
//
// Shutdown: requestStop() (signal-handler-adjacent: a pipe write) begins a
// graceful drain -- stop accepting, answer everything admitted, close
// connections, join threads; stop() does that and blocks until done.  The
// destructor stops.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "re/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"

namespace relb::serve {

struct ServeConfig {
  /// TCP endpoint; port 0 binds an ephemeral port (read it back via
  /// port()).  Ignored when unixSocketPath is set.
  std::string host = "127.0.0.1";
  int port = 0;
  /// When non-empty, listen on this unix-domain socket instead of TCP.  A
  /// stale socket file is unlinked at start and the live one at stop.
  std::string unixSocketPath;

  /// Requests allowed to run at once (util::ThreadPool width semantics:
  /// 0 = one per core).
  int workers = 0;
  /// Admitted requests allowed to wait for a start; more are answered 429.
  std::size_t queueCapacity = 64;
  /// Concurrent connections; one more is answered 503 busy and closed.
  int maxConnections = 64;
  /// Admission deadline applied to requests that do not carry their own
  /// deadline_ms.  0 = none.
  std::int64_t defaultDeadlineMillis = 0;
  /// Attach a store::DiskStepStore at this directory to the shared core at
  /// start() ('' = in-memory caches only).
  std::string storeDir;
};

class Server {
 public:
  /// The server runs every request over `core` (a fresh private core when
  /// nullptr).  Counters -- the scheduler's serve.* set plus
  /// serve.connections / serve.connections_busy -- are interned in
  /// `registry`, which must outlive the server.
  explicit Server(ServeConfig config,
                  std::shared_ptr<re::EngineCore> core = nullptr,
                  obs::Registry& registry = obs::Registry::global());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts accepting.  Throws re::Error on any socket
  /// or store failure; at most one start() per Server.
  void start();

  /// The bound TCP port (resolves port 0); 0 for unix-socket servers.
  [[nodiscard]] int port() const { return port_; }

  /// Begins a graceful drain without blocking: new connections and
  /// admissions stop, everything already admitted is answered.
  void requestStop();

  /// requestStop() + blocks until the drain finished and every thread is
  /// joined.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// The shared core (for tests asserting on aggregate cache stats).
  [[nodiscard]] const std::shared_ptr<re::EngineCore>& core() const {
    return core_;
  }

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void acceptLoop();
  void serveConnection(int fd);
  /// Parses and answers one frame payload; false = close the connection.
  bool handlePayload(const std::string& payload, int fd);
  [[nodiscard]] Response execute(
      const Request& request,
      std::chrono::steady_clock::time_point admitted);
  void sendResponse(int fd, const Response& response);
  void reapFinishedLocked();

  ServeConfig config_;
  std::shared_ptr<re::EngineCore> core_;
  obs::Registry& registry_;
  obs::Counter& connectionsCounter_;
  obs::Counter& connectionsBusyCounter_;
  Scheduler scheduler_;

  int listenFd_ = -1;
  int port_ = 0;
  int stopReadFd_ = -1;
  int stopWriteFd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptThread_;

  std::mutex connectionsMutex_;
  std::list<Connection> connections_;

  std::mutex stopMutex_;  // serializes stop()
  bool stopped_ = false;  // guarded by stopMutex_
};

}  // namespace relb::serve

#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "driver/driver.hpp"
#include "obs/scope.hpp"
#include "re/types.hpp"
#include "store/step_store.hpp"

namespace relb::serve {

using re::Error;

namespace {

[[noreturn]] void socketError(const std::string& what) {
  throw Error("serve: " + what + ": " + std::strerror(errno));
}

void setCloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Writes all of `data`, retrying on EINTR / short writes.  MSG_NOSIGNAL:
/// a peer that vanished mid-response must surface as an error return, not
/// as SIGPIPE taking the process down.
bool sendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

Server::Server(ServeConfig config, std::shared_ptr<re::EngineCore> core,
               obs::Registry& registry)
    : config_(std::move(config)),
      core_(core != nullptr ? std::move(core)
                            : std::make_shared<re::EngineCore>()),
      registry_(registry),
      connectionsCounter_(registry.counter("serve.connections")),
      connectionsBusyCounter_(registry.counter("serve.connections_busy")),
      scheduler_(SchedulerConfig{config_.workers, config_.queueCapacity},
                 registry) {}

Server::~Server() {
  stop();
  if (stopReadFd_ >= 0) ::close(stopReadFd_);
  if (stopWriteFd_ >= 0) ::close(stopWriteFd_);
}

void Server::start() {
  if (running_.load(std::memory_order_acquire) || stopping_.load()) {
    throw Error("serve: start() called twice");
  }
  if (!config_.storeDir.empty()) {
    core_->attachStore(
        std::make_shared<store::DiskStepStore>(config_.storeDir, registry_));
  }

  int pipeFds[2];
  if (::pipe(pipeFds) != 0) socketError("pipe");
  stopReadFd_ = pipeFds[0];
  stopWriteFd_ = pipeFds[1];
  setCloexec(stopReadFd_);
  setCloexec(stopWriteFd_);

  if (!config_.unixSocketPath.empty()) {
    if (config_.unixSocketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw Error("serve: unix socket path too long: " +
                  config_.unixSocketPath);
    }
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) socketError("socket(AF_UNIX)");
    setCloexec(listenFd_);
    ::unlink(config_.unixSocketPath.c_str());  // stale file from a crash
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config_.unixSocketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      socketError("bind('" + config_.unixSocketPath + "')");
    }
  } else {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) socketError("socket(AF_INET)");
    setCloexec(listenFd_);
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
      throw Error("serve: not an IPv4 address: " + config_.host);
    }
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      socketError("bind(" + config_.host + ":" +
                  std::to_string(config_.port) + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      socketError("getsockname");
    }
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  if (::listen(listenFd_, 64) != 0) socketError("listen");

  running_.store(true, std::memory_order_release);
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

void Server::requestStop() {
  if (stopping_.exchange(true)) return;
  // One byte, never consumed: the pipe stays readable, so every poll() in
  // every thread sees the stop condition from here on.
  if (stopWriteFd_ >= 0) {
    const char byte = 's';
    (void)!::write(stopWriteFd_, &byte, 1);
  }
}

void Server::stop() {
  requestStop();
  std::lock_guard<std::mutex> lock(stopMutex_);
  if (stopped_) return;
  stopped_ = true;
  if (acceptThread_.joinable()) acceptThread_.join();
  // Stop admission and wait until every admitted request ran or expired;
  // each connection thread answers its own, then sees the stop and exits.
  scheduler_.drain();
  std::list<Connection> connections;
  {
    std::lock_guard<std::mutex> connLock(connectionsMutex_);
    connections.splice(connections.begin(), connections_);
  }
  for (Connection& connection : connections) {
    if (connection.thread.joinable()) connection.thread.join();
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  if (!config_.unixSocketPath.empty()) {
    ::unlink(config_.unixSocketPath.c_str());
  }
  running_.store(false, std::memory_order_release);
}

void Server::reapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::acceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listenFd_, POLLIN, 0}, {stopReadFd_, POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    setCloexec(fd);
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    reapFinishedLocked();
    if (connections_.size() >=
        static_cast<std::size_t>(config_.maxConnections)) {
      connectionsBusyCounter_.add();
      sendResponse(fd, errorResponse(0, StatusCode::kBusy,
                                     "connection limit reached"));
      ::close(fd);
      continue;
    }
    connectionsCounter_.add();
    connections_.emplace_back();
    Connection& connection = connections_.back();
    // &connection is stable: std::list never relocates, and the entry
    // outlives the thread (erased only after join).
    connection.thread = std::thread([this, fd, &connection] {
      serveConnection(fd);
      connection.done.store(true, std::memory_order_release);
    });
  }
}

void Server::serveConnection(int fd) {
  FrameDecoder decoder;
  char buffer[65536];
  bool open = true;
  while (open) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {stopReadFd_, POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Drain rule: between requests, stop means close.  (A request already
    // admitted is always answered -- handlePayload runs it to its answer
    // below, before we come back to this poll.)
    if ((fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF or hard error
    }
    try {
      decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
      while (open) {
        std::optional<std::string> payload = decoder.next();
        if (!payload.has_value()) break;
        open = handlePayload(*payload, fd);
      }
    } catch (const Error& e) {
      // Framing violation: answer once, then close -- a poisoned stream
      // cannot be re-synchronized.
      sendResponse(fd, errorResponse(0, StatusCode::kBadRequest, e.what()));
      break;
    }
  }
  ::close(fd);
}

bool Server::handlePayload(const std::string& payload, int fd) {
  Request request;
  try {
    request = requestFromJson(io::Json::parse(payload));
  } catch (const Error& e) {
    // Envelope-level problem: the stream is still framed correctly, so
    // answer 400 and keep the connection.
    return sendAll(fd, encodeFrame(responseToJson(errorResponse(
                           0, StatusCode::kBadRequest, e.what()))
                                       .dump()));
  }

  if (request.kind == Request::Kind::kPing) {
    Response pong;
    pong.id = request.id;
    sendResponse(fd, pong);
    return true;
  }

  const auto admitted = std::chrono::steady_clock::now();
  const std::int64_t deadlineMillis = request.deadlineMillis != 0
                                          ? request.deadlineMillis
                                          : config_.defaultDeadlineMillis;
  const auto deadline =
      deadlineMillis != 0 ? admitted + std::chrono::milliseconds(deadlineMillis)
                          : Scheduler::kNoDeadline;
  Response response;
  Scheduler::Outcome outcome = Scheduler::Outcome::kRan;
  try {
    outcome = scheduler_.run(
        deadline, [&] { response = execute(request, admitted); });
  } catch (const std::exception& e) {
    response = errorResponse(request.id, StatusCode::kFailed,
                             std::string("serve: ") + e.what());
  }
  switch (outcome) {
    case Scheduler::Outcome::kRan:
      sendResponse(fd, response);
      return true;
    case Scheduler::Outcome::kExpired:
      sendResponse(fd, errorResponse(
                           request.id, StatusCode::kDeadlineExpired,
                           "serve: still queued after " +
                               std::to_string(deadlineMillis) +
                               " ms admission deadline"));
      return true;
    case Scheduler::Outcome::kQueueFull:
      sendResponse(fd, errorResponse(request.id, StatusCode::kRejected,
                                     "serve: admission queue full"));
      return true;
    case Scheduler::Outcome::kDraining:
      sendResponse(fd, errorResponse(request.id, StatusCode::kBusy,
                                     "serve: draining"));
      return false;
  }
  return true;
}

Response Server::execute(const Request& request,
                         std::chrono::steady_clock::time_point admitted) {
  const auto started = std::chrono::steady_clock::now();

  driver::RunRequest run;
  if (request.kind == Request::Kind::kChain) {
    run.mode = driver::RunRequest::Mode::kChain;
    run.chainDelta = static_cast<long>(request.chainDelta);
    run.chainX0 = static_cast<long>(request.chainX0);
  } else {
    run.mode = driver::RunRequest::Mode::kProblem;
    run.nodeSpec = request.nodeSpec;
    run.edgeSpec = request.edgeSpec;
    run.maxSteps = request.maxSteps;
  }
  // Serial inside: the request runs on its connection thread and touches no
  // thread pool, so the scheduler's worker cap is the whole CPU budget, and
  // width invariance keeps the bytes identical to any CLI run's.
  // Concurrency across requests is the scaling axis.
  run.numThreads = util::kSerialNumThreads;
  run.captureCert = request.wantCertificate;
  obs::SessionScope scope("serve-req-" + std::to_string(request.id),
                          &registry_);
  run.scope = &scope;

  const driver::RunResult result = driver::run(run, core_);
  const auto finished = std::chrono::steady_clock::now();

  Response response;
  response.id = request.id;
  switch (result.status) {
    case driver::RunStatus::kOk:
      response.code = StatusCode::kOk;
      break;
    case driver::RunStatus::kFailure:
      response.code = StatusCode::kFailed;
      break;
    case driver::RunStatus::kUsage:
      response.code = StatusCode::kBadRequest;
      break;
  }
  response.status = std::string(statusString(response.code));
  response.output = result.output;
  response.diagnostics = result.diagnostics;
  response.certificate = result.certificateBytes;
  if (request.wantStats) {
    SessionStats stats;
    static_cast<re::CacheStats&>(stats) = result.sessionStats;
    stats.queueMicros = std::chrono::duration_cast<std::chrono::microseconds>(
                            started - admitted)
                            .count();
    stats.runMicros = std::chrono::duration_cast<std::chrono::microseconds>(
                          finished - started)
                          .count();
    response.stats = stats;
  }
  return response;
}

void Server::sendResponse(int fd, const Response& response) {
  (void)sendAll(fd, encodeFrame(responseToJson(response).dump()));
}

}  // namespace relb::serve

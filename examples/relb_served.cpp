// relb-served: round elimination as a long-running service.
//
// Listens on TCP loopback (or a unix-domain socket with --unix), speaks the
// framed JSON protocol of docs/service.md, and multiplexes every request
// onto one shared warm EngineCore -- so the thousandth client to ask for
// the Delta=3 chain certificate gets the cached answer, bit-identical to
// the first one's, without recomputing anything.
//
// Prints one `listening ...` line to stdout once the socket is bound (shell
// scripts read the resolved ephemeral port from it), then serves until
// SIGINT/SIGTERM, drains gracefully -- every admitted request is answered
// -- and exits 0 with a final serve.* counter summary.
//
//   relb_served [--port P] [--host H] [--unix PATH] [--workers N]
//               [--queue N] [--max-connections N] [--deadline-ms N]
//               [--store DIR]
#include <poll.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "re/types.hpp"
#include "serve/server.hpp"
#include "util/parse.hpp"
#include "util/shutdown.hpp"

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: relb_served [options]\n"
         "  --host H             TCP bind address (default 127.0.0.1)\n"
         "  --port P             TCP port; 0 picks an ephemeral one "
         "(default 0)\n"
         "  --unix PATH          listen on a unix-domain socket instead of "
         "TCP\n"
         "  --workers N          requests run at once; 0 = one per core "
         "(default 0)\n"
         "  --queue N            admission queue capacity (default 64)\n"
         "  --max-connections N  concurrent connection cap (default 64)\n"
         "  --deadline-ms N      default admission deadline; 0 = none "
         "(default 0)\n"
         "  --store DIR          attach the on-disk step store at DIR\n"
         "  --help               this text\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  relb::serve::ServeConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "relb_served: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // Numbers are read whole, and none of these is negative: a sign, a
    // trailing character or an out-of-range value is a bad value.
    const auto number = [&](auto& dest) {
      if (!relb::util::parseNumber(value(), dest) || std::cmp_less(dest, 0)) {
        throw std::invalid_argument(arg);
      }
    };
    try {
      if (arg == "--help" || arg == "-h") {
        return usage(std::cout, 0);
      } else if (arg == "--host") {
        config.host = value();
      } else if (arg == "--port") {
        std::uint16_t port = 0;
        number(port);
        config.port = port;
      } else if (arg == "--unix") {
        config.unixSocketPath = value();
      } else if (arg == "--workers") {
        number(config.workers);
      } else if (arg == "--queue") {
        number(config.queueCapacity);
      } else if (arg == "--max-connections") {
        number(config.maxConnections);
      } else if (arg == "--deadline-ms") {
        number(config.defaultDeadlineMillis);
      } else if (arg == "--store") {
        config.storeDir = value();
      } else {
        std::cerr << "relb_served: unknown flag '" << arg << "'\n";
        return usage(std::cerr, 2);
      }
    } catch (const std::exception&) {
      std::cerr << "relb_served: bad value for " << arg << "\n";
      return 2;
    }
  }

  try {
    // Install the signal handlers before the server starts accepting, so a
    // signal in the window between bind and poll is never lost.
    relb::util::ShutdownSignal shutdown;
    relb::serve::Server server(config);
    server.start();
    if (!config.unixSocketPath.empty()) {
      std::cout << "listening unix " << config.unixSocketPath << std::endl;
    } else {
      std::cout << "listening tcp " << config.host << ":" << server.port()
                << std::endl;
    }

    pollfd fds[1] = {{shutdown.pollFd(), POLLIN, 0}};
    while (!shutdown.requested()) {
      (void)::poll(fds, 1, -1);
    }
    std::cout << "shutdown requested, draining" << std::endl;
    server.stop();

    const auto snapshot = relb::obs::Registry::global().snapshot();
    std::cout << "drained cleanly:";
    for (const auto& [name, count] : snapshot.counters) {
      if (name.rfind("serve.", 0) == 0) {
        std::cout << " " << name << "=" << count;
      }
    }
    std::cout << std::endl;
    return 0;
  } catch (const relb::re::Error& e) {
    std::cerr << "relb_served: " << e.what() << "\n";
    return 1;
  }
}

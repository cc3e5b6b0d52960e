// locsd — the resident community-search daemon.
//
// Serves the wire protocol (src/serve/wire.h) over stdin/stdout
// (--stdio: piped scripts, tests, inetd-style supervision) or a TCP
// loopback socket (--port). Graphs live in a shared registry; sessions
// are concurrent; per-query deadlines/budgets and max-inflight
// admission control bound every request. SIGTERM/SIGINT drain
// gracefully: in-flight requests finish, a final STATS line goes to
// stderr.
//
//   locsd --stdio --preload=g=web.limg
//   locsd --port=0 --port-file=/tmp/locsd.port &
//   locs_cli client --port="$(cat /tmp/locsd.port)"

#include <cstdio>
#include <string>

#include "serve/daemon.h"
#include "util/cli.h"

namespace locs {
namespace {

int Usage() {
  std::fprintf(stderr, "usage: locsd (--stdio | --port=P) [flags]\n%s",
               serve::DaemonFlagHelp());
  return 2;
}

int Run(int argc, char** argv) {
  if (argc >= 2) {
    const std::string first = argv[1];
    if (first == "help" || first == "--help" || first == "-h") {
      return Usage();
    }
  }
  const CommandLine cli(argc, argv);
  serve::DaemonOptions options;
  std::string error;
  if (!serve::ParseDaemonOptions(cli, &options, &error)) {
    std::fprintf(stderr, "locsd: %s\n", error.c_str());
    return Usage();
  }
  return serve::DaemonMain(options);
}

}  // namespace
}  // namespace locs

int main(int argc, char** argv) { return locs::Run(argc, argv); }

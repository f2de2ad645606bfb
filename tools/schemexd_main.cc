// schemexd — the schema-extraction service daemon.
//
// Speaks newline-delimited JSON (one request per line, one response per
// line; see docs/service.md for the protocol). Three modes:
//
//   schemexd --serve                 read requests from stdin until EOF
//   schemexd --once '<json>'         execute a single request and exit
//   schemexd --listen PORT           serve TCP clients until SIGTERM/SIGINT
//
// Common flags:
//   --threads N          worker threads (default 4)
//   --timeout S          default per-request budget in seconds (default 60)
//   --workspace NAME=DIR preload a SaveWorkspace directory into the cache
//                        (repeatable)
//   --gen-demo DIR       write the paper's DBG-like demo database to DIR
//                        as a graph-only workspace and exit (a ready-made
//                        target for load_workspace / --workspace)
//
// Subcommands:
//   schemexd snapshot save|load|inspect ...
//       offline binary-snapshot tooling (see tools/snapshot_cli.h)
//
// --listen flags:
//   --bind ADDR          bind address (default 127.0.0.1; 0.0.0.0 = all)
//   --idle-timeout S     drop idle connections after S seconds (default 300)
//   --max-line BYTES     per-request line cap (default 1 MiB)
//   --port-file PATH     write the bound port to PATH (useful with
//                        `--listen 0`, which picks an ephemeral port)
//
// stdin/stdout keeps the daemon scriptable and testable without sockets:
//   printf '%s\n' '{"verb":"list_workspaces"}' | schemexd --serve
//
// In --serve and --listen modes requests are dispatched concurrently;
// responses come back in completion order, so clients correlate by "id".
// SIGTERM/SIGINT in --listen mode drains gracefully: the listener closes,
// in-flight requests finish, and their responses are flushed.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "catalog/workspace.h"
#include "gen/dbg.h"
#include "service/framer.h"
#include "service/request.h"
#include "service/server.h"
#include "service/tcp_server.h"
#include "snapshot_cli.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace {

using schemex::service::Request;
using schemex::service::Response;
using schemex::service::Server;
using schemex::service::ServerOptions;
using schemex::service::TcpServer;
using schemex::service::TcpServerOptions;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--serve | --once '<json-request>' | --listen PORT)\n"
      "          [--threads N] [--timeout S]\n"
      "          [--workspace NAME=DIR]... [--bind ADDR] [--idle-timeout S]\n"
      "          [--max-line BYTES] [--port-file PATH]\n",
      argv0);
  return 2;
}

// Self-pipe for async-signal-safe shutdown: the handler writes one byte,
// the main thread blocks reading the other end.
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int /*sig*/) {
  char b = 0;
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &b, 1);
}

/// --serve: stdin bytes run through the shared Framer (the same framing
/// the TCP path uses, so unterminated final lines and embedded NULs get
/// identical treatment), lines fan out onto the pool, and each response
/// is printed whole under a mutex as its worker finishes. in_flight gates
/// shutdown so EOF waits for every outstanding response.
int ServeStdio(Server& server) {
  schemex::util::Mutex io_mu;
  schemex::util::CondVar io_cv;
  size_t in_flight = 0;  // guarded by io_mu

  auto print_response = [&](const Response& resp) {
    schemex::util::MutexLock lock(io_mu);
    std::fputs(schemex::service::SerializeResponse(resp).c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };

  schemex::service::Framer framer;
  char buf[64 * 1024];
  while (!framer.finished()) {
    size_t n = std::fread(buf, 1, sizeof(buf), stdin);
    if (n == 0) {
      framer.Finish();
    } else {
      framer.Feed(std::string_view(buf, n));
    }
    schemex::util::StatusOr<std::string> line = std::string();
    while (framer.Next(&line)) {
      schemex::util::StatusOr<Request> req =
          line.ok() ? schemex::service::ParseRequestJson(*line)
                    : schemex::util::StatusOr<Request>(line.status());
      if (!req.ok()) {
        Response resp;
        resp.status = req.status();
        print_response(resp);
        continue;
      }
      {
        schemex::util::MutexLock lock(io_mu);
        ++in_flight;
      }
      server.HandleAsync(*std::move(req), [&](Response resp) {
        print_response(resp);
        schemex::util::MutexLock lock(io_mu);
        --in_flight;
        io_cv.NotifyAll();
      });
    }
  }

  schemex::util::MutexLock lock(io_mu);
  while (in_flight != 0) io_cv.Wait(io_mu);
  return 0;
}

/// --listen: TCP front end until SIGTERM/SIGINT, then graceful drain.
int ServeTcp(Server& server, const TcpServerOptions& tcp_options,
             const std::string& port_file) {
  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = OnShutdownSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  TcpServer tcp(&server, tcp_options);
  auto st = tcp.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "listen: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "schemexd listening on %s:%u\n",
               tcp_options.bind_address.c_str(), tcp.port());
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --port-file %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", tcp.port());
    std::fclose(f);
  }

  // Block until a shutdown signal lands in the pipe.
  char b = 0;
  while (::read(g_signal_pipe[0], &b, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "schemexd draining (in-flight requests finish)...\n");
  tcp.Shutdown();
  std::fprintf(stderr, "schemexd stopped\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "snapshot") {
    return schemex::tools::SnapshotCliMain(argc - 1, argv + 1);
  }
  bool serve = false;
  bool listen = false;
  std::string once_request;
  std::string port_file;
  ServerOptions options;
  TcpServerOptions tcp_options;
  std::vector<std::pair<std::string, std::string>> preloads;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--serve") {
      serve = true;
    } else if (arg == "--once") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      once_request = v;
    } else if (arg == "--listen") {
      const char* v = next();
      uint64_t port = 0;
      if (v == nullptr || !schemex::util::ParseUint64(v, &port) ||
          port > 65535) {
        return Usage(argv[0]);
      }
      listen = true;
      tcp_options.port = static_cast<uint16_t>(port);
    } else if (arg == "--bind") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      tcp_options.bind_address = v;
    } else if (arg == "--idle-timeout") {
      const char* v = next();
      double s = 0;
      if (v == nullptr || !schemex::util::ParseDouble(v, &s) || s < 0) {
        return Usage(argv[0]);
      }
      tcp_options.idle_timeout_s = s;
    } else if (arg == "--max-line") {
      const char* v = next();
      uint64_t n = 0;
      if (v == nullptr || !schemex::util::ParseUint64(v, &n) || n == 0) {
        return Usage(argv[0]);
      }
      tcp_options.max_line_bytes = static_cast<size_t>(n);
    } else if (arg == "--port-file") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      port_file = v;
    } else if (arg == "--threads") {
      const char* v = next();
      uint64_t n = 0;
      if (v == nullptr || !schemex::util::ParseUint64(v, &n) || n == 0) {
        return Usage(argv[0]);
      }
      options.num_threads = static_cast<size_t>(n);
    } else if (arg == "--timeout") {
      const char* v = next();
      double s = 0;
      if (v == nullptr || !schemex::util::ParseDouble(v, &s) || s < 0) {
        return Usage(argv[0]);
      }
      options.default_timeout_s = s;
    } else if (arg == "--gen-demo") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      auto g = schemex::gen::MakeDbgDataset();
      if (!g.ok()) {
        std::fprintf(stderr, "gen-demo: %s\n", g.status().ToString().c_str());
        return 1;
      }
      schemex::catalog::Workspace ws;
      ws.SetGraph(*g);
      ws.assignment =
          schemex::typing::TypeAssignment(ws.graph->NumObjects());
      auto st = schemex::catalog::SaveWorkspace(ws, v);
      if (!st.ok()) {
        std::fprintf(stderr, "gen-demo: %s\n", st.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote demo workspace (%zu objects, %zu edges) to %s\n",
                   ws.graph->NumObjects(), ws.graph->NumEdges(), v);
      return 0;
    } else if (arg == "--workspace") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr, "--workspace wants NAME=DIR, got \"%s\"\n",
                     spec.c_str());
        return 2;
      }
      preloads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      return Usage(argv[0]);
    }
  }
  // Exactly one mode.
  const int modes = (serve ? 1 : 0) + (listen ? 1 : 0) +
                    (once_request.empty() ? 0 : 1);
  if (modes != 1) return Usage(argv[0]);

  Server server(options);

  for (const auto& [name, dir] : preloads) {
    auto ws = schemex::catalog::LoadWorkspace(dir);
    if (!ws.ok()) {
      std::fprintf(stderr, "preload %s=%s: %s\n", name.c_str(), dir.c_str(),
                   ws.status().ToString().c_str());
      return 1;
    }
    auto st = server.InstallWorkspace(name, *std::move(ws));
    if (!st.ok()) {
      std::fprintf(stderr, "preload %s: %s\n", name.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded workspace %s from %s\n", name.c_str(),
                 dir.c_str());
  }

  if (!once_request.empty()) {
    std::string out = server.HandleJsonLine(once_request);
    std::fputs(out.c_str(), stdout);
    std::fputc('\n', stdout);
    // Exit status mirrors the response's "ok" so shell scripts can branch
    // without parsing JSON.
    return out.find("\"ok\":true") != std::string::npos ? 0 : 1;
  }

  if (listen) return ServeTcp(server, tcp_options, port_file);
  return ServeStdio(server);
}

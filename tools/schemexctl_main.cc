// schemexctl — a tiny NDJSON client for the schemexd TCP front end.
//
//   schemexctl --connect HOST:PORT '<json-request>'
//       send one request, print the one-line response, exit 0 when the
//       response says "ok":true and 1 otherwise (like schemexd --once).
//
//   schemexctl --connect HOST:PORT --stdin
//       pipeline mode: forward every stdin line as a request, print each
//       response as it arrives (completion order — correlate by "id"),
//       exit 0 only if every response was ok.
//
//   schemexctl snapshot save|load|inspect ...
//       offline binary-snapshot tooling (see tools/snapshot_cli.h) —
//       runs locally, no server needed.
//
//   schemexctl --connect HOST:PORT --extract WORKSPACE
//       build and send one extract request without hand-writing JSON.
//       Extract flags: --k N (target type count; 0 = auto knee),
//       --stage1 refinement|gfp, --save-dir DIR.
//
//   schemexctl --connect HOST:PORT --apply-delta WORKSPACE --ops '<json>'
//       build and send one apply_delta request; --ops takes the ops
//       array (e.g. '[{"op":"add_link","from":0,"to":3,"label":"x"}]'),
//       --compact folds the overlay after the batch.
//
//   schemexctl --connect HOST:PORT --re-extract WORKSPACE
//       build and send one re_extract request (incremental
//       re-extraction). Takes --k and --save-dir like --extract; k 0
//       reuses the cached run's k.
//
// Flags:
//   --timeout S   per-response wait budget in seconds (default 30)

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "json/json.h"
#include "service/framer.h"
#include "service/tcp_client.h"
#include "snapshot_cli.h"
#include "util/string_util.h"

namespace {

using schemex::json::Value;
using schemex::service::TcpClient;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect HOST:PORT\n"
               "          ('<json-request>' | --stdin | --extract WORKSPACE\n"
               "           | --apply-delta WORKSPACE --ops JSON [--compact]\n"
               "           | --re-extract WORKSPACE)\n"
               "          [--timeout S] [--k N] [--stage1 refinement|gfp]\n"
               "          [--save-dir DIR]\n",
               argv0);
  return 2;
}

/// Integer-preserving JSON number (same trick as service::JsonUint).
Value JsonUint(uint64_t n) {
  return Value::Number(static_cast<double>(n), std::to_string(n));
}

bool ResponseOk(const std::string& line) {
  return line.find("\"ok\":true") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "snapshot") {
    return schemex::tools::SnapshotCliMain(argc - 1, argv + 1);
  }
  std::string endpoint;
  std::string request;
  bool from_stdin = false;
  double timeout_s = 30.0;
  std::string extract_workspace;
  uint64_t extract_k = 0;
  std::string extract_stage1;
  std::string extract_save_dir;
  std::string apply_delta_workspace;
  std::string apply_delta_ops;
  bool apply_delta_compact = false;
  std::string re_extract_workspace;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      endpoint = v;
    } else if (arg == "--stdin") {
      from_stdin = true;
    } else if (arg == "--timeout") {
      const char* v = next();
      if (v == nullptr || !schemex::util::ParseDouble(v, &timeout_s) ||
          timeout_s <= 0) {
        return Usage(argv[0]);
      }
    } else if (arg == "--extract") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      extract_workspace = v;
    } else if (arg == "--k") {
      const char* v = next();
      if (v == nullptr || !schemex::util::ParseUint64(v, &extract_k)) {
        return Usage(argv[0]);
      }
    } else if (arg == "--stage1") {
      const char* v = next();
      if (v == nullptr ||
          (std::string(v) != "refinement" && std::string(v) != "gfp")) {
        return Usage(argv[0]);
      }
      extract_stage1 = v;
    } else if (arg == "--save-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      extract_save_dir = v;
    } else if (arg == "--apply-delta") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      apply_delta_workspace = v;
    } else if (arg == "--ops") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      apply_delta_ops = v;
    } else if (arg == "--compact") {
      apply_delta_compact = true;
    } else if (arg == "--re-extract") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      re_extract_workspace = v;
    } else if (!arg.empty() && arg[0] != '-' && request.empty()) {
      request = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!extract_workspace.empty()) {
    if (from_stdin || !request.empty()) return Usage(argv[0]);
    // Build the extract request here so shell callers never hand-write
    // JSON (and workspace names are escaped properly).
    std::map<std::string, Value> params;
    params["workspace"] = Value::String(extract_workspace);
    params["k"] = JsonUint(extract_k);
    if (!extract_stage1.empty()) {
      params["stage1"] = Value::String(extract_stage1);
    }
    if (!extract_save_dir.empty()) {
      params["save_dir"] = Value::String(extract_save_dir);
    }
    std::map<std::string, Value> top;
    top["id"] = JsonUint(1);
    top["verb"] = Value::String("extract");
    top["params"] = Value::Object(std::move(params));
    request = schemex::json::Serialize(Value::Object(std::move(top)));
  }
  if (!apply_delta_workspace.empty()) {
    if (from_stdin || !request.empty()) return Usage(argv[0]);
    if (apply_delta_ops.empty()) {
      std::fprintf(stderr, "--apply-delta needs --ops '<json array>'\n");
      return 2;
    }
    // Parse the ops array locally so a typo fails here with a parse
    // error, not as a server-side rejection of the whole batch.
    auto ops = schemex::json::Parse(apply_delta_ops);
    if (!ops.ok()) {
      std::fprintf(stderr, "--ops: %s\n", ops.status().ToString().c_str());
      return 2;
    }
    std::map<std::string, Value> params;
    params["workspace"] = Value::String(apply_delta_workspace);
    params["ops"] = *std::move(ops);
    if (apply_delta_compact) params["compact"] = Value::Bool(true);
    std::map<std::string, Value> top;
    top["id"] = JsonUint(1);
    top["verb"] = Value::String("apply_delta");
    top["params"] = Value::Object(std::move(params));
    request = schemex::json::Serialize(Value::Object(std::move(top)));
  }
  if (!re_extract_workspace.empty()) {
    if (from_stdin || !request.empty()) return Usage(argv[0]);
    std::map<std::string, Value> params;
    params["workspace"] = Value::String(re_extract_workspace);
    params["k"] = JsonUint(extract_k);
    if (!extract_save_dir.empty()) {
      params["save_dir"] = Value::String(extract_save_dir);
    }
    std::map<std::string, Value> top;
    top["id"] = JsonUint(1);
    top["verb"] = Value::String("re_extract");
    top["params"] = Value::Object(std::move(params));
    request = schemex::json::Serialize(Value::Object(std::move(top)));
  }
  if (endpoint.empty() || from_stdin == !request.empty()) {
    return Usage(argv[0]);
  }

  size_t colon = endpoint.rfind(':');
  uint64_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !schemex::util::ParseUint64(endpoint.substr(colon + 1), &port) ||
      port == 0 || port > 65535) {
    std::fprintf(stderr, "--connect wants HOST:PORT, got \"%s\"\n",
                 endpoint.c_str());
    return 2;
  }
  auto client = TcpClient::Connect(endpoint.substr(0, colon),
                                   static_cast<uint16_t>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
    return 1;
  }

  if (!from_stdin) {
    auto st = client->SendLine(request);
    if (!st.ok()) {
      std::fprintf(stderr, "send: %s\n", st.ToString().c_str());
      return 1;
    }
    auto line = client->ReadLine(timeout_s);
    if (!line.ok()) {
      std::fprintf(stderr, "read: %s\n", line.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", line->c_str());
    return ResponseOk(*line) ? 0 : 1;
  }

  // Pipeline mode: send everything, then collect one response per
  // non-blank request line. The same Framer as the server keeps the
  // accounting honest (blank lines and an unterminated final line match
  // what schemexd would admit).
  schemex::service::Framer framer;
  size_t sent = 0;
  bool all_ok = true;
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
      if (!line.ok()) {
        // Locally unframeable (oversized / embedded NUL): the server
        // would reject it anyway, so report and keep going.
        std::fprintf(stderr, "request rejected: %s\n",
                     line.status().ToString().c_str());
        all_ok = false;
        continue;
      }
      auto st = client->SendLine(*line);
      if (!st.ok()) {
        std::fprintf(stderr, "send: %s\n", st.ToString().c_str());
        return 1;
      }
      ++sent;
    }
  }
  client->ShutdownWrite();
  for (size_t i = 0; i < sent; ++i) {
    auto line = client->ReadLine(timeout_s);
    if (!line.ok()) {
      std::fprintf(stderr, "read: %s\n", line.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", line->c_str());
    if (!ResponseOk(*line)) all_ok = false;
  }
  return all_ok ? 0 : 1;
}

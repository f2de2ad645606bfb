#include "snapshot_cli.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "catalog/workspace.h"
#include "snapshot/snapshot.h"
#include "util/statusor.h"

namespace schemex::tools {

namespace {

namespace fs = std::filesystem;

int Usage() {
  std::fprintf(
      stderr,
      "usage: snapshot save <workspace-dir> [--out PATH]\n"
      "       snapshot load <snapshot.bin> [--deep]\n"
      "       snapshot inspect <snapshot.bin> [--json]\n");
  return 2;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int RunSave(int argc, char** argv) {
  std::string dir;
  std::string out;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out") {
      if (++i >= argc) return Usage();
      out = argv[i];
    } else if (!arg.empty() && arg[0] != '-' && dir.empty()) {
      dir = arg;
    } else {
      return Usage();
    }
  }
  if (dir.empty()) return Usage();
  if (out.empty()) out = (fs::path(dir) / "snapshot.bin").string();

  auto ws = catalog::LoadWorkspace(dir);
  if (!ws.ok()) {
    std::fprintf(stderr, "snapshot save: %s\n",
                 ws.status().ToString().c_str());
    return 1;
  }
  auto t0 = std::chrono::steady_clock::now();
  auto st = snapshot::Write(*ws->graph, out);
  if (!st.ok()) {
    std::fprintf(stderr, "snapshot save: %s\n", st.ToString().c_str());
    return 1;
  }
  std::error_code ec;
  auto bytes = fs::file_size(out, ec);
  std::printf("wrote %s (%llu bytes, %zu objects, %zu edges, %.1f ms)\n",
              out.c_str(), static_cast<unsigned long long>(ec ? 0 : bytes),
              ws->graph->NumObjects(), ws->graph->NumEdges(), MsSince(t0));
  return 0;
}

int RunLoad(int argc, char** argv) {
  std::string path;
  bool deep = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--deep") {
      deep = true;
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  auto t0 = std::chrono::steady_clock::now();
  auto g = snapshot::Map(path);
  double map_ms = MsSince(t0);
  if (!g.ok()) {
    std::fprintf(stderr, "snapshot load: %s\n",
                 g.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "mapped %s in %.2f ms: %zu objects (%zu complex), %zu edges, "
      "%zu labels, %zu bytes mapped, %zu bytes heap\n",
      path.c_str(), map_ms, (*g)->NumObjects(), (*g)->NumComplexObjects(),
      (*g)->NumEdges(), (*g)->labels().size(), (*g)->MappedBytes(),
      (*g)->MemoryUsage());
  if (deep) {
    auto st = (*g)->Validate();
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot load: deep validation failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("deep validation ok\n");
  }
  return 0;
}

int RunInspect(int argc, char** argv) {
  std::string path;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  auto info = snapshot::Inspect(path);
  if (!info.ok()) {
    std::fprintf(stderr, "snapshot inspect: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  bool all_crc_ok = true;
  for (const auto& s : info->sections) all_crc_ok &= s.crc_ok;

  if (json) {
    std::printf(
        "{\"path\":\"%s\",\"version\":%u,\"file_bytes\":%llu,"
        "\"objects\":%llu,\"complex\":%llu,\"edges\":%llu,\"labels\":%llu,"
        "\"sections\":[",
        path.c_str(), info->version,
        static_cast<unsigned long long>(info->file_bytes),
        static_cast<unsigned long long>(info->num_objects),
        static_cast<unsigned long long>(info->num_complex),
        static_cast<unsigned long long>(info->num_edges),
        static_cast<unsigned long long>(info->num_labels));
    for (size_t i = 0; i < info->sections.size(); ++i) {
      const auto& s = info->sections[i];
      std::printf(
          "%s{\"id\":%u,\"name\":\"%s\",\"encoding\":\"%s\","
          "\"offset\":%llu,\"stored_bytes\":%llu,\"raw_bytes\":%llu,"
          "\"crc32\":\"%08x\",\"crc_ok\":%s}",
          i == 0 ? "" : ",", s.id, s.name.c_str(), s.encoding.c_str(),
          static_cast<unsigned long long>(s.offset),
          static_cast<unsigned long long>(s.stored_bytes),
          static_cast<unsigned long long>(s.raw_bytes), s.crc32,
          s.crc_ok ? "true" : "false");
    }
    std::printf("],\"all_crc_ok\":%s}\n", all_crc_ok ? "true" : "false");
  } else {
    std::printf("snapshot %s\n", path.c_str());
    std::printf("  version %u, %llu bytes, %u sections\n", info->version,
                static_cast<unsigned long long>(info->file_bytes),
                static_cast<unsigned>(info->sections.size()));
    std::printf(
        "  %llu objects (%llu complex, %llu atomic), %llu edges, "
        "%llu labels\n",
        static_cast<unsigned long long>(info->num_objects),
        static_cast<unsigned long long>(info->num_complex),
        static_cast<unsigned long long>(info->num_objects -
                                        info->num_complex),
        static_cast<unsigned long long>(info->num_edges),
        static_cast<unsigned long long>(info->num_labels));
    std::printf("  %-4s %-13s %-13s %10s %10s %10s %-9s %s\n", "id", "name",
                "encoding", "offset", "stored", "raw", "crc32", "ok");
    for (const auto& s : info->sections) {
      std::printf("  %-4u %-13s %-13s %10llu %10llu %10llu %08x  %s\n", s.id,
                  s.name.c_str(), s.encoding.c_str(),
                  static_cast<unsigned long long>(s.offset),
                  static_cast<unsigned long long>(s.stored_bytes),
                  static_cast<unsigned long long>(s.raw_bytes), s.crc32,
                  s.crc_ok ? "ok" : "CRC MISMATCH");
    }
  }
  return all_crc_ok ? 0 : 1;
}

}  // namespace

int SnapshotCliMain(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[0], "snapshot") != 0) return Usage();
  std::string verb = argv[1];
  if (verb == "save") return RunSave(argc - 2, argv + 2);
  if (verb == "load") return RunLoad(argc - 2, argv + 2);
  if (verb == "inspect") return RunInspect(argc - 2, argv + 2);
  return Usage();
}

}  // namespace schemex::tools

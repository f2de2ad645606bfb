#include "catalog/workspace.h"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "graph/graph_io.h"
#include "snapshot/snapshot.h"
#include "typing/program_io.h"
#include "util/atomic_file.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace schemex::catalog {

namespace {

namespace fs = std::filesystem;

/// Serializes SaveWorkspace process-wide. Two concurrent saves into the
/// same directory would interleave their four renames and could leave a
/// graph from one generation next to a schema from another on disk; the
/// save itself should never manufacture that state. Saves are rare and
/// I/O-bound, so one coarse lock is plenty.
util::Mutex& SaveMutex() {
  static util::Mutex mu;
  return mu;
}

util::StatusOr<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot open " + path.string());
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Prefixes the file name onto a parser error ("graph.sxg: line 7: bad
// edge"), so a multi-file load failure pinpoints which file to fix.
util::Status InFile(const char* file, const util::Status& s) {
  if (s.ok()) return s;
  return util::Status(s.code(), std::string(file) + ": " + s.message());
}

// Parses each line in place: "<object-id>\t<type-id>[,<type-id>...]",
// with blank and '#' lines skipped and whitespace allowed around the line
// and around each type id.
util::StatusOr<typing::TypeAssignment> AssignmentFromTsv(
    std::string_view text, size_t num_objects) {
  typing::TypeAssignment tau(num_objects);
  size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const size_t eol = text.find('\n');
    std::string_view line = util::Trim(text.substr(0, eol));
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (line.empty() || line[0] == '#') continue;
    auto fail = [&](const char* why) {
      return util::Status::ParseError(
          util::StringPrintf("assignment.tsv line %zu: %s", line_no, why));
    };
    size_t tab = line.find('\t');
    if (tab == std::string_view::npos) return fail("missing tab");
    uint64_t obj = 0;
    if (!util::ParseUint64(line.substr(0, tab), &obj) || obj >= num_objects) {
      return fail("bad object id");
    }
    std::string_view types = line.substr(tab + 1);
    while (true) {
      const size_t comma = types.find(',');
      uint64_t type = 0;
      if (!util::ParseUint64(util::Trim(types.substr(0, comma)), &type) ||
          type > static_cast<uint64_t>(
                     std::numeric_limits<typing::TypeId>::max())) {
        return fail("bad type id");
      }
      tau.Assign(static_cast<graph::ObjectId>(obj),
                 static_cast<typing::TypeId>(type));
      if (comma == std::string_view::npos) break;
      types.remove_prefix(comma + 1);
    }
  }
  return tau;
}

}  // namespace

std::string AssignmentToTsv(const typing::TypeAssignment& tau) {
  std::string out;
  char buf[16] = {};  // a uint32_t object id or int32_t type id + 1 byte
  for (graph::ObjectId o = 0; o < tau.NumObjects(); ++o) {
    const std::vector<typing::TypeId>& types = tau.TypesOf(o);
    if (types.empty()) continue;
    char* end = std::to_chars(buf, buf + sizeof(buf), o).ptr;
    *end++ = '\t';
    out.append(buf, end);
    for (size_t i = 0; i < types.size(); ++i) {
      end = std::to_chars(buf, buf + sizeof(buf), types[i]).ptr;
      *end++ = i + 1 < types.size() ? ',' : '\n';
      out.append(buf, end);
    }
  }
  return out;
}

util::Status Workspace::Validate() const {
  if (graph == nullptr) {
    return util::Status::FailedPrecondition("workspace has no graph");
  }
  if (overlay != nullptr && overlay->base().get() != graph.get()) {
    return util::Status::FailedPrecondition(
        "overlay is layered over a different graph");
  }
  graph::GraphView view = View();
  if (assignment.NumObjects() != 0 &&
      assignment.NumObjects() != view.NumObjects()) {
    return util::Status::FailedPrecondition(
        "assignment sized for a different graph");
  }
  SCHEMEX_RETURN_IF_ERROR(program.Validate());
  for (const typing::TypeDef& t : program.types()) {
    for (const typing::TypedLink& l : t.signature.links()) {
      if (l.label >= view.labels().size()) {
        return util::Status::FailedPrecondition(
            "program references a label outside the graph's table");
      }
    }
  }
  for (graph::ObjectId o = 0; o < assignment.NumObjects(); ++o) {
    for (typing::TypeId t : assignment.TypesOf(o)) {
      if (t < 0 || static_cast<size_t>(t) >= program.NumTypes()) {
        return util::Status::FailedPrecondition(
            "assignment references a type outside the program");
      }
    }
  }
  return util::Status::OK();
}

util::Status SaveWorkspace(const Workspace& ws, const std::string& dir) {
  SCHEMEX_RETURN_IF_ERROR(ws.Validate());
  if (ws.overlay != nullptr) {
    // Fold the overlay into a self-contained snapshot before writing;
    // the on-disk format has no notion of a delta layer. The folded copy
    // shares everything else with the caller's workspace.
    Workspace folded = ws;
    folded.graph = graph::Freeze(*ws.overlay);
    folded.overlay = nullptr;
    return SaveWorkspace(folded, dir);
  }
  util::MutexLock lock(SaveMutex());
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return util::Status::Internal("cannot create directory " + dir + ": " +
                                  ec.message());
  }
  const fs::path d(dir);
  SCHEMEX_RETURN_IF_ERROR(util::WriteFileAtomic(
      (d / "graph.sxg").string(), {graph::WriteGraph(*ws.graph)}));
  SCHEMEX_RETURN_IF_ERROR(util::WriteFileAtomic(
      (d / "schema.dl").string(),
      {typing::WriteTypingProgram(ws.program, ws.graph->labels())}));
  SCHEMEX_RETURN_IF_ERROR(util::WriteFileAtomic(
      (d / "assignment.tsv").string(), {AssignmentToTsv(ws.assignment)}));
  // The binary snapshot goes last so the text files it shadows are
  // already in place; snapshot::Write goes through the same seam.
  return snapshot::Write(*ws.graph, (d / "snapshot.bin").string());
}

namespace {

// The snapshot load path: map snapshot.bin zero-copy, then parse the
// schema against the snapshot's own label table. The table was frozen
// at save time with every schema label already interned, so growth here
// means schema.dl was edited to use labels the snapshot lacks — the
// caller falls back to the text path, which can intern them.
util::StatusOr<Workspace> LoadWorkspaceFromSnapshot(const fs::path& dir) {
  Workspace ws;
  SCHEMEX_ASSIGN_OR_RETURN(ws.graph,
                           snapshot::Map((dir / "snapshot.bin").string()));
  auto schema_text = ReadFile(dir / "schema.dl");
  if (schema_text.ok()) {
    graph::LabelInterner labels = ws.graph->labels();
    auto program = typing::ReadTypingProgram(*schema_text, &labels);
    if (!program.ok()) return InFile("schema.dl", program.status());
    if (labels.size() != ws.graph->labels().size()) {
      return util::Status::FailedPrecondition(
          "schema.dl references labels absent from snapshot.bin (snapshot "
          "is stale)");
    }
    ws.program = std::move(*program);
  }
  auto tsv = ReadFile(dir / "assignment.tsv");
  if (tsv.ok()) {
    auto tau = AssignmentFromTsv(*tsv, ws.graph->NumObjects());
    if (!tau.ok()) return tau.status();
    ws.assignment = std::move(*tau);
  } else {
    ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  }
  SCHEMEX_RETURN_IF_ERROR(ws.Validate());
  return ws;
}

// The text load path: parse graph.sxg into a mutable graph that lives
// only for the duration of the load. The schema is parsed against its
// label table (interning any labels the graph itself never uses), and
// the result is frozen exactly once.
util::StatusOr<Workspace> LoadWorkspaceFromText(const fs::path& dir) {
  Workspace ws;
  SCHEMEX_ASSIGN_OR_RETURN(std::string graph_text,
                           ReadFile(dir / "graph.sxg"));
  auto loaded = graph::ReadGraph(graph_text);
  if (!loaded.ok()) return InFile("graph.sxg", loaded.status());

  auto schema_text = ReadFile(dir / "schema.dl");
  if (schema_text.ok()) {
    auto program = typing::ReadTypingProgram(*schema_text, &loaded->labels());
    if (!program.ok()) return InFile("schema.dl", program.status());
    ws.program = std::move(*program);
  }
  auto tsv = ReadFile(dir / "assignment.tsv");
  if (tsv.ok()) {
    SCHEMEX_ASSIGN_OR_RETURN(
        ws.assignment, AssignmentFromTsv(*tsv, loaded->NumObjects()));
  } else {
    ws.assignment = typing::TypeAssignment(loaded->NumObjects());
  }
  ws.graph = graph::Freeze(*loaded);
  SCHEMEX_RETURN_IF_ERROR(ws.Validate());
  return ws;
}

}  // namespace

util::StatusOr<Workspace> LoadWorkspace(const std::string& dir,
                                        LoadInfo* info) {
  LoadInfo local;
  if (info == nullptr) info = &local;
  *info = LoadInfo{};

  if (fs::exists(fs::path(dir) / "snapshot.bin")) {
    auto ws = LoadWorkspaceFromSnapshot(dir);
    if (ws.ok()) {
      info->from_snapshot = true;
      return ws;
    }
    // Corrupt or stale snapshot: record why and fall through to the
    // text files, which remain the durable source of truth.
    info->snapshot_status = ws.status();
  } else {
    info->snapshot_status =
        util::Status::NotFound("no snapshot.bin in " + dir);
  }

  auto ws = LoadWorkspaceFromText(dir);
  // When both paths fail, the text path's code stands and the snapshot's
  // rejection rides along in the message: callers that drop `info` (the
  // service's error reply) would otherwise lose the real cause.
  const util::Status& snap = info->snapshot_status;
  if (!ws.ok() && snap.code() != util::StatusCode::kNotFound &&
      snap.message() != ws.status().message()) {
    return util::Status(ws.status().code(),
                        ws.status().message() +
                            "; snapshot.bin was rejected: " + snap.ToString());
  }
  return ws;
}

}  // namespace schemex::catalog

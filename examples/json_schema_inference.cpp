// Schema inference over JSON records — the modern face of the paper's
// motivating workload ("home-pages of members of a group may contain
// some similar information but some of these may be missing"):
// import an irregular collection of JSON documents, extract an
// approximate typing at a few sizes, and type a newly arriving record.
//
//   $ ./examples/json_schema_inference

#include <iostream>
#include <utility>
#include <vector>

#include "extract/extractor.h"
#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "json/import.h"
#include "typing/incremental.h"
#include "util/string_util.h"

using namespace schemex;  // NOLINT

namespace {

constexpr const char* kPeople = R"([
  {"name": "ada",   "email": "ada@x.org",   "phone": "555-1",
   "address": {"street": "1 Analytical Way", "city": "London"}},
  {"name": "grace", "email": "grace@x.org",
   "address": {"street": "2 Compiler Ct", "city": "Arlington"}},
  {"name": "edsger","email": "ew@x.org",    "phone": "555-3",
   "address": {"street": "3 Shortest Path", "city": "Austin"}},
  {"name": "alan",  "email": "alan@x.org",  "photo": "alan.gif",
   "address": {"street": "4 Bombe Blvd", "city": "Bletchley"}},
  {"name": "barbara", "email": "bl@x.org",
   "papers": ["abstraction", "clu"]},
  {"name": "tony",  "email": "car@x.org",   "phone": "555-6",
   "papers": ["quicksort", "csp", "null-billion"]},
  {"name": "donald","email": "dek@x.org",
   "papers": ["taocp-1", "taocp-2", "taocp-3"]},
  {"name": "leslie","email": "ll@x.org",    "phone": "555-8",
   "papers": ["paxos", "latex"], "photo": "leslie.gif"}
])";

}  // namespace

int main() {
  json::ImportOptions iopt;
  iopt.root_label = "person";
  auto g = json::ImportJson(kPeople, iopt);
  if (!g.ok()) {
    std::cerr << g.status() << "\n";
    return 1;
  }
  std::cout << util::StringPrintf(
      "imported %zu objects (%zu complex), %zu edges\n\n", g->NumObjects(),
      g->NumComplexObjects(), g->NumEdges());

  for (size_t k : {0, 4, 3}) {
    extract::ExtractorOptions opt;
    opt.target_num_types = k;  // 0 = perfect typing
    auto r = extract::SchemaExtractor(opt).Run(*g);
    if (!r.ok()) {
      std::cerr << r.status() << "\n";
      return 1;
    }
    if (k == 0) {
      std::cout << "minimal perfect typing: " << r->num_perfect_types
                << " types, defect 0 — too shredded to be a schema.\n\n";
      continue;
    }
    std::cout << "approximate typing with " << k << " types (defect "
              << r->defect.defect() << "):\n"
              << r->final_program.ToString(g->labels()) << "\n";
  }

  // A new record arrives after extraction: type it against the 4-type
  // schema using the paper's §6 rule (exact fit, else nearest by d).
  extract::ExtractorOptions opt;
  opt.target_num_types = 4;
  auto r = extract::SchemaExtractor(opt).Run(*g);
  if (!r.ok()) {
    std::cerr << r.status() << "\n";
    return 1;
  }

  graph::DeltaOverlay extended(graph::Freeze(*g));
  graph::ObjectId newbie = extended.AddComplex("newcomer");
  const std::pair<const char*, const char*> fields[] = {
      {"name", "margaret"}, {"email", "mh@x.org"}, {"papers", "apollo-agc"}};
  for (const auto& [label, value] : fields) {
    util::Status s = extended.AddEdge(newbie, extended.AddAtomic(value), label);
    if (!s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
  }

  typing::TypeAssignment tau = r->recast.assignment;
  auto typed = typing::TypeArrivals(r->final_program, extended,
                                    std::vector<graph::ObjectId>{newbie}, &tau);
  if (!typed.ok()) {
    std::cerr << typed.status() << "\n";
    return 1;
  }
  const typing::ArrivalTyping& a = typed->front();
  if (a.exact_types.empty()) {
    std::cout << util::StringPrintf(
        "new record {name, email, papers} fits no type exactly -> nearest "
        "type %d ('%s'), distance %zu\n",
        a.fallback_type + 1,
        r->final_program.type(a.fallback_type).name.c_str(),
        a.fallback_distance);
  } else {
    std::cout << "new record {name, email, papers} fits type(s):";
    for (typing::TypeId t : a.exact_types) {
      std::cout << " " << t + 1 << " ('" << r->final_program.type(t).name
                << "')";
    }
    std::cout << "\n";
  }
  return 0;
}

// Seeded random-mutation property test for the request-parsing surface:
// whatever bytes a client sends, the parser and the server must answer
// with a structured error envelope — never a crash, hang, or empty
// response. Runs under the ASan+UBSan CI job, where "never a crash"
// becomes "never an out-of-bounds read" too.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "json/json.h"
#include "service/framer.h"
#include "service/request.h"
#include "service/server.h"
#include "util/status.h"

namespace schemex::service {
namespace {

using json::Value;

const Value& Field(const Value& obj, const std::string& key) {
  auto it = obj.AsObject().find(key);
  EXPECT_NE(it, obj.AsObject().end()) << "missing field " << key;
  static const Value kNull;
  return it == obj.AsObject().end() ? kNull : it->second;
}

/// Well-formed seeds covering every verb and most params, which the
/// mutator then corrupts. Mutants of valid requests probe much deeper
/// into the parser than pure noise does.
const char* kSeeds[] = {
    R"({"id":1,"verb":"stats"})",
    R"({"id":2,"verb":"list_workspaces"})",
    R"({"id":3,"verb":"load_workspace","params":{"name":"w","dir":"/nope"}})",
    R"({"id":4,"verb":"extract","timeout_s":1.5,"params":{"workspace":"w","k":6,"epsilon":1.25,"max_types":20,"stage1":"gfp","decompose_roles":true,"save_dir":""}})",
    R"({"id":5,"verb":"type","params":{"workspace":"w","program":"a(X) :- link(X,Y,\"n\"), atomic(Y).","commit":false}})",
    R"({"id":6,"verb":"query","params":{"workspace":"w","query":"a.b","use_guide":true,"limit":10}})",
    // "parallelism" is a removed field the parser must keep ignoring.
    R"({"id":7,"verb":"re_extract","params":{"workspace":"w","k":0,"parallelism":100000,"save_dir":"","max_dirty_fraction":0.25}})",
    // Numbers past what their fields can hold: ids past 2^32 (ObjectId)
    // and 2^53 (exact doubles), and budgets past the steady clock's range.
    R"({"id":8,"verb":"apply_delta","params":{"workspace":"w","ops":[{"op":"add_object","kind":"atomic","value":"v"},{"op":"add_link","from":4294967296,"to":4294967297,"label":"zz"},{"op":"del_link","from":1e20,"to":0,"label":"zz"}],"compact":true}})",
    R"({"id":9,"verb":"extract","timeout_s":1e10,"params":{"workspace":"w","k":1e30,"max_types":9007199254740993}})",
    R"({"id":10,"verb":"stats","timeout_s":1e10})",
    R"({"id":-1e300,"verb":"list_workspaces","timeout_s":1e300})",
};

std::string Mutate(const std::string& seed, std::mt19937& rng) {
  std::string s = seed;
  std::uniform_int_distribution<int> kind_dist(0, 5);
  switch (kind_dist(rng)) {
    case 0: {  // truncate
      if (s.empty()) return s;
      s.resize(std::uniform_int_distribution<size_t>(0, s.size() - 1)(rng));
      return s;
    }
    case 1: {  // flip random bytes
      int flips = std::uniform_int_distribution<int>(1, 8)(rng);
      for (int i = 0; i < flips && !s.empty(); ++i) {
        size_t pos =
            std::uniform_int_distribution<size_t>(0, s.size() - 1)(rng);
        s[pos] = static_cast<char>(
            std::uniform_int_distribution<int>(0, 255)(rng));
      }
      return s;
    }
    case 2: {  // insert NUL bytes
      int nuls = std::uniform_int_distribution<int>(1, 3)(rng);
      for (int i = 0; i < nuls; ++i) {
        size_t pos = std::uniform_int_distribution<size_t>(0, s.size())(rng);
        s.insert(pos, 1, '\0');
      }
      return s;
    }
    case 3: {  // splice two seeds at random offsets
      const std::string other =
          kSeeds[std::uniform_int_distribution<size_t>(
              0, std::size(kSeeds) - 1)(rng)];
      size_t a = std::uniform_int_distribution<size_t>(0, s.size())(rng);
      size_t b =
          std::uniform_int_distribution<size_t>(0, other.size())(rng);
      return s.substr(0, a) + other.substr(b);
    }
    case 4: {  // duplicate a random chunk (nested-garbage generator)
      if (s.size() < 2) return s + s;
      size_t a = std::uniform_int_distribution<size_t>(0, s.size() - 2)(rng);
      size_t len = std::uniform_int_distribution<size_t>(
          1, s.size() - 1 - a)(rng);
      return s.substr(0, a) + s.substr(a, len) + s.substr(a);
    }
    default: {  // oversize: balloon a tail of junk onto the seed
      std::string big(
          std::uniform_int_distribution<size_t>(1, 4096)(rng),
          static_cast<char>(std::uniform_int_distribution<int>(32, 126)(rng)));
      return s + big;
    }
  }
}

TEST(RequestFuzzTest, ParserNeverCrashesAndAlwaysAnswersStructured) {
  std::mt19937 rng(0xC0FFEE);  // seeded: failures reproduce
  constexpr int kIters = 4000;
  for (int i = 0; i < kIters; ++i) {
    std::string mutant =
        Mutate(kSeeds[i % std::size(kSeeds)], rng);
    auto req = ParseRequestJson(mutant);
    if (req.ok()) continue;  // a mutant may stay valid; that's fine
    // A rejected line must carry a structured argument/parse error, not
    // an internal one, and must say why.
    EXPECT_TRUE(req.status().code() == util::StatusCode::kInvalidArgument ||
                req.status().code() == util::StatusCode::kParseError)
        << req.status() << " for: " << mutant;
    EXPECT_FALSE(req.status().message().empty());
  }
}

TEST(RequestFuzzTest, ServerAnswersEveryMutantWithAnEnvelope) {
  // End-to-end through HandleJsonLine: valid mutants execute against an
  // empty cache (workspace verbs fail NotFound, stats succeeds), invalid
  // ones get the error envelope. Every response must be one parseable
  // JSON object with an "ok" field — never empty, never a crash.
  ServerOptions opt;
  opt.num_threads = 2;
  Server server(opt);
  std::mt19937 rng(0xBADCAFE);
  constexpr int kIters = 1500;
  for (int i = 0; i < kIters; ++i) {
    std::string mutant = Mutate(kSeeds[i % std::size(kSeeds)], rng);
    std::string out = server.HandleJsonLine(mutant);
    ASSERT_FALSE(out.empty()) << "empty response for: " << mutant;
    auto v = json::Parse(out);
    ASSERT_TRUE(v.ok()) << out;
    const Value& ok = Field(*v, "ok");
    ASSERT_EQ(ok.kind(), Value::Kind::kBool) << out;
    if (!ok.AsBool()) {
      EXPECT_FALSE(Field(Field(*v, "error"), "code").AsString().empty())
          << out;
    }
  }
}

TEST(RequestFuzzTest, FramerSurvivesMutantByteStreams) {
  // The same mutants, concatenated into one byte stream with newline
  // framing, chopped at random: the framer must emit only clean lines or
  // kInvalidArgument, and terminate.
  std::mt19937 rng(0xFEEDFACE);
  FramerOptions fopt;
  fopt.max_line_bytes = 512;
  Framer framer(fopt);
  std::string stream;
  for (int i = 0; i < 500; ++i) {
    stream += Mutate(kSeeds[i % std::size(kSeeds)], rng);
    stream.push_back(i % 7 == 0 ? ' ' : '\n');  // some lines run together
  }
  size_t off = 0;
  size_t lines = 0, errors = 0;
  while (off < stream.size()) {
    size_t chunk =
        std::uniform_int_distribution<size_t>(1, 4096)(rng);
    chunk = std::min(chunk, stream.size() - off);
    framer.Feed(std::string_view(stream).substr(off, chunk));
    off += chunk;
    util::StatusOr<std::string> line = std::string();
    while (framer.Next(&line)) {
      ++lines;
      if (!line.ok()) {
        ++errors;
        EXPECT_EQ(line.status().code(), util::StatusCode::kInvalidArgument);
      } else {
        EXPECT_LE(line->size(), fopt.max_line_bytes);
        EXPECT_EQ(line->find('\0'), std::string::npos);
      }
    }
  }
  framer.Finish();
  util::StatusOr<std::string> line = std::string();
  while (framer.Next(&line)) ++lines;
  EXPECT_GT(lines, 0u);
  EXPECT_GT(errors, 0u);  // the mutator reliably produces oversized/NUL lines
}

}  // namespace
}  // namespace schemex::service

// Corruption fuzzing for the snapshot loader: every truncation and every
// single-bit flip of a valid snapshot must either be rejected with a
// structured error or — when the flip lands in a byte the format does
// not read (alignment padding) — produce a graph that still passes full
// validation. Mutations whose CRCs are re-stamped reach the structural
// checks behind the CRCs. Never a crash (ASan/UBSan lanes run this
// suite), never a silently wrong graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/workspace.h"
#include "graph/graph_builder.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "tests/test_util.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/string_util.h"

namespace schemex::snapshot {
namespace {

namespace fs = std::filesystem;

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("schemex_corrupt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    graph::GraphBuilder b;
    for (int i = 0; i < 12; ++i) {
      EXPECT_OK(b.Complex(util::StringPrintf("c%d", i)));
      EXPECT_OK(b.Atomic(util::StringPrintf("a%d", i),
                         util::StringPrintf("value-%d", i)));
    }
    for (int i = 0; i < 12; ++i) {
      EXPECT_OK(b.Edge(util::StringPrintf("c%d", i), "next",
                       util::StringPrintf("c%d", (i + 1) % 12)));
      EXPECT_OK(b.Edge(util::StringPrintf("c%d", i), "value",
                       util::StringPrintf("a%d", i)));
    }
    util::Status st;
    graph_ = graph::Freeze(std::move(b).Build(&st));
    EXPECT_OK(st);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string WriteValid() {
    std::string path = (dir_ / "r.bin").string();
    EXPECT_OK(Write(*graph_, path));
    return path;
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  std::string Spit(const std::string& bytes) {
    std::string path = (dir_ / "mutated.bin").string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    out.close();
    return path;
  }

  fs::path dir_;
  std::shared_ptr<const graph::FrozenGraph> graph_;
};

/// The section table row of `id` in a well-formed snapshot image.
SectionEntry EntryOf(const std::string& bytes, SectionId id) {
  Header h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  for (uint32_t i = 0; i < h.num_sections; ++i) {
    SectionEntry e;
    std::memcpy(&e, bytes.data() + sizeof(Header) + i * sizeof(SectionEntry),
                sizeof(e));
    if (e.id == static_cast<uint32_t>(id)) return e;
  }
  ADD_FAILURE() << "no section " << static_cast<uint32_t>(id);
  return SectionEntry{};
}

/// Overwrites element `index` of section `id`'s payload, read as an
/// array of T.
template <typename T>
void Poke(std::string* bytes, SectionId id, size_t index, T value) {
  SectionEntry e = EntryOf(*bytes, id);
  ASSERT_LE((index + 1) * sizeof(T), e.stored_bytes);
  std::memcpy(bytes->data() + e.offset + index * sizeof(T), &value,
              sizeof(T));
}

/// Recomputes the CRC of every section whose payload lies inside the
/// image, then the header CRC, so a mutation gets past the checksums to
/// the structural checks behind them.
void Restamp(std::string* bytes) {
  Header h;
  ASSERT_GE(bytes->size(), sizeof(h));
  std::memcpy(&h, bytes->data(), sizeof(h));
  for (uint32_t i = 0; i < h.num_sections && i < kMaxSections; ++i) {
    const size_t at = sizeof(Header) + i * sizeof(SectionEntry);
    if (at + sizeof(SectionEntry) > bytes->size()) break;
    SectionEntry e;
    std::memcpy(&e, bytes->data() + at, sizeof(e));
    if (e.offset > bytes->size() ||
        e.stored_bytes > bytes->size() - e.offset) {
      continue;
    }
    e.crc32 = util::Crc32(bytes->data() + e.offset, e.stored_bytes);
    std::memcpy(bytes->data() + at, &e, sizeof(e));
  }
  h.header_crc = util::Crc32(&h, offsetof(Header, header_crc));
  std::memcpy(bytes->data(), &h, sizeof(h));
}

/// Reads every edge, name, value and label name of `g`, so ASan sees
/// any view that points past its section. The checksum it returns is
/// nonzero for any graph with an edge, and keeps the reads alive.
size_t TouchEverything(const graph::FrozenGraph& g) {
  size_t sum = 0;
  auto add = [&sum](std::string_view s) {
    for (char c : s) sum += static_cast<unsigned char>(c);
  };
  for (graph::ObjectId o = 0; o < g.NumObjects(); ++o) {
    for (const auto& row : {g.OutEdges(o), g.InEdges(o)}) {
      for (const graph::HalfEdge& e : row) sum += 1 + e.label + e.other;
    }
    add(g.Name(o));
    add(g.Value(o));
  }
  for (graph::LabelId l = 0; l < g.labels().size(); ++l) {
    add(g.labels().Name(l));
  }
  return sum;
}

TEST_F(SnapshotCorruptionTest, EveryTruncationRejected) {
  std::string bytes = Slurp(WriteValid());
  ASSERT_GT(bytes.size(), 0u);
  // Every prefix length: dense below the header + section table so the
  // layout parser sees all its partial shapes, sparse in the payload.
  for (size_t len = 0; len < bytes.size(); len += (len < 1024 ? 1 : 977)) {
    auto g = Map(Spit(bytes.substr(0, len)));
    EXPECT_FALSE(g.ok()) << "len=" << len;
  }
}

TEST_F(SnapshotCorruptionTest, EveryBitFlipRejectedOrHarmless) {
  const std::string bytes = Slurp(WriteValid());
  size_t accepted = 0;
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::string mutated = bytes;
    mutated[off] = static_cast<char>(mutated[off] ^ (1u << (off % 8)));
    auto g = Map(Spit(mutated));
    if (!g.ok()) continue;  // structured rejection: good
    // With CRC verification on, a flip can only be accepted in bytes
    // the format genuinely ignores (section padding, reserved fields).
    // The graph must then still be exactly intact.
    ++accepted;
    util::Status valid = (*g)->Validate();
    EXPECT_TRUE(valid.ok()) << valid.ToString() << " offset=" << off;
    EXPECT_EQ((*g)->NumEdges(), graph_->NumEdges()) << "offset=" << off;
  }
  // CRC coverage is tight: the only bytes a flip may slip through are
  // the inter-section alignment padding (at most 7 per section).
  EXPECT_LE(accepted, 9u * 7u) << "CRCs are ignoring too much of the file";
}

TEST_F(SnapshotCorruptionTest, RestampedPayloadMutationsRejectedOrInBounds) {
  // Seeded bit flips and 1-8 byte overwrites inside each section, with
  // every CRC re-stamped afterwards, so only the structural checks stand
  // between the bytes and the graph. Map must return InvalidArgument or
  // a graph whose every view stays inside its section. Map does not run
  // Validate()'s O(edges log degree) sortedness and mirror checks
  // (`snapshot load --deep` does), so a change that keeps the offsets
  // monotone and the edges in bounds can map and then fail Validate();
  // it must fail it with a structured Internal status. Changes to the
  // text and label sections are fully guarded: a graph that maps from
  // them validates.
  const std::string bytes = Slurp(WriteValid());
  util::Rng rng(20261018);
  for (uint32_t id = 1; id <= 9; ++id) {
    const auto sid = static_cast<SectionId>(id);
    const std::string_view name = SectionName(sid);
    const SectionEntry e = EntryOf(bytes, sid);
    ASSERT_GT(e.stored_bytes, 0u) << name;
    const bool fully_guarded = sid == SectionId::kTextOffsets ||
                               sid == SectionId::kTextArena ||
                               sid == SectionId::kLabelOffsets ||
                               sid == SectionId::kLabelArena;
    size_t rejected = 0;
    for (int trial = 0; trial < 200; ++trial) {
      std::string m = bytes;
      const size_t at = e.offset + rng.Uniform(e.stored_bytes);
      if (trial % 2 == 0) {
        m[at] = static_cast<char>(m[at] ^ (1u << rng.Uniform(8)));
      } else {
        const size_t len = std::min<size_t>(1 + rng.Uniform(8),
                                            e.offset + e.stored_bytes - at);
        for (size_t i = 0; i < len; ++i) {
          m[at + i] = static_cast<char>(rng.Uniform(256));
        }
      }
      Restamp(&m);
      auto g = Map(Spit(m));
      if (!g.ok()) {
        EXPECT_EQ(g.status().code(), util::StatusCode::kInvalidArgument)
            << name << " trial " << trial << ": " << g.status().ToString();
        ++rejected;
        continue;
      }
      EXPECT_GT(TouchEverything(**g), 0u) << name << " trial " << trial;
      util::Status valid = (*g)->Validate();
      if (fully_guarded) {
        EXPECT_TRUE(valid.ok())
            << name << " trial " << trial << ": " << valid.ToString();
      } else if (!valid.ok()) {
        EXPECT_EQ(valid.code(), util::StatusCode::kInternal)
            << name << " trial " << trial << ": " << valid.ToString();
      }
    }
    // Nothing checks the text arena's bytes; every other section's
    // structure is checked, and random bytes break it often. (The label
    // arena is rejected only when two names collide.)
    if (sid == SectionId::kTextArena) {
      EXPECT_EQ(rejected, 0u) << name;
    } else if (sid != SectionId::kLabelArena) {
      EXPECT_GT(rejected, 0u) << name << ": the structural checks never fired";
    }
  }
}

TEST_F(SnapshotCorruptionTest, RestampedStructuralViolationsNamed) {
  // One targeted violation per structural check, CRCs re-stamped, each
  // rejected with a message naming the broken invariant.
  const std::string bytes = Slurp(WriteValid());
  const uint64_t n = graph_->NumObjects();
  const uint64_t edges = graph_->NumEdges();
  auto expect_rejected = [&](std::string m, const char* needle) {
    Restamp(&m);
    auto g = Map(Spit(m));
    ASSERT_FALSE(g.ok()) << needle;
    EXPECT_EQ(g.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(g.status().message().find(needle), std::string::npos)
        << "wanted \"" << needle << "\" in: " << g.status().ToString();
  };
  {  // Offsets must be monotone.
    std::string m = bytes;
    Poke<uint64_t>(&m, SectionId::kOutOffsets, 1, edges);
    expect_rejected(m, "CSR offsets not monotone");
  }
  {  // The last offset must equal the edge count.
    std::string m = bytes;
    Poke<uint64_t>(&m, SectionId::kInOffsets, n, edges - 1);
    expect_rejected(m, "CSR offset terminator");
  }
  {
    std::string m = bytes;
    Poke<uint64_t>(&m, SectionId::kTextOffsets, 2 * n,
                   graph_->parts().arena.size() + 1);
    expect_rejected(m, "text offset terminator");
  }
  {  // Label offsets must stay inside the label arena.
    std::string m = bytes;
    Poke<uint64_t>(&m, SectionId::kLabelOffsets, 1, 1000);
    expect_rejected(m, "label offsets not monotone or out of bounds");
  }
  {  // Label names must be distinct: "next" twice.
    ASSERT_EQ(graph_->labels().Name(0), "next");
    ASSERT_EQ(graph_->labels().Name(1), "value");
    std::string m = bytes;
    Poke<uint64_t>(&m, SectionId::kLabelOffsets, 2, 8);
    for (size_t i = 0; i < 4; ++i) {
      Poke<char>(&m, SectionId::kLabelArena, 4 + i, "next"[i]);
    }
    expect_rejected(m, "duplicate label names");
  }
  {  // Edge endpoints and labels must be in bounds.
    std::string m = bytes;
    Poke(&m, SectionId::kOutEdges, 0,
         graph::HalfEdge{0, static_cast<graph::ObjectId>(n)});
    expect_rejected(m, "out of bounds");
    m = bytes;
    Poke(&m, SectionId::kInEdges, edges - 1, graph::HalfEdge{7, 0});
    expect_rejected(m, "out of bounds");
  }
  {  // The atomic bitset must hold num_objects - num_complex bits...
    std::string m = bytes;
    Poke<uint64_t>(&m, SectionId::kAtomicBits, 0,
                   graph_->parts().atomic_words[0] ^ 1);
    expect_rejected(m, "atomic bitset population");
    // ...and none past the object count.
    m = bytes;
    Poke<uint64_t>(&m, SectionId::kAtomicBits, 0,
                   graph_->parts().atomic_words[0] | (uint64_t{1} << 63));
    expect_rejected(m, "set bits past the object count");
  }
}

TEST_F(SnapshotCorruptionTest, RetiredCompactEncodingsRejected) {
  // Encodings 1 (delta varint) and 2 (edge varint) were the compact
  // sections of earlier builds. Map rejects them, and a workspace whose
  // snapshot.bin uses one loads from its text files instead.
  catalog::Workspace ws;
  ws.graph = graph_;
  ws.assignment = typing::TypeAssignment(graph_->NumObjects());
  ASSERT_OK(catalog::SaveWorkspace(ws, dir_.string()));
  const std::string snap = (dir_ / "snapshot.bin").string();
  const std::string bytes = Slurp(snap);
  const std::pair<SectionId, uint32_t> retired[] = {
      {SectionId::kOutOffsets, 1}, {SectionId::kTextOffsets, 1},
      {SectionId::kOutEdges, 2}, {SectionId::kInEdges, 2}};
  for (const auto& [id, encoding] : retired) {
    SCOPED_TRACE(std::string(SectionName(id)));
    std::string m = bytes;
    for (uint32_t i = 0; i < 9; ++i) {
      const size_t at = sizeof(Header) + i * sizeof(SectionEntry);
      SectionEntry e;
      std::memcpy(&e, m.data() + at, sizeof(e));
      if (e.id != static_cast<uint32_t>(id)) continue;
      e.encoding = encoding;
      std::memcpy(m.data() + at, &e, sizeof(e));
    }
    Restamp(&m);
    auto g = Map(Spit(m));
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(g.status().message().find("unsupported encoding"),
              std::string::npos)
        << g.status().ToString();

    {
      std::ofstream out(snap, std::ios::binary | std::ios::trunc);
      out << m;
    }
    catalog::LoadInfo info;
    ASSERT_OK_AND_ASSIGN(catalog::Workspace back,
                         catalog::LoadWorkspace(dir_.string(), &info));
    EXPECT_FALSE(info.from_snapshot);
    EXPECT_EQ(info.snapshot_status.code(),
              util::StatusCode::kInvalidArgument);
    EXPECT_NE(info.snapshot_status.message().find("unsupported encoding"),
              std::string::npos)
        << info.snapshot_status.ToString();
    EXPECT_EQ(back.graph->NumObjects(), graph_->NumObjects());
    EXPECT_EQ(back.graph->NumEdges(), graph_->NumEdges());
    EXPECT_EQ(back.graph->MappedBytes(), 0u);
  }
}

TEST_F(SnapshotCorruptionTest, StructuredErrorsForHeaderFields) {
  const std::string bytes = Slurp(WriteValid());

  auto expect_error = [&](std::string mutated, const char* needle) {
    auto g = Map(Spit(mutated));
    ASSERT_FALSE(g.ok()) << needle;
    EXPECT_EQ(g.status().code(), util::StatusCode::kInvalidArgument)
        << needle;
    EXPECT_NE(g.status().message().find(needle), std::string::npos)
        << "wanted \"" << needle << "\" in: " << g.status().ToString();
  };

  {  // Bad magic.
    std::string m = bytes;
    m[0] = 'X';
    expect_error(m, "magic");
  }
  {  // Unsupported version (header CRC recomputed so it gets that far).
    Header h;
    std::memcpy(&h, bytes.data(), sizeof(Header));
    h.version = 99;
    h.header_crc = util::Crc32(&h, offsetof(Header, header_crc));
    std::string m = bytes;
    std::memcpy(m.data(), &h, sizeof(Header));
    expect_error(m, "version");
  }
  {  // Foreign endianness.
    Header h;
    std::memcpy(&h, bytes.data(), sizeof(Header));
    h.endian = 0x04030201;
    h.header_crc = util::Crc32(&h, offsetof(Header, header_crc));
    std::string m = bytes;
    std::memcpy(m.data(), &h, sizeof(Header));
    expect_error(m, "endian");
  }
  {  // Header CRC break.
    std::string m = bytes;
    m[60] = static_cast<char>(m[60] ^ 0xff);  // header_crc bytes
    expect_error(m, "header CRC");
  }
  {  // Section CRC break: flip one payload byte far from the table.
    std::string m = bytes;
    m[m.size() - 1] = static_cast<char>(m[m.size() - 1] ^ 0x01);
    expect_error(m, "CRC");
  }
}

TEST_F(SnapshotCorruptionTest, NotASnapshotAtAll) {
  EXPECT_FALSE(Map(Spit("")).ok());
  EXPECT_FALSE(Map(Spit("hello world")).ok());
  EXPECT_FALSE(Map((dir_ / "missing.bin").string()).ok());
  std::string zeros(4096, '\0');
  EXPECT_FALSE(Map(Spit(zeros)).ok());
}

}  // namespace
}  // namespace schemex::snapshot

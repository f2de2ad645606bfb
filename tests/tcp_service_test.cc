// End-to-end tests for the schemexd TCP front end: an in-process harness
// boots the listener on an ephemeral loopback port and drives it with
// real sockets — framing edge cases, deadline propagation, disconnects,
// and graceful drain. The heavier concurrent-load scenario lives in
// tcp_stress_test.cc.

#include "service/tcp_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "gen/dbg.h"
#include "gen/random_graph.h"
#include "json/json.h"
#include "service/request.h"
#include "service/server.h"
#include "service/tcp_client.h"
#include "tests/test_util.h"
#include "util/string_util.h"

namespace schemex::service {
namespace {

namespace fs = std::filesystem;
using json::Value;

const Value& Field(const Value& obj, const std::string& key) {
  auto it = obj.AsObject().find(key);
  EXPECT_NE(it, obj.AsObject().end()) << "missing field " << key;
  static const Value kNull;
  return it == obj.AsObject().end() ? kNull : it->second;
}

catalog::Workspace MakeDbgWorkspace(uint64_t seed = 3) {
  auto g = gen::MakeDbgDataset(seed);
  EXPECT_TRUE(g.ok());
  extract::ExtractorOptions opt;
  opt.target_num_types = 6;
  auto r = extract::SchemaExtractor(opt).Run(*g);
  EXPECT_TRUE(r.ok());
  catalog::Workspace ws;
  ws.SetGraph(*g);
  ws.program = r->final_program;
  ws.assignment = r->recast.assignment;
  return ws;
}

std::string QueryLine(int64_t id, const std::string& workspace,
                      const std::string& query) {
  return util::StringPrintf(
      "{\"id\":%lld,\"verb\":\"query\",\"params\":{\"workspace\":\"%s\","
      "\"query\":\"%s\"}}",
      static_cast<long long>(id), workspace.c_str(), query.c_str());
}

class TcpServiceTest : public ::testing::Test {
 protected:
  void Boot(TcpServerOptions topt = {}, ServerOptions sopt = {}) {
    server_ = std::make_unique<Server>(sopt);
    tcp_ = std::make_unique<TcpServer>(server_.get(), topt);
    ASSERT_OK(tcp_->Start());
    ASSERT_GT(tcp_->port(), 0);
  }

  TcpClient Connect() {
    auto c = TcpClient::Connect("127.0.0.1", tcp_->port());
    EXPECT_TRUE(c.ok()) << c.status();
    return std::move(c).value();
  }

  std::unique_ptr<Server> server_;
  std::unique_ptr<TcpServer> tcp_;
};

TEST_F(TcpServiceTest, StatsRoundTripWithIdMatch) {
  Boot();
  TcpClient client = Connect();
  ASSERT_OK_AND_ASSIGN(Value resp,
                       client.Call("{\"id\":42,\"verb\":\"stats\"}"));
  EXPECT_TRUE(Field(resp, "ok").AsBool());
  EXPECT_EQ(Field(resp, "id").AsNumber(), 42);
  EXPECT_GT(Field(Field(resp, "result"), "threads").AsNumber(), 0);
}

TEST_F(TcpServiceTest, FullVerbFlowOverTcp) {
  // load_workspace -> extract -> type -> query -> list_workspaces, all
  // through the socket: the TCP path reuses the same dispatcher, cache,
  // and FrozenGraph sharing as the stdio path.
  Boot();
  fs::path dir = fs::temp_directory_path() /
                 ("schemex_tcp_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  catalog::Workspace ws = MakeDbgWorkspace();
  ASSERT_OK(catalog::SaveWorkspace(ws, dir.string()));

  TcpClient client = Connect();
  ASSERT_OK_AND_ASSIGN(
      Value load,
      client.Call(util::StringPrintf(
          "{\"id\":1,\"verb\":\"load_workspace\",\"params\":{\"name\":\"dbg\","
          "\"dir\":\"%s\"}}",
          dir.string().c_str())));
  ASSERT_TRUE(Field(load, "ok").AsBool()) << json::Serialize(load);

  ASSERT_OK_AND_ASSIGN(
      Value extract,
      client.Call("{\"id\":2,\"verb\":\"extract\",\"params\":{\"workspace\":"
                  "\"dbg\",\"k\":6}}",
                  /*timeout_s=*/60.0));
  ASSERT_TRUE(Field(extract, "ok").AsBool()) << json::Serialize(extract);
  EXPECT_EQ(Field(Field(extract, "result"), "num_final_types").AsNumber(), 6);

  ASSERT_OK_AND_ASSIGN(
      Value type,
      client.Call("{\"id\":3,\"verb\":\"type\",\"params\":{\"workspace\":"
                  "\"dbg\"}}"));
  ASSERT_TRUE(Field(type, "ok").AsBool());

  ASSERT_OK_AND_ASSIGN(Value query,
                       client.Call(QueryLine(4, "dbg", "project.name")));
  ASSERT_TRUE(Field(query, "ok").AsBool());
  EXPECT_GT(Field(Field(query, "result"), "count").AsNumber(), 0);

  ASSERT_OK_AND_ASSIGN(Value list,
                       client.Call("{\"id\":5,\"verb\":\"list_workspaces\"}"));
  ASSERT_EQ(
      Field(Field(list, "result"), "workspaces").AsArray().size(), 1u);

  fs::remove_all(dir);
}

TEST_F(TcpServiceTest, PipelinedRequestsAllAnsweredIdsMatch) {
  // Fire a burst of requests down one connection before reading anything:
  // every id must come back exactly once (responses may be reordered).
  Boot();
  ASSERT_OK(server_->InstallWorkspace("dbg", MakeDbgWorkspace()));
  TcpClient client = Connect();

  constexpr int kBurst = 64;
  std::set<int64_t> want;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_OK(client.SendLine(QueryLine(1000 + i, "dbg", "project.name")));
    want.insert(1000 + i);
  }
  std::set<int64_t> got;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string line, client.ReadLine());
    ASSERT_OK_AND_ASSIGN(Value v, json::Parse(line));
    EXPECT_TRUE(Field(v, "ok").AsBool()) << line;
    EXPECT_TRUE(got.insert(static_cast<int64_t>(Field(v, "id").AsNumber()))
                    .second)
        << "duplicate id in " << line;
  }
  EXPECT_EQ(got, want);
}

TEST_F(TcpServiceTest, InterleavedConnectionsDoNotCrossTalk) {
  // Two connections pipelining against different workspaces: each must
  // see only its own ids, and every response's workspace echo must match
  // the connection's workspace — proof that per-connection outboxes never
  // mix streams.
  Boot();
  ASSERT_OK(server_->InstallWorkspace("alpha", MakeDbgWorkspace(3)));
  ASSERT_OK(server_->InstallWorkspace("beta", MakeDbgWorkspace(7)));

  TcpClient a = Connect();
  TcpClient b = Connect();
  constexpr int kEach = 40;
  for (int i = 0; i < kEach; ++i) {
    ASSERT_OK(a.SendLine(QueryLine(i, "alpha", "project.name")));
    ASSERT_OK(b.SendLine(QueryLine(10000 + i, "beta", "author.name")));
  }
  auto check = [&](TcpClient& c, int64_t base, const std::string& workspace) {
    std::set<int64_t> got;
    for (int i = 0; i < kEach; ++i) {
      ASSERT_OK_AND_ASSIGN(std::string line, c.ReadLine());
      ASSERT_OK_AND_ASSIGN(Value v, json::Parse(line));
      ASSERT_TRUE(Field(v, "ok").AsBool()) << line;
      int64_t id = static_cast<int64_t>(Field(v, "id").AsNumber());
      EXPECT_GE(id, base);
      EXPECT_LT(id, base + kEach);
      EXPECT_EQ(Field(Field(v, "result"), "workspace").AsString(), workspace)
          << line;
      EXPECT_TRUE(got.insert(id).second);
    }
    EXPECT_EQ(got.size(), static_cast<size_t>(kEach));
  };
  check(a, 0, "alpha");
  check(b, 10000, "beta");
}

TEST_F(TcpServiceTest, MissingTrailingNewlineAtEofStillAnswered) {
  // A request whose final newline never arrives must still execute once
  // the client half-closes — the framing bug class the shared Framer
  // fixes.
  Boot();
  TcpClient client = Connect();
  ASSERT_OK(client.SendRaw("{\"id\":9,\"verb\":\"stats\"}"));  // no '\n'
  client.ShutdownWrite();
  ASSERT_OK_AND_ASSIGN(std::string line, client.ReadLine());
  ASSERT_OK_AND_ASSIGN(Value v, json::Parse(line));
  EXPECT_TRUE(Field(v, "ok").AsBool()) << line;
  EXPECT_EQ(Field(v, "id").AsNumber(), 9);
}

TEST_F(TcpServiceTest, HalfLineDisconnectLeavesServerHealthy) {
  Boot();
  {
    TcpClient client = Connect();
    ASSERT_OK(client.SendRaw("{\"id\":1,\"verb\":\"sta"));  // half a line
    client.Close();  // abrupt disconnect mid-request
  }
  // The half line counts as a (failed) request once EOF frames it; either
  // way the server must keep serving new connections.
  TcpClient next = Connect();
  ASSERT_OK_AND_ASSIGN(Value v, next.Call("{\"id\":2,\"verb\":\"stats\"}"));
  EXPECT_TRUE(Field(v, "ok").AsBool());
}

TEST_F(TcpServiceTest, EmbeddedNulRejectedConnectionSurvives) {
  Boot();
  TcpClient client = Connect();
  std::string evil = "{\"id\":1,\"verb\":\"stats\"}";
  evil.insert(8, 1, '\0');
  evil.push_back('\n');
  ASSERT_OK(client.SendRaw(evil));
  ASSERT_OK_AND_ASSIGN(std::string line, client.ReadLine());
  ASSERT_OK_AND_ASSIGN(Value v, json::Parse(line));
  EXPECT_FALSE(Field(v, "ok").AsBool());
  EXPECT_EQ(Field(Field(v, "error"), "code").AsString(), "InvalidArgument");
  // Same connection still serves clean requests.
  ASSERT_OK_AND_ASSIGN(Value v2, client.Call("{\"id\":2,\"verb\":\"stats\"}"));
  EXPECT_TRUE(Field(v2, "ok").AsBool());
  EXPECT_EQ(Field(v2, "id").AsNumber(), 2);
}

TEST_F(TcpServiceTest, OversizedLineRejectedAndResynced) {
  TcpServerOptions topt;
  topt.max_line_bytes = 1024;
  Boot(topt);
  TcpClient client = Connect();
  std::string big = "{\"id\":1,\"verb\":\"query\",\"params\":{\"q\":\"";
  big += std::string(8192, 'x');
  big += "\"}}\n";
  ASSERT_OK(client.SendRaw(big));
  ASSERT_OK_AND_ASSIGN(std::string line, client.ReadLine());
  ASSERT_OK_AND_ASSIGN(Value v, json::Parse(line));
  EXPECT_FALSE(Field(v, "ok").AsBool());
  EXPECT_EQ(Field(Field(v, "error"), "code").AsString(), "InvalidArgument");
  // Framing resynchronized at the newline: the next request works.
  ASSERT_OK_AND_ASSIGN(Value v2, client.Call("{\"id\":2,\"verb\":\"stats\"}"));
  EXPECT_TRUE(Field(v2, "ok").AsBool());
}

TEST_F(TcpServiceTest, DeadlinePropagatesThroughTheSocket) {
  // A per-request timeout_s far below the extraction cost must come back
  // as a DeadlineExceeded envelope — the TCP path inherits the same
  // queue-deadline + mid-pipeline polling as the stdio path.
  Boot();
  gen::RandomGraphOptions gopt;
  gopt.num_complex = 2000;
  gopt.num_atomic = 2000;
  gopt.num_edges = 9000;
  catalog::Workspace ws;
  ws.SetGraph(gen::RandomGraph(gopt));
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(server_->InstallWorkspace("rand", std::move(ws)));

  TcpClient client = Connect();
  ASSERT_OK_AND_ASSIGN(
      Value v,
      client.Call("{\"id\":1,\"verb\":\"extract\",\"timeout_s\":0.005,"
                  "\"params\":{\"workspace\":\"rand\",\"k\":5}}",
                  /*timeout_s=*/60.0));
  EXPECT_FALSE(Field(v, "ok").AsBool());
  EXPECT_EQ(Field(Field(v, "error"), "code").AsString(), "DeadlineExceeded")
      << json::Serialize(v);
}

TEST_F(TcpServiceTest, GracefulDrainDeliversInFlightResponses) {
  // Shutdown while requests are in flight: the listener closes, but
  // already-dispatched work finishes and its responses are flushed before
  // the connection is torn down.
  Boot();
  ASSERT_OK(server_->InstallWorkspace("dbg", MakeDbgWorkspace()));
  TcpClient client = Connect();
  constexpr int kInFlight = 8;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_OK(client.SendLine(
        util::StringPrintf("{\"id\":%d,\"verb\":\"extract\",\"params\":{"
                           "\"workspace\":\"dbg\",\"k\":6}}",
                           i)));
  }
  // Give the poll loop a beat to read + dispatch, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread shutdown([&] { tcp_->Shutdown(); });

  std::set<int64_t> got;
  for (int i = 0; i < kInFlight; ++i) {
    auto line = client.ReadLine(/*timeout_s=*/60.0);
    if (!line.ok()) break;  // connection closed after the flush
    auto v = json::Parse(*line);
    ASSERT_TRUE(v.ok()) << *line;
    EXPECT_TRUE(Field(*v, "ok").AsBool()) << *line;
    got.insert(static_cast<int64_t>(Field(*v, "id").AsNumber()));
  }
  shutdown.join();
  // Every request the server admitted before the drain answered. (All
  // eight were sent in one burst before the sleep, so all were read.)
  EXPECT_EQ(got.size(), static_cast<size_t>(kInFlight));

  // After drain, new connections are refused.
  auto late = TcpClient::Connect("127.0.0.1", tcp_->port(), 1.0);
  if (late.ok()) {
    auto resp = late->Call("{\"id\":1,\"verb\":\"stats\"}", 2.0);
    EXPECT_FALSE(resp.ok());
  }
}

TEST_F(TcpServiceTest, IdleConnectionsAreReaped) {
  TcpServerOptions topt;
  topt.idle_timeout_s = 0.2;
  Boot(topt);
  TcpClient client = Connect();
  // No traffic: the server must close the connection, observed as EOF.
  auto line = client.ReadLine(/*timeout_s=*/10.0);
  EXPECT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), util::StatusCode::kFailedPrecondition)
      << line.status();

  // An active connection with the same budget stays alive as long as it
  // keeps talking.
  TcpClient busy = Connect();
  for (int i = 0; i < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_OK_AND_ASSIGN(Value v, busy.Call("{\"id\":1,\"verb\":\"stats\"}"));
    EXPECT_TRUE(Field(v, "ok").AsBool());
  }
}

TEST_F(TcpServiceTest, MaxConnectionsRefusesExtras) {
  TcpServerOptions topt;
  topt.max_connections = 1;
  Boot(topt);
  TcpClient first = Connect();
  ASSERT_OK_AND_ASSIGN(Value v, first.Call("{\"id\":1,\"verb\":\"stats\"}"));
  EXPECT_TRUE(Field(v, "ok").AsBool());

  // The extra connection is accepted and immediately closed: its first
  // read sees EOF.
  auto second = TcpClient::Connect("127.0.0.1", tcp_->port());
  ASSERT_TRUE(second.ok()) << second.status();
  auto line = second->ReadLine(/*timeout_s=*/10.0);
  EXPECT_FALSE(line.ok());

  // The first connection is unaffected.
  ASSERT_OK_AND_ASSIGN(Value v2, first.Call("{\"id\":2,\"verb\":\"stats\"}"));
  EXPECT_TRUE(Field(v2, "ok").AsBool());
}

TEST_F(TcpServiceTest, StatsExposesTransportCounters) {
  Boot();
  TcpClient client = Connect();
  ASSERT_OK_AND_ASSIGN(Value warm, client.Call("{\"id\":1,\"verb\":\"stats\"}"));
  ASSERT_TRUE(Field(warm, "ok").AsBool());
  ASSERT_OK_AND_ASSIGN(Value v, client.Call("{\"id\":2,\"verb\":\"stats\"}"));
  const Value& counters = Field(Field(v, "result"), "counters");
  ASSERT_EQ(counters.kind(), Value::Kind::kObject);
  EXPECT_GT(Field(counters, "tcp.bytes_in").AsNumber(), 0);
  EXPECT_GT(Field(counters, "tcp.bytes_out").AsNumber(), 0);
  EXPECT_EQ(Field(counters, "tcp.connections_open").AsNumber(), 1);
  EXPECT_GE(Field(counters, "tcp.connections_accepted").AsNumber(), 1);
}

TEST_F(TcpServiceTest, ResponseLargerThanSocketBuffersArrivesWhole) {
  // Workers send their own replies; only what the socket does not take
  // at once waits for POLLOUT on the poll thread. A ~7.5 MB query reply
  // to a client that has not read yet outgrows the loopback buffers, so
  // the send stalls part-way and the poll thread must finish it.
  Boot();
  constexpr size_t kObjects = 100'000;
  const std::string pad(48, 'x');
  graph::DataGraph g;
  for (size_t i = 0; i < kObjects; ++i) g.AddComplex(pad + std::to_string(i));
  catalog::Workspace ws;
  ws.SetGraph(g);
  ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
  ASSERT_OK(server_->InstallWorkspace("big", std::move(ws)));

  TcpClient client = Connect();
  ASSERT_OK(client.SendLine(util::StringPrintf(
      "{\"id\":7,\"verb\":\"query\",\"params\":{\"workspace\":\"big\","
      "\"query\":\"%%\",\"limit\":%zu}}",
      kObjects)));
  // Read nothing until the server's writes stall: tcp.bytes_out stops
  // growing (for 200 ms) short of the whole reply.
  auto bytes_out = [this] {
    for (const auto& [name, value] : server_->metrics().CounterSnapshot()) {
      if (name == "tcp.bytes_out") return value;
    }
    return int64_t{0};
  };
  int64_t stalled = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (int stable = 0;
       stable < 10 && std::chrono::steady_clock::now() < give_up;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int64_t now = bytes_out();
    stable = now > 0 && now == stalled ? stable + 1 : 0;
    stalled = now;
  }
  ASSERT_GT(stalled, 0) << "no reply bytes were sent";

  ASSERT_OK_AND_ASSIGN(std::string line, client.ReadLine(/*timeout_s=*/60.0));
  EXPECT_LT(static_cast<size_t>(stalled), line.size() + 1)
      << "the reply fit the socket buffers; POLLOUT was never needed";
  ASSERT_OK_AND_ASSIGN(Value v, json::Parse(line));
  ASSERT_TRUE(Field(v, "ok").AsBool());
  EXPECT_EQ(Field(v, "id").AsNumber(), 7);
  const Value& r = Field(v, "result");
  EXPECT_EQ(Field(r, "count").AsNumber(), kObjects);
  const std::vector<Value>& objects = Field(r, "objects").AsArray();
  ASSERT_EQ(objects.size(), kObjects);
  EXPECT_EQ(Field(objects.front(), "name").AsString(), pad + "0");
  EXPECT_EQ(Field(objects.back(), "name").AsString(),
            pad + std::to_string(kObjects - 1));
}

}  // namespace
}  // namespace schemex::service

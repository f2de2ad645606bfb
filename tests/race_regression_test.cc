// Deterministic regressions for races found (or prevented) by the TSan
// lane and the thread-safety annotation pass — see docs/static-analysis.md.
// Each test pins down one historical suspect:
//
//  - MetricsRegistry snapshots racing concurrent Record/AddCounter
//  - Server teardown with fire-and-forget HandleAsync work in flight
//  - ThreadPool Shutdown racing Submit and a second Shutdown
//  - TcpServer::Shutdown called concurrently (the join must serialize)
//  - SaveWorkspace racing SaveWorkspace into the same directory
//  - a replaced workspace generation freed under the cache lock
//
// The suites run in the plain build too, but their teeth are the TSan CI
// lane (`cmake --preset tsan`): the counts below are chosen so every
// interleaving worth flagging actually happens within a few milliseconds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "catalog/workspace.h"
#include "extract/extractor.h"
#include "extract/incremental_extract.h"
#include "gen/dbg.h"
#include "service/metrics.h"
#include "service/request.h"
#include "service/server.h"
#include "service/tcp_client.h"
#include "service/tcp_server.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace schemex {
namespace {

namespace fs = std::filesystem;

// Releases a batch of threads at once so short critical sections really
// overlap instead of running in spawn order.
class StartGate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(MetricsRaceRegression, CounterSnapshotVsConcurrentAddCounter) {
  service::MetricsRegistry metrics;
  constexpr int kWriters = 4;
  constexpr int kIncrements = 2000;

  StartGate gate;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&metrics, &gate, w] {
      gate.Wait();
      for (int i = 0; i < kIncrements; ++i) {
        metrics.AddCounter("race.shared", 1);
        metrics.AddCounter("race.per_writer_" + std::to_string(w), 1);
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread reader([&metrics, &gate, &done] {
    gate.Wait();
    while (!done.load()) {
      // Snapshots during the storm must be internally consistent (no
      // torn counter values, no duplicated names), which gtest can't see
      // directly — TSan can, and the totals check below catches lost
      // updates.
      for (const auto& [name, value] : metrics.CounterSnapshot()) {
        EXPECT_GE(value, 0) << name;
      }
    }
  });
  gate.Open();
  for (auto& t : threads) t.join();
  done.store(true);
  reader.join();

  int64_t shared = -1;
  for (const auto& [name, value] : metrics.CounterSnapshot()) {
    if (name == "race.shared") shared = value;
  }
  EXPECT_EQ(shared, int64_t{kWriters} * kIncrements);
}

TEST(MetricsRaceRegression, VerbSnapshotVsConcurrentRecord) {
  service::MetricsRegistry metrics;
  constexpr int kWriters = 4;
  constexpr int kRecords = 1500;

  StartGate gate;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&metrics, &gate] {
      gate.Wait();
      for (int i = 0; i < kRecords; ++i) {
        metrics.Record("extract", 0.25, /*ok=*/i % 7 != 0,
                       /*timeout=*/false);
      }
    });
  }
  std::atomic<bool> done{false};
  std::thread reader([&metrics, &gate, &done] {
    gate.Wait();
    while (!done.load()) {
      for (const service::VerbStats& s : metrics.Snapshot()) {
        // count is bumped with errors/total_ms under one lock; a reader
        // must never observe errors outrunning count.
        EXPECT_LE(s.errors, s.count);
        EXPECT_LE(s.timeouts, s.errors);
      }
    }
  });
  gate.Open();
  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();

  auto snap = metrics.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, uint64_t{kWriters} * kRecords);
}

TEST(ServerShutdownRegression, DestructorDrainsInFlightHandleAsync) {
  constexpr int kRequests = 64;
  std::atomic<int> completed{0};
  {
    service::ServerOptions opt;
    opt.num_threads = 4;
    service::Server server(opt);
    for (int i = 0; i < kRequests; ++i) {
      service::Request req;
      req.id = i;
      req.verb = service::Verb::kStats;
      server.HandleAsync(std::move(req),
                         [&completed](service::Response) { ++completed; });
    }
    // ~Server joins the pool; every queued request must finish first.
  }
  EXPECT_EQ(completed.load(), kRequests);
}

TEST(ThreadPoolShutdownRegression, ConcurrentShutdownDrainsOnce) {
  util::ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&ran] { ++ran; });
  }
  StartGate gate;
  std::vector<std::thread> shutters;
  for (int i = 0; i < 3; ++i) {
    shutters.emplace_back([&pool, &gate] {
      gate.Wait();
      pool.Shutdown();
    });
  }
  gate.Open();
  for (auto& t : shutters) t.join();
  // Every caller returned only after the drain: all 200 tasks ran.
  EXPECT_EQ(ran.load(), 200);
  EXPECT_THROW(pool.Submit([] {}), std::runtime_error);
}

TEST(TcpServerShutdownRegression, ConcurrentShutdownWithInFlightRequests) {
  service::Server server;
  ASSERT_OK(server.InstallWorkspace("fig2", [] {
    catalog::Workspace ws;
    ws.SetGraph(test::MakeFigure2Database());
    ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
    return ws;
  }()));

  service::TcpServerOptions opt;
  opt.drain_timeout_s = 5.0;
  service::TcpServer tcp(&server, opt);
  ASSERT_OK(tcp.Start());

  ASSERT_OK_AND_ASSIGN(service::TcpClient client,
                       service::TcpClient::Connect("127.0.0.1", tcp.port()));
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(client.SendLine(
        R"({"id":)" + std::to_string(i) + R"(,"verb":"stats"})"));
  }

  // Several threads race the drain; each must return only after the poll
  // thread has exited, and exactly one performs the teardown.
  StartGate gate;
  std::vector<std::thread> shutters;
  for (int i = 0; i < 4; ++i) {
    shutters.emplace_back([&tcp, &gate] {
      gate.Wait();
      tcp.Shutdown();
    });
  }
  gate.Open();
  for (auto& t : shutters) t.join();
  EXPECT_FALSE(tcp.running());
  EXPECT_EQ(tcp.open_connections(), 0u);
}

TEST(WorkspaceReplaceRegression, OldGenerationIsFreedOffTheCacheLock) {
  // Replacing a workspace can drop the last reference to the old
  // generation: its assignment, its extraction cache and, after a load,
  // possibly the old graph and its mapping. Every query takes the cache
  // lock shared, so that teardown must run after the swap unlocks. The
  // old cache's deleter stands in for a slow teardown: it starts a
  // reader and waits for it, which only finishes if the lock is free.
  service::Server server;
  std::thread reader;
  bool reader_finished = false;
  auto deleter = [&server, &reader,
                  &reader_finished](const extract::ExtractionCache* cache) {
    auto names = std::make_shared<std::promise<size_t>>();
    std::future<size_t> done = names->get_future();
    reader = std::thread(
        [&server, names] { names->set_value(server.WorkspaceNames().size()); });
    reader_finished = done.wait_for(std::chrono::seconds(2)) ==
                      std::future_status::ready;
    delete cache;
  };
  auto fig2 = [] {
    catalog::Workspace ws;
    ws.SetGraph(test::MakeFigure2Database());
    ws.assignment = typing::TypeAssignment(ws.graph->NumObjects());
    return ws;
  };
  {
    catalog::Workspace old_gen = fig2();
    old_gen.extraction_cache = std::shared_ptr<const extract::ExtractionCache>(
        new extract::ExtractionCache(), deleter);
    ASSERT_OK(server.InstallWorkspace("ws", std::move(old_gen)));
  }
  ASSERT_OK(server.InstallWorkspace("ws", fig2()));  // frees the old one
  ASSERT_TRUE(reader.joinable()) << "the old generation was not freed";
  reader.join();
  EXPECT_TRUE(reader_finished)
      << "a reader stalled while the replaced generation was freed";
}

TEST(WorkspaceSaveRegression, ConcurrentSavesNeverMixGenerations) {
  fs::path dir = fs::temp_directory_path() /
                 ("schemex_race_save_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  // Two generations of the same database with different schemas.
  auto make = [](size_t k) {
    auto g = gen::MakeDbgDataset(3);
    EXPECT_TRUE(g.ok());
    extract::ExtractorOptions opt;
    opt.target_num_types = k;
    auto r = extract::SchemaExtractor(opt).Run(*g);
    EXPECT_TRUE(r.ok());
    catalog::Workspace ws;
    ws.SetGraph(*g);
    ws.program = r->final_program;
    ws.assignment = r->recast.assignment;
    return ws;
  };
  catalog::Workspace gen_a = make(4);
  catalog::Workspace gen_b = make(8);

  StartGate gate;
  std::vector<std::thread> savers;
  for (int i = 0; i < 4; ++i) {
    savers.emplace_back([&, i] {
      gate.Wait();
      const catalog::Workspace& ws = (i % 2 == 0) ? gen_a : gen_b;
      for (int round = 0; round < 5; ++round) {
        ASSERT_OK(catalog::SaveWorkspace(ws, dir.string()));
      }
    });
  }
  gate.Open();
  for (auto& t : savers) t.join();

  // Whatever save landed last, the directory holds one coherent
  // generation: the load validates schema/assignment against the graph.
  ASSERT_OK_AND_ASSIGN(catalog::Workspace loaded,
                       catalog::LoadWorkspace(dir.string()));
  ASSERT_OK(loaded.Validate());
  const size_t n = loaded.program.NumTypes();
  EXPECT_TRUE(n == gen_a.program.NumTypes() || n == gen_b.program.NumTypes())
      << "mixed-generation directory: " << n << " types";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace schemex

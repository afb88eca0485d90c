// Concurrency battery for the rl0_serve connection layer: N concurrent
// clients on disjoint tenants each reproduce their own direct-pool
// sample (the fleet's fair round-robin keeps tenants independent);
// concurrent feeders to ONE tenant serialize cleanly; a slow SUBSCRIBE
// consumer applies end-to-end backpressure with a provably bounded
// queue instead of unbounded buffering; a vanished subscriber cannot
// wedge its tenant; a CREATE cannot reopen a checkpoint directory that
// a CLOSE is still cutting into; and shutdown with live, subscribed
// sessions is orderly and deadlock-free. Run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rl0/core/sharded_pool.h"
#include "rl0/serve/protocol.h"
#include "rl0/serve/registry.h"
#include "rl0/serve/server.h"
#include "rl0/util/rng.h"
#include "serve_test_util.h"

namespace rl0 {
namespace serve {
namespace {

std::vector<Point> Clustered(size_t n, size_t groups, uint64_t seed) {
  std::vector<Point> points;
  points.reserve(n);
  Xoshiro256pp rng(SplitMix64(seed));
  for (size_t i = 0; i < n; ++i) {
    const double g = static_cast<double>(rng.NextBounded(groups));
    Point p(2);
    p[0] = 10.0 * g + 0.3 * (rng.NextDouble() - 0.5);
    p[1] = 10.0 * g + 0.3 * (rng.NextDouble() - 0.5);
    points.push_back(std::move(p));
  }
  return points;
}

std::string CoordToken(const Point& p) {
  char buf[64];
  std::string out;
  for (size_t d = 0; d < p.dim(); ++d) {
    std::snprintf(buf, sizeof(buf), "%.17g", p[d]);
    if (d > 0) out += ',';
    out += buf;
  }
  return out;
}

TEST(ServeConcurrencyTest, DisjointTenantsFromConcurrentClients) {
  const std::string path = TestSocketPath("conc1");
  Server::Options options;
  options.unix_path = path;
  options.fleet_threads = 3;
  auto started = Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  Server* server = started.value().get();

  const int kClients = 6;
  const size_t kN = 1200;
  std::vector<std::vector<std::string>> server_samples(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(path);
      if (!client.connected()) {
        ++failures;
        return;
      }
      const std::string tenant = "t" + std::to_string(c);
      char create[160];
      std::snprintf(create, sizeof(create),
                    "CREATE %s dim=2 alpha=0.8 window=400 shards=2 "
                    "seed=%d m=%zu",
                    tenant.c_str(), 100 + c, kN);
      if (client.Command(create) != std::vector<std::string>{"OK"}) {
        ++failures;
        return;
      }
      const auto points = Clustered(kN, 40, 1000 + c);
      for (size_t off = 0; off < kN;) {
        const size_t end = std::min(kN, off + 97);
        std::string feed = "FEED " + tenant;
        for (size_t i = off; i < end; ++i) {
          feed += " " + CoordToken(points[i]);
        }
        const auto reply = client.Command(feed);
        if (reply.size() != 1 || reply[0].rfind("OK fed=", 0) != 0) {
          ++failures;
          return;
        }
        off = end;
      }
      auto sample = client.Command("SAMPLE " + tenant + " q=3");
      if (sample.size() != 4 || sample.back() != "OK") {
        ++failures;
        return;
      }
      sample.pop_back();
      server_samples[c] = std::move(sample);
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(server->registry()->tenant_count(), size_t{kClients});
  EXPECT_GE(server->sessions_accepted(), size_t{kClients});

  // Each tenant's samples match its own direct pool — concurrency never
  // leaked one tenant's stream into another.
  for (int c = 0; c < kClients; ++c) {
    SamplerOptions opts;
    opts.dim = 2;
    opts.alpha = 0.8;
    opts.seed = static_cast<uint64_t>(100 + c);
    opts.expected_stream_length = kN;
    auto pool = ShardedSwSamplerPool::Create(opts, 400, 2);
    ASSERT_TRUE(pool.ok());
    const auto points = Clustered(kN, 40, 1000 + c);
    pool.value().FeedBorrowed(Span<const Point>(points.data(), kN));
    pool.value().Drain();
    Xoshiro256pp rng(
        SplitMix64(static_cast<uint64_t>(100 + c) ^ kQuerySeedSalt));
    std::vector<std::string> expected;
    for (int q = 0; q < 3; ++q) {
      const auto s = pool.value().SampleLatest(&rng);
      ASSERT_TRUE(s.has_value());
      expected.push_back("ITEM " +
                         FormatSampleLine(s->point, s->stream_index));
    }
    EXPECT_EQ(server_samples[c], expected) << "tenant t" << c;
  }
  started.value()->Shutdown();
}

TEST(ServeConcurrencyTest, ConcurrentCreatesOfOneNameAdmitExactlyOne) {
  // Regression: Create used to check-then-build-then-insert, so two
  // racing CREATEs of one name could both run the build (and, with
  // recover=1, both rebase the same on-disk checkpoint chain). The name
  // is now reserved under the registry lock before any work: exactly
  // one racer wins, every other gets FailedPrecondition.
  TenantRegistry registry(TenantRegistry::Options{});
  constexpr int kRacers = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    threads.emplace_back([&] {
      CreateParams params;
      params.dim = 1;
      params.alpha = 0.5;
      params.window = 100;
      params.expected_m = 1 << 12;
      if (registry.Create("shared", params).ok()) ++ok_count;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 1);
  EXPECT_EQ(registry.tenant_count(), 1u);
}

TEST(ServeConcurrencyTest, CreateOfAClosingNameWaitsForTheFinalCut) {
  // Regression: Close used to free the name before its final cut, so a
  // CREATE … recover=1 could recover the directory (and cut into it)
  // while the closing tenant still had a feed in flight. Here a blocking
  // digest sink holds the tenant lock with 300 points fed and 200 on
  // disk; CLOSE waits behind it. The name stays taken until the final
  // cut returns, and the tenant recovered afterwards holds all 300.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("rl0_closing_" + std::to_string(static_cast<long>(::getpid())));
  fs::remove_all(root);
  TenantRegistry::Options options;
  options.fleet_threads = 2;
  options.checkpoint_root = root.string();
  TenantRegistry registry(options);
  CreateParams params;
  params.dim = 2;
  params.alpha = 0.8;
  params.window = 1000;
  params.checkpoint = true;
  ASSERT_TRUE(registry.Create("x", params).ok());
  const auto points = Clustered(300, 20, 77);
  ASSERT_TRUE(registry
                  .Feed("x", std::vector<Point>(points.begin(),
                                                points.begin() + 200))
                  .ok());
  ASSERT_TRUE(registry.Flush("x").ok());  // the directory recovers 200

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> blocked_once{false};
  const auto sub = ParseCommand("SUBSCRIBE x digest every=300");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(registry
                  .Subscribe("x", sub.value(), /*owner=*/1,
                             [&](const std::string&) {
                               if (!blocked_once.exchange(true)) {
                                 entered.set_value();
                                 released.wait();
                               }
                               return true;
                             })
                  .ok());
  std::thread feeder([&] {
    EXPECT_TRUE(registry
                    .Feed("x", std::vector<Point>(points.begin() + 200,
                                                  points.end()))
                    .ok());
  });
  entered.get_future().wait();
  std::thread closer([&] { EXPECT_TRUE(registry.Close("x").ok()); });
  // Close unregisters the tenant, then queues on its lock.
  while (registry.tenant_count() != 0) std::this_thread::yield();

  CreateParams recover = params;
  recover.recover = true;
  EXPECT_FALSE(registry.Create("x", recover).ok());

  release.set_value();
  feeder.join();
  closer.join();
  const Status created = registry.Create("x", recover);
  ASSERT_TRUE(created.ok()) << created.ToString();
  const auto stats = registry.StatsLines("x");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value()[0].find(" points=300 "), std::string::npos)
      << stats.value()[0];
  registry.CloseAll();
  fs::remove_all(root);
}

TEST(ServeConcurrencyTest, ConcurrentFeedersToOneTenantSerialize) {
  const std::string path = TestSocketPath("conc2");
  Server::Options options;
  options.unix_path = path;
  options.fleet_threads = 2;
  auto started = Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();

  {
    TestClient admin(path);
    ASSERT_TRUE(admin.connected());
    ASSERT_EQ(admin.Command("CREATE shared dim=1 alpha=0.5 window=100000"),
              std::vector<std::string>{"OK"});
  }

  const int kFeeders = 4;
  const int kBatches = 50;
  const int kPerBatch = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> feeders;
  for (int f = 0; f < kFeeders; ++f) {
    feeders.emplace_back([&, f] {
      TestClient client(path);
      if (!client.connected()) {
        ++failures;
        return;
      }
      char token[48];
      for (int b = 0; b < kBatches; ++b) {
        std::string feed = "FEED shared";
        for (int i = 0; i < kPerBatch; ++i) {
          // Distinct values per feeder so every point is a new group.
          std::snprintf(token, sizeof(token), " %d",
                        1000000 * f + b * kPerBatch + i);
          feed += token;
        }
        const auto reply = client.Command(feed);
        if (reply != std::vector<std::string>{"OK fed=20"}) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : feeders) t.join();
  ASSERT_EQ(failures.load(), 0);

  TestClient check(path);
  ASSERT_TRUE(check.connected());
  const auto stats = check.Command("STATS shared");
  ASSERT_EQ(stats.size(), 2u);
  char want[32];
  std::snprintf(want, sizeof(want), "points=%d",
                kFeeders * kBatches * kPerBatch);
  EXPECT_NE(stats[0].find(want), std::string::npos) << stats[0];
  started.value()->Shutdown();
}

TEST(ServeConcurrencyTest, SlowSubscriberBackpressureBoundsTheQueue) {
  const std::string path = TestSocketPath("conc3");
  Server::Options options;
  options.unix_path = path;
  options.fleet_threads = 2;
  options.event_queue_depth = 8;  // tight bound to make overflow easy
  auto started = Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  Server* server = started.value().get();

  TestClient subscriber(path);
  ASSERT_TRUE(subscriber.connected());
  ASSERT_EQ(subscriber.Command("CREATE bp dim=1 alpha=0.5 window=100000"),
            std::vector<std::string>{"OK"});
  const auto sub = subscriber.Command("SUBSCRIBE bp digest every=1");
  ASSERT_EQ(sub.size(), 1u);
  ASSERT_EQ(sub[0].rfind("OK id=", 0), 0u);

  // Every fed point fires one event at the subscriber. The feeder sends
  // far more events than the queue holds while the subscriber reads
  // slowly: the feeder must stall (backpressure), never the server
  // buffer unboundedly.
  const int kEvents = 120;
  std::thread feeder([&] {
    TestClient client(path);
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < kEvents; ++i) {
      const auto reply =
          client.Command("FEED bp " + std::to_string(i), 30000);
      ASSERT_EQ(reply, std::vector<std::string>{"OK fed=1"}) << i;
    }
  });

  // Drain slowly: a couple of events per poll round.
  size_t seen = 0;
  while (seen < kEvents) {
    ASSERT_TRUE(subscriber.WaitForEvents(seen + 2, 30000))
        << "stalled at " << seen;
    seen = subscriber.events().size();
    // Pacing only — WaitForEvents above is the actual synchronization.
    std::this_thread::sleep_for(  // sync-lint: allow(sleep)
        std::chrono::milliseconds(2));
  }
  feeder.join();

  EXPECT_EQ(subscriber.events().size(), size_t{kEvents});
  // Events arrive in stream order.
  for (size_t i = 0; i < subscriber.events().size(); ++i) {
    EXPECT_NE(subscriber.events()[i][0].find("digest"), std::string::npos);
  }
  // The allocation bound: no session queue ever held more than its cap.
  EXPECT_LE(server->MaxEventQueueDepth(), options.event_queue_depth);
  started.value()->Shutdown();
}

TEST(ServeConcurrencyTest, VanishedSubscriberDoesNotWedgeTheTenant) {
  const std::string path = TestSocketPath("conc4");
  Server::Options options;
  options.unix_path = path;
  options.fleet_threads = 2;
  options.event_queue_depth = 4;
  auto started = Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();

  {
    // Subscribe, then vanish without UNSUBSCRIBE: the closed socket
    // must drop the subscription instead of stalling the tenant.
    TestClient subscriber(path);
    ASSERT_TRUE(subscriber.connected());
    ASSERT_EQ(subscriber.Command("CREATE gone dim=1 alpha=0.5 window=1000"),
              std::vector<std::string>{"OK"});
    ASSERT_EQ(subscriber.Command("SUBSCRIBE gone digest every=1")[0].rfind(
                  "OK id=", 0),
              0u);
    subscriber.Close();
  }

  TestClient feeder(path);
  ASSERT_TRUE(feeder.connected());
  for (int i = 0; i < 50; ++i) {
    const auto reply =
        feeder.Command("FEED gone " + std::to_string(i), 30000);
    ASSERT_EQ(reply, std::vector<std::string>{"OK fed=1"}) << i;
  }
  const auto stats = feeder.Command("STATS gone");
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_NE(stats[0].find("points=50"), std::string::npos) << stats[0];
  started.value()->Shutdown();
}

TEST(ServeConcurrencyTest, ShutdownWithLiveSessionsIsOrderly) {
  const std::string path = TestSocketPath("conc5");
  Server::Options options;
  options.unix_path = path;
  options.fleet_threads = 2;
  auto started = Server::Start(options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();

  TestClient subscriber(path);
  ASSERT_TRUE(subscriber.connected());
  ASSERT_EQ(subscriber.Command("CREATE sd dim=1 alpha=0.5 window=1000"),
            std::vector<std::string>{"OK"});
  ASSERT_EQ(
      subscriber.Command("SUBSCRIBE sd digest every=10")[0].rfind("OK id=",
                                                                  0),
      0u);
  TestClient idle(path);
  ASSERT_TRUE(idle.connected());
  ASSERT_EQ(idle.Command("FEED sd 1 2 3 4 5"),
            std::vector<std::string>{"OK fed=5"});

  // Shutdown with two live sessions, one subscribed: must not deadlock.
  const auto t0 = std::chrono::steady_clock::now();
  started.value()->Shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed)
                .count(),
            10);

  // Both clients observe EOF.
  const auto r1 = subscriber.ReadUnit(2000);
  EXPECT_EQ(r1.back(), "<io error>");
  const auto r2 = idle.ReadUnit(2000);
  EXPECT_EQ(r2.back(), "<io error>");

  // Idempotent: a second Shutdown returns immediately.
  started.value()->Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace rl0

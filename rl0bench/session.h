// One served session: an rl0_serve child in the run directory, the
// feeder connection with its tenant created, and (for tenants with a
// standing query) a reader draining the subscriber connection.

#ifndef RL0BENCH_SESSION_H_
#define RL0BENCH_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "inputs.h"

namespace rl0bench {

/// Commands attempted and failed (ERR answers, timeouts, lost
/// connections) — the run's error ratio.
struct Counters {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
};

/// Relative to the run directory, which is the working directory.
constexpr const char* kSocketPath = "serve.sock";
constexpr const char* kCheckpointRoot = "ckpt";

/// Longest wait for one command's answer before it counts as timed out.
constexpr double kCommandTimeoutS = 60.0;

class ServedSession {
 public:
  /// Removes any socket and checkpoint directory a previous session left.
  ServedSession() { RemoveFiles(); }
  ~ServedSession();
  ServedSession(const ServedSession&) = delete;
  ServedSession& operator=(const ServedSession&) = delete;

  /// Spawns the server and CREATEs the workload's tenant; *seconds is the
  /// time from spawn to the CREATE's OK.
  bool Start(const Workload& w, const std::string& serve_binary,
             Counters* counters, double* seconds, std::string* error);

  /// Sends `line` on the feeder connection and waits for its answer.
  /// False on ERR, timeout or a lost connection (all counted failed).
  bool RoundTrip(const std::string& line, std::vector<std::string>* data,
                 std::string* error);

  ServerProcess* server() { return server_.get(); }
  Conn* feeder() { return feeder_.get(); }

  /// Checkpoint directory of the workload tenant.
  static std::string TenantCheckpointDir();

 private:
  static void RemoveFiles();
  Counters* counters_ = nullptr;
  std::unique_ptr<ServerProcess> server_;
  std::unique_ptr<Conn> feeder_;
};

/// Reads a subscriber connection on its own thread: counts EVENT blocks
/// and the OK/ERR answers to the commands sent on it.
class SubscriberReader {
 public:
  explicit SubscriberReader(std::unique_ptr<Conn> conn);
  ~SubscriberReader();
  SubscriberReader(const SubscriberReader&) = delete;
  SubscriberReader& operator=(const SubscriberReader&) = delete;

  /// Sends `line` and waits for its answer; false on ERR or timeout.
  bool RoundTrip(const std::string& line, Counters* counters,
                 std::string* error);

  uint64_t events() const { return events_.load(); }
  Conn* conn() { return conn_.get(); }

 private:
  void Loop();

  std::unique_ptr<Conn> conn_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t answers_ = 0;  // guarded by mu_
  uint64_t errors_ = 0;   // guarded by mu_
  bool closed_ = false;   // guarded by mu_
  std::atomic<uint64_t> events_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the fields it reads
};

}  // namespace rl0bench

#endif  // RL0BENCH_SESSION_H_

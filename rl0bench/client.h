// The client side of the served workloads: an rl0_serve child process and
// blocking unix-socket connections to it that count their wire bytes.

#ifndef RL0BENCH_CLIENT_H_
#define RL0BENCH_CLIENT_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rl0bench {

/// An rl0_serve child. The destructor stops it (SIGTERM, then SIGKILL
/// after a grace period) and reaps it, so no exit path leaves it running.
class ServerProcess {
 public:
  /// Spawns `binary args...` and waits up to `timeout_s` for its
  /// "listening" line. Returns null (and sets *error) on failure.
  static std::unique_ptr<ServerProcess> Start(
      const std::string& binary, const std::vector<std::string>& args,
      double timeout_s, std::string* error);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Stops and reaps the child (idempotent).
  void Stop();

  pid_t pid() const { return pid_; }

  /// Peak resident set (VmHWM) in bytes; 0 when unreadable.
  uint64_t PeakRssBytes() const;
  /// Bytes the child has passed to write-like syscalls (/proc/<pid>/io
  /// wchar); 0 when unreadable.
  uint64_t WriteCallBytes() const;

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}
  pid_t pid_;
  int stdout_fd_;
};

/// A blocking connection speaking the line protocol. One thread may send
/// while another reads.
class Conn {
 public:
  static std::unique_ptr<Conn> Connect(const std::string& path,
                                       std::string* error);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Send(const std::string& data);

  enum class Read { kLine, kTimeout, kClosed };
  /// Reads the next line (terminator stripped) within `timeout_s`.
  Read ReadLine(std::string* line, double timeout_s);

  /// Reads one response: data lines into *data, then the OK/ERR status
  /// line into *status. Returns kLine once the status line arrived.
  Read ReadResponse(std::vector<std::string>* data, std::string* status,
                    double timeout_s);

  uint64_t bytes_sent() const { return bytes_sent_.load(); }
  uint64_t bytes_received() const { return bytes_received_.load(); }

 private:
  explicit Conn(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
  size_t consumed_ = 0;
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
};

/// Total size of the regular files under `dir` (0 when absent).
uint64_t DirectoryBytes(const std::string& dir);

/// Resident set of this process in bytes (/proc/self/statm).
uint64_t SelfRssBytes();

}  // namespace rl0bench

#endif  // RL0BENCH_CLIENT_H_

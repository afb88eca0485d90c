#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

namespace rl0bench {

namespace {

int RemainingMillis(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

/// Value of "<key> <number>" in a /proc text file (first match).
uint64_t ProcField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    std::istringstream rest(line.substr(key.size()));
    uint64_t value = 0;
    rest >> value;
    return value;
  }
  return 0;
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    double timeout_s, std::string* error) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(out[0]);
    ::close(out[1]);
    return nullptr;
  }
  if (pid == 0) {
    // The server must not outlive a benchmark that dies abruptly.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, out[0]));
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::string seen;
  char buf[256];
  while (seen.find("listening") == std::string::npos ||
         seen.find('\n', seen.find("listening")) == std::string::npos) {
    pollfd pfd = {out[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, RemainingMillis(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) {
      *error = "rl0_serve did not report listening in time";
      return nullptr;
    }
    const ssize_t n = ::read(out[0], buf, sizeof(buf));
    if (n <= 0) {
      *error = "rl0_serve exited before listening";
      return nullptr;
    }
    seen.append(buf, static_cast<size_t>(n));
  }
  return server;
}

ServerProcess::~ServerProcess() { Stop(); }

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(15);
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  ::close(stdout_fd_);
}

uint64_t ServerProcess::PeakRssBytes() const {
  return ProcField("/proc/" + std::to_string(pid_) + "/status", "VmHWM:") *
         1024;
}

uint64_t ServerProcess::WriteCallBytes() const {
  return ProcField("/proc/" + std::to_string(pid_) + "/io", "wchar:");
}

std::unique_ptr<Conn> Conn::Connect(const std::string& path,
                                    std::string* error) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long";
    return nullptr;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<Conn>(new Conn(fd));
}

Conn::~Conn() { ::close(fd_); }

bool Conn::Send(const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  bytes_sent_ += data.size();
  return true;
}

Conn::Read Conn::ReadLine(std::string* line, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const size_t nl = buffer_.find('\n', consumed_);
    if (nl != std::string::npos) {
      size_t end = nl;
      if (end > consumed_ && buffer_[end - 1] == '\r') --end;
      line->assign(buffer_, consumed_, end - consumed_);
      consumed_ = nl + 1;
      if (consumed_ > 65536 && consumed_ * 2 > buffer_.size()) {
        buffer_.erase(0, consumed_);
        consumed_ = 0;
      }
      return Read::kLine;
    }
    pollfd pfd = {fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, RemainingMillis(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) return Read::kTimeout;
    if (ready < 0) return Read::kClosed;
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Read::kClosed;
    bytes_received_ += static_cast<uint64_t>(n);
    buffer_.append(buf, static_cast<size_t>(n));
  }
}

Conn::Read Conn::ReadResponse(std::vector<std::string>* data,
                              std::string* status, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::string line;
  for (;;) {
    const double left = SecondsBetween(Clock::now(), deadline);
    const Read r = ReadLine(&line, left > 0 ? left : 0.0);
    if (r != Read::kLine) return r;
    if (line.compare(0, 2, "OK") == 0 || line.compare(0, 3, "ERR") == 0) {
      *status = line;
      return Read::kLine;
    }
    if (data != nullptr) data->push_back(line);
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint64_t SelfRssBytes() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace rl0bench

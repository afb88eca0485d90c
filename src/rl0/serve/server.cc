#include "rl0/serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

namespace rl0 {
namespace serve {

namespace {

constexpr int kPollMillis = 200;
/// Rounds of unwritable poll() a live session tolerates before it is
/// dropped (~5 s); shrinks to one round during shutdown.
constexpr int kStallRounds = 25;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

/// Never closes `fd` — ownership stays with the caller, so the failure
/// path has exactly one close.
bool ListenOn(int fd) {
  return SetNonBlocking(fd) && ::listen(fd, 64) == 0;
}

}  // namespace

Server::Server(const Options& options) : options_(options) {
  TenantRegistry::Options reg;
  reg.fleet_threads = options.fleet_threads;
  reg.checkpoint_root = options.checkpoint_root;
  registry_ = std::make_unique<TenantRegistry>(reg);
}

Result<std::unique_ptr<Server>> Server::Start(const Options& options) {
  if (options.unix_path.empty() && options.tcp_port == 0) {
    return Status::InvalidArgument(
        "need a unix socket path and/or a TCP port");
  }
  std::unique_ptr<Server> server(new Server(options));
  const Status bound = server->Bind();
  if (!bound.ok()) return bound;
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

Status Server::Bind() {
  if (!options_.unix_path.empty()) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a crash
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        !ListenOn(fd)) {
      if (fd >= 0) ::close(fd);
      return Status::Internal("cannot listen on unix socket '" +
                              options_.unix_path + "': " +
                              std::strerror(errno));
    }
    unix_fd_ = fd;
  }
  if (options_.tcp_port != 0) {
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(options_.tcp_port > 0
                  ? static_cast<uint16_t>(options_.tcp_port)
                  : 0);  // -1 = ephemeral
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    if (fd < 0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0 ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        !ListenOn(fd)) {
      if (fd >= 0) ::close(fd);
      return Status::Internal(std::string("cannot listen on TCP: ") +
                              std::strerror(errno));
    }
    tcp_fd_ = fd;
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      tcp_port_ = ntohs(bound.sin_port);
    }
  }
  return Status::OK();
}

Server::~Server() { Shutdown(); }

void Server::Shutdown() {
  if (shutdown_.exchange(true)) {
    // Second caller: wait for the first to finish tearing down.
    while (!shut_down_done_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  // Flush tenants while subscribers are still connected: final trigger
  // fires and checkpoint cuts happen here, and live consumers receive
  // their last EVENT blocks. A consumer that stalls delivery is dropped
  // by its writer's shutdown-shrunk stall budget, so this cannot hang.
  registry_->CloseAll();
  std::vector<std::shared_ptr<Session>> sessions;
  {
    MutexLock lock(&sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    if (session->reader.joinable()) session->reader.join();
  }
  shut_down_done_.store(true);
}

void Server::ReapDone() {
  MutexLock lock(&sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  pollfd fds[2];
  while (!shutdown_.load()) {
    int n = 0;
    if (unix_fd_ >= 0) fds[n++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[n++] = {tcp_fd_, POLLIN, 0};
    const int ready = ::poll(fds, static_cast<nfds_t>(n), kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0) {
      ReapDone();
      continue;
    }
    for (int i = 0; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (fd >= 0) StartSession(fd);
    }
  }
}

void Server::StartSession(int fd) {
  if (!SetNonBlocking(fd)) {
    ::close(fd);
    return;
  }
  auto session = std::make_shared<Session>(options_.event_queue_depth);
  session->fd = fd;
  {
    MutexLock lock(&sessions_mu_);
    session->id = next_session_id_++;
    sessions_.push_back(session);
  }
  sessions_accepted_.fetch_add(1);
  session->writer = std::thread([this, session] { WriterLoop(session); });
  session->reader = std::thread([this, session] { ReaderLoop(session); });
}

void Server::NoteQueueDepth(size_t depth) {
  size_t seen = max_queue_depth_.load();
  while (depth > seen &&
         !max_queue_depth_.compare_exchange_weak(seen, depth)) {
  }
}

void Server::Respond(const std::shared_ptr<Session>& session,
                     std::string block) {
  if (session->out.Push(std::move(block))) {
    NoteQueueDepth(session->out.size());
  }
}

void Server::WriterLoop(const std::shared_ptr<Session>& session) {
  std::string block;
  bool dead = false;
  while (session->out.Pop(&block)) {
    size_t off = 0;
    int stalled = 0;
    while (!dead && off < block.size()) {
      pollfd pfd = {session->fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, kPollMillis);
      if (ready < 0 && errno != EINTR) {
        dead = true;
        break;
      }
      if (ready <= 0) {
        // Unwritable peer. During shutdown one stalled round is enough
        // to give up (Shutdown's CloseAll must not hang on a dead
        // subscriber); live sessions get the full budget.
        if (++stalled >= (shutdown_.load() ? 1 : kStallRounds)) dead = true;
        continue;
      }
      const ssize_t written =
          ::send(session->fd, block.data() + off, block.size() - off,
                 MSG_NOSIGNAL);
      if (written < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;
        }
        dead = true;
      } else {
        stalled = 0;
        off += static_cast<size_t>(written);
      }
    }
    if (dead) {
      // Unblock every producer stuck in Push (their sinks then return
      // false and the registry drops the subscriptions), discard the
      // backlog, and bail.
      session->out.Close();
      while (session->out.Pop(&block)) {
      }
      return;
    }
  }
}

void Server::ReaderLoop(const std::shared_ptr<Session>& session) {
  LineDecoder decoder(options_.max_line_bytes);
  char buf[4096];
  // One line string for the session: Next assigns into it, so a long
  // FEED line reuses its capacity instead of allocating per line.
  std::string line;
  bool open = true;
  while (open && !shutdown_.load()) {
    pollfd pfd = {session->fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(session->fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // EOF
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;
      }
      break;
    }
    decoder.Append(buf, static_cast<size_t>(n));
    for (;;) {
      const LineDecoder::Event event = decoder.Next(&line);
      if (event == LineDecoder::Event::kNone) break;
      if (event == LineDecoder::Event::kOversized) {
        Respond(session, "ERR line too long\n");
        continue;
      }
      if (!HandleLine(session, line)) {
        open = false;
        break;
      }
    }
  }
  // Teardown: the registry must stop firing into this session before
  // the queue closes for good (sinks racing the close just get false).
  registry_->DropOwner(session->id);
  session->out.Close();
  if (session->writer.joinable()) session->writer.join();
  ::close(session->fd);
  session->done.store(true);
}

bool Server::HandleLine(const std::shared_ptr<Session>& session,
                        const std::string& line) {
  Result<Command> parsed = ParseCommand(line);
  if (!parsed.ok()) {
    Respond(session, "ERR " + parsed.status().message() + "\n");
    return true;
  }
  Command cmd = std::move(parsed).value();
  switch (cmd.type) {
    case CommandType::kPing:
      Respond(session, "OK pong\n");
      return true;
    case CommandType::kQuit:
      Respond(session, "OK bye\n");
      return false;
    case CommandType::kCreate: {
      const Status status = registry_->Create(cmd.tenant, cmd.create);
      Respond(session, status.ok() ? "OK\n"
                                   : "ERR " + status.message() + "\n");
      return true;
    }
    case CommandType::kFeed:
    case CommandType::kFeedStamped: {
      const size_t count = cmd.points.size();
      const Status status =
          cmd.type == CommandType::kFeed
              ? registry_->Feed(cmd.tenant, std::move(cmd.points))
              : registry_->FeedStamped(cmd.tenant, std::move(cmd.points),
                                       std::move(cmd.stamps));
      if (!status.ok()) {
        Respond(session, "ERR " + status.message() + "\n");
        return true;
      }
      char tail[48];
      std::snprintf(tail, sizeof(tail), "OK fed=%zu\n", count);
      Respond(session, tail);
      return true;
    }
    case CommandType::kSample: {
      auto lines = registry_->Sample(cmd.tenant, cmd.queries, cmd.seed_set,
                                     cmd.seed);
      if (!lines.ok()) {
        Respond(session, "ERR " + lines.status().message() + "\n");
        return true;
      }
      std::string block;
      for (const std::string& item : lines.value()) {
        block += "ITEM " + item + "\n";
      }
      block += "OK\n";
      Respond(session, std::move(block));
      return true;
    }
    case CommandType::kF0: {
      auto data = registry_->F0Line(cmd.tenant);
      if (!data.ok()) {
        Respond(session, "ERR " + data.status().message() + "\n");
        return true;
      }
      Respond(session, data.value() + "\nOK\n");
      return true;
    }
    case CommandType::kSubscribe: {
      // The sink must not keep the session alive in a cycle: it owns a
      // shared_ptr to the Session only, and DropOwner severs it when
      // the session ends.
      auto sink_session = session;
      auto self = this;
      auto id = registry_->Subscribe(
          cmd.tenant, cmd, session->id,
          [self, sink_session](const std::string& block) {
            if (!sink_session->out.Push(block)) return false;
            self->NoteQueueDepth(sink_session->out.size());
            return true;
          });
      if (!id.ok()) {
        Respond(session, "ERR " + id.status().message() + "\n");
        return true;
      }
      char tail[48];
      std::snprintf(tail, sizeof(tail), "OK id=%" PRIu64 "\n", id.value());
      Respond(session, tail);
      return true;
    }
    case CommandType::kUnsubscribe: {
      const Status status = registry_->Unsubscribe(cmd.tenant, cmd.sub_id);
      Respond(session, status.ok() ? "OK\n"
                                   : "ERR " + status.message() + "\n");
      return true;
    }
    case CommandType::kFlush: {
      const Status status = registry_->Flush(cmd.tenant);
      Respond(session, status.ok() ? "OK\n"
                                   : "ERR " + status.message() + "\n");
      return true;
    }
    case CommandType::kStats: {
      auto lines = registry_->StatsLines(cmd.tenant);
      if (!lines.ok()) {
        Respond(session, "ERR " + lines.status().message() + "\n");
        return true;
      }
      std::string block;
      for (const std::string& stat : lines.value()) {
        block += stat + "\n";
      }
      block += "OK\n";
      Respond(session, std::move(block));
      return true;
    }
    case CommandType::kClose: {
      const Status status = registry_->Close(cmd.tenant);
      Respond(session, status.ok() ? "OK\n"
                                   : "ERR " + status.message() + "\n");
      return true;
    }
  }
  Respond(session, "ERR internal: unhandled command\n");
  return true;
}

}  // namespace serve
}  // namespace rl0

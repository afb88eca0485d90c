#include "session.h"

#include <chrono>
#include <filesystem>
#include <thread>

#include "common.h"

namespace rl0bench {

ServedSession::~ServedSession() {
  feeder_.reset();
  if (server_ != nullptr) server_->Stop();
  RemoveFiles();
}

void ServedSession::RemoveFiles() {
  std::error_code ec;
  std::filesystem::remove(kSocketPath, ec);
  std::filesystem::remove_all(kCheckpointRoot, ec);
}

std::string ServedSession::TenantCheckpointDir() {
  return std::string(kCheckpointRoot) + "/" + kTenant;
}

bool ServedSession::Start(const Workload& w, const std::string& serve_binary,
                          Counters* counters, double* seconds,
                          std::string* error) {
  counters_ = counters;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::string> args = {"--unix", kSocketPath, "--threads",
                                   std::to_string(threads)};
  if (w.create.checkpoint) {
    args.push_back("--checkpoint-dir");
    args.push_back(kCheckpointRoot);
  }
  const auto start = Clock::now();
  server_ = ServerProcess::Start(serve_binary, args, 30.0, error);
  if (server_ == nullptr) return false;
  feeder_ = Conn::Connect(kSocketPath, error);
  if (feeder_ == nullptr) return false;
  if (!RoundTrip(w.create_line, nullptr, error)) return false;
  *seconds = SecondsBetween(start, Clock::now());
  return true;
}

bool ServedSession::RoundTrip(const std::string& line,
                              std::vector<std::string>* data,
                              std::string* error) {
  ++counters_->attempted;
  std::string status;
  if (!feeder_->Send(line)) {
    ++counters_->failed;
    *error = "send failed";
    return false;
  }
  const Conn::Read r = feeder_->ReadResponse(data, &status, kCommandTimeoutS);
  if (r != Conn::Read::kLine) {
    ++counters_->failed;
    *error = r == Conn::Read::kTimeout ? "timed out" : "connection lost";
    return false;
  }
  if (status.compare(0, 2, "OK") != 0) {
    ++counters_->failed;
    *error = status;
    return false;
  }
  return true;
}

SubscriberReader::SubscriberReader(std::unique_ptr<Conn> conn)
    : conn_(std::move(conn)), thread_([this] { Loop(); }) {}

SubscriberReader::~SubscriberReader() {
  stop_ = true;
  thread_.join();
}

void SubscriberReader::Loop() {
  std::string line;
  bool in_event = false;
  while (!stop_) {
    const Conn::Read r = conn_->ReadLine(&line, 0.05);
    if (r == Conn::Read::kTimeout) continue;
    if (r == Conn::Read::kClosed) break;
    if (in_event) {
      in_event = line != "END";
      continue;
    }
    if (line.compare(0, 6, "EVENT ") == 0) {
      ++events_;
      in_event = true;
      continue;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++answers_;
    if (line.compare(0, 2, "OK") != 0) ++errors_;
    cv_.notify_all();
  }
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

bool SubscriberReader::RoundTrip(const std::string& line, Counters* counters,
                                 std::string* error) {
  ++counters->attempted;
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t want = answers_ + 1;
  const uint64_t errors_before = errors_;
  if (!conn_->Send(line)) {
    ++counters->failed;
    *error = "subscriber send failed";
    return false;
  }
  const bool answered = cv_.wait_for(
      lock, std::chrono::duration<double>(kCommandTimeoutS),
      [&] { return answers_ >= want || closed_; });
  if (!answered || answers_ < want || errors_ != errors_before) {
    ++counters->failed;
    *error = "subscriber command '" + line.substr(0, line.size() - 1) +
             "' failed";
    return false;
  }
  return true;
}

}  // namespace rl0bench

#include "rl0/serve/checkpointer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

namespace rl0 {
namespace serve {

namespace {

/// The scratch name a file is written under before it is renamed into
/// place. Readers never open it, so crash debris there is ignored.
std::string TempName(const std::string& path) { return path + ".tmp"; }

std::string JournalName(const std::string& dir) {
  return dir + "/journal.log";
}

/// Writes all `size` bytes to `fd`, resuming after partial writes and
/// EINTR. Returns 0, or the errno of the write that failed.
int WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return n < 0 ? errno : EIO;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return 0;
}

bool WriteTemp(const std::string& path, const std::string& bytes) {
  const int fd = ::open(TempName(path).c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return false;
  const bool written = WriteAll(fd, bytes.data(), bytes.size()) == 0;
  // close() can report a write error of its own (ENOSPC, EIO); a temp
  // file that did not close cleanly must never be renamed into place.
  return ::close(fd) == 0 && written;
}

bool RenameTemp(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(TempName(path), path, ec);
  return !ec;
}

}  // namespace

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  return WriteTemp(path, bytes) && RenameTemp(path);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::InvalidArgument("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read failed: " + path);
  return bytes;
}

std::string CheckpointFileName(const std::string& dir, size_t index,
                               bool full) {
  char name[48];
  std::snprintf(name, sizeof(name), "ckpt-%06zu.%s", index,
                full ? "full" : "delta");
  return dir + "/" + name;
}

Result<LoadedChain> LoadCheckpointChain(const std::string& dir) {
  LoadedChain out;
  auto base = ReadFileBytes(CheckpointFileName(dir, 0, /*full=*/true));
  if (!base.ok()) return base.status();
  out.checkpoint = std::move(base).value();
  for (size_t i = 1;; ++i) {
    auto delta = ReadFileBytes(CheckpointFileName(dir, i, /*full=*/false));
    if (!delta.ok()) break;  // end of the chain
    std::string folded;
    const Status status =
        FoldPoolDelta(out.checkpoint, delta.value(), &folded);
    if (!status.ok()) {
      return Status::Internal("folding " +
                              CheckpointFileName(dir, i, false) + ": " +
                              status.ToString());
    }
    out.checkpoint = std::move(folded);
    ++out.deltas;
  }
  auto journal = ReadFileBytes(JournalName(dir));
  if (journal.ok()) {
    // Keep only the valid prefix: a torn tail must not be re-appended
    // to (the continuing writer would frame records after garbage).
    JournalContents contents;
    const Status status = ReadJournal(journal.value(), &contents);
    if (!status.ok()) {
      return Status::Internal("journal.log: " + status.ToString());
    }
    out.journal = journal.value().substr(0, contents.valid_bytes);
    out.journal_records = contents.records.size();
  }
  return out;
}

Result<std::unique_ptr<PoolCheckpointer>> PoolCheckpointer::Open(
    ShardedSwSamplerPool* pool, const std::string& dir, uint64_t every,
    size_t dim, const LoadedChain* recovered) {
  // Best-effort: the open cut reports a directory it cannot write.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (recovered == nullptr) {
    // Base before journal (see file comment): a crash between the two
    // removals leaves a directory that recovers nothing, never the
    // previous occupant's stream.
    for (const std::string& path :
         {CheckpointFileName(dir, 0, /*full=*/true), JournalName(dir)}) {
      std::filesystem::remove(path, ec);
      if (ec) {
        return Status::Internal("cannot remove '" + path +
                                "': " + ec.message());
      }
    }
  }
  std::unique_ptr<PoolCheckpointer> ckpt(new PoolCheckpointer(
      pool, dir, every, dim,
      recovered != nullptr ? recovered->journal : std::string(),
      recovered != nullptr ? recovered->journal_records : 0));
  const Status status = ckpt->Cut();
  if (!status.ok()) return status;
  return ckpt;
}

PoolCheckpointer::PoolCheckpointer(ShardedSwSamplerPool* pool,
                                   std::string dir, uint64_t every,
                                   size_t dim, std::string journal,
                                   uint64_t journal_records)
    : pool_(pool),
      dir_(std::move(dir)),
      every_(every),
      staged_(std::move(journal)),
      writer_(&staged_, dim, journal_records),
      // The open cut covers everything fed so far (a recovered pool's
      // whole stream): the cadence resumes at the next boundary past it.
      next_cut_(every == 0 ? 0 : (pool->points_fed() / every + 1) * every) {
  AttachJournal(pool_, &writer_);
}

PoolCheckpointer::~PoolCheckpointer() {
  pool_->SetJournalSink(nullptr);
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

Status PoolCheckpointer::MaybeCut() {
  if (every_ == 0 || pool_->points_fed() < next_cut_) return FlushJournal();
  while (pool_->points_fed() >= next_cut_) next_cut_ += every_;
  return Cut();
}

Status PoolCheckpointer::FlushJournal() {
  if (journal_fd_ < 0) {
    // The open cut writes the whole journal so far, which also drops
    // the torn tail a recovered journal may have had on disk.
    const std::string path = JournalName(dir_);
    if (!WriteFileBytes(path, staged_)) {
      return Status::Internal("cannot write '" + path + "'");
    }
    journal_fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (journal_fd_ < 0) {
      const int error = errno;
      return Status::Internal("cannot open '" + path +
                              "': " + std::strerror(error));
    }
    file_bytes_ = staged_.size();
    // The stage held the whole journal; from here on it holds one feed.
    staged_.clear();
    staged_.shrink_to_fit();
    return Status::OK();
  }
  // A failed append may have left part of a record behind: cut the file
  // back to its last complete record before appending again.
  if (append_failed_ &&
      ::ftruncate(journal_fd_, static_cast<off_t>(file_bytes_)) != 0) {
    const int error = errno;
    return Status::Internal("cannot truncate '" + JournalName(dir_) +
                            "': " + std::strerror(error));
  }
  const int error = WriteAll(journal_fd_, staged_.data(), staged_.size());
  append_failed_ = error != 0;
  if (append_failed_) {
    return Status::Internal("cannot append to '" + JournalName(dir_) +
                            "': " + std::strerror(error));
  }
  file_bytes_ += staged_.size();
  staged_.clear();
  return Status::OK();
}

Status PoolCheckpointer::Cut() {
  pool_->Drain();
  const uint64_t seq = writer_.next_seq();
  std::string blob;
  const bool full = chain_.empty();
  Status status = full ? CheckpointPool(pool_, seq, &blob)
                       : CheckpointPoolDelta(pool_, chain_, seq, &blob);
  if (status.ok() && !full) {
    std::string folded;
    status = FoldPoolDelta(chain_, blob, &folded);
    if (status.ok()) chain_ = std::move(folded);
  } else if (status.ok()) {
    chain_ = blob;
  }
  if (!status.ok()) return status;
  // Every file lands under its final name by rename, so a crash mid-write
  // leaves only a *.tmp file that LoadCheckpointChain never reads.
  const std::string name = CheckpointFileName(dir_, cuts_, full);
  const bool written = WriteTemp(name, blob);
  if (written && full) {
    // Deltas already on disk chain against an older base (a recovered
    // pool's pre-crash epoch, or a previous occupant of this directory).
    // Remove them after the new base is safely in its temp file and
    // before it replaces ckpt-000000.full: a crash in between leaves the
    // old base and the whole journal, which still recover exactly, and
    // never a new base next to foreign deltas.
    for (size_t i = 1;; ++i) {
      std::error_code ec;
      if (!std::filesystem::remove(CheckpointFileName(dir_, i, false), ec)) {
        break;
      }
    }
  }
  if (!written || !RenameTemp(name)) {
    return Status::Internal("cannot write checkpoint files in '" + dir_ +
                            "'");
  }
  status = FlushJournal();
  if (!status.ok()) return status;
  ++cuts_;
  return Status::OK();
}

}  // namespace serve
}  // namespace rl0

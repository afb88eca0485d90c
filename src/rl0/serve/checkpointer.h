// Durability plumbing shared by rl0_cli and the rl0_serve registry.
//
// Wraps core/checkpoint.h's journal and full pool checkpoint into the
// on-disk layout both front-ends speak:
//
//   <dir>/ckpt-000000.full     the latest cut: one full pool checkpoint
//   <dir>/journal.log          the fed-chunk journal (append-only)
//
// PoolCheckpointer journals every fed chunk and, at a configurable point
// cadence, cuts: it rewrites ckpt-000000.full with a full checkpoint of
// the pool at the journal's current sequence number. LoadCheckpointChain
// reads a directory back into {full checkpoint, journal valid-prefix}
// for RecoverPool, which replays the records at or above the
// checkpoint's sequence number. In the server each tenant created with
// ckpt=1 owns one PoolCheckpointer rooted at <checkpoint-root>/<tenant>.
//
// Full-only cuts: every cut writes the whole pool (no delta files). A
// delta cost more to cut than a full (it was then folded onto an
// in-memory base so the next delta had one) and was nearly as large
// under churn. Delta files an older build left in a directory
// (ckpt-NNNNNN.delta) are never read; each cut removes them before its
// rename.
//
// Open cut: PoolCheckpointer::Open cuts before it returns, so a
// directory recovers its tenant from the moment the tenant exists. A
// fresh open first removes the previous occupant's ckpt-000000.full and
// then its journal.log — in that order, so a crash at any point leaves
// either no base (nothing recovers) or the new one, never the old base
// with records to replay into the new tenant. A recovered open cuts a
// new ckpt-000000.full at the continuing journal sequence.
//
// Journal file: the open cut (re)creates journal.log as the whole
// journal so far — just the header for a fresh tenant, the recovered
// valid prefix for a recovered one (which drops a torn tail). From then
// on the file only grows: MaybeCut() and every later cut append the
// records staged since the last append, so once MaybeCut() returns,
// every fed chunk is in journal.log. (Nothing rotates it yet: recovery
// skips, but still reads, the records below the checkpoint's sequence
// number.)
//
// Atomic files: the checkpoint file, and journal.log at its creation,
// is written to `<name>.tmp` and renamed over `<name>`, so a process
// killed mid-cut leaves the previous cut intact plus a *.tmp file that
// LoadCheckpointChain ignores. A process killed mid-append leaves a torn
// journal record, which ReadJournal's valid prefix ends before. Syncing
// to stable storage (fsync) is out of scope: a rename or an append
// survives a process crash, not necessarily a power loss.

#ifndef RL0_SERVE_CHECKPOINTER_H_
#define RL0_SERVE_CHECKPOINTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "rl0/core/checkpoint.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/util/status.h"

namespace rl0 {
namespace serve {

/// Writes `bytes` to `<path>.tmp`, then renames it over `path`, so a
/// reader sees either the old file or the complete new one — never a
/// torn write. Returns false on any I/O failure, including one that
/// only surfaces when the file is closed.
bool WriteFileBytes(const std::string& path, const std::string& bytes);

/// Reads a whole file as bytes.
Result<std::string> ReadFileBytes(const std::string& path);

/// "<dir>/ckpt-NNNNNN.full" / ".delta" (cuts write only index 0, full;
/// the delta names are what an older build's chain left behind).
std::string CheckpointFileName(const std::string& dir, size_t index,
                               bool full);

/// A checkpoint directory read back as recovery inputs.
struct LoadedChain {
  /// ckpt-000000.full — feed to RecoverPool.
  std::string checkpoint;
  /// The journal's valid prefix (already truncated at the first torn
  /// record; empty when no journal was flushed).
  std::string journal;
  /// Records in `journal` — the next_seq a continuing JournalWriter
  /// must start from.
  uint64_t journal_records = 0;
};

/// Loads <dir>'s checkpoint and journal. Fails when ckpt-000000.full is
/// missing or the journal is unreadable; a missing journal is not an
/// error (recovery from the last cut alone is exact). Corruption in the
/// checkpoint itself surfaces in RecoverPool.
Result<LoadedChain> LoadCheckpointChain(const std::string& dir);

/// Journals every chunk fed to `pool` and cuts under `dir`: a full
/// checkpoint at Open, then one every `every` points (plus explicit
/// Finish() cuts), each replacing ckpt-000000.full. MaybeCut() appends
/// the chunks fed since the previous call to journal.log, so a process
/// crash loses no chunk fed before a MaybeCut() that returned OK.
class PoolCheckpointer {
 public:
  /// Attaches the journal tap to `pool` and makes the open cut (see file
  /// comment). `recovered` is the chain `pool` was recovered from, or
  /// null for a fresh tenant (whose pool must not have been fed yet).
  /// `dim` is the point dimensionality the journal frames. `every` == 0
  /// means only explicit Finish() cuts.
  static Result<std::unique_ptr<PoolCheckpointer>> Open(
      ShardedSwSamplerPool* pool, const std::string& dir, uint64_t every,
      size_t dim, const LoadedChain* recovered);

  /// Detaches the journal tap.
  ~PoolCheckpointer();

  PoolCheckpointer(const PoolCheckpointer&) = delete;
  PoolCheckpointer& operator=(const PoolCheckpointer&) = delete;

  /// Call after feeding; cuts when the fed count crossed the next
  /// `every` boundary, and otherwise appends the staged journal records
  /// to journal.log.
  Status MaybeCut();

  /// An explicit cut (end of stream, FLUSH, tenant CLOSE).
  Status Finish() { return Cut(); }

  size_t cuts() const { return cuts_; }
  /// The journal's length: bytes in journal.log plus any staged ones.
  size_t journal_bytes() const { return file_bytes_ + staged_.size(); }

 private:
  /// Continues `journal` (`journal_records` records) — empty and 0 for a
  /// fresh tenant, whose writer then stages the journal header.
  PoolCheckpointer(ShardedSwSamplerPool* pool, std::string dir,
                   uint64_t every, size_t dim, std::string journal,
                   uint64_t journal_records);

  Status Cut();
  /// Creates journal.log from the staged bytes (open cut), or appends
  /// them to it; clears the stage on success.
  Status FlushJournal();

  ShardedSwSamplerPool* pool_;
  std::string dir_;
  uint64_t every_;
  std::string staged_;  // declared before writer_ (writer appends here)
  JournalWriter writer_;
  uint64_t next_cut_;
  size_t cuts_ = 0;
  int journal_fd_ = -1;  // journal.log, open for append after the open cut
  size_t file_bytes_ = 0;  // bytes appended to journal.log so far
  bool append_failed_ = false;  // journal.log may end in a partial record
};

}  // namespace serve
}  // namespace rl0

#endif  // RL0_SERVE_CHECKPOINTER_H_

// Durability plumbing shared by rl0_cli and the rl0_serve registry.
//
// Wraps core/checkpoint.h's journal + incremental-checkpoint primitives
// into the on-disk layout both front-ends speak:
//
//   <dir>/ckpt-000000.full     the base full checkpoint
//   <dir>/ckpt-NNNNNN.delta    incremental cuts, NNNNNN = 1, 2, ...
//   <dir>/journal.log          the fed-chunk journal (append-only)
//
// PoolCheckpointer journals every fed chunk and cuts the chain at a
// configurable point cadence; LoadCheckpointChain folds a directory back
// into {full checkpoint, journal valid-prefix} for RecoverPool. In the
// server each tenant created with ckpt=1 owns one PoolCheckpointer
// rooted at <checkpoint-root>/<tenant>.
//
// Open cut: PoolCheckpointer::Open cuts the chain before it returns,
// so a directory recovers its tenant from the moment the tenant exists.
// A fresh open first removes the previous occupant's ckpt-000000.full and
// then its journal.log — in that order, so a crash at any point leaves
// either no base (nothing recovers) or the new one, never the old base
// with records to replay into the new tenant. A recovered open
// cuts a new ckpt-000000.full at the continuing journal sequence: a
// delta can only be cut against the dirty-tracking epoch a *full* cut
// marked on the live shard tables (core/checkpoint.h), and a recovered
// pool has none. Either full cut deletes the stale delta files.
//
// Journal file: the open cut (re)creates journal.log as the whole
// journal so far — just the header for a fresh tenant, the recovered
// valid prefix for a recovered one (which drops a torn tail). From then
// on the file only grows: MaybeCut() and every later cut append the
// records staged since the last append, so once MaybeCut() returns,
// every fed chunk is in journal.log.
//
// Atomic files: every checkpoint file, and journal.log at its creation,
// is written to `<name>.tmp` and renamed over `<name>`, so a process
// killed mid-cut leaves the previous chain intact plus a *.tmp file that
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

/// "<dir>/ckpt-NNNNNN.full" / ".delta".
std::string CheckpointFileName(const std::string& dir, size_t index,
                               bool full);

/// A checkpoint directory folded back to recovery inputs.
struct LoadedChain {
  /// ckpt-000000.full with every on-disk delta folded in — feed to
  /// RecoverPool.
  std::string checkpoint;
  /// The journal's valid prefix (already truncated at the first torn
  /// record; empty when no journal was flushed).
  std::string journal;
  /// Records in `journal` — the next_seq a continuing JournalWriter
  /// must start from.
  uint64_t journal_records = 0;
  /// Delta files folded (introspection / status lines).
  size_t deltas = 0;
};

/// Loads and folds <dir>'s chain. Fails when ckpt-000000.full is
/// missing/corrupt or a delta refuses to fold; a missing journal is not
/// an error (recovery from the last cut alone is exact).
Result<LoadedChain> LoadCheckpointChain(const std::string& dir);

/// Journals every chunk fed to `pool` and cuts the checkpoint chain
/// under `dir`: a full cut at Open, then deltas every `every` points
/// (plus explicit Finish() cuts). MaybeCut() appends the chunks fed since
/// the previous call to journal.log, so a process crash loses no chunk
/// fed before a MaybeCut() that returned OK.
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
  std::string chain_;  // folded full checkpoint the next delta chains on
  uint64_t next_cut_;
  size_t cuts_ = 0;
  int journal_fd_ = -1;  // journal.log, open for append after the open cut
  size_t file_bytes_ = 0;  // bytes appended to journal.log so far
  bool append_failed_ = false;  // journal.log may end in a partial record
};

}  // namespace serve
}  // namespace rl0

#endif  // RL0_SERVE_CHECKPOINTER_H_

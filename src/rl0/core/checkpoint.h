// Journaled crash recovery and incremental checkpoints.
//
// core/snapshot.h serializes one sampler in full. This layer adds the two
// pieces a long-running stream processor needs on top of that:
//
//  1. *Delta snapshots.* A full cut (SnapshotSamplerFullSW) marks a
//     dirty-tracking epoch on the sliding-window sampler's group tables;
//     a delta cut (SnapshotSamplerDeltaSW) then serializes only the
//     records touched since the previous cut, plus the live-id order of
//     every record — which fully determines the sampler's state relative
//     to the base (deletions are implicit: an id absent from the order
//     list is gone; ids are monotone and never reused).
//     ApplySamplerDeltaSW folds a delta onto its base and produces a blob
//     *byte-identical* to the full snapshot a contemporaneous
//     SnapshotSamplerSW call would have written — so a folded chain is
//     self-validating against the full format's trailing checksum, and
//     deltas chain by construction: each delta records the trailing
//     checksum of the exact base it was cut against
//     (SnapshotChainChecksum) and refuses to fold onto anything else.
//     Infinite-window samplers have no delta: they checkpoint only as a
//     full SnapshotSampler blob (core/snapshot.h).
//
//  2. *A stamped journal.* The pool's IngestPool calls its tap
//     (installed with ShardedSwSamplerPool::SetJournalSink) inside the
//     feed lock that assigns each chunk's index base, so tap order is
//     index-base order; JournalWriter turns the tap into an append-only
//     record of fed chunks — length-framed, CRC'd per record, torn-tail
//     tolerant (ReadJournal stops at the first bad byte and returns the
//     valid prefix). CheckpointPool cuts a pool-wide checkpoint carrying
//     the journal sequence number it is consistent with; RecoverPool
//     restores the shards and replays every journal record at or above
//     that sequence number through the ordinary feed path.
//
// Recovery contract (the bit-identity guarantee): because shard s of S
// consumes the points at global positions ≡ s (mod S) — the
// global-residue partition — replay is chunking-invariant by
// construction, and the recovered pool's per-shard snapshot bytes and
// lockstep query draws equal those of a pool that processed the same
// fed prefix without interruption *from the same restore point*. (After
// continued feeding, slot *layout* may differ from a never-restored
// twin — freed slots recycle in LIFO order and a restored table is
// packed dense — so byte equality is pinned against a reference sharing
// the restore point; semantic equality of query draws holds regardless.
// The Section 2.3 reservoir coin stream re-seeds on restore exactly as
// core/snapshot.h documents.)
//
// Durability boundary: the journal records *fed* chunks. On the
// bounded-lateness path only the chunks *released* by the reorder stage
// are fed, so points still buffered in the reorder heap at a crash are
// not durable — they were never acknowledged to any downstream state.
// The checkpoint header carries the stage's lateness bound and release
// frontier, and RecoverPool re-arms both (ReorderStage::NoteFrontier),
// so a restored pool judges re-offered stamps late exactly as the
// crashed pool would have: nothing already released or late-dropped can
// be re-admitted, and within-bound disorder is still reordered.

#ifndef RL0_CORE_CHECKPOINT_H_
#define RL0_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rl0/core/sharded_pool.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/geom/point.h"
#include "rl0/util/span.h"
#include "rl0/util/status.h"

namespace rl0 {

// ------------------------------------------------ sampler-level deltas

/// The trailing checksum of any blob produced by this layer or by
/// core/snapshot.h — the value deltas chain on. Returns 0 for blobs too
/// small to carry one.
uint64_t SnapshotChainChecksum(const std::string& blob);

/// Serializes `sampler` in full (byte-identical to SnapshotSamplerSW)
/// and marks the dirty-tracking epoch: the next delta cut reports only
/// records touched from this point on.
Status SnapshotSamplerFullSW(RobustL0SamplerSW* sampler, std::string* out);

/// Serializes only the records touched since the last Full/Delta cut,
/// plus each level's live-id order, chained to the base whose trailing
/// checksum is `base_checksum`; then marks a fresh epoch. The sampler
/// must have had a Full cut before (the epoch and the chain both start
/// there).
Status SnapshotSamplerDeltaSW(RobustL0SamplerSW* sampler,
                              uint64_t base_checksum, std::string* out);

/// Folds `delta` onto `base` (a full blob — from SnapshotSamplerFullSW or
/// a previous fold). `out` is byte-identical to the full snapshot a
/// contemporaneous SnapshotSamplerSW call would have produced. Fails if
/// either blob is corrupt, the base is not a sliding-window snapshot, or
/// the delta was cut against a different base.
Status ApplySamplerDeltaSW(const std::string& base, const std::string& delta,
                           std::string* out);

// ------------------------------------------------------------- journal

/// What one journal record is.
enum class JournalRecordType : uint8_t {
  /// A sequence-mode chunk: `count` points, stamped by global position.
  kPoints = 1,
  /// A time-mode chunk: `count` points with explicit stamps.
  kStamped = 2,
  /// A watermark broadcast (no points; see IngestPool::FeedWatermark).
  kWatermark = 3,
};

/// Appends length-framed, CRC'd records to a caller-owned byte buffer
/// (flush the buffer to storage at whatever cadence durability needs;
/// the caller may clear it after each flush). Construction on an empty
/// buffer writes the stream header, and nothing else ever does; to
/// continue a journal that survived a crash, truncate it to ReadJournal's
/// valid_bytes and construct with next_seq = the number of surviving
/// records. Not thread-safe: the pool's journal tap already serializes
/// sink calls.
class JournalWriter {
 public:
  JournalWriter(std::string* out, size_t dim, uint64_t next_seq = 0);

  /// Appends a sequence-mode chunk whose first point sits at global
  /// stream position `index_base`.
  void AppendPoints(Span<const Point> points, uint64_t index_base);
  /// Appends a time-mode chunk (stamps align with points).
  void AppendStamped(Span<const Point> points, Span<const int64_t> stamps,
                     uint64_t index_base);
  /// Appends a watermark broadcast; `index_base` is the global position
  /// the stream has reached (watermarks consume no indices).
  void AppendWatermark(int64_t watermark, uint64_t index_base);

  /// The sequence number the next record will carry.
  uint64_t next_seq() const { return next_seq_; }

 private:
  void BeginRecord(JournalRecordType type, uint64_t index_base,
                   uint64_t count, size_t* start);
  void EndRecord(size_t start);

  std::string* out_;
  size_t dim_;
  uint64_t next_seq_;
};

/// One decoded journal record.
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kPoints;
  uint64_t seq = 0;
  /// Global stream position of points[0] (point records), or the
  /// position the stream had reached (watermark records).
  uint64_t index_base = 0;
  std::vector<Point> points;
  std::vector<int64_t> stamps;
  int64_t watermark = 0;
};

/// The valid prefix of a journal byte stream.
struct JournalContents {
  /// Point dimensionality from the stream header (0 for an empty
  /// journal).
  size_t dim = 0;
  /// Records in sequence order (seq == position in this vector).
  std::vector<JournalRecord> records;
  /// Byte length of the valid prefix — truncate the buffer here before
  /// continuing it with a JournalWriter.
  size_t valid_bytes = 0;
};

/// Decodes the valid prefix of `journal`. Torn-tail tolerant: a record
/// cut short by a crash (or trailing garbage) ends the prefix without
/// error. An empty buffer is an empty journal. Fails only when the
/// stream header itself is present but not a journal header.
Status ReadJournal(const std::string& journal, JournalContents* out);

// ---------------------------------------------------- pool checkpoints

/// Cuts a full pool checkpoint: the stamp mode, counters, reorder
/// frontier and lateness bound, and a full snapshot of every shard
/// (marking each shard's dirty-tracking epoch, so CheckpointPoolDelta
/// can follow).
/// `journal_seq` is the journal sequence number this cut is consistent
/// with (the writer's next_seq() at a quiescent point): RecoverPool
/// replays records at or above it. Requires a drained pool with no
/// concurrent feeders (do NOT call from inside QuiescedRun — reading
/// points_fed there deadlocks; see IngestPool::QuiescedRun).
Status CheckpointPool(ShardedSwSamplerPool* pool, uint64_t journal_seq,
                      std::string* out);

/// Cuts an incremental pool checkpoint against `base` (a full pool
/// checkpoint — from CheckpointPool or FoldPoolDelta): a fresh header
/// plus one sampler delta per shard, each chained to the corresponding
/// shard blob inside `base`. Same quiescence requirements as
/// CheckpointPool.
Status CheckpointPoolDelta(ShardedSwSamplerPool* pool,
                           const std::string& base, uint64_t journal_seq,
                           std::string* out);

/// Folds a pool delta onto its base full checkpoint; `out` is
/// byte-identical to the full checkpoint a contemporaneous
/// CheckpointPool call would have produced.
Status FoldPoolDelta(const std::string& base, const std::string& delta,
                     std::string* out);

/// Rebuilds a pool from a full checkpoint (fold deltas first) and a
/// journal byte stream: restores every shard, re-latches the stamp
/// mode, re-arms the event watermark, lateness bound and reorder
/// frontier, then replays
/// every journal record with seq ≥ the checkpoint's journal sequence
/// number through the ordinary feed path — verifying global index
/// continuity and stamp monotonicity record by record — and drains.
/// The returned pool is quiescent and, per the recovery contract in the
/// file comment, bit-identical (snapshot bytes and lockstep query
/// draws) to an uninterrupted run over the same fed prefix from the
/// same restore point. The journal may extend past the crash point's
/// last complete record (torn tails are ignored) and may be empty.
Result<ShardedSwSamplerPool> RecoverPool(
    const std::string& checkpoint, const std::string& journal,
    const IngestPool::Options& pipeline_options = IngestPool::Options());

/// Installs `writer` as `pool`'s journal tap: every fed chunk and
/// watermark broadcast is appended before it enters the pipeline.
/// `writer` must outlive the pool's feeding (or a SetJournalSink(nullptr)).
void AttachJournal(ShardedSwSamplerPool* pool, JournalWriter* writer);

}  // namespace rl0

#endif  // RL0_CORE_CHECKPOINT_H_

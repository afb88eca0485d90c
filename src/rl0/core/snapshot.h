// Checkpoint / restore for the infinite-window sampler.
//
// Long-running stream processors need to survive restarts. SnapshotSampler
// serializes a RobustL0SamplerIW — options, rate level, counters, and the
// full accept/reject state — into a versioned binary blob;
// RestoreSampler rebuilds an equivalent sampler that continues the stream
// where the original left off.
//
// Exactness: the restored sampler is *bit-identical* in behaviour for the
// default fixed-representative mode (the grid, hash and stored state are
// fully reconstructed). In the Section 2.3 reservoir mode the restored
// instance re-seeds its reservoir coin stream (raw generator state is not
// exposed); the per-group reservoirs remain valid uniform samplers —
// future coins are still independent and fresh — but the exact sequence
// of reservoir replacements after restore differs from an uninterrupted
// run. Peak-space accounting round-trips: format version 2 serializes the
// space meter's peak watermark and the restore path re-arms it, so a
// restored sampler reports the same lifetime peak as the original.
// Version-1 blobs (which predate the field) are still accepted with the
// legacy behaviour — their peak restarts at the restored current size.
//
// The sliding-window hierarchy is checkpointable too (SnapshotSamplerSW /
// RestoreSamplerSW): every level's group records — including the
// Section 2.3 windowed reservoirs — are serialized; the same coin-stream
// re-seeding caveat applies to reservoir priorities and query-time
// randomness is caller-provided anyway.

#ifndef RL0_CORE_SNAPSHOT_H_
#define RL0_CORE_SNAPSHOT_H_

#include <string>

#include "rl0/core/iw_sampler.h"
#include "rl0/core/sw_sampler.h"
#include "rl0/util/status.h"

namespace rl0 {

/// Serializes `sampler` into `out` (cleared first).
Status SnapshotSampler(const RobustL0SamplerIW& sampler, std::string* out);

/// Rebuilds a sampler from a snapshot produced by SnapshotSampler.
/// Fails with kInvalidArgument on malformed, truncated or
/// version-incompatible input.
Result<RobustL0SamplerIW> RestoreSampler(const std::string& snapshot);

/// Serializes a sliding-window sampler into `out` (cleared first).
Status SnapshotSamplerSW(const RobustL0SamplerSW& sampler, std::string* out);

/// Rebuilds a sliding-window sampler from a SnapshotSamplerSW blob.
Result<RobustL0SamplerSW> RestoreSamplerSW(const std::string& snapshot);

class BinaryWriter;

/// Appends one group record in SnapshotSamplerSW's per-record encoding —
/// shared with the delta cuts of core/checkpoint.h, whose folded blobs
/// must be byte-identical to full snapshots.
void PutSwGroupRecord(BinaryWriter* writer, const GroupRecord& g);

}  // namespace rl0

#endif  // RL0_CORE_SNAPSHOT_H_

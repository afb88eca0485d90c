// rl0_cli — robust distinct sampling from the command line.
//
// Subcommands:
//   sample    draw robust ℓ0-samples from a CSV point stream
//   count     estimate the robust number of distinct entities (F0)
//   stats     exact group statistics of a (small) CSV stream
//   generate  emit one of the paper's synthetic noisy datasets as CSV
//
// Run `rl0_cli help` (or any subcommand with --help) for usage. The tool
// reads CSV point streams (one point per line; see rl0/stream/csv.h) from
// a file or stdin ("-").

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "rl0/baseline/exact_partition.h"
#include "rl0/core/checkpoint.h"
#include "rl0/core/f0_iw.h"
#include "rl0/core/iw_sampler.h"
#include "rl0/core/reorder_buffer.h"
#include "rl0/core/sharded_pool.h"
#include "rl0/serve/checkpointer.h"
#include "rl0/serve/protocol.h"
#include "rl0/stream/csv.h"
#include "rl0/stream/generators.h"
#include "rl0/stream/neardup.h"
#include "rl0/stream/window_stream.h"

namespace {

using rl0::Point;

constexpr const char* kUsage = R"(rl0_cli — robust distinct sampling on noisy point streams

usage: rl0_cli <command> [options] [file.csv | -]

commands:
  sample    --alpha A [--k N] [--window W] [--time] [--metric l2|l1|linf]
            [--reservoir] [--seed S] [--queries Q] [--shards S]
            [--no-filter] [--lateness L]
            [--checkpoint-dir D [--checkpoint-every N]]
            Draw Q robust l0-samples (default 1). With --window W, sample
            from the last W points instead of the whole stream. Points
            ingest through a persistent pipeline of S worker lanes
            (--shards, default 1) and samples come from the merged
            lanes; the windowed pool stamps points with their global
            stream position. With --window W --time, the window is
            time-based: the CSV gains a leading integer stamp column
            (non-decreasing arrival times) and W counts time units, not
            points. With --time --lateness L > 0, the stamp column may
            instead run up to L time units behind its running maximum:
            the pool's bounded-lateness reorder stage restores sorted
            order (and propagates watermarks) before feeding, so the
            output is identical to sampling the stamp-sorted file.
            Rows beyond the bound are a line-numbered parse error.
            With --checkpoint-dir D (needs --window), every fed chunk is
            journaled and a checkpoint chain is cut into D —
            ckpt-000000.full before the first point, then incremental
            ckpt-NNNNNN.delta files every N points (--checkpoint-every;
            default: one final cut at end of stream). That first cut
            replaces any chain already in D and creates D/journal.log;
            each chunk is appended to it as it is fed, so a killed run
            loses no fed chunk. `recover` rebuilds the pool from those
            files.
  recover   --checkpoint-dir D [--queries Q] [--seed S]
            Rebuild a pool from D: fold the delta chain onto the full
            checkpoint, replay the journal's surviving suffix (torn
            tails from a crash are fine), and draw Q samples from the
            recovered window — bit-identical to a run that never went
            down (see core/checkpoint.h for the exact contract).
  count     --alpha A [--epsilon E] [--seed S] [--no-filter]
            (1+E)-approximate the number of distinct entities. The
            estimator copies ingest as lanes of one pipeline.
  stats     --alpha A
            Exact group partition statistics (quadratic; small inputs).
  generate  --dataset rand5|rand20|yacht|seeds [--powerlaw] [--seed S]
            [--time [--max-gap G] [--lateness L]]
            Print one of the paper's noisy evaluation streams as CSV.
            With --time, prefix each row with a non-decreasing integer
            stamp (inter-arrival gaps uniform in {1..G}, default G=4) —
            the input format of `sample --window --time`. Adding
            --lateness L > 0 disorders the rows within the bound L
            (stamps run at most L behind their running maximum) — the
            input format of `sample --window --time --lateness L`.
  help      Show this message.

Input '-' (or no file) reads CSV points from stdin: one point per line,
coordinates separated by commas or whitespace; '#' starts a comment.

--no-filter disables the infinite-window duplicate-suppression
front-end (identical output either way — the front-end never changes
decisions; the `sample` and `count` summary lines report its
hit/miss/bypass counters). Windowed sampling has no front-end, so the
flag changes nothing there.
)";

struct Args {
  std::string command;
  std::string file = "-";
  double alpha = 0.0;
  double epsilon = 0.2;
  std::string metric = "l2";
  std::string dataset;
  std::string checkpoint_dir;
  uint64_t checkpoint_every = 0;
  bool powerlaw = false;
  bool reservoir = false;
  bool time = false;
  bool no_filter = false;
  uint32_t max_gap = 4;
  uint64_t seed = 0;
  size_t k = 1;
  size_t shards = 1;
  int64_t window = 0;
  int64_t lateness = 0;
  int queries = 1;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "rl0_cli: %s\n", message.c_str());
  return 2;
}

/// Upper bound of the int64-valued flags: below 2^63, so the cast from
/// double is defined.
constexpr double kMaxInt64Flag = 9e18;

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  if (argc < 2) {
    *error = "missing command (try `rl0_cli help`)";
    return false;
  }
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_str = [&](std::string* out) {
      if (i + 1 >= argc) {
        *error = arg + " needs a value";
        return false;
      }
      *out = argv[++i];
      return true;
    };
    // Every numeric flag: the whole value must parse, lie in [lo, hi]
    // and, for an integer field, be whole — so the cast below is always
    // defined.
    const auto number = [&](auto* out, double lo, double hi) {
      using T = std::remove_pointer_t<decltype(out)>;
      constexpr bool kIntegral = std::is_integral<T>::value;
      std::string text;
      if (!next_str(&text)) return false;
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !(v >= lo && v <= hi) ||
          (kIntegral && v != std::floor(v))) {
        char range[64];
        std::snprintf(range, sizeof(range), " in [%g, %g]", lo, hi);
        *error = arg + " must be " + (kIntegral ? "an integer" : "a number") +
                 range + ", got '" + text + "'";
        return false;
      }
      *out = static_cast<T>(v);
      return true;
    };
    bool ok = true;
    if (arg == "--alpha") {
      ok = number(&args->alpha, 0.0, DBL_MAX);
    } else if (arg == "--epsilon") {
      ok = number(&args->epsilon, 0.0, 1.0);
    } else if (arg == "--seed") {
      ok = number(&args->seed, 0.0, 1.8e19);
    } else if (arg == "--k") {
      ok = number(&args->k, 1.0, 1e6);
    } else if (arg == "--window") {
      ok = number(&args->window, 1.0, kMaxInt64Flag);
    } else if (arg == "--queries") {
      ok = number(&args->queries, 0.0, 1e9);
    } else if (arg == "--checkpoint-every") {
      ok = number(&args->checkpoint_every, 1.0, kMaxInt64Flag);
    } else if (arg == "--shards") {
      ok = number(&args->shards, 1.0, 1024.0);
    } else if (arg == "--lateness") {
      ok = number(&args->lateness, 0.0, kMaxInt64Flag);
    } else if (arg == "--max-gap") {
      ok = number(&args->max_gap, 1.0, 1e9);
    } else if (arg == "--metric") {
      ok = next_str(&args->metric);
    } else if (arg == "--dataset") {
      ok = next_str(&args->dataset);
    } else if (arg == "--checkpoint-dir") {
      ok = next_str(&args->checkpoint_dir);
    } else if (arg == "--time") {
      args->time = true;
    } else if (arg == "--no-filter") {
      args->no_filter = true;
    } else if (arg == "--powerlaw") {
      args->powerlaw = true;
    } else if (arg == "--reservoir") {
      args->reservoir = true;
    } else if (arg == "--help") {
      args->command = "help";
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      *error = "unknown option '" + arg + "'";
      return false;
    } else {
      args->file = arg;
    }
    if (!ok) return false;
  }
  return true;
}

rl0::Result<std::vector<Point>> LoadPoints(const Args& args) {
  if (args.file == "-") return rl0::ParseCsvPoints(std::cin);
  return rl0::ReadCsvPoints(args.file);
}

// --------------------------------------------------------- checkpointing

/// The journal + incremental-chain machinery lives in
/// rl0/serve/checkpointer.h so the standing-query server shares the
/// exact on-disk layout with this tool.
using PoolCheckpointer = rl0::serve::PoolCheckpointer;

/// Runs one checkpointer call that the CLI treats as fatal (exit 2).
bool CheckpointOk(const rl0::Status& status) {
  if (status.ok()) return true;
  std::fprintf(stderr, "rl0_cli: checkpoint failed: %s\n",
               status.ToString().c_str());
  return false;
}

std::string CheckpointNote(const PoolCheckpointer* ckpt) {
  if (ckpt == nullptr) return std::string();
  char buf[64];
  std::snprintf(buf, sizeof(buf), " checkpoints=%zu journal=%zuB",
                ckpt->cuts(), ckpt->journal_bytes());
  return buf;
}

/// Renders duplicate-suppression counters for the summary lines
/// (core/dup_filter.h; bypass counts points the front-end never saw —
/// filter disabled or absorbed from another sampler).
std::string FilterNote(const rl0::DupFilterStats& stats) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), " filter hit=%llu miss=%llu bypass=%llu",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.bypassed));
  return buf;
}

/// Renders reorder-stage counters for the summary lines of the
/// bounded-lateness paths (core/reorder_buffer.h). Empty when the stage
/// was never engaged.
std::string LateNote(const rl0::ReorderStats& stats) {
  if (stats.offered == 0) return std::string();
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " late offered=%llu released=%llu dropped=%llu",
                static_cast<unsigned long long>(stats.offered),
                static_cast<unsigned long long>(stats.released),
                static_cast<unsigned long long>(stats.late_dropped));
  return buf;
}

rl0::Result<rl0::Metric> ParseMetric(const std::string& name) {
  if (name == "l2") return rl0::Metric::kL2;
  if (name == "l1") return rl0::Metric::kL1;
  if (name == "linf") return rl0::Metric::kLinf;
  return rl0::Status::InvalidArgument("unknown metric '" + name + "'");
}

/// `sample --window W`: the windowed pool. Sequence-stamped by global
/// stream position, or — with `stamps` non-null (--time) — time-stamped,
/// through the pool's reorder stage when --lateness > 0. Fixed chunks,
/// so checkpoint cuts land between feeds.
int RunSampleWindow(const Args& args, const rl0::SamplerOptions& opts,
                    const std::vector<Point>& points,
                    const std::vector<int64_t>* stamps) {
  auto created =
      rl0::ShardedSwSamplerPool::Create(opts, args.window, args.shards);
  if (!created.ok()) return Fail(created.status().ToString());
  rl0::ShardedSwSamplerPool pool = std::move(created).value();
  std::unique_ptr<PoolCheckpointer> ckpt;
  if (!args.checkpoint_dir.empty()) {
    auto opened = PoolCheckpointer::Open(&pool, args.checkpoint_dir,
                                         args.checkpoint_every, opts.dim,
                                         /*recovered=*/nullptr);
    if (!CheckpointOk(opened.status())) return 2;
    ckpt = std::move(opened).value();
  }
  const rl0::Span<const Point> all_points(points);
  const size_t chunk = 4096;
  for (size_t offset = 0; offset < all_points.size(); offset += chunk) {
    const rl0::Span<const Point> part = all_points.subspan(offset, chunk);
    if (stamps == nullptr) {
      pool.FeedBorrowed(part);
    } else if (args.lateness > 0) {
      pool.FeedStampedLate(part,
                           rl0::Span<const int64_t>(*stamps).subspan(offset,
                                                                     chunk));
    } else {
      pool.FeedBorrowedStamped(
          part, rl0::Span<const int64_t>(*stamps).subspan(offset, chunk));
    }
    if (ckpt && !CheckpointOk(ckpt->MaybeCut())) return 2;
  }
  pool.FlushLate();  // no-op unless the reorder stage was engaged
  pool.Drain();
  if (ckpt && !CheckpointOk(ckpt->Finish())) return 2;

  // On the bounded-lateness path the lanes see the reorder stage's
  // released sequence, so a sampled stream_index addresses the
  // canonically sorted stream, not the file order — and the parse bound
  // guarantees nothing is beyond-bound, so the released sequence is
  // exactly the canonical sort of the whole file. Report (and run the
  // expiry self-check) against that sequence; the canonical order is
  // stamp-major, so sorting the stamps alone yields its stamps.
  std::vector<int64_t> fed_stamps;
  if (stamps != nullptr) {
    fed_stamps = *stamps;
    std::sort(fed_stamps.begin(), fed_stamps.end());
  }
  rl0::Xoshiro256pp rng(
      rl0::SplitMix64(args.seed ^ rl0::serve::kQuerySeedSalt));
  for (int q = 0; q < args.queries; ++q) {
    const auto sample = pool.SampleLatest(&rng);
    if (!sample.has_value()) return Fail("window is empty");
    std::printf("%s", rl0::serve::FormatSampleLine(sample->point,
                                                   sample->stream_index)
                          .c_str());
    if (stamps != nullptr) {
      const int64_t stamp = fed_stamps[sample->stream_index];
      if (stamp <= fed_stamps.back() - args.window) {
        // Window semantics are a hard guarantee; surfacing an expired
        // member would mean the sampler (not the data) is broken.
        return Fail("internal error: expired stamp sampled");
      }
      std::printf(" stamp %lld", static_cast<long long>(stamp));
    }
    std::printf("\n");
  }
  std::fprintf(stderr,
               "[windowed pipeline: %zu shards, %llu points, window=%lld %s, "
               "now=%lld, space=%zu words%s]\n",
               pool.num_shards(),
               static_cast<unsigned long long>(pool.points_processed()),
               static_cast<long long>(args.window),
               stamps != nullptr ? "time units" : "points",
               static_cast<long long>(pool.now()), pool.SpaceWords(),
               (LateNote(pool.late_stats()) + CheckpointNote(ckpt.get()))
                   .c_str());
  return 0;
}

/// `sample` without --window: the infinite-window pool, queried through
/// the merge of its lanes.
int RunSampleInfinite(const Args& args, const rl0::SamplerOptions& opts,
                      const std::vector<Point>& points) {
  auto created = rl0::ShardedSamplerPool::Create(opts, args.shards);
  if (!created.ok()) return Fail(created.status().ToString());
  rl0::ShardedSamplerPool pool = std::move(created).value();
  const rl0::Span<const Point> all(points);
  const size_t chunk = 4096;
  for (size_t offset = 0; offset < all.size(); offset += chunk) {
    pool.FeedBorrowed(all.subspan(offset, chunk));
  }
  pool.Drain();
  rl0::Result<rl0::RobustL0SamplerIW> merged = pool.Merged();
  if (!merged.ok()) return Fail(merged.status().ToString());
  rl0::RobustL0SamplerIW iw = std::move(merged).value();
  rl0::Xoshiro256pp rng(
      rl0::SplitMix64(args.seed ^ rl0::serve::kQuerySeedSalt));
  for (int q = 0; q < args.queries; ++q) {
    std::vector<rl0::SampleItem> drawn;
    if (args.k > 1) {
      auto samples = iw.SampleK(args.k, &rng);
      if (!samples.ok()) return Fail(samples.status().ToString());
      drawn = std::move(samples).value();
    } else {
      const auto sample = iw.Sample(&rng);
      if (!sample.has_value()) return Fail("no sample available");
      drawn.push_back(*sample);
    }
    for (const rl0::SampleItem& s : drawn) {
      std::printf("%s\n",
                  rl0::serve::FormatSampleLine(s.point, s.stream_index)
                      .c_str());
    }
  }
  // Per-lane front-end counters: the merged sampler's own counters would
  // list every absorbed point as bypassed.
  std::fprintf(stderr,
               "[pipeline: %zu shards, %llu points; groups accepted=%zu "
               "rejected=%zu R=%llu space=%zu words%s]\n",
               pool.num_shards(),
               static_cast<unsigned long long>(pool.points_processed()),
               iw.accept_size(), iw.reject_size(),
               static_cast<unsigned long long>(iw.rate_reciprocal()),
               iw.SpaceWords(), FilterNote(pool.FilterStats()).c_str());
  return 0;
}

int RunSample(const Args& args) {
  if (args.alpha <= 0.0) return Fail("sample requires --alpha > 0");
  if (args.checkpoint_every > 0 && args.checkpoint_dir.empty()) {
    return Fail("--checkpoint-every requires --checkpoint-dir");
  }
  if (!args.checkpoint_dir.empty() && args.window <= 0) {
    return Fail("--checkpoint-dir needs --window W > 0");
  }
  if (args.time && args.window <= 0) {
    return Fail("--time requires --window W > 0");
  }
  const auto metric = ParseMetric(args.metric);
  if (!metric.ok()) return Fail(metric.status().ToString());

  std::vector<Point> points;
  std::vector<int64_t> stamps;
  if (args.time) {
    rl0::Result<rl0::StampedCsv> stream =
        args.file == "-" ? rl0::ParseCsvStampedPoints(std::cin, args.lateness)
                         : rl0::ReadCsvStampedPoints(args.file, args.lateness);
    if (!stream.ok()) return Fail(stream.status().ToString());
    points = std::move(stream.value().points);
    stamps = std::move(stream.value().stamps);
  } else {
    auto loaded = LoadPoints(args);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    points = std::move(loaded).value();
  }
  if (points.empty()) return Fail("no points in input");

  rl0::SamplerOptions opts;
  opts.dim = points[0].dim();
  opts.alpha = args.alpha;
  opts.metric = metric.value();
  opts.seed = args.seed;
  opts.k = args.k;
  opts.random_representative = args.reservoir;
  opts.expected_stream_length = points.size();
  opts.dup_filter = !args.no_filter;
  opts.allowed_lateness = args.lateness;
  if (args.window <= 0) return RunSampleInfinite(args, opts, points);
  return RunSampleWindow(args, opts, points, args.time ? &stamps : nullptr);
}

int RunRecover(const Args& args) {
  if (args.checkpoint_dir.empty()) {
    return Fail("recover requires --checkpoint-dir DIR");
  }
  // Fold the on-disk chain (a missing journal means the run checkpointed
  // but never flushed a record past the last cut — recovery from the cut
  // alone is exact).
  auto chain = rl0::serve::LoadCheckpointChain(args.checkpoint_dir);
  if (!chain.ok()) return Fail(chain.status().ToString());
  auto recovered =
      rl0::RecoverPool(chain.value().checkpoint, chain.value().journal);
  if (!recovered.ok()) return Fail(recovered.status().ToString());
  rl0::ShardedSwSamplerPool pool = std::move(recovered).value();

  rl0::Xoshiro256pp rng(
      rl0::SplitMix64(args.seed ^ rl0::serve::kQuerySeedSalt));
  for (int q = 0; q < args.queries; ++q) {
    const auto sample = pool.SampleLatest(&rng);
    if (!sample.has_value()) return Fail("window is empty");
    std::printf("%s\n", rl0::serve::FormatSampleLine(sample->point,
                                                     sample->stream_index)
                            .c_str());
  }
  // Replay rebuilt the reorder stage too — report its counters just like
  // the sample path does, so a recovered run's summary is directly
  // comparable to the original's.
  std::fprintf(stderr,
               "[recovered pool: %zu shards, %llu points, now=%lld, "
               "space=%zu words; chain=1 full + %zu deltas, journal=%zuB%s]\n",
               pool.num_shards(),
               static_cast<unsigned long long>(pool.points_processed()),
               static_cast<long long>(pool.now()), pool.SpaceWords(),
               chain.value().deltas, chain.value().journal.size(),
               LateNote(pool.late_stats()).c_str());
  return 0;
}

int RunCount(const Args& args) {
  if (args.alpha <= 0.0) return Fail("count requires --alpha > 0");
  const auto points = LoadPoints(args);
  if (!points.ok()) return Fail(points.status().ToString());
  if (points.value().empty()) return Fail("no points in input");

  rl0::F0Options opts;
  opts.sampler.dim = points.value()[0].dim();
  opts.sampler.alpha = args.alpha;
  opts.sampler.seed = args.seed;
  opts.sampler.expected_stream_length = points.value().size();
  opts.sampler.dup_filter = !args.no_filter;
  opts.epsilon = args.epsilon;
  auto est = rl0::F0EstimatorIW::Create(opts);
  if (!est.ok()) return Fail(est.status().ToString());
  rl0::F0EstimatorIW estimator = std::move(est).value();
  // Every estimator copy is a pipeline lane with its own worker.
  const rl0::Span<const Point> all(points.value());
  const size_t chunk = 4096;
  for (size_t offset = 0; offset < all.size(); offset += chunk) {
    estimator.Feed(all.subspan(offset, chunk));
  }
  estimator.Drain();
  std::printf("%.0f\n", estimator.Estimate());
  std::fprintf(stderr,
               "[distinct entities, (1+%.2f)-approx; %zu points scanned; "
               "space=%zu words%s]\n",
               args.epsilon, points.value().size(), estimator.SpaceWords(),
               FilterNote(estimator.FilterStats()).c_str());
  return 0;
}

int RunStats(const Args& args) {
  if (args.alpha <= 0.0) return Fail("stats requires --alpha > 0");
  const auto points = LoadPoints(args);
  if (!points.ok()) return Fail(points.status().ToString());
  const std::vector<Point>& pts = points.value();
  if (pts.empty()) return Fail("no points in input");
  const rl0::Partition natural = rl0::NaturalPartition(pts, args.alpha);
  const rl0::Partition greedy = rl0::GreedyPartition(pts, args.alpha);
  std::vector<size_t> sizes(natural.num_groups, 0);
  for (uint32_t g : natural.group_of) ++sizes[g];
  size_t max_size = 0;
  for (size_t s : sizes) max_size = std::max(max_size, s);
  std::printf("points\t%zu\n", pts.size());
  std::printf("dim\t%zu\n", pts[0].dim());
  std::printf("alpha\t%g\n", args.alpha);
  std::printf("groups (connected components)\t%zu\n", natural.num_groups);
  std::printf("groups (greedy ball carving)\t%zu\n", greedy.num_groups);
  std::printf("largest group\t%zu\n", max_size);
  std::printf("mean group size\t%.2f\n",
              static_cast<double>(pts.size()) /
                  static_cast<double>(natural.num_groups));
  return 0;
}

int RunGenerate(const Args& args) {
  rl0::BaseDataset base;
  if (args.dataset == "rand5") {
    base = rl0::Rand5(args.seed + 1);
  } else if (args.dataset == "rand20") {
    base = rl0::Rand20(args.seed + 2);
  } else if (args.dataset == "yacht") {
    base = rl0::YachtLike(args.seed + 3);
  } else if (args.dataset == "seeds") {
    base = rl0::SeedsLike(args.seed + 4);
  } else {
    return Fail("--dataset must be rand5|rand20|yacht|seeds");
  }
  rl0::NearDupOptions nd;
  nd.distribution = args.powerlaw ? rl0::DupDistribution::kPowerLaw
                                  : rl0::DupDistribution::kUniform;
  nd.seed = args.seed;
  const rl0::NoisyDataset noisy = rl0::MakeNearDuplicates(base, nd);
  std::printf("# %s: %zu points, %zu groups, alpha=%.17g\n",
              noisy.name.c_str(), noisy.size(), noisy.num_groups,
              noisy.alpha);
  if (args.time) {
    // Leading stamp column: the input format of sample --window --time.
    std::vector<rl0::StampedPoint> stamped =
        rl0::TimeStamped(noisy, args.max_gap, args.seed);
    if (args.lateness > 0) {
      // Bounded disorder: the input format of the --lateness sample path.
      stamped = rl0::DisorderWithinBound(stamped, args.lateness, args.seed);
    }
    std::vector<Point> points;
    std::vector<int64_t> stamps;
    rl0::SplitStamped(stamped, &points, &stamps);
    rl0::WriteCsvStampedPoints(points, stamps, std::cout);
    return 0;
  }
  rl0::WriteCsvPoints(noisy.points, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Fail(error);
  if (args.command == "help" || args.command == "--help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (args.command == "sample") return RunSample(args);
  if (args.command == "recover") return RunRecover(args);
  if (args.command == "count") return RunCount(args);
  if (args.command == "stats") return RunStats(args);
  if (args.command == "generate") return RunGenerate(args);
  return Fail("unknown command '" + args.command + "' (try `rl0_cli help`)");
}

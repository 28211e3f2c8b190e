// The stage counter table: every per-stage integer counter the runtime
// reports next to the paper's data-movement quantities, declared once.
//
// One row per counter. Everything that mirrors a counter is generated from
// its row: the StageStats field (StageStats derives from StageCounters), the
// JobStats total and accessor, the fold across partitions and stages
// (StageCounters::Merge), the metric-registry series Cluster::PublishStage
// updates, the EXPLAIN ANALYZE clause, the JobStatsToJson fields, the
// BENCH_*.json per-run scalar and its bench_diff policy. Adding a counter is
// one row here plus its increment sites (and its docs/METRICS.md rows and a
// baseline refresh, see EXPERIMENTS.md).
//
// Columns of X(name, group, fold, publish, diff, series, help, label, show):
//   name     StageStats field, JobStats accessor and JSON key;
//   group    CounterGroup: the EXPLAIN / JSON clause the counter prints in;
//   fold     CounterFold: sum, or max for high-water marks;
//   publish  CounterPublish: who updates the registry series;
//   diff     DiffPolicy: how bench_diff compares the BENCH_*.json scalar;
//   series   metric-registry series name (a sum is a Counter, a max a
//            SetMax Gauge) and its help text;
//   label    key inside the EXPLAIN ANALYZE clause;
//   show     ExplainShow: how EXPLAIN ANALYZE prints the value.
//
// Rows keep their group's counters together; the row order is the order of
// the JSON export and BENCH_*.json fields.
//
// Dependency-free (bench_diff includes it without linking the runtime).
#ifndef TRANCE_RUNTIME_STAGE_COUNTERS_H_
#define TRANCE_RUNTIME_STAGE_COUNTERS_H_

#include <array>
#include <cstddef>
#include <cstdint>

// clang-format off
#define TRANCE_STAGE_COUNTERS(X)                                               \
  /* Keyed-operator telemetry (join build/probe, cogroup, nest, reduce,      \
     dedup, heavy-key sampling): bytes of binary keys the codec produced,    \
     rows inserted into keyed hash structures, lookups that found an         \
     existing key, and the max input rows mapped to a single key. */         \
  X(key_encode_bytes, kKey, kSum, kStage, kExact,                              \
    "trance_key_encode_bytes_total",                                           \
    "binary key bytes produced by the key codec", "key_bytes", kBytes)         \
  X(hash_build_rows, kHashTable, kSum, kStage, kExact,                         \
    "trance_hash_build_rows_total",                                            \
    "rows inserted into keyed hash structures", "build", kCount)               \
  X(hash_probe_hits, kHashTable, kSum, kStage, kExact,                         \
    "trance_hash_probe_hits_total",                                            \
    "keyed lookups that found an existing key", "hits", kCount)                \
  X(hash_max_chain, kHashTable, kMax, kStage, kExact,                          \
    "trance_hash_max_chain",                                                   \
    "max input rows mapped to a single key", "chain", kCount)                  \
  /* Flat hash-table telemetry (runtime/flat_hash.h): slot-array + arena     \
     footprint, slot-array doublings, longest open-addressing probe. */      \
  X(hash_table_bytes, kFlatTable, kSum, kStage, kExact,                        \
    "trance_hash_table_bytes_total",                                           \
    "flat hash-table footprint built by keyed operators", "tbl", kBytes)       \
  X(hash_resizes, kFlatTable, kSum, kStage, kExact,                            \
    "trance_hash_resizes_total",                                               \
    "flat hash-table slot-array doublings", "resizes", kCount)                 \
  X(hash_probe_len_max, kFlatTable, kMax, kStage, kExact,                      \
    "trance_hash_probe_len_max",                                               \
    "longest open-addressing probe sequence", "probe", kCount)                 \
  /* Columnar-block telemetry (runtime/column.h): footprint of the typed     \
     partition blocks a stage built, and rows it materialized back out of    \
     blocks into retained Row containers — 0 by construction, since every    \
     partition is block-resident; kept so reports keep their schema. */      \
  X(columnar_bytes, kColumnar, kSum, kStage, kExact,                           \
    "trance_columnar_bytes_total",                                             \
    "typed partition-block footprint built by operators", "blocks", kBytes)    \
  X(column_to_row_conversions, kColumnar, kSum, kStage, kExact,                \
    "trance_column_to_row_conversions_total",                                  \
    "rows materialized out of typed partition blocks", "rowify", kCount)       \
  /* Out-of-core spill telemetry (runtime/spill.h): bytes written to and     \
     streamed back from run files, run files, and stream-merge passes. All   \
     exactly 0 when nothing spills; spilling never changes another counter.  \
  */                                                                           \
  X(spill_bytes_written, kSpill, kSum, kStage, kExact,                         \
    "trance_spill_bytes_written_total",                                        \
    "bytes written to spill run files", "w", kBytes)                           \
  X(spill_bytes_read, kSpill, kSum, kStage, kExact,                            \
    "trance_spill_bytes_read_total",                                           \
    "bytes streamed back from spill run files", "r", kBytes)                   \
  X(spill_runs, kSpill, kSum, kStage, kExact,                                  \
    "trance_spill_runs_total", "spill run files produced", "runs", kCount)     \
  X(spill_merge_passes, kSpill, kSum, kStage, kExact,                          \
    "trance_spill_merge_passes_total",                                         \
    "stream-merge passes over spill runs", "merges", kCount)                   \
  /* Fault-injection telemetry (runtime/fault.h): faults injected into the   \
     stage and task re-executions performed. The registry series are         \
     updated by Cluster::RunRecoverableTasks (faults are labelled by kind).  \
  */                                                                           \
  X(injected_faults, kFault, kSum, kSite, kExact,                              \
    "trance_faults_injected_total",                                            \
    "faults injected by the seeded injector, by kind", "faults", kCount)       \
  X(retries, kFault, kSum, kSite, kExact,                                      \
    "trance_task_retries_total",                                               \
    "task re-executions performed by fault recovery", "retries", kCount)
// clang-format on

namespace trance {
namespace runtime {

/// Counter groups, in EXPLAIN ANALYZE clause order. A group prints — in
/// EXPLAIN ANALYZE and in a stage's JSON export — only when one of its
/// counters is nonzero.
enum class CounterGroup {
  kHashTable,  // ht(build= hits= chain=)
  kFlatTable,  // flat(tbl= resizes= probe=)
  kKey,        // key_bytes= (no parentheses)
  kColumnar,   // col(blocks= rowify=)
  kSpill,      // spill(w= r= runs= merges=)
  kFault,      // printed with the recovery time by obs/explain.cc itself
};
inline constexpr size_t kNumCounterGroups =
    static_cast<size_t>(CounterGroup::kFault) + 1;

/// The EXPLAIN ANALYZE clause name of a group: "" prints the counters bare,
/// nullptr leaves the group to a hand-written clause.
inline constexpr const char* kCounterGroupClause[kNumCounterGroups] = {
    "ht", "flat", "", "col", "spill", nullptr};

/// How a counter folds across partitions, stages and jobs.
enum class CounterFold {
  kSum,  // totals add; registry Counter::Add
  kMax,  // high-water marks; registry Gauge::SetMax
};

/// Who updates the counter's registry series.
enum class CounterPublish {
  kStage,  // Cluster::PublishStage, from each recorded stage
  kSite,   // the increment site (labelled series, or counted on failure too)
};

/// How bench_diff compares a per-run BENCH_*.json scalar: a counter row's
/// `diff` column, and bench_diff's own rules for the other scalars.
enum class DiffPolicy {
  kExact,     // deterministic invariant: any difference hard-fails
  kSimTime,   // deterministic double: hard-fail outside 1e-9 relative
  kWallSoft,  // wall clock: warn only, and only when slower than
              // baseline * max_wall_ratio
  kInfo,      // machine-dependent (thread budget): never compared
};

/// How EXPLAIN ANALYZE prints the value inside its group's clause.
enum class ExplainShow {
  kBytes,  // FormatBytes
  kCount,  // integer
};

/// One value per table row.
struct StageCounters {
#define TRANCE_COUNTER_FIELD(name, ...) uint64_t name = 0;
  TRANCE_STAGE_COUNTERS(TRANCE_COUNTER_FIELD)
#undef TRANCE_COUNTER_FIELD

  /// Folds `o` in: sums add, maxima keep the larger. Associative and
  /// commutative, so folding per-partition slots in any grouping gives the
  /// same totals.
  void Merge(const StageCounters& o) {
#define TRANCE_COUNTER_MERGE(name, group, fold, ...)     \
  if constexpr (CounterFold::fold == CounterFold::kSum) { \
    name += o.name;                                       \
  } else if (o.name > name) {                             \
    name = o.name;                                        \
  }
    TRANCE_STAGE_COUNTERS(TRANCE_COUNTER_MERGE)
#undef TRANCE_COUNTER_MERGE
  }
};

/// A table row as data, for the generic consumers (registry, exports,
/// bench_diff, tests).
struct CounterDesc {
  const char* name;
  uint64_t StageCounters::*field;
  CounterGroup group;
  CounterFold fold;
  CounterPublish publish;
  DiffPolicy diff;
  const char* series;
  const char* help;
  const char* label;
  ExplainShow show;
};

inline constexpr CounterDesc kStageCounters[] = {
#define TRANCE_COUNTER_DESC(name, group, fold, publish, diff, series, help, \
                            label, show)                                    \
  {#name,                   &StageCounters::name,                           \
   CounterGroup::group,     CounterFold::fold,                              \
   CounterPublish::publish, DiffPolicy::diff,                               \
   series,                  help,                                           \
   label,                   ExplainShow::show},
    TRANCE_STAGE_COUNTERS(TRANCE_COUNTER_DESC)
#undef TRANCE_COUNTER_DESC
};

/// Row indices, for the few sites that name one row (site-published series).
enum class CounterId : size_t {
#define TRANCE_COUNTER_ID(name, ...) name,
  TRANCE_STAGE_COUNTERS(TRANCE_COUNTER_ID)
#undef TRANCE_COUNTER_ID
};

inline constexpr const CounterDesc& CounterDescOf(CounterId id) {
  return kStageCounters[static_cast<size_t>(id)];
}

/// Per group: whether any of its counters is nonzero in `c`.
inline std::array<bool, kNumCounterGroups> LiveGroups(const StageCounters& c) {
  std::array<bool, kNumCounterGroups> live{};
  for (const CounterDesc& d : kStageCounters) {
    if (c.*d.field != 0) live[static_cast<size_t>(d.group)] = true;
  }
  return live;
}

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_STAGE_COUNTERS_H_

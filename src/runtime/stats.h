// Execution statistics for the simulated cluster.
//
// The evaluation quantities of the paper are data-movement quantities: bytes
// shuffled per stage, straggler load (max per-partition work under
// synchronous stage execution), and memory saturation. Each bulk operator
// records one StageStats; the simulated job time is the sum over stages of
//   overhead + max_partition_work_bytes * cpu_cost + max_partition_recv_bytes * net_cost,
// i.e. every stage is as slow as its most loaded worker — which is exactly
// how skew hurts synchronous platforms like Spark (Section 1, Challenge 3).
//
// Beyond the scalar aggregates, each stage carries per-partition send/recv/
// work histograms, the broadcast-vs-shuffle decision, the heavy-key count
// from the skew sampler, and a memory high-water mark; JobStats aggregates
// them into a job-wide straggler/imbalance summary (src/obs turns these into
// EXPLAIN ANALYZE reports, percentile summaries and Chrome trace exports).
#ifndef TRANCE_RUNTIME_STATS_H_
#define TRANCE_RUNTIME_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/fault.h"
#include "runtime/stage_counters.h"

namespace trance {
namespace runtime {

/// How a stage moved data between partitions.
enum class DataMovement {
  kLocal,      // partition-local (no cross-partition movement)
  kShuffle,    // hash repartitioning
  kBroadcast,  // replication to every partition
};

const char* DataMovementName(DataMovement m);

/// One narrow operator inside a fused stage (runtime/stage_pipeline). The
/// per-transform emitted-row count is what EXPLAIN ANALYZE shows for the plan
/// node the transform came from.
struct FusedTransformStats {
  std::string op;
  std::string scope;
  uint64_t rows_out = 0;
};

/// One recorded stage. The counter fields (keyed, flat-table, columnar,
/// spill, fault) come from the counter table in runtime/stage_counters.h.
struct StageStats : StageCounters {
  std::string op;
  /// Plan-operator attribution (set from the cluster's scope stack); empty
  /// for stages recorded outside plan execution (sources, unshredding).
  std::string scope;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t shuffle_bytes = 0;             // bytes moved between partitions
  uint64_t max_partition_recv_bytes = 0;  // heaviest receiver in the shuffle
  uint64_t max_partition_work_bytes = 0;  // heaviest worker's processed bytes
  uint64_t total_work_bytes = 0;
  /// Largest partition footprint of the stage's output (bytes); 0 for stages
  /// that do not materialize an output (sources are pre-cached).
  uint64_t mem_high_water_bytes = 0;
  /// Heavy keys found by the skew sampler (heavy_keys stages only).
  uint64_t heavy_key_count = 0;
  DataMovement movement = DataMovement::kLocal;
  /// Per-partition histograms (indexed by partition; empty when the stage
  /// did not track the quantity).
  std::vector<uint64_t> partition_send_bytes;
  std::vector<uint64_t> partition_recv_bytes;
  std::vector<uint64_t> partition_work_bytes;
  /// Non-empty when this stage ran a fused chain of narrow transforms (one
  /// entry per transform, in chain order).
  std::vector<FusedTransformStats> fused_transforms;
  /// Bytes the unfused pipeline would have materialized between the chain's
  /// transforms (rows emitted by every non-final transform); 0 for unfused
  /// stages.
  uint64_t intermediate_bytes_avoided = 0;
  /// Fault-injection & recovery telemetry (empty/zero on fault-free runs and
  /// when the injector is disabled; the injected_faults / retries counters
  /// are table rows). Every non-recovery field is bit-identical between a
  /// fault-free run and a run whose injected faults were all recovered —
  /// recovery is stats-transparent.
  std::vector<FaultEvent> fault_events;  // (partition, attempt, kind) log
  /// Per-task-slot retry counts (indexed like the stage's task loop; empty
  /// when no fault hit the stage).
  std::vector<uint64_t> partition_retries;
  /// Simulated seconds recovery cost this stage: per fault, the bounded
  /// exponential backoff plus the discarded attempt's work (crash kinds,
  /// cpu cost of the partition's work bytes) or re-fetch (fetch loss, net
  /// cost of the partition's recv bytes). Kept OUT of sim_seconds so
  /// fault-free and recovered runs report identical base stats; stamped by
  /// Cluster::RecordStage.
  double recovery_sim_seconds = 0;
  double sim_seconds = 0;
  /// Wall-clock interval of the stage on the process trace timeline
  /// (microseconds since trance::WallMicros epoch); stamped by
  /// Cluster::RecordStage.
  double wall_start_us = 0;
  double wall_dur_us = 0;

  /// Straggler factor: heaviest worker / mean worker load (1.0 when the
  /// stage tracked no per-partition work or did no work).
  double ImbalanceFactor() const;
};

/// Job-wide straggler / skew summary (the aggregate the per-stage maxima
/// previously never surfaced).
struct StragglerSummary {
  uint64_t max_partition_recv_bytes = 0;  // worst single-stage receiver
  uint64_t max_partition_work_bytes = 0;  // worst single-stage worker
  double worst_imbalance = 1.0;           // max over stages of max/mean work
  std::string worst_stage;                // op name of that stage
  uint64_t heavy_key_count = 0;           // total keys flagged by the sampler
};

/// Accumulated statistics for one logical job (query execution).
class JobStats {
 public:
  void AddStage(StageStats s) {
    shuffle_bytes_ += s.shuffle_bytes;
    if (s.shuffle_bytes > max_stage_shuffle_) {
      max_stage_shuffle_ = s.shuffle_bytes;
    }
    sim_seconds_ += s.sim_seconds;
    if (!s.fused_transforms.empty()) ++fused_stages_;
    intermediate_bytes_avoided_ += s.intermediate_bytes_avoided;
    recovery_sim_seconds_ += s.recovery_sim_seconds;
    counters_.Merge(s);
    stages_.push_back(std::move(s));
  }

  void NotePeakPartitionBytes(uint64_t b) {
    if (b > peak_partition_bytes_) peak_partition_bytes_ = b;
  }

  const std::vector<StageStats>& stages() const { return stages_; }
  uint64_t total_shuffle_bytes() const { return shuffle_bytes_; }
  /// The largest single-stage shuffle ("max data shuffle" in Section 6).
  uint64_t max_stage_shuffle_bytes() const { return max_stage_shuffle_; }
  uint64_t peak_partition_bytes() const { return peak_partition_bytes_; }
  double sim_seconds() const { return sim_seconds_; }
  /// Stages that ran a fused chain of narrow transforms.
  uint64_t fused_stages() const { return fused_stages_; }
  /// Total bytes fusion kept from materializing between narrow operators.
  uint64_t intermediate_bytes_avoided() const {
    return intermediate_bytes_avoided_;
  }
  /// Total simulated recovery time (backoff + discarded attempts); reported
  /// separately from sim_seconds() so base stats stay fault-invariant.
  double recovery_sim_seconds() const { return recovery_sim_seconds_; }

  /// Every table counter folded over the stages (sum or max per row), with
  /// one accessor per row: key_encode_bytes(), hash_max_chain(), ...
  const StageCounters& counters() const { return counters_; }
#define TRANCE_COUNTER_ACCESSOR(name, ...) \
  uint64_t name() const { return counters_.name; }
  TRANCE_STAGE_COUNTERS(TRANCE_COUNTER_ACCESSOR)
#undef TRANCE_COUNTER_ACCESSOR

  /// Job-wide aggregation of the per-stage skew quantities.
  StragglerSummary straggler() const;

  void Reset() { *this = JobStats(); }

  std::string ToString() const;

 private:
  std::vector<StageStats> stages_;
  uint64_t shuffle_bytes_ = 0;
  uint64_t max_stage_shuffle_ = 0;
  uint64_t peak_partition_bytes_ = 0;
  double sim_seconds_ = 0;
  uint64_t fused_stages_ = 0;
  uint64_t intermediate_bytes_avoided_ = 0;
  double recovery_sim_seconds_ = 0;
  StageCounters counters_;
};

}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_STATS_H_

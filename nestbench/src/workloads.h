// The benchmark's three workloads, each taken from one of the paper's
// evaluation figures: tpch_nested (Fig 7a), tpch_skew (Fig 8) and
// biomed_pipeline (Fig 9). A workload instance owns its generated inputs
// (registered once as runtime datasets, nested inputs prepared for every
// route) and the query mix of one pass.
#ifndef NESTBENCH_WORKLOADS_H_
#define NESTBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/pipeline.h"
#include "nrc/value.h"
#include "runtime/cluster.h"

namespace nestbench {

using trance::Status;
using trance::StatusOr;

/// The evaluation strategies of the paper's Section 6.
enum class Strategy {
  kSparkSql,
  kStandard,
  kStandardSkew,
  kShred,
  kShredSkew,
  kUnshred,
  kUnshredSkew,
};

const char* StrategyName(Strategy s);
bool IsShredded(Strategy s);
bool IsSkewAware(Strategy s);
bool WantsUnshred(Strategy s);

/// Named datasets one query may draw its inputs from: flat relations under
/// both their plain and shredded names, nested inputs in standard form under
/// their plain name and in shredded form under X_F / X_D_<path>.
using Catalog = std::map<std::string, trance::runtime::Dataset>;

/// One query execution of a pass.
struct Query {
  std::string name;
  /// Logical query: every strategy of a group must return the same bag.
  std::string group;
  Strategy strategy;
  const trance::nrc::Program* program = nullptr;
  trance::exec::PipelineOptions options;
  trance::runtime::ClusterConfig cluster;
  const Catalog* catalog = nullptr;
  /// Index in the mix of the query whose output this one reads as input
  /// `chain_input` (the biomedical pipeline's step chaining), or -1.
  int chain_from = -1;
  std::string chain_input;
};

/// Wall seconds of each set-up phase.
struct SetupTimes {
  double generate_s = 0;
  double register_s = 0;
  double prepare_nested_s = 0;
  double value_shred_s = 0;
};

struct Instance {
  std::deque<trance::nrc::Program> programs;
  std::deque<Catalog> catalogs;
  std::vector<Query> mix;
  SetupTimes times;
  /// The NRC interpreter's answer for a query group. Set only on
  /// reduced-scale instances, where the quadratic interpreter is affordable.
  std::function<StatusOr<trance::nrc::Value>(const std::string& group)> oracle;
};

struct WorkloadParams {
  std::string name;
  uint64_t seed = 1;
  int num_threads = 1;
  /// Run-file directory for spilling partitions.
  std::string spill_dir;
  /// Build the reduced-scale copy used for the interpreter check.
  bool reduced = false;
};

/// Generates, registers and prepares a workload instance.
StatusOr<std::unique_ptr<Instance>> MakeInstance(const WorkloadParams& params);

/// Input names a query registers: plain names on standard routes; X_F and
/// X_D_<path> on shredded ones.
StatusOr<std::vector<std::string>> InputNames(const Query& q);

}  // namespace nestbench

#endif  // NESTBENCH_WORKLOADS_H_

// Benchmark driver: runs one workload as a closed loop (one client, each
// query issued after the previous one completes, each on a fresh Cluster
// over cached inputs) and writes every raw sample to one JSON file, which
// run.py reduces to the reported metrics.
//
//   nestbench --workload NAME --seed N --seconds S --trace 0|1
//             --spill-dir DIR --out FILE
//
// A run: set up the workload (timed), one warm-up pass (untimed; covers the
// thread pool's lazy start, fingerprints every output and checks that all
// strategies of a query agree), timed passes for S seconds with a
// compile-only round and now and then a repeated set-up between passes, and
// the interpreter check on a reduced-scale copy. With --trace 1 the timed
// passes alternate between the end-to-end driver and a phase-by-phase driver
// that records a span around each call into a layer; JobStats stage
// intervals become child spans of the execute and unshred spans they ran
// under.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/bridge.h"
#include "nrc/typecheck.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "plan/unnest.h"
#include "shred/materialize.h"
#include "shred/shredded_type.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace nestbench {
namespace {

namespace exec = trance::exec;
namespace nrc = trance::nrc;
namespace plan = trance::plan;
namespace runtime = trance::runtime;
namespace shred = trance::shred;
using trance::Stopwatch;
using trance::WallMicros;

constexpr int kMinPasses = 3;
/// One extra (timed, discarded) set-up after every kSetupEvery passes, and
/// at least kMinSetups set-ups in all.
constexpr int kSetupEvery = 4;
constexpr int kMinSetups = 5;

// --- Spans -----------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  double start_us = 0;
  double end_us = 0;
  /// Stage spans only: the stage wrote or read spill runs.
  bool spilled = false;
};

/// In-memory span log; written out with the run's other samples at the end.
class SpanLog {
 public:
  int Begin(std::string name, int parent) {
    spans_.push_back({std::move(name), parent, WallMicros(), 0, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[id].end_us = WallMicros(); }
  void Add(Span s) { spans_.push_back(std::move(s)); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log->Begin(std::move(name), parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Layer span name of a runtime stage, from its operator name.
std::string StageLayer(const std::string& op) {
  const std::string base = op.substr(0, op.find('('));
  auto starts = [&](const char* p) { return base.rfind(p, 0) == 0; };
  auto ends = [&](const std::string& s) {
    return base.size() >= s.size() &&
           base.compare(base.size() - s.size(), s.size(), s) == 0;
  };
  if (starts("heavy_keys")) return "skew.heavy_keys";
  if (starts("skewjoin")) return "skew.skewjoin";
  if (ends(".merge")) return "skew.merge";
  std::string kind = base.substr(0, base.find('.'));
  if (kind == "join") return "runtime.join";
  if (kind == "broadcast_join") return "runtime.broadcast_join";
  if (kind == "cogroup" || kind == "unshred") return "runtime.cogroup";
  if (kind == "nest_sum" || kind == "nest_bag") return "runtime.nest";
  if (kind == "bag_to_dict") return "runtime.bag_to_dict";
  static const std::set<std::string> kNarrow = {
      "fused",  "project",      "extend",    "unnest",
      "select", "outer_select", "add_index", "unshred_project"};
  if (kNarrow.count(kind)) return "runtime.narrow";
  return "runtime.other";
}

/// Attaches the stages recorded since `first` as children of `parent`.
void AttachStages(const runtime::JobStats& stats, size_t first, int parent,
                  SpanLog* log) {
  const auto& stages = stats.stages();
  for (size_t i = first; i < stages.size(); ++i) {
    const runtime::StageStats& s = stages[i];
    log->Add({StageLayer(s.op), parent, s.wall_start_us,
              s.wall_start_us + s.wall_dur_us,
              s.spill_bytes_written > 0 || s.spill_bytes_read > 0});
  }
}

/// A Cluster stamps each stage's interval from the end of the previous stage
/// it recorded, and a fresh Cluster's first stage as zero-width. Recording
/// and discarding a marker stage right before execution starts the first
/// stage's interval at the execute span.
void MarkStageClock(runtime::Cluster* cluster) {
  runtime::StageStats marker;
  marker.op = "nestbench.mark";
  cluster->RecordStage(std::move(marker));
  cluster->stats().Reset();
  cluster->metrics().Reset();
}

// --- Query execution -------------------------------------------------------

struct Output {
  std::optional<runtime::Dataset> nested;
  std::optional<exec::ShreddedRun> shredded;
};

/// Per-pass work counters of the traced driver, by name.
using Counters = std::map<std::string, double>;

void AddJobStats(const runtime::JobStats& js, Counters* c) {
  double& max_imbalance = (*c)["max_imbalance"];
  for (const auto& s : js.stages()) {
    (*c)["stages"] += 1;
    (*c)["rows_in"] += s.rows_in;
    (*c)["rows_out"] += s.rows_out;
    (*c)["heavy_key_count"] += s.heavy_key_count;
    max_imbalance = std::max(max_imbalance, s.ImbalanceFactor());
  }
  double& peak = (*c)["peak_partition_bytes"];
  peak = std::max(peak, static_cast<double>(js.peak_partition_bytes()));
  (*c)["key_encode_bytes"] += js.key_encode_bytes();
  (*c)["hash_build_rows"] += js.hash_build_rows();
  (*c)["hash_probe_hits"] += js.hash_probe_hits();
  (*c)["hash_table_bytes"] += js.hash_table_bytes();
  (*c)["hash_resizes"] += js.hash_resizes();
  (*c)["columnar_bytes"] += js.columnar_bytes();
  (*c)["column_to_row_conversions"] += js.column_to_row_conversions();
  (*c)["fused_stages"] += js.fused_stages();
  (*c)["intermediate_bytes_avoided"] += js.intermediate_bytes_avoided();
  (*c)["spill_bytes_written"] += js.spill_bytes_written();
  (*c)["spill_bytes_read"] += js.spill_bytes_read();
  (*c)["spill_runs"] += js.spill_runs();
}

uint64_t CountPlanOps(const plan::PlanPtr& p) {
  uint64_t n = 1;
  for (size_t i = 0; i < p->num_children(); ++i) n += CountPlanOps(p->child(i));
  return n;
}

/// The route as exec::RunStandard / RunShredded (+ UnshredRun) run it.
Status RunEndToEnd(const Query& q, exec::Executor* ex, Output* out) {
  if (!IsShredded(q.strategy)) {
    TRANCE_ASSIGN_OR_RETURN(out->nested,
                            exec::RunStandard(*q.program, ex, q.options));
    return Status::OK();
  }
  TRANCE_ASSIGN_OR_RETURN(out->shredded,
                          exec::RunShredded(*q.program, ex, q.options));
  if (WantsUnshred(q.strategy)) {
    TRANCE_ASSIGN_OR_RETURN(out->nested, exec::UnshredRun(ex, *out->shredded));
  }
  return Status::OK();
}

/// Compile phases shared by the traced driver and the compile-only loop.
/// `log` may be null (untraced).
StatusOr<plan::PlanProgram> Compile(const Query& q, SpanLog* log, int parent,
                                    shred::MaterializedProgram* mat) {
  std::optional<ScopedSpan> span;
  auto begin = [&](const char* name) {
    if (log != nullptr) span.emplace(log, name, parent);
  };
  const nrc::Program* program = q.program;
  if (IsShredded(q.strategy)) {
    begin("shred.materialize");
    TRANCE_ASSIGN_OR_RETURN(
        *mat, shred::ShredAndMaterialize(
                  *q.program, shred::MaterializeMode::kDomainElimination));
    if (mat->interpreter_only) {
      return Status::NotImplemented("interpreter-only materialization");
    }
    program = &mat->program;
  }
  begin("nrc.typecheck");
  nrc::Typechecker tc;
  TRANCE_ASSIGN_OR_RETURN(nrc::TypeEnv env, tc.CheckProgram(*program));
  begin("plan.unnest");
  nrc::TypeEnv input_env;
  for (const auto& in : program->inputs) input_env[in.name] = in.type;
  plan::Unnester unnester(input_env);
  TRANCE_ASSIGN_OR_RETURN(plan::PlanProgram plans,
                          unnester.CompileProgram(*program));
  begin("plan.optimize");
  TRANCE_ASSIGN_OR_RETURN(
      plans, plan::OptimizeProgram(plans, env, q.options.optimizer));
  return plans;
}

/// The same route, phase by phase, with a span around each layer call.
Status RunTraced(const Query& q, exec::Executor* ex, SpanLog* log, int parent,
                 Counters* counters, Output* out) {
  shred::MaterializedProgram mat;
  TRANCE_ASSIGN_OR_RETURN(plan::PlanProgram plans,
                          Compile(q, log, parent, &mat));
  const bool shredded = IsShredded(q.strategy);
  if (shredded) {
    // Dictionary assignments end in BagToDict, as in exec::RunShredded.
    std::set<std::string> dict_vars;
    for (const auto& d : mat.dicts) dict_vars.insert(d.var);
    for (auto& a : plans.assignments) {
      if (dict_vars.count(a.var)) {
        a.plan = plan::PlanNode::BagToDict(a.plan, "label");
      }
    }
  }
  (*counters)["shred_assignments"] +=
      shredded ? mat.program.assignments.size() : 0;
  for (const auto& a : plans.assignments) {
    (*counters)["plan_ops"] += CountPlanOps(a.plan);
  }

  runtime::Cluster* cluster = ex->cluster();
  MarkStageClock(cluster);
  const int exec_span = log->Begin("exec.execute", parent);
  StatusOr<std::string> final_var = ex->ExecuteProgram(plans);
  Status st = final_var.status();
  if (st.ok() && !shredded) {
    StatusOr<runtime::Dataset> ds = ex->GetDataset(*final_var);
    st = ds.status();
    if (st.ok()) out->nested = std::move(ds).value();
  }
  if (st.ok() && shredded) {
    exec::ShreddedRun run;
    StatusOr<runtime::Dataset> top = ex->GetDataset(mat.top_var);
    st = top.status();
    if (st.ok()) run.top = std::move(top).value();
    for (const auto& d : mat.dicts) {
      if (!st.ok()) break;
      StatusOr<runtime::Dataset> ds = ex->GetDataset(d.var);
      st = ds.status();
      if (st.ok()) run.dicts.emplace_back(d.path, std::move(ds).value());
    }
    run.output_type = mat.output_type;
    out->shredded = std::move(run);
  }
  log->End(exec_span);
  AttachStages(cluster->stats(), 0, exec_span, log);
  TRANCE_RETURN_NOT_OK(st);

  if (WantsUnshred(q.strategy)) {
    const size_t first = cluster->stats().stages().size();
    const int span = log->Begin("exec.unshred", parent);
    StatusOr<runtime::Dataset> nested = exec::UnshredRun(ex, *out->shredded);
    log->End(span);
    AttachStages(cluster->stats(), first, span, log);
    TRANCE_ASSIGN_OR_RETURN(out->nested, std::move(nested));
  }
  return Status::OK();
}

StatusOr<nrc::Value> NestedValue(exec::Executor* ex, const Output& out) {
  runtime::Dataset ds;
  if (out.nested.has_value()) {
    ds = *out.nested;
  } else {
    TRANCE_ASSIGN_OR_RETURN(ds, exec::UnshredRun(ex, *out.shredded));
  }
  return exec::RowsToValue(ds.Collect(), ds.schema);
}

// --- Passes ----------------------------------------------------------------

struct PassResult {
  std::vector<double> query_s;
  uint64_t shuffle_bytes = 0;
  double sim_s = 0;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  /// Per query, with fingerprinting on; no fingerprint for a failed query.
  std::vector<std::optional<uint64_t>> fingerprints;
  std::vector<nrc::Value> values;
  /// Traced passes only.
  SpanLog spans;
  Counters counters;
};

enum class Driver { kEndToEnd, kTraced };

/// Runs every query of the mix once. The pass time is the sum of the query
/// times: each covers compile + execute (+ unshred), not the untimed
/// registration of cached inputs on the query's fresh Cluster.
PassResult RunPass(const Instance& inst, Driver driver, bool fingerprint) {
  PassResult r;
  const size_t n = inst.mix.size();
  std::vector<bool> chained(n, false);
  for (const Query& q : inst.mix) {
    if (q.chain_from >= 0) chained[q.chain_from] = true;
  }
  std::vector<std::optional<Output>> outputs(n);
  for (size_t i = 0; i < n; ++i) {
    const Query& q = inst.mix[i];
    ++r.attempted;
    runtime::Cluster cluster(q.cluster);
    exec::Executor ex(&cluster, q.options.exec);
    Status st = Status::OK();
    for (const std::string& name : InputNames(q).ValueOrDie()) {
      ex.Register(name, q.catalog->at(name));
    }
    if (q.chain_from >= 0) {
      const std::optional<Output>& prev = outputs[q.chain_from];
      if (!prev.has_value()) {
        st = Status::Invalid("pipeline dead: " + inst.mix[q.chain_from].name);
      } else if (prev->shredded.has_value()) {
        ex.Register(shred::FlatInputName(q.chain_input), prev->shredded->top);
        for (const auto& [path, ds] : prev->shredded->dicts) {
          ex.Register(shred::DictInputName(q.chain_input, path), ds);
        }
      } else {
        ex.Register(q.chain_input, *prev->nested);
      }
    }
    Output out;
    int query_span = -1;
    double wall = 0;
    if (st.ok()) {
      if (driver == Driver::kTraced) {
        query_span = r.spans.Begin("query", -1);
      }
      Stopwatch w;
      st = driver == Driver::kTraced
               ? RunTraced(q, &ex, &r.spans, query_span, &r.counters, &out)
               : RunEndToEnd(q, &ex, &out);
      wall = w.ElapsedSeconds();
      if (query_span >= 0) r.spans.End(query_span);
    }
    r.query_s.push_back(wall);
    r.shuffle_bytes += cluster.stats().total_shuffle_bytes();
    r.sim_s += cluster.stats().sim_seconds();
    if (driver == Driver::kTraced) AddJobStats(cluster.stats(), &r.counters);
    StatusOr<nrc::Value> value = nrc::Value();
    if (st.ok() && fingerprint) {
      value = NestedValue(&ex, out);
      st = value.status();
    }
    if (fingerprint) {
      r.fingerprints.push_back(st.ok() ? std::optional(value->Hash())
                                       : std::nullopt);
      r.values.push_back(st.ok() ? std::move(value).value() : nrc::Value());
    }
    if (!st.ok()) {
      ++r.failed;
      r.failures.push_back(q.name + ": " + st.ToString());
      continue;
    }
    if (chained[i]) outputs[i] = std::move(out);
  }
  return r;
}

/// Checks that all strategies of each query group returned the same bag
/// (and, when the instance has an oracle, the interpreter's bag).
std::vector<std::string> CheckOutputs(const Instance& inst,
                                      const PassResult& pass,
                                      bool against_oracle) {
  std::vector<std::string> errors;
  std::map<std::string, size_t> first_of_group;
  std::map<std::string, nrc::Value> oracle;
  for (size_t i = 0; i < inst.mix.size(); ++i) {
    const Query& q = inst.mix[i];
    if (!pass.fingerprints[i]) continue;  // failures are counted elsewhere
    auto [it, inserted] = first_of_group.emplace(q.group, i);
    if (!inserted &&
        !nrc::ApproxDeepBagEquals(pass.values[it->second], pass.values[i])) {
      errors.push_back(q.name + " differs from " + inst.mix[it->second].name);
    }
    if (!against_oracle) continue;
    if (oracle.count(q.group) == 0) {
      StatusOr<nrc::Value> v = inst.oracle(q.group);
      if (!v.ok()) {
        errors.push_back(q.group + " interpreter: " + v.status().ToString());
        continue;
      }
      oracle[q.group] = std::move(v).value();
    }
    if (!nrc::ApproxDeepBagEquals(oracle[q.group], pass.values[i])) {
      errors.push_back(q.name + " differs from the interpreter");
    }
  }
  return errors;
}

// --- Output ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spill_dir;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--spill-dir") {
      a->spill_dir = v;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->out.empty() &&
         !a->spill_dir.empty() && a->seconds > 0;
}

void WriteSpans(const SpanLog& log, trance::obs::JsonWriter* w) {
  w->BeginArray();
  for (const Span& s : log.spans()) {
    w->BeginObject();
    w->Key("name");
    w->String(s.name);
    w->Key("parent");
    w->Int(s.parent);
    w->Key("start_us");
    w->Number(s.start_us);
    w->Key("end_us");
    w->Number(s.end_us);
    if (s.spilled) {
      w->Key("spilled");
      w->Bool(true);
    }
    w->EndObject();
  }
  w->EndArray();
}

void WriteCounters(const Counters& c, trance::obs::JsonWriter* w) {
  w->BeginObject();
  for (const auto& [k, v] : c) {
    w->Key(k);
    w->Number(v);
  }
  w->EndObject();
}

void WritePass(const PassResult& p, bool traced, trance::obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("query_s");
  w->BeginArray();
  for (double s : p.query_s) w->Number(s);
  w->EndArray();
  w->Key("shuffle_bytes");
  w->Uint(p.shuffle_bytes);
  w->Key("sim_s");
  w->Number(p.sim_s);
  w->Key("attempted");
  w->Int(p.attempted);
  w->Key("failed");
  w->Int(p.failed);
  w->Key("failures");
  w->BeginArray();
  for (const auto& f : p.failures) w->String(f);
  w->EndArray();
  if (traced) {
    w->Key("spans");
    WriteSpans(p.spans, w);
    w->Key("counters");
    WriteCounters(p.counters, w);
  }
  w->EndObject();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nestbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --spill-dir DIR --out FILE\n");
    return 2;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // A fixed thread budget: results do not depend on hardware_concurrency or
  // TRANCE_THREADS. Two threads exercise the partition-parallel runtime; on
  // a shared 4-CPU virtual machine four threads measured slower and noisier.
  const int threads = std::min(2, nproc);
  // End-to-end timing runs with the engine's own tracer and event log off.
  trance::obs::Tracer::Global().set_enabled(false);
  trance::obs::GlobalEventLog().Enable(false);

  WorkloadParams params;
  params.name = args.workload;
  params.seed = args.seed;
  params.num_threads = threads;
  params.spill_dir = args.spill_dir;

  // Set-up repetitions and compile rounds are spread over the run, between
  // timed passes, so that a slow stretch of the machine hits every metric's
  // samples alike rather than one metric's whole sample.
  std::vector<double> setup_total;
  std::vector<SetupTimes> setup_parts;
  auto set_up = [&]() -> StatusOr<std::unique_ptr<Instance>> {
    Stopwatch w;
    auto made = MakeInstance(params);
    if (made.ok()) {
      setup_total.push_back(w.ElapsedSeconds());
      setup_parts.push_back((*made)->times);
    }
    return made;
  };
  auto made = set_up();
  if (!made.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Instance> inst = std::move(made).value();

  std::vector<std::vector<double>> compile_ms(inst->mix.size());
  auto compile_round = [&]() {
    for (size_t i = 0; i < inst->mix.size(); ++i) {
      shred::MaterializedProgram mat;
      Stopwatch w;
      auto plans = Compile(inst->mix[i], nullptr, -1, &mat);
      compile_ms[i].push_back(w.ElapsedMillis());
      TRANCE_CHECK(plans.ok(), plans.status().ToString());
    }
  };

  std::vector<std::string> errors;
  PassResult warm = RunPass(*inst, Driver::kEndToEnd, /*fingerprint=*/true);
  for (auto& e : CheckOutputs(*inst, warm, false)) errors.push_back(e);
  warm.values.clear();

  std::vector<PassResult> passes;
  std::vector<PassResult> traced;
  Stopwatch budget;
  for (int iter = 0;
       budget.ElapsedSeconds() < args.seconds || iter < kMinPasses; ++iter) {
    passes.push_back(RunPass(*inst, Driver::kEndToEnd, false));
    if (args.trace) {
      traced.push_back(RunPass(*inst, Driver::kTraced, traced.empty()));
      PassResult& t = traced.back();
      if (!t.fingerprints.empty()) {
        for (size_t i = 0; i < inst->mix.size(); ++i) {
          if (t.fingerprints[i] != warm.fingerprints[i]) {
            errors.push_back(inst->mix[i].name +
                             ": traced output differs from end-to-end");
          }
        }
        t.values.clear();
      }
    }
    compile_round();
    if (iter % kSetupEvery == kSetupEvery - 1) {
      TRANCE_CHECK(set_up().ok(), "repeated setup failed");
    }
  }
  while (setup_total.size() < static_cast<size_t>(kMinSetups)) {
    TRANCE_CHECK(set_up().ok(), "repeated setup failed");
  }

  // Interpreter check on the reduced-scale copy of the workload.
  {
    WorkloadParams reduced = params;
    reduced.reduced = true;
    auto small = MakeInstance(reduced);
    TRANCE_CHECK(small.ok(), small.status().ToString());
    PassResult check = RunPass(**small, Driver::kEndToEnd, true);
    for (auto& f : check.failures) errors.push_back("reduced: " + f);
    for (auto& e : CheckOutputs(**small, check, true)) {
      errors.push_back("reduced: " + e);
    }
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  trance::obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload");
  w.String(args.workload);
  w.Key("seed");
  w.Uint(args.seed);
  w.Key("threads");
  w.Int(threads);
  w.Key("nproc");
  w.Int(nproc);
  w.Key("peak_rss_mb");
  w.Number(static_cast<double>(ru.ru_maxrss) / 1024.0);
  w.Key("queries");
  w.BeginArray();
  for (const Query& q : inst->mix) w.String(q.name);
  w.EndArray();
  w.Key("setup");
  w.BeginArray();
  for (size_t i = 0; i < setup_total.size(); ++i) {
    const SetupTimes& t = setup_parts[i];
    w.BeginObject();
    w.Key("total_s");
    w.Number(setup_total[i]);
    w.Key("generate_s");
    w.Number(t.generate_s);
    w.Key("register_s");
    w.Number(t.register_s);
    w.Key("prepare_nested_s");
    w.Number(t.prepare_nested_s);
    w.Key("value_shred_s");
    w.Number(t.value_shred_s);
    w.EndObject();
  }
  w.EndArray();
  w.Key("warmup");
  WritePass(warm, false, &w);
  w.Key("passes");
  w.BeginArray();
  for (const PassResult& p : passes) WritePass(p, false, &w);
  w.EndArray();
  w.Key("traced_passes");
  w.BeginArray();
  for (const PassResult& p : traced) WritePass(p, true, &w);
  w.EndArray();
  w.Key("compile_ms");
  w.BeginArray();
  for (const auto& samples : compile_ms) {
    w.BeginArray();
    for (double ms : samples) w.Number(ms);
    w.EndArray();
  }
  w.EndArray();
  w.Key("errors");
  w.BeginArray();
  for (const auto& e : errors) w.String(e);
  w.EndArray();
  w.EndObject();

  std::ofstream f(args.out);
  f << w.str() << "\n";
  f.close();
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nestbench

int main(int argc, char** argv) { return nestbench::Main(argc, argv); }

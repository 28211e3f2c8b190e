#include "workloads.h"

#include <utility>

#include "biomed/generator.h"
#include "biomed/pipeline.h"
#include "exec/bridge.h"
#include "nrc/interp.h"
#include "shred/shredded_type.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "util/stopwatch.h"

namespace nestbench {

namespace exec = trance::exec;
namespace nrc = trance::nrc;
namespace runtime = trance::runtime;
namespace tpch = trance::tpch;
namespace biomed = trance::biomed;
namespace shred = trance::shred;
using trance::Stopwatch;

const char* StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kSparkSql:
      return "SPARKSQL";
    case Strategy::kStandard:
      return "STANDARD";
    case Strategy::kStandardSkew:
      return "STANDARD_SKEW";
    case Strategy::kShred:
      return "SHRED";
    case Strategy::kShredSkew:
      return "SHRED_SKEW";
    case Strategy::kUnshred:
      return "SHRED+UNSHRED";
    case Strategy::kUnshredSkew:
      return "SHRED+UNSHRED_SKEW";
  }
  return "?";
}

bool IsShredded(Strategy s) {
  return s == Strategy::kShred || s == Strategy::kShredSkew ||
         s == Strategy::kUnshred || s == Strategy::kUnshredSkew;
}

bool IsSkewAware(Strategy s) {
  return s == Strategy::kStandardSkew || s == Strategy::kShredSkew ||
         s == Strategy::kUnshredSkew;
}

bool WantsUnshred(Strategy s) {
  return s == Strategy::kUnshred || s == Strategy::kUnshredSkew;
}

StatusOr<std::vector<std::string>> InputNames(const Query& q) {
  std::vector<std::string> names;
  for (const auto& in : q.program->inputs) {
    if (in.name == q.chain_input) continue;
    if (!IsShredded(q.strategy)) {
      names.push_back(in.name);
      continue;
    }
    names.push_back(shred::FlatInputName(in.name));
    TRANCE_ASSIGN_OR_RETURN(std::vector<shred::DictEntry> walk,
                            shred::DictTreeWalk(in.type));
    for (const auto& e : walk) {
      names.push_back(shred::DictInputName(in.name, e.path));
    }
  }
  return names;
}

namespace {

// Sizes. The paper's figures fix the shape of each workload (queries,
// strategies, skew factors, datasets); the data sizes are scaled down from
// the figure benches in bench/ so that one pass of the whole mix takes well
// under a second and a run of a few tens of seconds collects enough passes
// for a tail percentile. Memory caps shrink in proportion to the data, so
// the cap-to-partition ratios that decide spilling stay those of the
// calibrated figure configs (scale 0.004 with a 3 MiB cap for Fig 7a and a
// 1.1 MiB cap for Fig 8).
constexpr double kNestedScale = 0.0005;
constexpr double kSkewScale = 0.0005;
constexpr double kFig7CapPerScale = (3ull << 20) / 0.004;
constexpr double kFig8CapPerScale = (1100ull << 10) / 0.004;
// The interpreter is quadratic, so its check runs on a reduced copy.
constexpr double kReducedScale = 0.00025;
constexpr int kSkewDepth = 2;

runtime::ClusterConfig ClusterFor(const WorkloadParams& p, uint64_t cap) {
  // The cost model of the figure benches: small per-stage overhead and
  // shuffle-dominated costs, so simulated time tracks data movement.
  runtime::ClusterConfig c;
  c.num_partitions = 8;
  c.partition_memory_cap = cap;
  c.broadcast_threshold = 48ull << 10;
  c.stage_overhead_seconds = 0.005;
  c.seconds_per_net_byte = 4e-8;
  c.seconds_per_cpu_byte = 1e-8;
  c.num_threads = p.num_threads;
  c.spill.dir = p.spill_dir;
  return c;
}

exec::PipelineOptions OptionsFor(Strategy s) {
  exec::PipelineOptions o;
  if (s == Strategy::kSparkSql) o.optimizer.enable_cogroup = false;
  if (IsSkewAware(s)) o.exec.skew_aware = true;
  return o;
}

/// Label seed of a shredded nested input: a per-name slot keeps the label
/// ranges of different inputs apart, the workload seed varies labels (and so
/// placement) across seeds, and repeated set-ups of one seed agree exactly.
int64_t LabelSeed(uint64_t seed, const std::string& input) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : input) h = (h ^ c) * 1099511628211ull;
  int64_t slot = 1 + static_cast<int64_t>(h % 4093);
  return (slot << 40) + (static_cast<int64_t>(seed % 65536) << 22);
}

StatusOr<nrc::Value> ResultOf(const nrc::Program& program,
                              const std::map<std::string, nrc::Value>& in) {
  nrc::Interpreter interp;
  TRANCE_ASSIGN_OR_RETURN(auto out, interp.EvalProgram(program, in));
  return out.at(program.result().var);
}

// --- TPC-H ---------------------------------------------------------------

const char* const kTpchTables[] = {"Region", "Nation", "Customer",
                                   "Orders", "Lineitem", "Part"};

const tpch::Table& TableByName(const tpch::TpchData& d,
                               const std::string& n) {
  if (n == "Region") return d.region;
  if (n == "Nation") return d.nation;
  if (n == "Customer") return d.customer;
  if (n == "Orders") return d.orders;
  if (n == "Lineitem") return d.lineitem;
  return d.part;
}

/// Registers the TPC-H tables: each flat relation doubles as its own
/// shredded form, so both routes find it.
Status RegisterTables(const tpch::TpchData& d,
                      const runtime::ClusterConfig& cfg, Catalog* out) {
  runtime::Cluster cluster(cfg);
  for (const char* name : kTpchTables) {
    const tpch::Table& t = TableByName(d, name);
    TRANCE_ASSIGN_OR_RETURN(
        runtime::Dataset ds,
        runtime::Source(&cluster, t.schema, t.rows, name));
    (*out)[shred::FlatInputName(name)] = ds;
    (*out)[name] = std::move(ds);
  }
  return Status::OK();
}

Status AddShreddedRun(const std::string& name, const exec::ShreddedRun& run,
                      Catalog* out) {
  (*out)[shred::FlatInputName(name)] = run.top;
  for (const auto& [path, ds] : run.dicts) {
    (*out)[shred::DictInputName(name, path)] = ds;
  }
  return Status::OK();
}

/// Adds the nested input COP (the flat-to-nested result of `depth`) in both
/// representations, computed by the engine's own routes.
Status PrepareCop(const runtime::ClusterConfig& cfg, int depth,
                  Catalog* catalog) {
  TRANCE_ASSIGN_OR_RETURN(nrc::Program prep,
                          tpch::FlatToNested(depth, tpch::Width::kNarrow));
  {
    runtime::Cluster cluster(cfg);
    exec::Executor executor(&cluster, {});
    for (const auto& in : prep.inputs) {
      executor.Register(in.name, catalog->at(in.name));
    }
    TRANCE_ASSIGN_OR_RETURN(runtime::Dataset ds,
                            exec::RunStandard(prep, &executor, {}));
    (*catalog)["COP"] = std::move(ds);
  }
  runtime::Cluster cluster(cfg);
  exec::Executor executor(&cluster, {});
  for (const auto& in : prep.inputs) {
    const std::string n = shred::FlatInputName(in.name);
    executor.Register(n, catalog->at(n));
  }
  TRANCE_ASSIGN_OR_RETURN(exec::ShreddedRun run,
                          exec::RunShredded(prep, &executor, {}));
  return AddShreddedRun("COP", run, catalog);
}

std::map<std::string, nrc::Value> TpchValues(const tpch::TpchData& d) {
  std::map<std::string, nrc::Value> out;
  for (const char* name : kTpchTables) {
    const tpch::Table& t = TableByName(d, name);
    auto v = exec::RowsToValue(t.rows, t.schema);
    TRANCE_CHECK(v.ok(), v.status().ToString());
    out[name] = std::move(v).value();
  }
  return out;
}

/// Interpreter answer of a TPC-H query. The nested-input queries read COP
/// from the interpreter's own flat-to-nested result, as in the repository
/// tests; it is kept in `v` as "COP<depth>" for the other queries of that
/// depth.
StatusOr<nrc::Value> TpchOracle(std::map<std::string, nrc::Value>* v,
                                const std::string& kind, int depth) {
  const std::string cop = "COP" + std::to_string(depth);
  if (v->count(cop) == 0) {
    TRANCE_ASSIGN_OR_RETURN(nrc::Program f2n,
                            tpch::FlatToNested(depth, tpch::Width::kNarrow));
    TRANCE_ASSIGN_OR_RETURN((*v)[cop], ResultOf(f2n, *v));
  }
  if (kind == "f2n") return v->at(cop);
  std::map<std::string, nrc::Value> in{{"COP", v->at(cop)},
                                       {"Part", v->at("Part")}};
  TRANCE_ASSIGN_OR_RETURN(
      nrc::Program q,
      kind == "n2n" ? tpch::NestedToNested(depth, tpch::Width::kNarrow)
                    : tpch::NestedToFlat(depth, tpch::Width::kNarrow));
  return ResultOf(q, in);
}

/// Fig 7a: flat-to-nested, nested-to-nested and nested-to-flat at depths
/// 0-4 on SPARKSQL / STANDARD / SHRED / SHRED+UNSHRED, no skew.
StatusOr<std::unique_ptr<Instance>> MakeTpchNested(const WorkloadParams& p) {
  auto inst = std::make_unique<Instance>();
  const double scale = p.reduced ? kReducedScale : kNestedScale;
  const runtime::ClusterConfig cfg = ClusterFor(
      p, static_cast<uint64_t>(kFig7CapPerScale * kNestedScale));

  Stopwatch w;
  tpch::TpchConfig tcfg;
  tcfg.scale = scale;
  tcfg.seed = p.seed;
  tpch::TpchData data = tpch::Generate(tcfg);
  inst->times.generate_s = w.ElapsedSeconds();

  w.Reset();
  Catalog tables;
  TRANCE_RETURN_NOT_OK(RegisterTables(data, cfg, &tables));
  Catalog& flat = inst->catalogs.emplace_back(tables);
  std::vector<Catalog*> by_depth;
  for (int d = 0; d <= tpch::kMaxDepth; ++d) {
    by_depth.push_back(&inst->catalogs.emplace_back(tables));
  }
  inst->times.register_s = w.ElapsedSeconds();

  w.Reset();
  for (int d = 0; d <= tpch::kMaxDepth; ++d) {
    TRANCE_RETURN_NOT_OK(PrepareCop(cfg, d, by_depth[d]));
  }
  inst->times.prepare_nested_s = w.ElapsedSeconds();

  const Strategy kStrategies[] = {Strategy::kSparkSql, Strategy::kStandard,
                                  Strategy::kShred, Strategy::kUnshred};
  for (const char* kind : {"f2n", "n2n", "n2f"}) {
    for (int d = 0; d <= tpch::kMaxDepth; ++d) {
      const std::string k = kind;
      StatusOr<nrc::Program> program =
          k == "f2n"   ? tpch::FlatToNested(d, tpch::Width::kNarrow)
          : k == "n2n" ? tpch::NestedToNested(d, tpch::Width::kNarrow)
                       : tpch::NestedToFlat(d, tpch::Width::kNarrow);
      TRANCE_RETURN_NOT_OK(program.status());
      const nrc::Program* prog =
          &inst->programs.emplace_back(std::move(program).value());
      const std::string group = k + " d" + std::to_string(d);
      for (Strategy s : kStrategies) {
        Query q;
        q.name = group + " " + StrategyName(s);
        q.group = group;
        q.strategy = s;
        q.program = prog;
        q.options = OptionsFor(s);
        q.cluster = cfg;
        q.catalog = k == "f2n" ? &flat : by_depth[d];
        inst->mix.push_back(std::move(q));
      }
    }
  }
  if (p.reduced) {
    auto values = std::make_shared<std::map<std::string, nrc::Value>>(
        TpchValues(data));
    inst->oracle = [values](const std::string& group)
        -> StatusOr<nrc::Value> {
      return TpchOracle(values.get(), group.substr(0, 3), group.back() - '0');
    };
  }
  return inst;
}

/// Fig 8: nested-to-nested at depth 2 over Zipf skew factors 0-4, all seven
/// strategies. As in the figure bench, aggregation pushdown helps the
/// skew-unaware strategies and the skew-aware ones keep heavy keys apart.
StatusOr<std::unique_ptr<Instance>> MakeTpchSkew(const WorkloadParams& p) {
  auto inst = std::make_unique<Instance>();
  const double scale = p.reduced ? kReducedScale : kSkewScale;
  const runtime::ClusterConfig cfg =
      ClusterFor(p, static_cast<uint64_t>(kFig8CapPerScale * kSkewScale));
  TRANCE_ASSIGN_OR_RETURN(
      nrc::Program query,
      tpch::NestedToNested(kSkewDepth, tpch::Width::kNarrow));
  const nrc::Program* prog = &inst->programs.emplace_back(std::move(query));

  const Strategy kStrategies[] = {
      Strategy::kSparkSql,  Strategy::kStandard, Strategy::kStandardSkew,
      Strategy::kShred,     Strategy::kShredSkew, Strategy::kUnshred,
      Strategy::kUnshredSkew};
  auto values =
      std::make_shared<std::map<int, std::map<std::string, nrc::Value>>>();
  for (int z = 0; z <= 4; ++z) {
    Stopwatch w;
    tpch::TpchConfig tcfg;
    tcfg.scale = scale;
    tcfg.skew = static_cast<double>(z);
    tcfg.seed = p.seed;
    tpch::TpchData data = tpch::Generate(tcfg);
    inst->times.generate_s += w.ElapsedSeconds();

    w.Reset();
    Catalog& catalog = inst->catalogs.emplace_back();
    TRANCE_RETURN_NOT_OK(RegisterTables(data, cfg, &catalog));
    inst->times.register_s += w.ElapsedSeconds();

    w.Reset();
    TRANCE_RETURN_NOT_OK(PrepareCop(cfg, kSkewDepth, &catalog));
    inst->times.prepare_nested_s += w.ElapsedSeconds();

    const std::string group = "skew" + std::to_string(z);
    for (Strategy s : kStrategies) {
      Query q;
      q.name = group + " " + StrategyName(s);
      q.group = group;
      q.strategy = s;
      q.program = prog;
      q.options = OptionsFor(s);
      if (!IsSkewAware(s)) q.options.optimizer.enable_agg_pushdown = true;
      q.cluster = cfg;
      q.catalog = &catalog;
      inst->mix.push_back(std::move(q));
    }
    if (p.reduced) (*values)[z] = TpchValues(data);
  }
  if (p.reduced) {
    inst->oracle = [values](const std::string& group)
        -> StatusOr<nrc::Value> {
      return TpchOracle(&values->at(group.back() - '0'), "n2n", kSkewDepth);
    };
  }
  return inst;
}

// --- Biomedical pipeline -------------------------------------------------

struct BiomedSet {
  const char* label;
  biomed::BiomedConfig config;
  uint64_t cap;
};

/// Fig 9's small and full datasets. The small one and its 3 MiB cap are the
/// figure's; nothing spills there. The full one keeps the figure's 100
/// samples with fewer mutations and copy-number records per sample, so a
/// pass stays short, and its cap shrinks with the data so that, as at the
/// figure's scale, the flattening routes' Step1/Step2 spill on every seed.
std::vector<BiomedSet> BiomedSets(bool reduced) {
  biomed::BiomedConfig small = biomed::BiomedConfig::Small();
  biomed::BiomedConfig full = biomed::BiomedConfig::Full();
  full.mutations_per_sample = 8;
  full.cnvs_per_sample = 10;
  if (reduced) {
    small.samples = 6;
    small.genes = 30;
    small.mutations_per_sample = 4;
    small.network_edges = 120;
    full.samples = 8;
    full.genes = 40;
    full.mutations_per_sample = 6;
    full.network_edges = 160;
    full.cnvs_per_sample = 16;
  }
  return {{"small", small, 3ull << 20}, {"full", full, 300ull << 10}};
}

StatusOr<std::unique_ptr<Instance>> MakeBiomed(const WorkloadParams& p) {
  auto inst = std::make_unique<Instance>();
  std::vector<const nrc::Program*> steps;
  for (int step = 1; step <= biomed::kNumSteps; ++step) {
    TRANCE_ASSIGN_OR_RETURN(nrc::Program program, biomed::StepProgram(step));
    steps.push_back(&inst->programs.emplace_back(std::move(program)));
  }
  using Values = std::map<std::string, nrc::Value>;
  auto values = std::make_shared<std::map<std::string, Values>>();
  const Strategy kStrategies[] = {Strategy::kSparkSql, Strategy::kStandard,
                                  Strategy::kShred};
  for (const BiomedSet& set : BiomedSets(p.reduced)) {
    const runtime::ClusterConfig cfg = ClusterFor(p, set.cap);
    Stopwatch w;
    biomed::BiomedConfig bcfg = set.config;
    bcfg.seed = p.seed;
    biomed::BiomedData data = biomed::Generate(bcfg);
    inst->times.generate_s += w.ElapsedSeconds();

    w.Reset();
    Catalog& catalog = inst->catalogs.emplace_back();
    runtime::Cluster cluster(cfg);
    struct E {
      const runtime::Schema* s;
      const std::vector<runtime::Row>* r;
      const char* name;
      bool flat;
    };
    const E inputs[] = {{&data.bn2_schema, &data.bn2, "BN2", false},
                        {&data.bn1_schema, &data.bn1, "BN1", false},
                        {&data.bf1_schema, &data.bf1, "BF1", true},
                        {&data.bf2_schema, &data.bf2, "BF2", true},
                        {&data.bf3_schema, &data.bf3, "BF3", true}};
    for (const E& e : inputs) {
      TRANCE_ASSIGN_OR_RETURN(runtime::Dataset ds,
                              runtime::Source(&cluster, *e.s, *e.r, e.name));
      if (e.flat) catalog[shred::FlatInputName(e.name)] = ds;
      catalog[e.name] = std::move(ds);
    }
    inst->times.register_s += w.ElapsedSeconds();

    // The shredded route reads BN2/BN1 value-shredded.
    w.Reset();
    exec::Executor shredder(&cluster, {});
    for (const auto& [name, type] :
         {std::pair<const char*, nrc::TypePtr>{"BN2", biomed::Bn2Type()},
          {"BN1", biomed::Bn1Type()}}) {
      const runtime::Dataset& ds = catalog.at(name);
      TRANCE_ASSIGN_OR_RETURN(nrc::Value v,
                              exec::RowsToValue(ds.Collect(), ds.schema));
      TRANCE_RETURN_NOT_OK(exec::RegisterShreddedInput(
          &shredder, name, type, v, LabelSeed(p.seed, name)));
      std::vector<std::string> names = {shred::FlatInputName(name)};
      TRANCE_ASSIGN_OR_RETURN(std::vector<shred::DictEntry> walk,
                              shred::DictTreeWalk(type));
      for (const auto& e : walk) {
        names.push_back(shred::DictInputName(name, e.path));
      }
      for (const std::string& n : names) {
        TRANCE_ASSIGN_OR_RETURN(catalog[n], shredder.GetDataset(n));
      }
    }
    inst->times.value_shred_s += w.ElapsedSeconds();

    for (Strategy s : kStrategies) {
      for (int step = 1; step <= biomed::kNumSteps; ++step) {
        Query q;
        q.group = std::string(set.label) + " Step" + std::to_string(step);
        q.name = q.group + " " + StrategyName(s);
        q.strategy = s;
        q.program = steps[step - 1];
        q.options = OptionsFor(s);
        q.cluster = cfg;
        q.catalog = &catalog;
        if (step > 1) {
          q.chain_from = static_cast<int>(inst->mix.size()) - 1;
          q.chain_input = "Step" + std::to_string(step - 1);
        }
        inst->mix.push_back(std::move(q));
      }
    }
    if (p.reduced) {
      Values& v = (*values)[set.label];
      for (const E& e : inputs) {
        TRANCE_ASSIGN_OR_RETURN(v[e.name], exec::RowsToValue(*e.r, *e.s));
      }
    }
  }
  if (p.reduced) {
    inst->oracle = [values](const std::string& group)
        -> StatusOr<nrc::Value> {
      // "<set> Step<k>": the first request for a set runs all its steps,
      // each reading the previous result, and keeps them in the set's
      // environment as Step1..Step5.
      Values& env = values->at(group.substr(0, group.find(' ')));
      const std::string out = group.substr(group.find(' ') + 1);
      if (env.count(out) == 0) {
        for (int step = 1; step <= biomed::kNumSteps; ++step) {
          TRANCE_ASSIGN_OR_RETURN(nrc::Program program,
                                  biomed::StepProgram(step));
          TRANCE_ASSIGN_OR_RETURN(env["Step" + std::to_string(step)],
                                  ResultOf(program, env));
        }
      }
      return env.at(out);
    };
  }
  return inst;
}

}  // namespace

StatusOr<std::unique_ptr<Instance>> MakeInstance(const WorkloadParams& p) {
  if (p.name == "tpch_nested") return MakeTpchNested(p);
  if (p.name == "tpch_skew") return MakeTpchSkew(p);
  if (p.name == "biomed_pipeline") return MakeBiomed(p);
  return Status::Invalid("unknown workload " + p.name);
}

}  // namespace nestbench

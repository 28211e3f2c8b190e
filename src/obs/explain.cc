#include "obs/explain.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "obs/histogram.h"
#include "plan/printer.h"
#include "util/strings.h"

namespace trance {
namespace obs {

namespace {

using runtime::FusedTransformStats;
using runtime::StageStats;

/// One stage (or one transform of a fused stage) attributed to a plan node.
/// A fused stage expands to one entry per transform, each under the
/// transform's own scope; only the entry for the chain's last transform
/// "owns" the stage, so stage-level metrics (shuffle, work histogram, sim
/// time) are counted exactly once across the chain.
struct NodeEntry {
  const StageStats* stage = nullptr;
  const FusedTransformStats* transform = nullptr;  // null for plain stages
  bool owns_stage = false;

  uint64_t rows_out() const {
    return transform != nullptr ? transform->rows_out : stage->rows_out;
  }
};

/// Stats of one plan operator, aggregated over the stages/fused transforms
/// it recorded (a node may record several: e.g. a skew-aware join records
/// split + light + heavy stages).
struct NodeStats {
  std::vector<NodeEntry> entries;

  bool empty() const { return entries.empty(); }
  /// True iff every entry is a mid-chain transform of a fused stage (the
  /// node's rows streamed through without a stage boundary of its own).
  bool fused_only() const {
    for (const auto& e : entries) {
      if (e.owns_stage) return false;
    }
    return true;
  }
  uint64_t rows_out() const {
    return entries.empty() ? 0 : entries.back().rows_out();
  }
  /// The owning stages' quantities, folded (counter-table rows per their
  /// fold; the straggler factor is the worst stage's).
  struct Totals {
    runtime::StageCounters counters;
    uint64_t shuffle_bytes = 0;
    uint64_t bytes_avoided = 0;
    uint64_t heavy_keys = 0;
    double straggler = 1.0;
    double sim_seconds = 0;
    double recovery_sim_seconds = 0;
  };
  Totals totals() const {
    Totals t;
    for (const auto& e : entries) {
      if (!e.owns_stage) continue;
      const StageStats& s = *e.stage;
      t.counters.Merge(s);
      t.shuffle_bytes += s.shuffle_bytes;
      t.bytes_avoided += s.intermediate_bytes_avoided;
      t.heavy_keys += s.heavy_key_count;
      t.straggler = std::max(t.straggler, s.ImbalanceFactor());
      t.sim_seconds += s.sim_seconds;
      t.recovery_sim_seconds += s.recovery_sim_seconds;
    }
    return t;
  }
  /// Movement modes used, deduplicated, in first-use order.
  std::string movements() const {
    std::vector<std::string> seen;
    for (const auto& e : entries) {
      if (!e.owns_stage) continue;
      std::string m = runtime::DataMovementName(e.stage->movement);
      bool dup = false;
      for (const auto& s : seen) dup = dup || s == m;
      if (!dup) seen.push_back(std::move(m));
    }
    return Join(seen, "+");
  }
  /// Work histogram of the dominant (largest total work) stage.
  const std::vector<uint64_t>* dominant_work() const {
    const StageStats* best = nullptr;
    for (const auto& e : entries) {
      if (!e.owns_stage || e.stage->partition_work_bytes.empty()) continue;
      if (best == nullptr || e.stage->total_work_bytes > best->total_work_bytes) {
        best = e.stage;
      }
    }
    return best == nullptr ? nullptr : &best->partition_work_bytes;
  }
};

/// The counter-table clauses — ht(...), flat(...), key_bytes=, col(...),
/// spill(...) — each printed when one of its group's counters is nonzero.
void AppendCounterClauses(const runtime::StageCounters& c,
                          std::ostringstream* os) {
  const auto live = runtime::LiveGroups(c);
  for (size_t g = 0; g < runtime::kNumCounterGroups; ++g) {
    const char* clause = runtime::kCounterGroupClause[g];
    if (clause == nullptr || !live[g]) continue;
    const bool bare = *clause == '\0';
    if (!bare) *os << " " << clause << "(";
    bool first = true;
    for (const runtime::CounterDesc& d : runtime::kStageCounters) {
      if (static_cast<size_t>(d.group) != g) continue;
      const uint64_t v = c.*d.field;
      if (bare || !first) *os << " ";
      *os << d.label << "="
          << (d.show == runtime::ExplainShow::kBytes ? FormatBytes(v)
                                                     : std::to_string(v));
      first = false;
    }
    if (!bare) *os << ")";
  }
}

std::string StatsSuffix(const NodeStats& ns) {
  if (ns.empty()) return "  [no stages recorded]";
  if (ns.fused_only()) {
    // Mid-chain operator of a fused stage: it has per-transform row counts
    // but no stage boundary (no shuffle, no materialization) of its own.
    std::ostringstream os;
    os << "  [rows=" << ns.rows_out() << " fused]";
    return os.str();
  }
  const NodeStats::Totals t = ns.totals();
  std::ostringstream os;
  os << "  [rows=" << ns.rows_out()
     << " shuffle=" << FormatBytes(t.shuffle_bytes)
     << " mode=" << ns.movements()
     << " straggler=" << FormatDouble(t.straggler, 2) << "x";
  if (const std::vector<uint64_t>* work = ns.dominant_work()) {
    LoadSummary ls = SummarizeLoads(*work);
    os << " work(p50/p95/max)=" << FormatBytes(ls.p50) << "/"
       << FormatBytes(ls.p95) << "/" << FormatBytes(ls.max);
  }
  if (t.heavy_keys > 0) os << " heavy_keys=" << t.heavy_keys;
  AppendCounterClauses(t.counters, &os);
  if (t.bytes_avoided > 0) {
    os << " avoided=" << FormatBytes(t.bytes_avoided);
  }
  if (t.counters.injected_faults > 0) {
    os << " faults=" << t.counters.injected_faults
       << " retries=" << t.counters.retries
       << " recovery=" << FormatDouble(t.recovery_sim_seconds, 3) << "s";
  }
  os << " sim=" << FormatDouble(t.sim_seconds, 3) << "s]";
  return os.str();
}

void Walk(const plan::PlanPtr& p, const std::string& var, int depth,
          int* next_index,
          const std::map<std::string, NodeStats>& by_scope,
          std::ostringstream* os) {
  int index = (*next_index)++;
  std::string scope = StageScopeName(var, index);
  std::string pad(static_cast<size_t>(depth) * 2, ' ');
  auto it = by_scope.find(scope);
  *os << pad << plan::NodeLabel(p)
      << (it == by_scope.end() ? StatsSuffix(NodeStats{})
                               : StatsSuffix(it->second))
      << "\n";
  for (size_t i = 0; i < p->num_children(); ++i) {
    Walk(p->child(i), var, depth + 1, next_index, by_scope, os);
  }
}

}  // namespace

std::string StageScopeName(const std::string& var, int node_index) {
  return var + "#" + std::to_string(node_index);
}

std::string ExplainAnalyze(const plan::PlanProgram& program,
                           const runtime::JobStats& stats) {
  // Group stages by their recorded scope. A scan node re-executes nothing on
  // its own, so scopes may legitimately be missing from the map.
  std::map<std::string, NodeStats> by_scope;
  std::set<std::string> known_scopes;
  for (const auto& s : stats.stages()) {
    if (!s.fused_transforms.empty()) {
      // A fused stage expands to one entry per chained operator; the last
      // transform's node owns the stage-level metrics.
      for (size_t i = 0; i < s.fused_transforms.size(); ++i) {
        const auto& t = s.fused_transforms[i];
        if (t.scope.empty()) continue;
        by_scope[t.scope].entries.push_back(
            {&s, &t, i + 1 == s.fused_transforms.size()});
      }
    } else if (!s.scope.empty()) {
      by_scope[s.scope].entries.push_back({&s, nullptr, true});
    }
  }

  std::ostringstream os;
  os << "EXPLAIN ANALYZE\n";
  for (const auto& a : program.assignments) {
    os << a.var << " <=\n";
    int next_index = 0;
    Walk(a.plan, a.var, 1, &next_index, by_scope, &os);
    for (int i = 0; i < next_index; ++i) {
      known_scopes.insert(StageScopeName(a.var, i));
    }
  }

  // Stages recorded outside any plan operator (input sources, unshredding,
  // merged-triple unions) plus scopes that did not match the walked trees.
  std::vector<const StageStats*> unattributed;
  for (const auto& s : stats.stages()) {
    if (s.scope.empty() || known_scopes.count(s.scope) == 0) {
      unattributed.push_back(&s);
    }
  }
  if (!unattributed.empty()) {
    os << "unattributed stages:\n";
    for (const auto* s : unattributed) {
      os << "  " << s->op << "  [rows=" << s->rows_out
         << " shuffle=" << FormatBytes(s->shuffle_bytes)
         << " mode=" << runtime::DataMovementName(s->movement)
         << " straggler=" << FormatDouble(s->ImbalanceFactor(), 2) << "x";
      if (s->injected_faults > 0) {
        os << " faults=" << s->injected_faults << " retries=" << s->retries
           << " recovery=" << FormatDouble(s->recovery_sim_seconds, 3) << "s";
      }
      os << " sim=" << FormatDouble(s->sim_seconds, 3) << "s]\n";
    }
  }

  runtime::StragglerSummary sk = stats.straggler();
  os << "job: stages=" << stats.stages().size();
  if (stats.fused_stages() > 0) {
    os << " fused_stages=" << stats.fused_stages()
       << " avoided=" << FormatBytes(stats.intermediate_bytes_avoided());
  }
  os << " shuffle=" << FormatBytes(stats.total_shuffle_bytes())
     << " max_stage_shuffle=" << FormatBytes(stats.max_stage_shuffle_bytes())
     << " peak_partition=" << FormatBytes(stats.peak_partition_bytes())
     << " max_partition_recv=" << FormatBytes(sk.max_partition_recv_bytes)
     << " max_partition_work=" << FormatBytes(sk.max_partition_work_bytes)
     << " straggler=" << FormatDouble(sk.worst_imbalance, 2) << "x"
     << (sk.worst_stage.empty() ? "" : "@" + sk.worst_stage)
     << " heavy_keys=" << sk.heavy_key_count;
  AppendCounterClauses(stats.counters(), &os);
  if (stats.injected_faults() > 0) {
    os << " injected_faults=" << stats.injected_faults()
       << " retries=" << stats.retries()
       << " recovery=" << FormatDouble(stats.recovery_sim_seconds(), 3) << "s";
  }
  os << " sim=" << FormatDouble(stats.sim_seconds(), 3) << "s\n";
  return os.str();
}

}  // namespace obs
}  // namespace trance

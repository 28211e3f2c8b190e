// bench_diff: compares a BENCH_*.json report against a committed baseline
// (bench/baselines/) with per-metric, direction-aware policies:
//
//   - correctness-adjacent invariants (row counts, shuffle bytes, hash and
//     fusion counters, fault telemetry, the whole `metrics` registry dump)
//     are deterministic for a given workload, so ANY difference is a hard
//     failure — either a real regression or a behavior change that needs a
//     deliberate baseline refresh (see EXPERIMENTS.md);
//   - simulated times compare with a tiny relative tolerance (they are
//     deterministic doubles; the tolerance only absorbs serialization);
//   - wall-clock times only soft-warn, and only in the slower direction —
//     the CI container has one noisy CPU, so wall time is not gateable.
//
// Exit status: 0 = pass (warnings allowed), 1 = hard difference, 2 = usage
// or parse error. Run twice on the same build it must pass by construction;
// ci/bench_smoke.sh also checks that a tampered report fails.
//
// Usage: bench_diff <baseline.json> <candidate.json> [--max-wall-ratio R]
//        bench_diff --check-events <events.jsonl>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "runtime/stage_counters.h"

namespace {

using trance::obs::JsonValue;
using trance::runtime::CounterDesc;
using Policy = trance::runtime::DiffPolicy;

struct DiffState {
  int hard_failures = 0;
  int warnings = 0;
  double max_wall_ratio = 5.0;

  void Fail(const std::string& what) {
    ++hard_failures;
    std::printf("FAIL  %s\n", what.c_str());
  }
  void Warn(const std::string& what) {
    ++warnings;
    std::printf("WARN  %s\n", what.c_str());
  }
};

std::string FmtNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool NearlyEqual(double a, double b) {
  if (a == b) return true;
  double scale = std::fmax(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= 1e-9 * scale;
}

const JsonValue* FindRun(const JsonValue& runs, const std::string& name) {
  for (const JsonValue& r : runs.arr) {
    const JsonValue* n = r.Find("name");
    if (n != nullptr && n->str == name) return &r;
  }
  return nullptr;
}

struct ScalarRule {
  const char* key;
  Policy policy;
};

// Every scalar WriteBenchReport emits for a run besides the counter-table
// rows, which DiffRun compares by their table policy. Keys absent from both
// reports are skipped (e.g. fail_reason on ok runs, speedup fields on
// baseline-less reports).
const ScalarRule kScalarRules[] = {
    {"ok", Policy::kExact},
    {"out_rows", Policy::kExact},
    {"shuffle_bytes", Policy::kExact},
    {"max_stage_shuffle_bytes", Policy::kExact},
    {"peak_partition_bytes", Policy::kExact},
    {"fused_stages", Policy::kExact},
    {"intermediate_bytes_avoided", Policy::kExact},
    {"sim_seconds", Policy::kSimTime},
    {"recovery_sim_seconds", Policy::kSimTime},
    {"wall_seconds", Policy::kWallSoft},
    {"wall_seconds_1thread", Policy::kInfo},
    {"speedup_vs_1thread", Policy::kInfo},
    {"num_threads", Policy::kInfo},
};

double AsNumber(const JsonValue& v) {
  if (v.kind == JsonValue::Kind::kBool) return v.b ? 1 : 0;
  return v.num;
}

void DiffScalar(DiffState* st, const std::string& where, const char* key,
                Policy policy, const JsonValue* base, const JsonValue* cand) {
  if (policy == Policy::kInfo) return;
  if (base == nullptr && cand == nullptr) return;
  const std::string label = where + "." + key;
  if (base == nullptr || cand == nullptr) {
    st->Fail(label + ": present in only one report");
    return;
  }
  const double b = AsNumber(*base);
  const double c = AsNumber(*cand);
  switch (policy) {
    case Policy::kExact:
      if (b != c) {
        st->Fail(label + ": baseline=" + FmtNum(b) + " candidate=" + FmtNum(c));
      }
      break;
    case Policy::kSimTime:
      if (!NearlyEqual(b, c)) {
        st->Fail(label + ": baseline=" + FmtNum(b) + " candidate=" + FmtNum(c));
      }
      break;
    case Policy::kWallSoft:
      if (b > 0 && c > b * st->max_wall_ratio) {
        st->Warn(label + ": " + FmtNum(c) + "s is >" +
                 FmtNum(st->max_wall_ratio) + "x baseline " + FmtNum(b) + "s");
      }
      break;
    case Policy::kInfo:
      break;
  }
}

/// Generic structural diff of a run's `metrics` registry dump. Counters and
/// gauges are numbers; histograms are nested objects — recurse. The registry
/// holds no wall-clock metrics, so everything here is deterministic and any
/// numeric difference hard-fails. A key present only in the candidate is a
/// newly-registered metric (warn: the baseline wants a refresh); a key
/// present only in the baseline means a metric disappeared (fail).
void DiffMetricsObject(DiffState* st, const std::string& where,
                       const JsonValue& base, const JsonValue& cand) {
  for (const auto& [key, bval] : base.obj) {
    const JsonValue* cval = cand.Find(key);
    const std::string label = where + "." + key;
    if (cval == nullptr) {
      st->Fail(label + ": metric missing from candidate");
      continue;
    }
    if (bval.kind == JsonValue::Kind::kObject) {
      if (cval->kind != JsonValue::Kind::kObject) {
        st->Fail(label + ": kind changed");
      } else {
        DiffMetricsObject(st, label, bval, *cval);
      }
      continue;
    }
    if (!NearlyEqual(AsNumber(bval), AsNumber(*cval))) {
      st->Fail(label + ": baseline=" + FmtNum(AsNumber(bval)) +
               " candidate=" + FmtNum(AsNumber(*cval)));
    }
  }
  for (const auto& [key, cval] : cand.obj) {
    (void)cval;
    if (base.Find(key) == nullptr) {
      st->Warn(where + "." + key +
               ": new metric not in baseline (refresh baselines, see "
               "EXPERIMENTS.md)");
    }
  }
}

void DiffRun(DiffState* st, const std::string& name, const JsonValue& base,
             const JsonValue& cand) {
  for (const ScalarRule& rule : kScalarRules) {
    DiffScalar(st, name, rule.key, rule.policy, base.Find(rule.key),
               cand.Find(rule.key));
  }
  for (const CounterDesc& d : trance::runtime::kStageCounters) {
    DiffScalar(st, name, d.name, d.diff, base.Find(d.name), cand.Find(d.name));
  }
  const JsonValue* bm = base.Find("metrics");
  const JsonValue* cm = cand.Find("metrics");
  if (bm != nullptr && cm != nullptr) {
    DiffMetricsObject(st, name + ".metrics", *bm, *cm);
  } else if (bm != nullptr || cm != nullptr) {
    st->Fail(name + ".metrics: present in only one report");
  }
}

/// --check-events mode: validates an event-log JSONL file (one JSON object
/// per line, leading "type" string, lowercase snake_case field names). This
/// is the schema gate ci/bench_smoke.sh runs over the TRANCE_EVENT_LOG
/// output of the smoke bench.
int CheckEvents(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  auto valid_key = [](const std::string& k) {
    if (k.empty() || !(std::islower(static_cast<unsigned char>(k[0])) ||
                       k[0] == '_')) {
      return false;
    }
    for (char c : k) {
      if (!(std::islower(static_cast<unsigned char>(c)) ||
            std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
        return false;
      }
    }
    return true;
  };
  int bad = 0;
  int lineno = 0;
  size_t events = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    ++events;
    auto parsed = trance::obs::ParseJson(line);
    if (!parsed.ok()) {
      std::printf("FAIL  line %d: not valid JSON: %s\n", lineno,
                  parsed.status().ToString().c_str());
      ++bad;
      continue;
    }
    const JsonValue& v = parsed.value();
    if (!v.is_object() || v.obj.empty() || v.obj[0].first != "type" ||
        v.obj[0].second.kind != JsonValue::Kind::kString ||
        v.obj[0].second.str.empty()) {
      std::printf("FAIL  line %d: not an object with a leading type field\n",
                  lineno);
      ++bad;
      continue;
    }
    for (const auto& [key, val] : v.obj) {
      (void)val;
      if (!valid_key(key)) {
        std::printf("FAIL  line %d: field %s is not lowercase snake_case\n",
                    lineno, key.c_str());
        ++bad;
      }
    }
  }
  if (events == 0) {
    std::printf("FAIL  %s: no events\n", path);
    ++bad;
  }
  std::printf("bench_diff --check-events: %zu event(s), %d problem(s) [%s]\n",
              events, bad, path);
  return bad > 0 ? 1 : 0;
}

trance::StatusOr<JsonValue> LoadReport(const char* path) {
  std::ifstream in(path);
  if (!in) {
    return trance::Status::Invalid(std::string("cannot open ") + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return trance::obs::ParseJson(buf.str());
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* candidate_path = nullptr;
  DiffState st;
  if (argc == 3 && std::strcmp(argv[1], "--check-events") == 0) {
    return CheckEvents(argv[2]);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-wall-ratio") == 0 && i + 1 < argc) {
      st.max_wall_ratio = std::atof(argv[++i]);
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (candidate_path == nullptr) {
      candidate_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path == nullptr || candidate_path == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_diff <baseline.json> <candidate.json> "
                 "[--max-wall-ratio R]\n"
                 "       bench_diff --check-events <events.jsonl>\n");
    return 2;
  }

  auto base_or = LoadReport(baseline_path);
  if (!base_or.ok()) {
    std::fprintf(stderr, "baseline: %s\n", base_or.status().ToString().c_str());
    return 2;
  }
  auto cand_or = LoadReport(candidate_path);
  if (!cand_or.ok()) {
    std::fprintf(stderr, "candidate: %s\n",
                 cand_or.status().ToString().c_str());
    return 2;
  }
  const JsonValue& base = base_or.value();
  const JsonValue& cand = cand_or.value();

  const JsonValue* bname = base.Find("bench");
  const JsonValue* cname = cand.Find("bench");
  if (bname == nullptr || cname == nullptr || bname->str != cname->str) {
    st.Fail("bench name differs (comparing different benchmarks?)");
  }

  const JsonValue* bruns = base.Find("runs");
  const JsonValue* cruns = cand.Find("runs");
  if (bruns == nullptr || cruns == nullptr || !bruns->is_array() ||
      !cruns->is_array()) {
    std::fprintf(stderr, "reports lack a runs array\n");
    return 2;
  }
  for (const JsonValue& br : bruns->arr) {
    const JsonValue* n = br.Find("name");
    if (n == nullptr) continue;
    const JsonValue* cr = FindRun(*cruns, n->str);
    if (cr == nullptr) {
      st.Fail(n->str + ": run missing from candidate");
      continue;
    }
    DiffRun(&st, n->str, br, *cr);
  }
  for (const JsonValue& cr : cruns->arr) {
    const JsonValue* n = cr.Find("name");
    if (n != nullptr && FindRun(*bruns, n->str) == nullptr) {
      st.Fail(n->str + ": run not in baseline (refresh baselines, see "
              "EXPERIMENTS.md)");
    }
  }

  std::printf("bench_diff: %d hard difference(s), %d warning(s) [%s vs %s]\n",
              st.hard_failures, st.warnings, baseline_path, candidate_path);
  return st.hard_failures > 0 ? 1 : 0;
}

// The shuffle-volume comparisons quoted in Section 6's text:
//  - flat-to-nested: Standard/Unshred max-stage shuffle ~20x Shred's;
//  - nested-to-nested: Standard total shuffle ~3x Shred's;
//  - nested-to-flat (wide): Standard total shuffle >2x Shred's;
//  - the skew-aware join shuffles far less than the skew-unaware one at
//    moderate (factor 2) and high (factor 4) skew.
// Exact multipliers depend on the simulator scale; the table reports who
// shuffles more and by what factor.
#include <cstdio>

#include "bench_common.h"
#include "fig7_harness.h"
#include "tpch/queries.h"
#include "util/strings.h"

namespace trance {
namespace bench {
namespace {

const RunResult* Find(const std::vector<RunResult>& rs,
                      const std::string& name) {
  for (const auto& r : rs) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

void Compare(const char* label, const std::vector<RunResult>& rs,
             const std::string& a, const std::string& b,
             uint64_t (runtime::JobStats::*stat)() const) {
  const RunResult* ra = Find(rs, a);
  const RunResult* rb = Find(rs, b);
  if (ra == nullptr || rb == nullptr) {
    std::printf("%-58s  (missing runs)\n", label);
    return;
  }
  std::printf("%-58s  %s  (%s vs %s)\n", label,
              Ratio(*ra, *rb, stat).c_str(),
              ra->ok ? FormatBytes((ra->stats.*stat)()).c_str() : "FAIL",
              rb->ok ? FormatBytes((rb->stats.*stat)()).c_str() : "FAIL");
}

}  // namespace
}  // namespace bench
}  // namespace trance

int main() {
  using namespace trance;
  using namespace trance::bench;

  EnableBenchObservability();
  Fig7Config narrow;
  narrow.width = tpch::Width::kNarrow;
  narrow.partition_memory_cap = 64ull << 20;  // uncapped: measure volumes
  auto nruns = RunFig7(narrow);
  Fig7Config wide = narrow;
  wide.width = tpch::Width::kWide;
  auto wruns = RunFig7(wide);

  std::printf("\n=== Shuffle comparisons (Section 6 text) ===\n");
  Compare("flat-to-nested wide d2: STANDARD vs SHRED (max stage)", wruns,
          "flat_to_nested d2 STANDARD", "flat_to_nested d2 SHRED",
          &runtime::JobStats::max_stage_shuffle_bytes);
  Compare("flat-to-nested wide d4: STANDARD vs SHRED (max stage)", wruns,
          "flat_to_nested d4 STANDARD", "flat_to_nested d4 SHRED",
          &runtime::JobStats::max_stage_shuffle_bytes);
  Compare("nested-to-nested narrow d2: STANDARD vs SHRED (total)", nruns,
          "nested_to_nested d2 STANDARD", "nested_to_nested d2 SHRED",
          &runtime::JobStats::total_shuffle_bytes);
  Compare("nested-to-nested wide d2: STANDARD vs SHRED (total)", wruns,
          "nested_to_nested d2 STANDARD", "nested_to_nested d2 SHRED",
          &runtime::JobStats::total_shuffle_bytes);
  Compare("nested-to-flat wide d2: STANDARD vs SHRED (total)", wruns,
          "nested_to_flat d2 STANDARD", "nested_to_flat d2 SHRED",
          &runtime::JobStats::total_shuffle_bytes);
  std::printf(
      "\n(skew join shuffle reductions: see bench_fig8_skew — SHRED vs "
      "SHRED_SKEW at skew 2 and 4)\n");

  std::vector<RunResult> all = nruns;
  all.insert(all.end(), wruns.begin(), wruns.end());
  TRANCE_CHECK(WriteBenchReport("shuffle_table", all).ok(), "bench report");
  return 0;
}

// Shared JobStats equality check for the determinism suites (thread-count
// invariance, fusion, spill and fault transparency): every quantity two runs
// record must match except the wall-clock fields and the counter groups the
// caller excludes by name. The counter-table rows (runtime/stage_counters.h)
// are walked generically, so a new counter is covered without editing any
// suite.
#ifndef TRANCE_TESTS_STATS_TEST_UTIL_H_
#define TRANCE_TESTS_STATS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>

#include "runtime/stats.h"

namespace trance {
namespace testing_util {

/// Expects `a` and `b` to agree on every non-wall-clock quantity, job totals
/// and stage by stage. Counters of an `excluded` group are not compared; an
/// excluded fault group also skips the recovery time and per-slot retries.
inline void ExpectSameStats(
    const runtime::JobStats& a, const runtime::JobStats& b,
    std::initializer_list<runtime::CounterGroup> excluded = {}) {
  auto compared = [&](runtime::CounterGroup g) {
    return std::find(excluded.begin(), excluded.end(), g) == excluded.end();
  };
  auto expect_counters = [&](const runtime::StageCounters& ca,
                             const runtime::StageCounters& cb) {
    for (const runtime::CounterDesc& d : runtime::kStageCounters) {
      if (compared(d.group)) {
        EXPECT_EQ(ca.*d.field, cb.*d.field) << d.name;
      }
    }
  };
  const bool faults = compared(runtime::CounterGroup::kFault);
  EXPECT_EQ(a.total_shuffle_bytes(), b.total_shuffle_bytes());
  EXPECT_EQ(a.max_stage_shuffle_bytes(), b.max_stage_shuffle_bytes());
  EXPECT_EQ(a.peak_partition_bytes(), b.peak_partition_bytes());
  EXPECT_EQ(a.fused_stages(), b.fused_stages());
  EXPECT_EQ(a.intermediate_bytes_avoided(), b.intermediate_bytes_avoided());
  EXPECT_EQ(a.sim_seconds(), b.sim_seconds());
  if (faults) {
    EXPECT_EQ(a.recovery_sim_seconds(), b.recovery_sim_seconds());
  }
  expect_counters(a.counters(), b.counters());
  ASSERT_EQ(a.stages().size(), b.stages().size());
  for (size_t i = 0; i < a.stages().size(); ++i) {
    const runtime::StageStats& sa = a.stages()[i];
    const runtime::StageStats& sb = b.stages()[i];
    SCOPED_TRACE("stage " + std::to_string(i) + " (" + sa.op + ")");
    EXPECT_EQ(sa.op, sb.op);
    EXPECT_EQ(sa.scope, sb.scope);
    EXPECT_EQ(sa.rows_in, sb.rows_in);
    EXPECT_EQ(sa.rows_out, sb.rows_out);
    EXPECT_EQ(sa.shuffle_bytes, sb.shuffle_bytes);
    EXPECT_EQ(sa.max_partition_recv_bytes, sb.max_partition_recv_bytes);
    EXPECT_EQ(sa.max_partition_work_bytes, sb.max_partition_work_bytes);
    EXPECT_EQ(sa.total_work_bytes, sb.total_work_bytes);
    EXPECT_EQ(sa.mem_high_water_bytes, sb.mem_high_water_bytes);
    EXPECT_EQ(sa.heavy_key_count, sb.heavy_key_count);
    EXPECT_EQ(sa.movement, sb.movement);
    EXPECT_EQ(sa.partition_send_bytes, sb.partition_send_bytes);
    EXPECT_EQ(sa.partition_recv_bytes, sb.partition_recv_bytes);
    EXPECT_EQ(sa.partition_work_bytes, sb.partition_work_bytes);
    EXPECT_EQ(sa.intermediate_bytes_avoided, sb.intermediate_bytes_avoided);
    ASSERT_EQ(sa.fused_transforms.size(), sb.fused_transforms.size());
    for (size_t t = 0; t < sa.fused_transforms.size(); ++t) {
      EXPECT_EQ(sa.fused_transforms[t].op, sb.fused_transforms[t].op);
      EXPECT_EQ(sa.fused_transforms[t].scope, sb.fused_transforms[t].scope);
      EXPECT_EQ(sa.fused_transforms[t].rows_out,
                sb.fused_transforms[t].rows_out);
    }
    expect_counters(sa, sb);
    if (faults) {
      EXPECT_EQ(sa.recovery_sim_seconds, sb.recovery_sim_seconds);
      EXPECT_EQ(sa.partition_retries, sb.partition_retries);
    }
    EXPECT_EQ(sa.sim_seconds, sb.sim_seconds);  // exact: same integer inputs
  }
}

}  // namespace testing_util
}  // namespace trance

#endif  // TRANCE_TESTS_STATS_TEST_UTIL_H_

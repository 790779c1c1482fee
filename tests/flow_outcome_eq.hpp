// Bitwise comparison of two flow outcomes, shared by the flow and the
// fault-injection tests: neither the thread count nor a crash-and-resume of
// the statistical phase may move a single bit of what run_flow returns.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "netlist/circuit.hpp"
#include "report/flow.hpp"

namespace statleak {

inline std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The optimizer's trajectory: every counter and the final objective's bits.
/// `replayed_moves` and `note` are left out, because a resumed run reports
/// its replay there.
inline void expect_same_trajectory(const OptResult& a, const OptResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.sizing_commits, b.sizing_commits);
  EXPECT_EQ(a.hvt_commits, b.hvt_commits);
  EXPECT_EQ(a.downsize_commits, b.downsize_commits);
  EXPECT_EQ(a.rejected_moves, b.rejected_moves);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(bits_of(a.final_objective), bits_of(b.final_objective));
}

inline void expect_same_metrics(const CircuitMetrics& a,
                                const CircuitMetrics& b) {
  EXPECT_EQ(bits_of(a.nominal_delay_ps), bits_of(b.nominal_delay_ps));
  EXPECT_EQ(bits_of(a.corner3_delay_ps), bits_of(b.corner3_delay_ps));
  EXPECT_EQ(bits_of(a.ssta_delay_mean_ps), bits_of(b.ssta_delay_mean_ps));
  EXPECT_EQ(bits_of(a.ssta_delay_sigma_ps), bits_of(b.ssta_delay_sigma_ps));
  EXPECT_EQ(bits_of(a.timing_yield), bits_of(b.timing_yield));
  EXPECT_EQ(bits_of(a.leakage_nominal_na), bits_of(b.leakage_nominal_na));
  EXPECT_EQ(bits_of(a.leakage_mean_na), bits_of(b.leakage_mean_na));
  EXPECT_EQ(bits_of(a.leakage_sigma_na), bits_of(b.leakage_sigma_na));
  EXPECT_EQ(bits_of(a.leakage_p95_na), bits_of(b.leakage_p95_na));
  EXPECT_EQ(bits_of(a.leakage_p99_na), bits_of(b.leakage_p99_na));
  EXPECT_EQ(a.hvt_count, b.hvt_count);
  EXPECT_EQ(a.cell_count, b.cell_count);
  EXPECT_EQ(bits_of(a.hvt_fraction), bits_of(b.hvt_fraction));
  EXPECT_EQ(bits_of(a.area_um), bits_of(b.area_um));
}

/// Everything but the wall-clock runtimes and the MC checks.
inline void expect_same_flow_outcome(const FlowOutcome& a,
                                     const FlowOutcome& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(bits_of(a.d_min_ps), bits_of(b.d_min_ps));
  EXPECT_EQ(bits_of(a.t_max_ps), bits_of(b.t_max_ps));
  EXPECT_EQ(bits_of(a.det_corner_k), bits_of(b.det_corner_k));
  expect_same_trajectory(a.det_result, b.det_result);
  expect_same_trajectory(a.stat_result, b.stat_result);
  expect_same_metrics(a.det_metrics, b.det_metrics);
  expect_same_metrics(a.stat_metrics, b.stat_metrics);
}

/// The sizes and Vths the flow left on its circuit (the statistical
/// solution).
inline void expect_same_implementation(const Circuit& a, const Circuit& b) {
  ASSERT_EQ(a.num_gates(), b.num_gates());
  for (GateId id = 0; id < a.num_gates(); ++id) {
    EXPECT_EQ(bits_of(a.gate(id).size), bits_of(b.gate(id).size)) << id;
    EXPECT_EQ(a.gate(id).vth, b.gate(id).vth) << id;
  }
}

}  // namespace statleak

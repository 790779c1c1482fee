#include "cells/library.hpp"

#include <algorithm>
#include <cmath>

#include "cells/topology.hpp"
#include "util/error.hpp"
#include "util/exp.hpp"

namespace statleak {

namespace {

constexpr std::size_t index_of(Vth vth) {
  return vth == Vth::kLow ? 0 : 1;
}

double binomial(int n, int k) {
  double result = 1.0;
  for (int i = 1; i <= k; ++i) {
    result = result * static_cast<double>(n - k + i) / static_cast<double>(i);
  }
  return result;
}

}  // namespace

CellLibrary::CellLibrary(const ProcessNode& node)
    : CellLibrary(node, default_size_steps()) {}

CellLibrary::CellLibrary(const ProcessNode& node,
                         std::vector<double> size_steps)
    : node_(node), size_steps_(std::move(size_steps)) {
  node_.validate();
  STATLEAK_CHECK(!size_steps_.empty(), "size grid must be non-empty");
  STATLEAK_CHECK(std::is_sorted(size_steps_.begin(), size_steps_.end()),
                 "size grid must be ascending");
  STATLEAK_CHECK(size_steps_.front() > 0.0, "sizes must be positive");
  precompute();
}

std::vector<double> CellLibrary::default_size_steps() {
  // Geometric grid X1..X16, ratio 16^(1/10) ~ 1.32 — the granularity of a
  // typical standard-cell drive ladder.
  std::vector<double> steps;
  const double ratio = std::pow(16.0, 0.1);
  double s = 1.0;
  for (int i = 0; i <= 10; ++i) {
    steps.push_back(s);
    s *= ratio;
  }
  steps.back() = 16.0;  // kill accumulated rounding
  return steps;
}

void CellLibrary::precompute() {
  const double wn = node_.wn_unit_um;
  const double wp = node_.pn_ratio * wn;
  cin_unit_ff_ = gate_cap_ff(node_, wn + wp);

  for (Vth vth : {Vth::kLow, Vth::kHigh}) {
    const std::size_t v = index_of(vth);
    idrive_unit_ua_[v] = drive_current_ua(node_, vth, wn);
    tau_ps_[v] =
        1000.0 * node_.k_delay * node_.vdd * cin_unit_ff_ / idrive_unit_ua_[v];
    sens_[v] = device_sensitivities(node_, vth);

    for (std::size_t k = 0; k < kNumCellKinds; ++k) {
      const auto kind = static_cast<CellKind>(k);
      double leak = 0.0;
      for (const StageSpec& stage : stage_spec(kind)) {
        const int m = stage.fanin;
        const double states = std::pow(2.0, m);
        // Widths of the stage's devices for a size-1 cell: series devices
        // are m-times wider to preserve drive.
        const double w_series =
            static_cast<double>(m) * stage.scale * (stage.nand_like ? wn : wp);
        const double w_parallel = stage.scale * (stage.nand_like ? wp : wn);
        double stage_leak = 0.0;
        for (int off = 0; off <= m; ++off) {
          const double prob = binomial(m, off) / states;
          if (off == 0) {
            // Stack conducting, parallel network fully off at full Vds.
            stage_leak += prob * static_cast<double>(m) *
                          subthreshold_current_na(node_, vth, w_parallel);
          } else {
            stage_leak += prob * stack_factor(off) *
                          subthreshold_current_na(node_, vth, w_series);
          }
        }
        leak += stage_leak;
      }
      leak_unit_[k][v] = leak;
    }
  }
}

double CellLibrary::pin_cap_ff(CellKind kind, double size) const {
  STATLEAK_CHECK(size > 0.0, "cell size must be positive");
  return cell_info(kind).logical_effort * size * cin_unit_ff_;
}

double CellLibrary::wire_cap_ff(int fanout) const {
  STATLEAK_CHECK(fanout >= 0, "fanout must be non-negative");
  if (fanout == 0) return 0.0;
  return node_.cw_fixed_ff + node_.cw_per_fanout_ff * fanout;
}

double CellLibrary::tau_ps(Vth vth) const { return tau_ps_[index_of(vth)]; }

double CellLibrary::delay_ps(CellKind kind, Vth vth, double size,
                             double load_ff) const {
  STATLEAK_CHECK(size > 0.0, "cell size must be positive");
  STATLEAK_CHECK(load_ff >= 0.0, "load must be non-negative");
  const std::size_t v = index_of(vth);
  const double intrinsic = cell_info(kind).parasitic * tau_ps_[v];
  const double drive = 1000.0 * node_.k_delay * node_.vdd * load_ff /
                       (idrive_unit_ua_[v] * size);
  return intrinsic + drive;
}

double CellLibrary::delay_ps(CellKind kind, Vth vth, double size,
                             double load_ff, double dl_nm,
                             double dvth_v) const {
  STATLEAK_CHECK(size > 0.0, "cell size must be positive");
  const double wn = node_.wn_unit_um * size;
  const double id = drive_current_ua(node_, vth, wn, dl_nm, dvth_v);
  const double id_unit = id / size;
  const double intrinsic =
      cell_info(kind).parasitic * 1000.0 * node_.k_delay * node_.vdd *
      cin_unit_ff_ / id_unit;
  const double drive = 1000.0 * node_.k_delay * node_.vdd * load_ff / id;
  return intrinsic + drive;
}

CellLibrary::DelayTerms CellLibrary::delay_terms(CellKind kind,
                                                 Vth vth) const {
  const std::size_t v = index_of(vth);
  DelayTerms t;
  t.intrinsic_ps = cell_info(kind).parasitic * tau_ps_[v];
  t.drive_num = 1000.0 * node_.k_delay * node_.vdd;
  t.idrive_unit_ua = idrive_unit_ua_[v];
  return t;
}

double CellLibrary::leak_unit_na(CellKind kind, Vth vth) const {
  return leak_unit_[static_cast<std::size_t>(kind)][index_of(vth)];
}

double CellLibrary::leakage_na(CellKind kind, Vth vth, double size) const {
  STATLEAK_CHECK(size > 0.0, "cell size must be positive");
  return leak_unit_[static_cast<std::size_t>(kind)][index_of(vth)] * size;
}

double CellLibrary::leakage_na(CellKind kind, Vth vth, double size,
                               double dl_nm, double dvth_v) const {
  const auto& s = sens_[index_of(vth)];
  const double exponent = -s.leak_cl_per_nm * dl_nm -
                          s.leak_cv_per_v * dvth_v +
                          s.leak_q_per_nm2 * dl_nm * dl_nm;
  return leakage_na(kind, vth, size) * exp_f64(exponent);
}

double CellLibrary::leakage_power_nw(CellKind kind, Vth vth,
                                     double size) const {
  return leakage_na(kind, vth, size) * node_.vdd;
}

const DeviceSensitivities& CellLibrary::sensitivities(Vth vth) const {
  return sens_[index_of(vth)];
}

double CellLibrary::area_um(CellKind kind, double size) const {
  const double unit_width = node_.wn_unit_um * (1.0 + node_.pn_ratio);
  return cell_info(kind).width_factor * size * unit_width;
}

std::size_t CellLibrary::nearest_step(double size) const {
  const auto it =
      std::lower_bound(size_steps_.begin(), size_steps_.end(), size);
  if (it == size_steps_.begin()) return 0;
  if (it == size_steps_.end()) return size_steps_.size() - 1;
  const auto hi = static_cast<std::size_t>(it - size_steps_.begin());
  const std::size_t lo = hi - 1;
  return (size - size_steps_[lo] <= size_steps_[hi] - size) ? lo : hi;
}

}  // namespace statleak

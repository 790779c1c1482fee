/// \file library.hpp
/// \brief The dual-Vth standard-cell library: delay, capacitance, leakage and
///        area of every (kind, Vth, size) point, synthesized from the tech
///        device models.
///
/// Delay follows the logical-effort form
///
///   d(kind, vth, x, Cload) = p(kind) * tau(vth) +
///                            k_delay * Vdd * Cload / Id_unit(vth, x)
///
/// where tau(vth) is the technology time constant of that threshold class and
/// x is the continuous cell size (drive strength, >= 1). Input pin cap is
/// g(kind) * x * Cin_unit. Leakage is the state-averaged stack-aware
/// off-current of the cell's stage decomposition (topology.hpp), linear in x.
///
/// Under variation the library exposes both the exact nonlinear evaluation
/// (alpha-power drive with perturbed Vth/L — used by the Monte-Carlo golden
/// model) and the first-order sensitivities consumed by SSTA.

#pragma once

#include <array>
#include <span>
#include <vector>

#include "cells/cell_kind.hpp"
#include "tech/device.hpp"
#include "tech/process.hpp"

namespace statleak {

/// Immutable once constructed; shared by reference across analyses.
class CellLibrary {
 public:
  /// Builds the library for a node with the default geometric size grid
  /// X1..X16 (ratio ~1.32).
  explicit CellLibrary(const ProcessNode& node);

  /// Builds with a custom discrete size grid (ascending, all >= min size).
  CellLibrary(const ProcessNode& node, std::vector<double> size_steps);

  const ProcessNode& node() const { return node_; }

  /// Discrete sizes the optimizers may assign (ascending).
  std::span<const double> size_steps() const { return size_steps_; }

  /// Input capacitance [fF] presented by one input pin of a cell.
  double pin_cap_ff(CellKind kind, double size) const;

  /// Wire capacitance [fF] of a net with the given fanout count.
  double wire_cap_ff(int fanout) const;

  /// Technology time constant tau [ps] of a threshold class.
  double tau_ps(Vth vth) const;

  /// Nominal arc delay [ps] of a cell driving `load_ff`.
  double delay_ps(CellKind kind, Vth vth, double size, double load_ff) const;

  /// Exact (nonlinear) arc delay [ps] under parameter deviations — the
  /// Monte-Carlo golden model.
  double delay_ps(CellKind kind, Vth vth, double size, double load_ff,
                  double dl_nm, double dvth_v) const;

  /// Nominal state-averaged leakage current [nA] of a cell.
  double leakage_na(CellKind kind, Vth vth, double size) const;

  /// Leakage [nA] under parameter deviations:
  /// nominal * exp(-cL*dL - cV*dVth + q*dL^2), with the in-repo exp_f64
  /// (util/exp.hpp) — the Monte-Carlo leakage kernel's exp, bit for bit.
  double leakage_na(CellKind kind, Vth vth, double size, double dl_nm,
                    double dvth_v) const;

  /// Leakage power [nW] = I * Vdd.
  double leakage_power_nw(CellKind kind, Vth vth, double size) const;

  /// Decomposed nominal-delay terms for batched move pricing:
  ///
  ///   delay_ps(kind, vth, size, load_ff)
  ///     == intrinsic_ps + drive_num * load_ff / (idrive_unit_ua * size)
  ///
  /// *bit-identically* — each field is the exact subexpression delay_ps()
  /// evaluates (drive_num is the left-associated 1000 * k_delay * vdd
  /// product), so a candidate-batched scorer completing the formula in SoA
  /// loops reproduces the scalar pricing path bit for bit.
  struct DelayTerms {
    double intrinsic_ps = 0.0;    ///< cell parasitic * tau
    double drive_num = 0.0;       ///< 1000 * k_delay * vdd
    double idrive_unit_ua = 0.0;  ///< per-unit-size drive current
  };
  DelayTerms delay_terms(CellKind kind, Vth vth) const;

  /// Per-unit-size state-averaged leakage [nA]: leakage_na(kind, vth, size)
  /// == leak_unit_na(kind, vth) * size, bit-identically.
  double leak_unit_na(CellKind kind, Vth vth) const;

  /// First-order variation sensitivities of the given threshold class.
  const DeviceSensitivities& sensitivities(Vth vth) const;

  /// Cell area proxy [um of device width].
  double area_um(CellKind kind, double size) const;

  /// Index of the size step nearest to `size` in the discrete grid.
  std::size_t nearest_step(double size) const;

 private:
  void precompute();
  static std::vector<double> default_size_steps();

  ProcessNode node_;
  std::vector<double> size_steps_;
  double cin_unit_ff_ = 0.0;  ///< input cap of the unit inverter
  std::array<double, 2> idrive_unit_ua_{};  ///< per Vth class
  std::array<double, 2> tau_ps_{};
  std::array<DeviceSensitivities, 2> sens_{};
  /// leak_unit_[kind][vth]: state-averaged leakage [nA] at size 1.
  std::array<std::array<double, 2>, kNumCellKinds> leak_unit_{};
};

}  // namespace statleak

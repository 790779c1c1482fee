/// \file process.hpp
/// \brief Technology-node description for a generic dual-Vth CMOS process.
///
/// The DAC'04 paper calibrates against a Berkeley Predictive Technology Model
/// (BPTM) 100 nm-class process. Those SPICE decks are not redistributable
/// here, so statleak ships closed-form device models parameterized by the
/// published headline constants of such a node (Vdd, Leff, sub-threshold
/// slope, dual-Vth values, drive strength, caps). See DESIGN.md §3 for the
/// substitution argument: the optimization consumes only
/// (delay, leakage) = f(size, Vth, load, dL, dVth), and these closed forms
/// preserve the functional sensitivities that drive every conclusion —
/// delay linear in dL/dVth, leakage exponential in them.
///
/// Unit conventions used throughout statleak:
///   length nm · width um · capacitance fF · time ps · leakage current nA ·
///   drive current uA · voltage V · leakage power nW.

#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace statleak {

/// Threshold-voltage class of a cell. The dual-Vth flow assigns each gate to
/// one of exactly two classes.
enum class Vth { kLow, kHigh };

/// Short display name ("LVT" / "HVT").
const char* to_string(Vth vth);

/// All parameters of a technology node consumed by the device models.
struct ProcessNode {
  std::string name;

  double vdd = 1.2;              ///< supply voltage [V]
  double leff_nm = 60.0;         ///< nominal effective channel length [nm]
  double temperature_k = 373.0;  ///< analysis temperature [K] (100 C)
  /// Temperature [K] at which `subthreshold_slope`, `i0_na_per_um`, the Vth
  /// corners and `k_drive_ua_per_um` were calibrated. validate() rejects a
  /// node whose `temperature_k` was edited away from this without re-deriving
  /// the constants — use at_temperature() to retarget a node, which scales
  /// the constants and moves both fields together.
  double calib_temperature_k = 373.0;

  // --- dual-Vth corners -----------------------------------------------
  double vth_low = 0.20;   ///< low (fast, leaky) threshold [V]
  double vth_high = 0.32;  ///< high (slow, low-leakage) threshold [V]

  // --- sub-threshold leakage ------------------------------------------
  /// Sub-threshold swing S [V/decade] at the analysis temperature.
  double subthreshold_slope = 0.100;
  /// Leakage prefactor: Ioff of a 1 um-wide device extrapolated to Vth = 0
  /// [nA/um]. Calibrated so a 100 nm-class LVT device leaks ~30 nA/um.
  double i0_na_per_um = 3000.0;
  /// Vth roll-off slope dVth/dL [V/nm]: shorter channel -> lower Vth ->
  /// exponentially higher leakage. Positive value; Vth_eff = Vth + rolloff*dL.
  double vth_rolloff_v_per_nm = 0.0010;
  /// Optional second-order channel-length exponent [1/nm^2] in
  /// ln Ioff = ln Inom - cL*dL - cV*dVth + q*dL^2. Zero in the canonical
  /// linear-exponent (lognormal) model; exercised by the ablation bench.
  double leak_quadratic_per_nm2 = 0.0;

  // --- drive / delay ----------------------------------------------------
  double alpha = 1.30;          ///< alpha-power-law velocity-saturation index
  double k_drive_ua_per_um = 600.0;  ///< Idsat of 1 um LVT device / (Vdd-Vth)^alpha [uA/um/V^alpha]
  double k_delay = 0.69;        ///< delay fitting constant (RC-style 0.69)

  // --- capacitance -------------------------------------------------------
  double cg_ff_per_um = 1.50;    ///< gate input capacitance [fF/um]
  double cj_ff_per_um = 1.00;    ///< drain junction capacitance [fF/um]
  double cw_fixed_ff = 0.60;     ///< fixed wire capacitance per net [fF]
  double cw_per_fanout_ff = 0.25;  ///< incremental wire cap per fanout [fF]

  // --- geometry ----------------------------------------------------------
  double wn_unit_um = 0.5;  ///< NMOS width of the unit (size-1) inverter [um]
  double pn_ratio = 1.8;    ///< PMOS/NMOS width ratio of all cells

  // --- first-order environment scaling ------------------------------------
  /// Vth temperature coefficient [V/K]: Vth(T) = Vth(T0) - tc*(T - T0).
  /// ~0.5-1 mV/K for bulk CMOS of this era.
  double vth_tc_v_per_k = 0.0007;
  /// Mobility temperature exponent m: k_drive(T) = k_drive(T0)*(T/T0)^-m.
  double mobility_exponent = 1.5;
  /// DIBL-style Vdd sensitivity of Vth [V/V]: derating Vdd raises Vth by
  /// dibl*(Vdd_old - Vdd_new) (lower drain field -> less barrier lowering).
  double dibl_v_per_v = 0.08;

  /// Threshold voltage of the given class [V].
  double vth_of(Vth vth) const {
    return vth == Vth::kLow ? vth_low : vth_high;
  }

  /// Throws statleak::Error if any parameter is non-physical.
  void validate() const;
};

/// Feeds the node's physical constants to a fingerprint: `mix` receives
/// each double's bits, in this fixed order. The name and
/// `calib_temperature_k` are not mixed. Shared by the optimizer's and the
/// Monte-Carlo checkpoint fingerprints; reordering or extending the list
/// invalidates every journal and checkpoint written before.
template <class Mix>
void mix_node_constants(const ProcessNode& node, Mix&& mix) {
  for (const double x :
       {node.vdd, node.leff_nm, node.temperature_k, node.vth_low,
        node.vth_high, node.subthreshold_slope, node.i0_na_per_um,
        node.vth_rolloff_v_per_nm, node.leak_quadratic_per_nm2, node.alpha,
        node.k_drive_ua_per_um, node.k_delay, node.cg_ff_per_um,
        node.cj_ff_per_um, node.cw_fixed_ff, node.cw_per_fanout_ff,
        node.wn_unit_um, node.pn_ratio}) {
    mix(std::bit_cast<std::uint64_t>(x));
  }
}

/// Generic 100 nm-class node (BPTM/ITRS-2003-era constants). The default
/// technology for all experiments.
ProcessNode generic_100nm();

/// Generic 70 nm-class node: scaled Vdd/Leff, steeper roll-off, leakier.
/// Used to show trends across nodes.
ProcessNode generic_70nm();

/// Generic 130 nm-class node: the previous generation — higher Vdd, longer
/// channel, gentler roll-off, an order of magnitude less leaky.
ProcessNode generic_130nm();

/// Low-power flavor of the 100 nm node: raised Vth corners and a smaller
/// Ioff prefactor trade drive for leakage.
ProcessNode generic_100nm_lp();

/// Low-power flavor of the 70 nm node.
ProcessNode generic_70nm_lp();

/// Names of all shipped presets, in registry order.
std::vector<std::string> process_node_names();

/// Look up a shipped preset by name. Accepts the numeric aliases "100" and
/// "70" for the two original nodes. Throws statleak::Error for unknown
/// names, listing the valid ones.
ProcessNode process_node_by_name(const std::string& name);

/// Retarget a node to temperature `t_k` [K] by first-order scaling of the
/// calibrated constants: S ~ T (thermal voltage), i0 ~ T^2 (sub-threshold
/// prefactor), Vth down by `vth_tc_v_per_k` per kelvin, drive mobility down
/// as (T/T0)^-m. Moves `temperature_k` and `calib_temperature_k` together
/// so the result validates. Returns the input unchanged (bit-identical)
/// when `t_k` equals the node's current temperature.
ProcessNode at_temperature(ProcessNode node, double t_k);

/// Derate the supply to `vdd_v` [V]. The Vth corners shift by
/// `dibl_v_per_v * (vdd_old - vdd_v)` (lower Vdd -> higher barrier).
/// Returns the input unchanged (bit-identical) when `vdd_v` equals the
/// node's current supply.
ProcessNode at_vdd(ProcessNode node, double vdd_v);

/// Apply an environment corner: temperature then supply. Non-positive
/// `t_k` / `vdd_v` mean "leave at the node's calibrated value". This is the
/// single resolution path shared by `statleak mc --temp/--vdd` and every
/// sweep-grid cell, which is what makes a sweep cell's population
/// bit-identical to the equivalent standalone run.
ProcessNode at_corner(ProcessNode node, double t_k, double vdd_v);

}  // namespace statleak

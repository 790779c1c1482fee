/// \file statleak.hpp
/// \brief Umbrella header: the entire public statleak API in one include.
///
/// Applications (the examples, quick experiments, downstream embedders)
/// should include this single header; the per-module headers stay the
/// include surface *inside* the library, where fine-grained dependencies
/// keep rebuilds cheap. The umbrella is a pure aggregation — it defines
/// nothing itself, so including it alongside individual module headers is
/// harmless.
///
/// Grouping mirrors the source tree:
///   tech/     process parameters + variation decomposition
///   cells/    cell library, topologies, sensitivities
///   netlist/  circuit graph, ISCAS-85 .bench I/O, implementation I/O
///   gen/      synthetic benchmark generators
///   sta/      deterministic STA + per-sample evaluation
///   ssta/     canonical first-order SSTA (Clark max)
///   leakage/  Wilkinson lognormal leakage aggregation
///   mc/       deterministic parallel Monte-Carlo engine
///   spatial/  grid-correlated variation extension
///   power/    dynamic power + activity
///   abb/      adaptive body-bias experiment
///   mlv/      minimum-leakage input-vector search
///   opt/      deterministic + statistical dual-Vth/sizing optimizers
///   report/   the shared det-vs-stat experiment flow
///   api/      the command facade every front end drives
///   dist/     distributed sharded Monte-Carlo campaign runner
///   obs/      observability: registries, traces, JSON run reports
///   util/     shared math + execution utilities

#pragma once

// tech/
#include "tech/device.hpp"
#include "tech/process.hpp"
#include "tech/variation.hpp"

// cells/
#include "cells/cell_kind.hpp"
#include "cells/library.hpp"
#include "cells/topology.hpp"

// netlist/
#include "netlist/bench_io.hpp"
#include "netlist/circuit.hpp"
#include "netlist/impl_io.hpp"

// gen/
#include "gen/arithmetic.hpp"
#include "gen/builder.hpp"
#include "gen/prefix.hpp"
#include "gen/proxy.hpp"
#include "gen/random_dag.hpp"
#include "gen/structures.hpp"

// sta/
#include "sta/loads.hpp"
#include "sta/sta.hpp"

// ssta/
#include "ssta/canonical.hpp"
#include "ssta/flat_incremental.hpp"

// leakage/
#include "leakage/leakage.hpp"

// mc/
#include "mc/arena.hpp"
#include "mc/checkpoint.hpp"
#include "mc/monte_carlo.hpp"
#include "mc/sweep.hpp"

// spatial/
#include "spatial/placement.hpp"
#include "spatial/spatial_analysis.hpp"
#include "spatial/spatial_model.hpp"
#include "spatial/spatial_ssta.hpp"

// power/
#include "power/activity.hpp"
#include "power/power.hpp"

// abb/
#include "abb/abb.hpp"

// mlv/
#include "mlv/mlv.hpp"
#include "mlv/state_leakage.hpp"

// opt/
#include "opt/config.hpp"
#include "opt/deterministic.hpp"
#include "opt/metrics.hpp"
#include "opt/statistical.hpp"

// report/
#include "report/flow.hpp"
#include "report/surface.hpp"

// api/
#include "api/driver.hpp"

// dist/
#include "dist/coordinator.hpp"
#include "dist/partition.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"

// obs/
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/snapshot.hpp"

// util/
#include "util/clark.hpp"
#include "util/error.hpp"
#include "util/exec.hpp"
#include "util/fault.hpp"
#include "util/health.hpp"
#include "util/lognormal.hpp"
#include "util/normal.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

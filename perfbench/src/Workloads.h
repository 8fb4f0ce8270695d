//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload has an untraced run, which produces the end-to-end
/// metrics, and a traced replay, which produces per-layer metrics. A traced
/// run (`--trace 1`) replays all three workloads so that every per-layer
/// metric is measured; each metric comes from exactly one replay (see
/// README.md for the map).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

#include "core/Stagg.h"

namespace perfbench {

/// The pipeline configuration every workload lifts under: the defaults
/// (top-down search, one search thread), as `stagg` and `stagg serve` use.
inline stagg::core::StaggConfig benchConfig() { return {}; }

/// The simulated oracle's seed, as `stagg` and `stagg serve` default it.
constexpr uint64_t OracleSeed = 20250411;

/// Client connections of the serve workloads (and server worker threads).
constexpr int ServeClients = 2;

/// Untraced runs: the end-to-end metrics.
Report runLiftRegistry(const Options &Opts);
Report runServeIngest(const Options &Opts);
Report runServeExecute(const Options &Opts);

/// Traced replays: each adds its per-layer metrics to \p R.
void traceLiftRegistry(const Options &Opts, Report &R);
void traceServeIngest(const Options &Opts, Report &R);
void traceServeExecute(const Options &Opts, Report &R);

/// Metrics every workload reports from its untraced run.
void setEndToEnd(Report &R, double SetupS, double PeakRssMb, double WallS,
                 double CpuS, const std::vector<double> &LatencyMs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

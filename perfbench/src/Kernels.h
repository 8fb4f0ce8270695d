//===- perfbench/src/Kernels.h - Generated request streams ------*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of the two serve workloads, generated from the run's seed
/// before any timing starts. The program under test sees only the rendered
/// wire frames.
///
///  * serve-ingest posts registry C kernels inline, every local variable
///    renamed uniquely per request so that each frame is a result-cache
///    miss whose answer must still equal the kernel's expected sweep row.
///
///  * serve-execute posts `execute` frames on kernels whose lift is cached,
///    with seeded sizes and integer-valued inputs; the expected output of
///    each is computed by interpreting the original C kernel.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_KERNELS_H
#define PERFBENCH_KERNELS_H

#include "Common.h"

#include "api/Api.h"
#include "benchsuite/Benchmark.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Registry kernels serve-ingest draws from: solved in the expected sweep
/// within a light attempt budget, minus the two whose inline ingestion does
/// not reproduce their registry row.
std::vector<const stagg::bench::Benchmark *>
ingestPool(const std::map<std::string, ExpectedRow> &Expected);

/// \p Source with every local variable of the kernel body renamed to
/// `<name>_<Suffix>` (parameters keep their names).
std::string renameLocals(const std::string &Source, const std::string &Suffix);

/// One inline lift request of serve-ingest.
struct IngestRequest {
  const stagg::bench::Benchmark *Kernel = nullptr;
  std::string Source; ///< Renamed C text.
};

/// \p Count requests cycling through \p Pool in seeded order; \p Tag keeps
/// the renames of separate streams (warm-up, timed) distinct.
std::vector<IngestRequest>
ingestStream(const std::vector<const stagg::bench::Benchmark *> &Pool,
             size_t Count, uint64_t Seed, const std::string &Tag);

/// The v2 batch frame carrying \p R as its only request.
std::string ingestFrame(const IngestRequest &R, int64_t Id);

/// One execute request of serve-execute and its expected output.
struct ExecuteCase {
  const stagg::bench::Benchmark *Kernel = nullptr;
  stagg::api::ExecuteIo Io;
  std::string Body; ///< The frame's "execute" object, rendered.
  std::vector<double> Expected; ///< Row-major cells from the C kernel.
  std::string ExpectedData;     ///< `"data":[...]}`, Expected as rendered.
  int64_t Macs = 0; ///< Multiply-accumulates one evaluation performs.
};

/// Every kernel of the execute table (gemm, matvec and elementwise maps) at
/// each of its three size rungs: 24 cases, sizes and inputs drawn from
/// \p Seed.
std::vector<ExecuteCase> executeCases(uint64_t Seed);

/// The v2 execute frame for \p C.
std::string executeFrame(const ExecuteCase &C, int64_t Id);

/// Checks a result event line against \p C cell for cell; empty on match.
std::string checkExecuteResult(const std::string &Line, const ExecuteCase &C);

} // namespace perfbench

#endif // PERFBENCH_KERNELS_H

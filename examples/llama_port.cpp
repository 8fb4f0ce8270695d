//===- examples/llama_port.cpp - Port llama2.c kernels to TACO ------------===//
//
// The paper's second real-world source: the C++-based inference code of
// Llama. This example lifts the six llama2.c forward-pass kernels of the
// suite and additionally demonstrates *using* a lifted program: the verified
// TACO expression for the weight matmul is executed on the bytecode VM and
// cross-checked against the original C kernel on a fresh random model —
// what a user would do before swapping the kernel out for a TACO-compiled
// one.
//
// Build & run:  ./examples/llama_port
//
//===----------------------------------------------------------------------===//

#include "core/Stagg.h"

#include "cfront/Interp.h"
#include "cfront/Parser.h"
#include "llm/SimulatedLlm.h"
#include "support/Rng.h"
#include "taco/Printer.h"
#include "validate/IoExamples.h"
#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <cstdio>
#include <iostream>

using namespace stagg;

int main() {
  llm::SimulatedLlm Oracle(/*Seed=*/20250411);
  core::StaggConfig Config;

  std::cout << "=== Lifting the llama2.c forward-pass kernels ===\n";
  core::LiftResult Matmul;
  for (const bench::Benchmark &B : bench::allBenchmarks()) {
    if (B.Category != "llama")
      continue;
    core::LiftResult R = core::liftBenchmark(B, Oracle, Config);
    std::printf("  %-16s -> %s\n", B.Name.c_str(),
                R.Solved ? taco::printProgram(R.Concrete).c_str()
                         : ("<failed: " + R.FailReason + ">").c_str());
    if (B.Name == "ll_matmul" && R.Solved)
      Matmul = std::move(R);
  }
  if (!Matmul.Solved) {
    std::cout << "matmul did not lift; aborting demo\n";
    return 1;
  }

  std::cout << "\n=== Running the lifted matmul on a random model ===\n";
  const bench::Benchmark *B = bench::findBenchmark("ll_matmul");
  cfront::CParseResult Fn = cfront::parseCFunction(B->CSource);

  // A small random "model": D x Nw weights, Nw activations.
  const int64_t D = 6, Nw = 8;
  Rng R(1234);
  cfront::ExecEnv<double> Env;
  Env.IntScalars["D"] = D;
  Env.IntScalars["Nw"] = Nw;
  Env.Arrays["w"].resize(static_cast<size_t>(D * Nw));
  Env.Arrays["x"].resize(static_cast<size_t>(Nw));
  Env.Arrays["xout"].assign(static_cast<size_t>(D), 0.0);
  for (double &V : Env.Arrays["w"])
    V = static_cast<double>(R.range(-4, 4));
  for (double &V : Env.Arrays["x"])
    V = static_cast<double>(R.range(-4, 4));

  // Original C kernel.
  cfront::ExecEnv<double> COut = Env;
  if (!cfront::runCFunction(*Fn.Function, COut).Ok) {
    std::cout << "legacy kernel failed\n";
    return 1;
  }

  // Lifted TACO program on the bytecode VM.
  std::map<std::string, taco::Tensor<double>> Ops;
  taco::Tensor<double> W({D, Nw}), X({Nw});
  W.flat() = Env.Arrays["w"];
  X.flat() = Env.Arrays["x"];
  Ops.emplace("w", std::move(W));
  Ops.emplace("x", std::move(X));
  vm::Code Code = vm::compileProgram(Matmul.Concrete);
  vm::Interpreter<double> Interp(Code);
  if (!Interp.bindMap(Ops, {D})) {
    std::cout << "VM evaluation failed: " << Interp.error() << "\n";
    return 1;
  }
  taco::EinsumResult<double> Taco = Interp.evaluate();

  bool Agree = Taco.Value.flat() == COut.Arrays["xout"];
  std::cout << "lifted kernel " << (Agree ? "MATCHES" : "DIVERGES FROM")
            << " the legacy kernel on the random model\n";
  for (int64_t I = 0; I < D; ++I)
    std::printf("  xout[%lld]  C=%8.1f  TACO=%8.1f\n",
                static_cast<long long>(I),
                COut.Arrays["xout"][static_cast<size_t>(I)],
                Taco.Value.flat()[static_cast<size_t>(I)]);
  return Agree ? 0 : 1;
}

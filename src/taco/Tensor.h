//===- taco/Tensor.h - Dense tensors for the reference evaluator -*- C++ -*-===//
//
// Part of the STAGG reproduction of "Guided Tensor Lifting" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal dense tensor container parameterized over the scalar type. The
/// validator evaluates over double and the bounded verifier over Rational;
/// both use the same einsum reference evaluator (taco/Einsum.h).
///
//===----------------------------------------------------------------------===//

#ifndef STAGG_TACO_TENSOR_H
#define STAGG_TACO_TENSOR_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace stagg {
namespace taco {

/// Dense row-major tensor. An empty shape denotes a scalar with one element.
template <typename T> class Tensor {
public:
  Tensor() : Data(1, T{}) {}

  explicit Tensor(std::vector<int64_t> Shape) : Dims(std::move(Shape)) {
    int64_t Total = 1;
    for (int64_t D : Dims) {
      assert(D > 0 && "tensor dimensions must be positive");
      Total *= D;
    }
    Data.assign(static_cast<size_t>(Total), T{});
  }

  /// Builds a scalar tensor holding \p Value.
  static Tensor scalar(T Value) {
    Tensor S;
    S.Data[0] = Value;
    return S;
  }

  /// Re-dimensions to \p Shape with every cell T{}, reusing the storage.
  void reshape(const std::vector<int64_t> &Shape) {
    Dims = Shape;
    int64_t Total = 1;
    for (int64_t D : Dims) {
      assert(D > 0 && "tensor dimensions must be positive");
      Total *= D;
    }
    Data.assign(static_cast<size_t>(Total), T{});
  }

  const std::vector<int64_t> &shape() const { return Dims; }
  size_t order() const { return Dims.size(); }
  size_t size() const { return Data.size(); }
  bool isScalar() const { return Dims.empty(); }

  std::vector<T> &flat() { return Data; }
  const std::vector<T> &flat() const { return Data; }

  /// Row-major linearization of \p Coords.
  size_t offsetOf(const std::vector<int64_t> &Coords) const {
    assert(Coords.size() == Dims.size() && "coordinate rank mismatch");
    size_t Offset = 0;
    for (size_t I = 0; I < Dims.size(); ++I) {
      assert(Coords[I] >= 0 && Coords[I] < Dims[I] && "coordinate range");
      Offset = Offset * static_cast<size_t>(Dims[I]) +
               static_cast<size_t>(Coords[I]);
    }
    return Offset;
  }

  T &at(const std::vector<int64_t> &Coords) { return Data[offsetOf(Coords)]; }
  const T &at(const std::vector<int64_t> &Coords) const {
    return Data[offsetOf(Coords)];
  }

  bool operator==(const Tensor &Other) const {
    return Dims == Other.Dims && Data == Other.Data;
  }

private:
  std::vector<int64_t> Dims;
  std::vector<T> Data;
};

} // namespace taco
} // namespace stagg

#endif // STAGG_TACO_TENSOR_H

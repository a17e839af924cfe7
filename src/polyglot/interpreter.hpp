// Functional interpreter for parsed kernels.
//
// Executes the kernel body once per simulated CUDA thread, so examples and
// tests observe real numerical results (the timing comes from the GPU/UVM
// simulator, not from this execution).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "polyglot/ast.hpp"
#include "polyglot/types.hpp"

namespace grout::polyglot {

/// A host-side view of one pointer argument.
struct ArrayBinding {
  ElemType type{ElemType::F64};
  void* data{nullptr};
  std::size_t length{0};

  [[nodiscard]] double get(std::size_t i) const;
  void set(std::size_t i, double v) const;

  /// Typed view of the first `count` elements. Checks once that the
  /// binding stores T and that all `count` elements are in range, so the
  /// loop over the view needs no per-element check.
  template <typename T>
  [[nodiscard]] std::span<T> span(std::size_t count) const {
    GROUT_REQUIRE(type == elem_type_of<T>(), "kernel array has another element type");
    GROUT_REQUIRE(count <= length, "kernel access out of bounds");
    return {static_cast<T*>(data), count};
  }
};

/// Execute `kernel` over a grid of `grid_dim` blocks of `block_dim` threads.
/// `args` holds one entry per kernel parameter, in order: pointer parameters
/// take the corresponding ArrayBinding, scalars the corresponding double.
struct KernelArgs {
  std::vector<ArrayBinding> arrays;  ///< indexed by pointer-parameter order
  std::vector<double> scalars;       ///< indexed by scalar-parameter order
};

/// Call `fn(T{})` with the one element type T shared by every array of
/// `args` (float when there is none). Throws InvalidArgument when the
/// arrays mix element types.
template <typename Fn>
decltype(auto) visit(const KernelArgs& args, Fn&& fn) {
  const ElemType t = args.arrays.empty() ? ElemType::F32 : args.arrays.front().type;
  for (const ArrayBinding& a : args.arrays) {
    GROUT_REQUIRE(a.type == t, "native kernel arrays mix element types");
  }
  return visit(t, std::forward<Fn>(fn));
}

void execute_kernel(const ast::KernelAst& kernel, const KernelArgs& args,
                    std::size_t grid_dim, std::size_t block_dim);

}  // namespace grout::polyglot

// Native host implementations of the workload kernels.
//
// Every kernel runs the same way. It resolves the one element type of its
// arrays once per launch (polyglot::visit over the KernelArgs), checks the
// range of every array it touches once (ArrayBinding::span), then loops
// over typed spans. Arithmetic is in double, in a fixed loop order, with
// one static_cast<T> per store, so the results are byte-identical to
// element-wise ArrayBinding::get/set code.
//
// A launch whose arrays mix element types, or that would reach past an
// array's length, throws InvalidArgument before it writes anything.
#pragma once

#include <cstddef>

#include "polyglot/interpreter.hpp"

namespace grout::workloads {

/// One MLE ensemble sample covers this many feature elements.
inline constexpr std::size_t kFeaturesPerSample = 64;

/// MV / CG block product: y = A x for a rows x cols row-major block.
/// Arrays: a, x, y; scalars: rows, cols [, row0]. The optional row0 gives
/// the block's first row within a larger shared matrix.
void host_spmv(const polyglot::KernelArgs& args, std::size_t grid, std::size_t block);

/// One CG step: alpha/beta reductions plus the x/r/p updates, given the
/// per-partition t_j = A_j p blocks. Arrays: t_0..t_{P-1}, r, p, x;
/// scalars: n, rows. Element i of t is element i % rows of argument
/// i / rows; when n > P * rows the trailing rows index past the t blocks
/// into r, p and x.
void host_cg_step(const polyglot::KernelArgs& args, std::size_t grid, std::size_t block);

/// MLE dense stage: out[i] = tanh(scale * in[i]). Arrays: in, out;
/// scalars: n, scale.
void host_stage(const polyglot::KernelArgs& args, std::size_t grid, std::size_t block);

/// MLE ensemble combine: per sample, average the two pipelines' mean
/// activations through a sigmoid. Arrays: v_0..v_{P-1}, w_0..w_{P-1}, res;
/// scalars: elements per partition.
void host_combine(const polyglot::KernelArgs& args, std::size_t grid, std::size_t block);

/// Irregular gather: out[i] = table[hash(idx[i]) % table_len]. Arrays:
/// table, idx, out; scalars: n, table_len.
void host_gather(const polyglot::KernelArgs& args, std::size_t grid, std::size_t block);

}  // namespace grout::workloads

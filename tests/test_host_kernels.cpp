// Differential tests: the typed, loop-inside workload host kernels against
// their element-wise oracles (tests/support/per_element_kernels.hpp), for
// every element type, plus the per-launch range and element-type checks.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "polyglot/context.hpp"
#include "tests/support/per_element_kernels.hpp"
#include "workloads/host_kernels.hpp"

namespace grout::workloads {
namespace {

using polyglot::ArrayBinding;
using polyglot::ElemType;
using polyglot::KernelArgs;
using polyglot::NativeFn;

/// Host storage for one kernel argument.
struct Buffer {
  ElemType type{ElemType::F32};
  std::size_t length{0};
  std::vector<std::byte> bytes;

  [[nodiscard]] ArrayBinding binding() { return ArrayBinding{type, bytes.data(), length}; }
};

/// `length` random elements in [lo, hi]; integer types draw whole numbers.
Buffer random_buffer(ElemType type, std::size_t length, double lo, double hi,
                     std::mt19937_64& rng) {
  Buffer b{type, length, std::vector<std::byte>(length * polyglot::elem_size(type))};
  const ArrayBinding view = b.binding();
  const bool integral = type == ElemType::I32 || type == ElemType::I64;
  std::uniform_real_distribution<double> real(lo, hi);
  std::uniform_int_distribution<std::int64_t> whole(static_cast<std::int64_t>(lo),
                                                    static_cast<std::int64_t>(hi));
  for (std::size_t i = 0; i < length; ++i) {
    view.set(i, integral ? static_cast<double>(whole(rng)) : real(rng));
  }
  return b;
}

KernelArgs bind(std::vector<Buffer>& buffers, std::vector<double> scalars) {
  KernelArgs args;
  for (Buffer& b : buffers) args.arrays.push_back(b.binding());
  args.scalars = std::move(scalars);
  return args;
}

/// Runs `typed` and `oracle` on copies of `buffers` and requires every
/// array to come out byte-identical.
void expect_identical(const NativeFn& typed, const NativeFn& oracle,
                      const std::vector<Buffer>& buffers, const std::vector<double>& scalars) {
  std::vector<Buffer> got = buffers;
  std::vector<Buffer> want = buffers;
  typed(bind(got, scalars), 1, 1);
  oracle(bind(want, scalars), 1, 1);
  for (std::size_t a = 0; a < buffers.size(); ++a) {
    ASSERT_EQ(got[a].bytes.size(), want[a].bytes.size());
    if (got[a].bytes.empty()) continue;  // memcmp must not see a null pointer
    EXPECT_EQ(std::memcmp(got[a].bytes.data(), want[a].bytes.data(), got[a].bytes.size()), 0)
        << "array " << a << " differs from the oracle";
  }
}

/// Requires `typed` to throw InvalidArgument and leave every array as it was.
void expect_rejected(const NativeFn& typed, const std::vector<Buffer>& buffers,
                     const std::vector<double>& scalars) {
  std::vector<Buffer> run = buffers;
  EXPECT_THROW(typed(bind(run, scalars), 1, 1), InvalidArgument);
  for (std::size_t a = 0; a < buffers.size(); ++a) {
    EXPECT_EQ(run[a].bytes, buffers[a].bytes) << "array " << a << " written before the throw";
  }
}

class HostKernelTest : public ::testing::TestWithParam<ElemType> {
 protected:
  Buffer make(std::size_t length, double lo, double hi) {
    return random_buffer(GetParam(), length, lo, hi, rng_);
  }

  /// CG step arguments t_0..t_{P-1}, r, p, x. r in [0, 2] and p, t in
  /// [1, 3] keep alpha, beta and every stored value well inside the
  /// integer types' range.
  std::vector<Buffer> cg_buffers(std::size_t partitions, std::size_t n, std::size_t rows) {
    std::vector<Buffer> buffers;
    for (std::size_t j = 0; j < partitions; ++j) buffers.push_back(make(rows, 1, 3));
    buffers.push_back(make(n, 0, 2));
    buffers.push_back(make(n, 1, 3));
    buffers.push_back(make(n, -3, 3));
    return buffers;
  }

  std::mt19937_64 rng_{20240527};
};

TEST_P(HostKernelTest, StageOddLengths) {
  for (const std::size_t n : {0u, 1u, 7u, 37u, 255u}) {
    // `out` is longer than n: its tail must stay untouched.
    const std::vector<Buffer> buffers = {make(n, -4.0, 4.0), make(n + 3, -50.0, 50.0)};
    expect_identical(host_stage, oracle::host_stage, buffers, {static_cast<double>(n), 1.5});
  }
}

TEST_P(HostKernelTest, CombineOddSampleCounts) {
  for (const std::size_t partitions : {1u, 3u}) {
    // 200 elements per partition: 3 whole samples and a ragged tail.
    for (const std::size_t per_part : {64u, 200u}) {
      const std::size_t samples = per_part / kFeaturesPerSample;
      std::vector<Buffer> buffers;
      for (std::size_t j = 0; j < 2 * partitions; ++j) buffers.push_back(make(per_part, -9, 9));
      buffers.push_back(make(partitions * samples + 1, -5.0, 5.0));
      expect_identical(host_combine, oracle::host_combine, buffers,
                       {static_cast<double>(per_part)});
    }
  }
}

TEST_P(HostKernelTest, SpmvOddShapes) {
  for (const std::size_t rows : {1u, 5u, 9u}) {
    for (const std::size_t cols : {1u, 7u, 33u}) {
      const std::vector<Buffer> buffers = {make(rows * cols, -10, 10), make(cols, -10, 10),
                                           make(rows + 2, -10, 10)};
      expect_identical(host_spmv, oracle::host_spmv, buffers,
                       {static_cast<double>(rows), static_cast<double>(cols)});
    }
  }
}

TEST_P(HostKernelTest, SpmvSharedMatrixRowOffset) {
  // MV's shared matrix: partition j multiplies rows [row0, row0 + rows).
  const std::size_t rows = 5;
  const std::size_t cols = 11;
  const std::size_t partitions = 3;
  const std::vector<Buffer> base = {make(partitions * rows * cols, -10, 10),
                                    make(cols, -10, 10), make(rows, -10, 10)};
  for (std::size_t j = 0; j < partitions; ++j) {
    expect_identical(host_spmv, oracle::host_spmv, base,
                     {static_cast<double>(rows), static_cast<double>(cols),
                      static_cast<double>(j * rows)});
  }
}

TEST_P(HostKernelTest, CgStepEvenPartitions) {
  expect_identical(host_cg_step, oracle::host_cg_step, cg_buffers(4, 64, 16), {64.0, 16.0});
}

TEST_P(HostKernelTest, CgStepTrailingRowsReadPastTheBlocks) {
  // n % partitions != 0: the trailing rows read r (37 = 4 * 9 + 1) and,
  // with one-row blocks, r and p (5 = 3 * 1 + 2).
  expect_identical(host_cg_step, oracle::host_cg_step, cg_buffers(4, 37, 9), {37.0, 9.0});
  expect_identical(host_cg_step, oracle::host_cg_step, cg_buffers(3, 5, 1), {5.0, 1.0});
}

TEST_P(HostKernelTest, CgStepDegenerateLeavesVectors) {
  // All-zero t blocks: p.t == 0, so the step returns before any update.
  std::vector<Buffer> buffers = cg_buffers(2, 16, 8);
  for (std::size_t j = 0; j < 2; ++j) buffers[j] = make(8, 0, 0);
  expect_identical(host_cg_step, oracle::host_cg_step, buffers, {16.0, 8.0});
}

TEST_P(HostKernelTest, IrregularGather) {
  for (const std::size_t n : {1u, 17u, 300u}) {
    const std::size_t table_len = 97;
    // The table is longer than table_len: only its first table_len count.
    const std::vector<Buffer> buffers = {make(table_len + 5, -1000, 1000),
                                         make(n, 0, 1000000), make(n, -1, 1)};
    expect_identical(host_gather, oracle::host_gather, buffers,
                     {static_cast<double>(n), static_cast<double>(table_len)});
  }
}

TEST_P(HostKernelTest, OutOfRangeLaunchThrowsBeforeAnyWrite) {
  // stage: n past `out`, then past `in`.
  expect_rejected(host_stage, {make(10, -1, 1), make(9, -1, 1)}, {10.0, 1.0});
  expect_rejected(host_stage, {make(9, -1, 1), make(10, -1, 1)}, {10.0, 1.0});
  // spmv: the row offset reaches past the shared matrix.
  expect_rejected(host_spmv, {make(4 * 3, -1, 1), make(3, -1, 1), make(2, -1, 1)},
                  {2.0, 3.0, 3.0});
  // spmv: x shorter than cols.
  expect_rejected(host_spmv, {make(2 * 3, -1, 1), make(2, -1, 1), make(2, -1, 1)},
                  {2.0, 3.0});
  // cg: x shorter than n.
  expect_rejected(host_cg_step, {make(4, 1, 3), make(4, 1, 3), make(8, 0, 2), make(8, 1, 3),
                                 make(7, -3, 3)},
                  {8.0, 4.0});
  // cg: a t block shorter than rows.
  expect_rejected(host_cg_step, {make(4, 1, 3), make(3, 1, 3), make(8, 0, 2), make(8, 1, 3),
                                 make(8, -3, 3)},
                  {8.0, 4.0});
  // cg: the trailing rows' block index i / rows runs past the arguments.
  expect_rejected(host_cg_step, {make(1, 1, 3), make(9, 0, 2), make(9, 1, 3), make(9, -3, 3)},
                  {9.0, 1.0});
  // combine: res shorter than partitions * samples.
  expect_rejected(host_combine, {make(128, -1, 1), make(128, -1, 1), make(1, 0, 1)}, {128.0});
  // gather: table_len past the table.
  expect_rejected(host_gather, {make(16, -9, 9), make(4, 0, 100), make(4, 0, 1)}, {4.0, 17.0});
}

INSTANTIATE_TEST_SUITE_P(AllElemTypes, HostKernelTest,
                         ::testing::Values(ElemType::F32, ElemType::F64, ElemType::I32,
                                           ElemType::I64),
                         [](const auto& p) { return std::string(to_string(p.param)); });

TEST(HostKernelLaunchTest, MixedElementTypesThrowBeforeAnyWrite) {
  std::mt19937_64 rng{7};
  const std::vector<Buffer> buffers = {random_buffer(ElemType::F32, 8, -1, 1, rng),
                                       random_buffer(ElemType::F64, 8, -1, 1, rng)};
  expect_rejected(host_stage, buffers, {8.0, 1.0});
}

TEST(HostKernelLaunchTest, ContextRejectsMixedTypesOnNativeKernels) {
  polyglot::Context ctx = polyglot::Context::grcuda();
  polyglot::KernelParamInfo in{"in", true, ElemType::F32, uvm::AccessMode::Read,
                               uvm::StreamingPattern{}};
  polyglot::KernelParamInfo out{"out", true, ElemType::F32, uvm::AccessMode::Write,
                                uvm::StreamingPattern{}};
  polyglot::KernelParamInfo n{"n", false, ElemType::I64, uvm::AccessMode::Read,
                              uvm::StreamingPattern{}};
  polyglot::KernelParamInfo scale{"scale", false, ElemType::F64, uvm::AccessMode::Read,
                                  uvm::StreamingPattern{}};
  auto kernel = ctx.register_native_kernel("stage", {in, out, n, scale}, host_stage);
  auto x = ctx.alloc_array(ElemType::F32, 8, "x");
  auto y = ctx.alloc_array(ElemType::F64, 8, "y");
  x->fill(1.0);
  y->fill(5.0);
  const polyglot::BoundKernel bound{kernel, 1, 8};
  EXPECT_THROW(ctx.launch(bound, {polyglot::Value(x), polyglot::Value(y),
                                  polyglot::Value(std::int64_t{8}), polyglot::Value(1.0)}),
               InvalidArgument);
  EXPECT_DOUBLE_EQ(y->get(3), 5.0);

  // The same kernel over one element type runs.
  auto z = ctx.alloc_array(ElemType::F32, 8, "z");
  ctx.launch(bound, {polyglot::Value(x), polyglot::Value(z), polyglot::Value(std::int64_t{8}),
                     polyglot::Value(0.5)});
  ASSERT_TRUE(ctx.synchronize());
  EXPECT_FLOAT_EQ(static_cast<float>(z->get(3)), static_cast<float>(std::tanh(0.5)));
}

}  // namespace
}  // namespace grout::workloads

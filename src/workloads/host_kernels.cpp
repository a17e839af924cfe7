#include "workloads/host_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace grout::workloads {

using polyglot::KernelArgs;

namespace {

std::size_t size_arg(const KernelArgs& args, std::size_t i) {
  return static_cast<std::size_t>(args.scalars[i]);
}

/// Elements a row-major block of `rows` x `cols` starting at row `row0`
/// reaches. Saturates rather than wraps, so an absurd launch fails its
/// range check instead of passing it.
std::size_t block_extent(std::size_t row0, std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) return 0;
  std::size_t end = 0;
  if (__builtin_add_overflow(row0, rows, &end) || __builtin_mul_overflow(end, cols, &end)) {
    return std::numeric_limits<std::size_t>::max();
  }
  return end;
}

template <typename T>
void spmv(const KernelArgs& args) {
  const std::size_t rows = size_arg(args, 0);
  const std::size_t cols = size_arg(args, 1);
  const std::size_t row0 = args.scalars.size() > 2 ? size_arg(args, 2) : 0;
  const auto a = args.arrays[0].span<const T>(block_extent(row0, rows, cols));
  const auto x = args.arrays[1].span<const T>(rows == 0 ? 0 : cols);
  const auto y = args.arrays[2].span<T>(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      acc += static_cast<double>(a[(row0 + r) * cols + c]) * static_cast<double>(x[c]);
    }
    y[r] = static_cast<T>(acc);
  }
}

template <typename T>
void cg_step(const KernelArgs& args) {
  GROUT_REQUIRE(args.arrays.size() >= 3, "cg step needs r, p and x");
  const std::size_t partitions = args.arrays.size() - 3;
  const std::size_t n = size_arg(args, 0);
  const std::size_t rows = size_arg(args, 1);
  const auto r = args.arrays[partitions].span<T>(n);
  const auto p = args.arrays[partitions + 1].span<T>(n);
  const auto x = args.arrays[partitions + 2].span<T>(n);

  // Block b holds t elements [b * rows, b * rows + t[b].size()).
  std::vector<std::span<const T>> t;
  if (n > 0) {
    GROUT_REQUIRE(rows > 0, "cg step needs rows > 0");
    const std::size_t blocks = (n - 1) / rows + 1;
    GROUT_REQUIRE(blocks <= args.arrays.size(), "cg step row block out of range");
    for (std::size_t b = 0; b < blocks; ++b) {
      t.push_back(args.arrays[b].span<const T>(std::min(rows, n - b * rows)));
    }
  }
  // Calls fn(i, t_i) for i = 0..n-1 in order; t_i is read where fn uses it.
  const auto for_each_row = [&](const auto& fn) {
    for (std::size_t b = 0; b < t.size(); ++b) {
      for (std::size_t k = 0; k < t[b].size(); ++k) fn(b * rows + k, t[b][k]);
    }
  };

  double rr = 0.0;
  double pt = 0.0;
  for_each_row([&](std::size_t i, const T& ti) {
    rr += static_cast<double>(r[i]) * static_cast<double>(r[i]);
    pt += static_cast<double>(p[i]) * static_cast<double>(ti);
  });
  if (pt == 0.0) return;  // converged / degenerate
  const double alpha = rr / pt;

  double rr_new = 0.0;
  for_each_row([&](std::size_t i, const T& ti) {
    x[i] = static_cast<T>(static_cast<double>(x[i]) + alpha * static_cast<double>(p[i]));
    const double ri = static_cast<double>(r[i]) - alpha * static_cast<double>(ti);
    r[i] = static_cast<T>(ri);
    rr_new += ri * ri;
  });
  const double beta = rr == 0.0 ? 0.0 : rr_new / rr;
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<T>(static_cast<double>(r[i]) + beta * static_cast<double>(p[i]));
  }
}

template <typename T>
void stage(const KernelArgs& args) {
  const std::size_t n = size_arg(args, 0);
  const double scale = args.scalars[1];
  const auto in = args.arrays[0].span<const T>(n);
  const auto out = args.arrays[1].span<T>(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<T>(std::tanh(scale * static_cast<double>(in[i])));
  }
}

template <typename T>
void combine(const KernelArgs& args) {
  const std::size_t partitions = (args.arrays.size() - 1) / 2;
  const std::size_t samples_per_part = size_arg(args, 0) / kFeaturesPerSample;
  const std::size_t features = samples_per_part * kFeaturesPerSample;
  std::vector<std::span<const T>> v;
  std::vector<std::span<const T>> w;
  for (std::size_t j = 0; j < partitions; ++j) {
    v.push_back(args.arrays[j].span<const T>(features));
    w.push_back(args.arrays[partitions + j].span<const T>(features));
  }
  const auto res = args.arrays[2 * partitions].span<T>(partitions * samples_per_part);
  const auto sigmoid = [](double z) { return 1.0 / (1.0 + std::exp(-z)); };
  const auto k = static_cast<double>(kFeaturesPerSample);
  for (std::size_t j = 0; j < partitions; ++j) {
    for (std::size_t s = 0; s < samples_per_part; ++s) {
      double va = 0.0;
      double wa = 0.0;
      for (std::size_t f = 0; f < kFeaturesPerSample; ++f) {
        va += static_cast<double>(v[j][s * kFeaturesPerSample + f]);
        wa += static_cast<double>(w[j][s * kFeaturesPerSample + f]);
      }
      res[j * samples_per_part + s] = static_cast<T>(0.5 * (sigmoid(va / k) + sigmoid(wa / k)));
    }
  }
}

template <typename T>
void gather(const KernelArgs& args) {
  const std::size_t n = size_arg(args, 0);
  const std::size_t table_len = size_arg(args, 1);
  GROUT_REQUIRE(n == 0 || table_len > 0, "gather needs a non-empty table");
  const auto table = args.arrays[0].span<const T>(n == 0 ? 0 : table_len);
  const auto idx = args.arrays[1].span<const T>(n);
  const auto out = args.arrays[2].span<T>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = static_cast<std::uint64_t>(static_cast<double>(idx[i]));
    out[i] = static_cast<T>(static_cast<double>(table[(key * 2654435761ULL) % table_len]));
  }
}

}  // namespace

void host_spmv(const KernelArgs& args, std::size_t, std::size_t) {
  polyglot::visit(args, [&]<typename T>(T) { spmv<T>(args); });
}

void host_cg_step(const KernelArgs& args, std::size_t, std::size_t) {
  polyglot::visit(args, [&]<typename T>(T) { cg_step<T>(args); });
}

void host_stage(const KernelArgs& args, std::size_t, std::size_t) {
  polyglot::visit(args, [&]<typename T>(T) { stage<T>(args); });
}

void host_combine(const KernelArgs& args, std::size_t, std::size_t) {
  polyglot::visit(args, [&]<typename T>(T) { combine<T>(args); });
}

void host_gather(const KernelArgs& args, std::size_t, std::size_t) {
  polyglot::visit(args, [&]<typename T>(T) { gather<T>(args); });
}

}  // namespace grout::workloads

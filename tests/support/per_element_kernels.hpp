// The workload host kernels as they were before the typed, loop-inside
// rewrite, pinned as differential-test oracles.
//
// Each reads and writes one element at a time through ArrayBinding::get/set,
// which bounds-checks and switches on the element type per element. The
// typed kernels in workloads/host_kernels.hpp must produce byte-identical
// arrays (tests/test_host_kernels.cpp).
#pragma once

#include <cmath>
#include <cstdint>

#include "polyglot/interpreter.hpp"

namespace grout::oracle {

using polyglot::ArrayBinding;
using polyglot::KernelArgs;

/// y = A x for a rows x cols row-major block. An optional third scalar
/// gives the first row's offset within a larger shared matrix.
inline void host_spmv(const KernelArgs& args, std::size_t, std::size_t) {
  const ArrayBinding& a = args.arrays[0];
  const ArrayBinding& x = args.arrays[1];
  const ArrayBinding& y = args.arrays[2];
  const auto rows = static_cast<std::size_t>(args.scalars[0]);
  const auto cols = static_cast<std::size_t>(args.scalars[1]);
  const std::size_t row0 =
      args.scalars.size() > 2 ? static_cast<std::size_t>(args.scalars[2]) : 0;
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      acc += a.get((row0 + r) * cols + c) * x.get(c);
    }
    y.set(r, acc);
  }
}

/// One CG step: alpha/beta reductions plus the x/r/p updates, given the
/// per-partition t_j = A_j p blocks. Parameter order:
///   t_0..t_{P-1} (read), r (rw), p (rw), x (rw); scalars: n, rows_per_part.
inline void host_cg_step(const KernelArgs& args, std::size_t, std::size_t) {
  const std::size_t partitions = args.arrays.size() - 3;
  const ArrayBinding& r = args.arrays[partitions];
  const ArrayBinding& p = args.arrays[partitions + 1];
  const ArrayBinding& x = args.arrays[partitions + 2];
  const auto n = static_cast<std::size_t>(args.scalars[0]);
  const auto rows = static_cast<std::size_t>(args.scalars[1]);

  const auto t_at = [&](std::size_t i) {
    return args.arrays[i / rows].get(i % rows);
  };

  double rr = 0.0;
  double pt = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rr += r.get(i) * r.get(i);
    pt += p.get(i) * t_at(i);
  }
  if (pt == 0.0) return;  // converged / degenerate
  const double alpha = rr / pt;

  double rr_new = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x.set(i, x.get(i) + alpha * p.get(i));
    const double ri = r.get(i) - alpha * t_at(i);
    r.set(i, ri);
    rr_new += ri * ri;
  }
  const double beta = rr == 0.0 ? 0.0 : rr_new / rr;
  for (std::size_t i = 0; i < n; ++i) {
    p.set(i, r.get(i) + beta * p.get(i));
  }
}

/// Generic dense stage: out[i] = tanh(scale * in[i]).
inline void host_stage(const KernelArgs& args, std::size_t, std::size_t) {
  const ArrayBinding& in = args.arrays[0];
  const ArrayBinding& out = args.arrays[1];
  const auto n = static_cast<std::size_t>(args.scalars[0]);
  const double scale = args.scalars[1];
  for (std::size_t i = 0; i < n; ++i) {
    out.set(i, std::tanh(scale * in.get(i)));
  }
}

/// Ensemble combine: per sample of 64 features, average the two pipelines'
/// activations through a sigmoid. Params: v_0..v_{P-1}, w_0..w_{P-1}
/// (read), res (write); scalars: elems_per_partition.
inline void host_combine(const KernelArgs& args, std::size_t, std::size_t) {
  constexpr std::size_t kFeaturesPerSample = 64;
  const std::size_t partitions = (args.arrays.size() - 1) / 2;
  const ArrayBinding& res = args.arrays[2 * partitions];
  const auto per_part = static_cast<std::size_t>(args.scalars[0]);
  const std::size_t samples_per_part = per_part / kFeaturesPerSample;
  const auto sigmoid = [](double z) { return 1.0 / (1.0 + std::exp(-z)); };
  for (std::size_t j = 0; j < partitions; ++j) {
    const ArrayBinding& v = args.arrays[j];
    const ArrayBinding& w = args.arrays[partitions + j];
    for (std::size_t s = 0; s < samples_per_part; ++s) {
      double va = 0.0;
      double wa = 0.0;
      for (std::size_t f = 0; f < kFeaturesPerSample; ++f) {
        va += v.get(s * kFeaturesPerSample + f);
        wa += w.get(s * kFeaturesPerSample + f);
      }
      const auto k = static_cast<double>(kFeaturesPerSample);
      res.set(j * samples_per_part + s, 0.5 * (sigmoid(va / k) + sigmoid(wa / k)));
    }
  }
}

/// out[i] = table[hash(idx[i]) % table_len] — a data-dependent gather.
inline void host_gather(const KernelArgs& args, std::size_t, std::size_t) {
  const ArrayBinding& table = args.arrays[0];
  const ArrayBinding& idx = args.arrays[1];
  const ArrayBinding& out = args.arrays[2];
  const auto n = static_cast<std::size_t>(args.scalars[0]);
  const auto table_len = static_cast<std::size_t>(args.scalars[1]);
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = static_cast<std::uint64_t>(idx.get(i));
    out.set(i, table.get((key * 2654435761ULL) % table_len));
  }
}

}  // namespace grout::oracle

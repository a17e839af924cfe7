// Tests for the workload suite: functional correctness on both backends.
#include <gtest/gtest.h>

#include "workloads/workloads.hpp"

namespace grout::workloads {
namespace {

using polyglot::Context;

gpusim::GpuNodeConfig small_node() {
  gpusim::GpuNodeConfig cfg;
  cfg.gpu_count = 2;
  cfg.device.memory = 32_MiB;
  cfg.tuning.page_size = 1_MiB;
  return cfg;
}

Context grcuda() { return Context::grcuda(small_node()); }

Context grout(core::PolicyKind policy = core::PolicyKind::VectorStep) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = small_node();
  cfg.policy = policy;
  return Context::grout(std::move(cfg));
}

WorkloadParams tiny(Bytes footprint = 2_MiB) {
  WorkloadParams p;
  p.footprint = footprint;
  p.partitions = 4;
  p.iterations = 2;
  return p;
}

class WorkloadKindTest : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(WorkloadKindTest, RunsAndVerifiesOnGrCuda) {
  Context ctx = grcuda();
  auto w = make_workload(GetParam(), tiny());
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.elapsed, SimTime::zero());
  EXPECT_GT(r.ce_count, 0u);
  EXPECT_TRUE(w->verify(ctx)) << "functional results wrong on GrCUDA";
}

TEST_P(WorkloadKindTest, RunsAndVerifiesOnGrout) {
  Context ctx = grout();
  auto w = make_workload(GetParam(), tiny());
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(w->verify(ctx)) << "functional results wrong on GrOUT";
}

TEST_P(WorkloadKindTest, DeterministicSimulatedTime) {
  const auto run_once = [&] {
    Context ctx = grcuda();
    auto w = make_workload(GetParam(), tiny());
    return execute_workload(ctx, *w).elapsed;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(WorkloadKindTest, LargerFootprintTakesLonger) {
  const auto timed = [&](Bytes footprint) {
    Context ctx = grcuda();
    auto w = make_workload(GetParam(), tiny(footprint));
    return execute_workload(ctx, *w).elapsed;
  };
  EXPECT_LT(timed(2_MiB), timed(8_MiB));
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadKindTest,
                         ::testing::Values(WorkloadKind::BlackScholes, WorkloadKind::Mle,
                                           WorkloadKind::Cg, WorkloadKind::Mv,
                                           WorkloadKind::Irregular),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(WorkloadTest, CeCountsMatchStructure) {
  Context ctx = grcuda();
  WorkloadParams p = tiny();
  p.partitions = 4;
  p.iterations = 3;

  auto mv = make_workload(WorkloadKind::Mv, p);
  execute_workload(ctx, *mv);
  EXPECT_EQ(mv->ces_issued(), 4u * 3u);  // partitions x iterations

  Context ctx2 = grcuda();
  auto cg = make_workload(WorkloadKind::Cg, p);
  execute_workload(ctx2, *cg);
  EXPECT_EQ(cg->ces_issued(), (4u + 1u) * 3u);  // spmv per partition + step

  Context ctx3 = grcuda();
  auto mle = make_workload(WorkloadKind::Mle, p);
  execute_workload(ctx3, *mle);
  EXPECT_EQ(mle->ces_issued(), (4u * 3u + 1u) * 3u);  // 3 stages + combine
}

TEST(WorkloadTest, SharedMatrixMvVerifies) {
  Context ctx = grcuda();
  WorkloadParams p = tiny();
  p.shared_matrix = true;
  auto w = make_workload(WorkloadKind::Mv, p);
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(w->verify(ctx));
}

TEST(WorkloadTest, SharedMatrixMvOnGroutVerifies) {
  Context ctx = grout(core::PolicyKind::RoundRobin);
  WorkloadParams p = tiny();
  p.shared_matrix = true;
  auto w = make_workload(WorkloadKind::Mv, p);
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(w->verify(ctx));
}

TEST(WorkloadTest, CgWithoutMatrixStorageIsUnverifiable) {
  // At 2 MiB, r is 2.8 KiB and each A block 512 KiB: with a 64 KiB limit
  // the vectors and t blocks carry storage but A does not, so no spmv
  // produces the t blocks and the residual means nothing.
  Context::Config cfg;
  cfg.materialize_limit = 64_KiB;
  Context ctx(std::make_unique<polyglot::GrCudaBackend>(small_node()), cfg);
  auto w = make_workload(WorkloadKind::Cg, tiny());
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(w->verify(ctx));
}

TEST(WorkloadTest, TinyCapReportsOutOfTime) {
  core::GroutConfig cfg;
  cfg.cluster.workers = 2;
  cfg.cluster.worker_node = small_node();
  cfg.run_cap = SimTime::from_us(1.0);
  Context ctx = Context::grout(std::move(cfg));
  auto w = make_workload(WorkloadKind::Mv, tiny());
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_FALSE(r.completed);
}

TEST(WorkloadTest, ParamValidation) {
  WorkloadParams p;
  p.partitions = 0;
  EXPECT_THROW(make_workload(WorkloadKind::Mv, p), InvalidArgument);
  p.partitions = 2;
  p.iterations = 0;
  EXPECT_THROW(make_workload(WorkloadKind::Cg, p), InvalidArgument);
}

TEST(WorkloadTest, Names) {
  EXPECT_STREQ(to_string(WorkloadKind::BlackScholes), "BS");
  EXPECT_STREQ(to_string(WorkloadKind::Mle), "MLE");
  EXPECT_STREQ(to_string(WorkloadKind::Cg), "CG");
  EXPECT_STREQ(to_string(WorkloadKind::Mv), "MV");
  EXPECT_STREQ(to_string(WorkloadKind::Irregular), "IRR");
}

// ---------------------------------------------------------------------------
// Fig. 5 DAG structures, asserted on the controller's Global DAG
// ---------------------------------------------------------------------------

const dag::DependencyDag& global_dag_of(Context& ctx) {
  return dynamic_cast<polyglot::GroutBackend&>(ctx.backend()).grout().global_dag();
}

TEST(WorkloadDag, CgStepFansInFromAllPartitions) {
  Context ctx = grout();
  WorkloadParams p = tiny();
  p.partitions = 4;
  p.iterations = 1;
  auto w = make_workload(WorkloadKind::Cg, p);
  execute_workload(ctx, *w);
  const auto& dag = global_dag_of(ctx);
  // Find the cg-step vertex: it must depend on >= 4 vertices (the spmvs;
  // redundant host-init edges are filtered away).
  bool found = false;
  for (dag::VertexId v = 0; v < dag.size(); ++v) {
    if (dag.vertex(v).label == "cg-step") {
      EXPECT_GE(dag.ancestors(v).size(), 4u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WorkloadDag, MlePipelinesChainAndJoin) {
  Context ctx = grout();
  WorkloadParams p = tiny();
  p.partitions = 2;
  p.iterations = 1;
  auto w = make_workload(WorkloadKind::Mle, p);
  execute_workload(ctx, *w);
  const auto& dag = global_dag_of(ctx);
  std::size_t a2_with_single_dep = 0;
  for (dag::VertexId v = 0; v < dag.size(); ++v) {
    const auto& vertex = dag.vertex(v);
    const auto ancestors = dag.ancestors(v);
    if (vertex.label == "mle-a2") {
      // Stage 2 of pipeline A depends exactly on stage 1 (u is its input).
      EXPECT_EQ(ancestors.size(), 1u);
      EXPECT_EQ(dag.vertex(ancestors[0]).label, "mle-a");
      ++a2_with_single_dep;
    }
    if (vertex.label == "mle-combine") {
      // Fan-in from both pipelines of both partitions: v0, v1, w0, w1.
      EXPECT_EQ(ancestors.size(), 4u);
    }
  }
  EXPECT_EQ(a2_with_single_dep, 2u);
}

TEST(WorkloadDag, BlackScholesPartitionsAreIndependent) {
  Context ctx = grout();
  WorkloadParams p = tiny();
  p.partitions = 4;
  p.iterations = 1;
  auto w = make_workload(WorkloadKind::BlackScholes, p);
  execute_workload(ctx, *w);
  const auto& dag = global_dag_of(ctx);
  for (dag::VertexId v = 0; v < dag.size(); ++v) {
    if (dag.vertex(v).label == "bs") {
      // Each pricing CE only depends on its own spot-init vertex.
      EXPECT_LE(dag.ancestors(v).size(), 1u);
    }
  }
}

TEST(WorkloadDag, MvIterationsChainThroughOutputs) {
  Context ctx = grout();
  WorkloadParams p = tiny();
  p.partitions = 2;
  p.iterations = 2;
  auto w = make_workload(WorkloadKind::Mv, p);
  execute_workload(ctx, *w);
  const auto& dag = global_dag_of(ctx);
  // Iteration 2's partition kernels WAW-depend on iteration 1's (same y_j).
  std::vector<dag::VertexId> mv_vertices;
  for (dag::VertexId v = 0; v < dag.size(); ++v) {
    if (dag.vertex(v).label == "mv") mv_vertices.push_back(v);
  }
  ASSERT_EQ(mv_vertices.size(), 4u);
  EXPECT_TRUE(dag.is_ancestor(mv_vertices[0], mv_vertices[2]));
  EXPECT_TRUE(dag.is_ancestor(mv_vertices[1], mv_vertices[3]));
  EXPECT_FALSE(dag.is_ancestor(mv_vertices[0], mv_vertices[1]));
}

TEST(WorkloadTest, IrregularGatherVerifies) {
  Context ctx = grcuda();
  auto w = make_workload(WorkloadKind::Irregular, tiny());
  const WorkloadResult r = execute_workload(ctx, *w);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(w->verify(ctx));
}

TEST(WorkloadTest, AllPoliciesCompleteAllWorkloads) {
  for (const auto policy :
       {core::PolicyKind::RoundRobin, core::PolicyKind::VectorStep,
        core::PolicyKind::MinTransferSize, core::PolicyKind::MinTransferTime}) {
    for (const auto kind : {WorkloadKind::BlackScholes, WorkloadKind::Mle, WorkloadKind::Cg,
                            WorkloadKind::Mv, WorkloadKind::Irregular}) {
      Context ctx = grout(policy);
      auto w = make_workload(kind, tiny());
      const WorkloadResult r = execute_workload(ctx, *w);
      EXPECT_TRUE(r.completed) << to_string(policy) << "/" << to_string(kind);
      EXPECT_TRUE(w->verify(ctx)) << to_string(policy) << "/" << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace grout::workloads

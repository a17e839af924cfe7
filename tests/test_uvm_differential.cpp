// Differential tests: the range-at-a-time UVM fault engine (uvm::UvmSpace)
// against the per-page engine it replaced (tests/support/per_page_uvm.hpp).
//
// Seeded random streams of allocations, frees, advice, prefetch overrides,
// device accesses (every pattern, full and partial ranges), host accesses,
// prefetches and host adoptions run on both engines side by side. After
// every operation the reports, the statistics and the residency of every
// page on every device must be identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "tests/support/per_page_uvm.hpp"
#include "uvm/uvm_space.hpp"

namespace grout::uvm {
namespace {

using Oracle = oracle::PerPageUvmSpace;

struct SpaceSetup {
  std::size_t devices{2};
  std::size_t capacity_pages{8};
  EvictionPolicyKind eviction{EvictionPolicyKind::ClockLru};
  bool prefetcher{true};
};

/// Both engines over identically configured devices, each on its own clock.
class Twin {
 public:
  explicit Twin(const SpaceSetup& setup) {
    UvmTuning t;
    t.page_size = 1_MiB;
    t.fine_page_size = 64_KiB;
    t.prefetcher_enabled = setup.prefetcher;
    std::vector<DeviceConfig> configs;
    for (std::size_t d = 0; d < setup.devices; ++d) {
      configs.push_back(DeviceConfig{"g" + std::to_string(d),
                                     static_cast<Bytes>(setup.capacity_pages) * 1_MiB,
                                     Bandwidth::gib_per_sec(16.0), SimTime::from_us(5.0)});
    }
    got_ = std::make_unique<UvmSpace>(got_sim_, t, configs, setup.eviction, 77);
    want_ = std::make_unique<Oracle>(want_sim_, t, configs, setup.eviction, 77);
    devices_ = setup.devices;
  }

  UvmSpace& got() { return *got_; }
  Oracle& want() { return *want_; }
  std::vector<ArrayId>& live() { return live_; }

  /// Compares the statistics and the residency of every live page.
  void expect_same_state(const std::string& where) const {
    SCOPED_TRACE(where);
    const UvmStats& g = got_->stats();
    const UvmStats& w = want_->stats();
    EXPECT_EQ(g.bytes_fetched, w.bytes_fetched);
    EXPECT_EQ(g.bytes_written_back, w.bytes_written_back);
    EXPECT_EQ(g.faults, w.faults);
    EXPECT_EQ(g.evictions, w.evictions);
    EXPECT_EQ(g.storm_kernels, w.storm_kernels);
    EXPECT_EQ(g.kernels, w.kernels);
    EXPECT_EQ(g.prefetch_issued, w.prefetch_issued);
    EXPECT_EQ(g.prefetch_useful, w.prefetch_useful);
    for (std::size_t d = 0; d < devices_; ++d) {
      const auto dev = static_cast<DeviceId>(d);
      EXPECT_EQ(got_->resident_bytes(dev), want_->resident_bytes(dev)) << "device " << d;
      EXPECT_EQ(got_->sticky_bytes(dev), want_->sticky_bytes(dev)) << "device " << d;
    }
    for (const ArrayId id : live_) {
      ASSERT_EQ(got_->page_count(id), want_->page_count(id));
      for (std::uint32_t p = 0; p < got_->page_count(id); ++p) {
        for (DeviceId d = kHostDevice; d < static_cast<DeviceId>(devices_); ++d) {
          ASSERT_EQ(got_->page_resident(id, p, d), want_->page_resident(id, p, d))
              << "array " << id << " page " << p << " device " << d;
        }
      }
    }
  }

 private:
  sim::Simulator got_sim_;
  sim::Simulator want_sim_;
  std::unique_ptr<UvmSpace> got_;
  std::unique_ptr<Oracle> want_;
  std::size_t devices_{0};
  std::vector<ArrayId> live_;
};

void expect_same(const DeviceAccessResult& g, const DeviceAccessResult& w) {
  const AccessReport& a = g.report;
  const AccessReport& b = w.report;
  EXPECT_EQ(a.bytes_touched, b.bytes_touched);
  EXPECT_EQ(a.bytes_hit, b.bytes_hit);
  EXPECT_EQ(a.healthy_fetch, b.healthy_fetch);
  EXPECT_EQ(a.evict_fetch, b.evict_fetch);
  EXPECT_EQ(a.populate_alloc, b.populate_alloc);
  EXPECT_EQ(a.writeback, b.writeback);
  EXPECT_EQ(a.remote_access, b.remote_access);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.eviction_intensity, b.eviction_intensity);
  EXPECT_EQ(a.oversubscription, b.oversubscription);
  EXPECT_EQ(a.storm, b.storm);
  EXPECT_EQ(a.fault_time, b.fault_time);
  EXPECT_EQ(a.writeback_time, b.writeback_time);
  EXPECT_EQ(g.h2d_done, w.h2d_done);
  EXPECT_EQ(g.d2h_done, w.d2h_done);
}

/// A whole-array range, or a random partial one (possibly cutting pages).
ByteRange random_range(Rng& rng, Bytes bytes) {
  if (rng.next_below(3) == 0) return {};
  const Bytes begin = rng.next_below(bytes);
  const Bytes end = begin + 1 + rng.next_below(bytes - begin);
  return {begin, end};
}

AccessPattern random_pattern(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return StreamingPattern{static_cast<std::uint32_t>(1 + rng.next_below(3))};
    case 1: return HotReusePattern{};
    case 2:
      return RandomPattern{0.25 * static_cast<double>(1 + rng.next_below(6)), rng.next_u64()};
    default: return StridedPattern{static_cast<std::uint32_t>(1 + rng.next_below(3))};
  }
}

AccessMode random_mode(Rng& rng) {
  return static_cast<AccessMode>(rng.next_below(3));
}

/// Runs `ops` random operations on both engines, comparing after each.
void run_stream(const SpaceSetup& setup, std::uint64_t seed, std::size_t ops) {
  Twin twin(setup);
  Rng rng(seed);
  // Arrays span up to three device capacities, so accesses oversubscribe.
  const Bytes max_bytes = static_cast<Bytes>(3 * setup.capacity_pages) * 1_MiB;
  auto& live = twin.live();

  for (std::size_t op = 0; op < ops; ++op) {
    const std::string where = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    const std::uint64_t kind = live.empty() ? 0 : rng.next_below(16);
    if (kind == 0 && live.size() < 6) {
      // Ragged sizes leave a partial last page.
      const Bytes bytes = 1 + rng.next_below(max_bytes);
      const ArrayId a = twin.got().alloc(bytes, "a");
      const ArrayId b = twin.want().alloc(bytes, "a");
      ASSERT_EQ(a, b);
      live.push_back(a);
      if (rng.next_below(2) == 0) {
        twin.got().host_access(a, AccessMode::Write);
        twin.want().host_access(a, AccessMode::Write);
      }
    } else if (kind == 1 && live.size() > 1) {
      const std::size_t i = rng.next_below(live.size());
      twin.got().free_array(live[i]);
      twin.want().free_array(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (kind == 2) {
      const ArrayId id = live[rng.next_below(live.size())];
      const auto advise = static_cast<Advise>(rng.next_below(4));
      const DeviceId dev = advise == Advise::PreferredLocation || advise == Advise::AccessedBy
                               ? static_cast<DeviceId>(rng.next_below(setup.devices))
                               : kHostDevice;
      twin.got().advise(id, advise, dev);
      twin.want().advise(id, advise, dev);
    } else if (kind == 3) {
      const ArrayId id = live[rng.next_below(live.size())];
      const std::uint64_t pick = rng.next_below(3);
      const std::optional<bool> override =
          pick == 0 ? std::nullopt : std::optional<bool>(pick == 1);
      twin.got().set_prefetch_override(id, override);
      twin.want().set_prefetch_override(id, override);
    } else if (kind == 4) {
      const ArrayId id = live[rng.next_below(live.size())];
      const AccessMode mode = random_mode(rng);
      const ByteRange range = random_range(rng, twin.got().array_bytes(id));
      const HostAccessReport g = twin.got().host_access(id, mode, range);
      const HostAccessReport w = twin.want().host_access(id, mode, range);
      EXPECT_EQ(g.bytes_migrated, w.bytes_migrated) << where;
      EXPECT_EQ(g.duration, w.duration) << where;
    } else if (kind == 5) {
      const ArrayId id = live[rng.next_below(live.size())];
      const auto dev = static_cast<DeviceId>(rng.next_below(setup.devices + 1)) - 1;
      const ByteRange range = random_range(rng, twin.got().array_bytes(id));
      EXPECT_EQ(twin.got().prefetch(id, dev, range), twin.want().prefetch(id, dev, range))
          << where;
    } else if (kind == 6) {
      const ArrayId id = live[rng.next_below(live.size())];
      twin.got().adopt_host_copy(id);
      twin.want().adopt_host_copy(id);
    } else {
      // A kernel: one to three parameters, possibly repeating an array.
      std::vector<ParamAccess> params;
      const std::uint64_t count = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < count; ++i) {
        const ArrayId id = live[rng.next_below(live.size())];
        params.push_back(ParamAccess{id, random_range(rng, twin.got().array_bytes(id)),
                                     random_mode(rng), random_pattern(rng)});
      }
      const auto dev = static_cast<DeviceId>(rng.next_below(setup.devices));
      const auto par = static_cast<Parallelism>(rng.next_below(3));
      const DeviceAccessResult g = twin.got().device_access(dev, params, par);
      const DeviceAccessResult w = twin.want().device_access(dev, params, par);
      SCOPED_TRACE(where);
      expect_same(g, w);
    }
    twin.expect_same_state(where);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(UvmDifferential, RandomStreamsAllPolicies) {
  for (const EvictionPolicyKind eviction :
       {EvictionPolicyKind::ClockLru, EvictionPolicyKind::Fifo, EvictionPolicyKind::Random}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      SpaceSetup setup;
      setup.eviction = eviction;
      setup.devices = 1 + static_cast<std::size_t>(seed % 8);
      setup.capacity_pages = 2 + static_cast<std::size_t>((seed * 7) % 11);
      setup.prefetcher = seed % 3 != 0;
      run_stream(setup, seed * 1000 + static_cast<std::uint64_t>(eviction), 300);
      if (HasFailure()) return;
    }
  }
}

TEST(UvmDifferential, EightDevicesReadMostly) {
  // Read-duplicated pages across eight devices exercise residency bits
  // above bit 7 on every eviction.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SpaceSetup setup;
    setup.devices = 8;
    setup.capacity_pages = 3;
    setup.eviction = static_cast<EvictionPolicyKind>(seed % 3);
    Twin twin(setup);
    const Bytes bytes = 7_MiB + 123;
    const ArrayId id = twin.got().alloc(bytes, "dup");
    ASSERT_EQ(id, twin.want().alloc(bytes, "dup"));
    twin.live().push_back(id);
    twin.got().host_access(id, AccessMode::Write);
    twin.want().host_access(id, AccessMode::Write);
    twin.got().advise(id, Advise::ReadMostly);
    twin.want().advise(id, Advise::ReadMostly);
    Rng rng(seed);
    for (int op = 0; op < 200; ++op) {
      const auto dev = static_cast<DeviceId>(rng.next_below(8));
      const ParamAccess pa{id, random_range(rng, bytes),
                           rng.next_below(8) == 0 ? AccessMode::ReadWrite : AccessMode::Read,
                           random_pattern(rng)};
      expect_same(twin.got().device_access(dev, std::span(&pa, 1), Parallelism::High),
                  twin.want().device_access(dev, std::span(&pa, 1), Parallelism::High));
      twin.expect_same_state("seed " + std::to_string(seed) + " op " + std::to_string(op));
      if (HasFailure()) return;
    }
  }
}

TEST(UvmDifferential, PingPongForcesRingCompaction) {
  // Writes that bounce two arrays between two roomy devices leave a stale
  // entry per page on the device they left and a resurrected duplicate
  // when the page returns. Without evictions to pop them, the ring passes
  // max(4 x capacity, 1024) entries and is compacted, keeping each page's
  // first entry. Every 10th of the first 100 kernels, and every 200th
  // after, also streams a third array, which overflows the device and
  // evicts in ring order; the early evictions move the ring's front, so it
  // grows while wrapped around its buffer.
  for (const EvictionPolicyKind eviction :
       {EvictionPolicyKind::ClockLru, EvictionPolicyKind::Fifo, EvictionPolicyKind::Random}) {
    SpaceSetup setup;
    setup.devices = 2;
    setup.capacity_pages = 64;
    setup.eviction = eviction;
    Twin twin(setup);
    std::vector<ArrayId> ids;
    for (const Bytes bytes : {24_MiB, 12_MiB + 5, 50_MiB}) {
      const ArrayId id = twin.got().alloc(bytes, "a");
      ASSERT_EQ(id, twin.want().alloc(bytes, "a"));
      twin.live().push_back(id);
      ids.push_back(id);
    }
    twin.got().advise(ids[2], Advise::PreferredLocation, 0);
    twin.want().advise(ids[2], Advise::PreferredLocation, 0);
    Rng rng(static_cast<std::uint64_t>(eviction) + 5);
    for (int round = 0; round < 800; ++round) {
      const ArrayId id = ids[rng.next_below(2)];
      const auto dev = static_cast<DeviceId>(round % 2);
      const ParamAccess pa{id, random_range(rng, twin.got().array_bytes(id)),
                           AccessMode::ReadWrite,
                           rng.next_below(2) == 0 ? AccessPattern{HotReusePattern{}}
                                                  : AccessPattern{StreamingPattern{1}}};
      const ParamAccess fill{ids[2], {}, AccessMode::Read, StreamingPattern{1}};
      const bool overflow = (round < 100 && round % 10 == 9) || round % 200 == 199;
      const std::vector<ParamAccess> params =
          overflow ? std::vector<ParamAccess>{pa, fill} : std::vector<ParamAccess>{pa};
      expect_same(twin.got().device_access(dev, params, Parallelism::Massive),
                  twin.want().device_access(dev, params, Parallelism::Massive));
      twin.expect_same_state("round " + std::to_string(round));
      if (HasFailure()) return;
    }
  }
}

TEST(UvmDifferential, AccessedByPromotionAndRemoteService) {
  for (std::uint32_t threshold : {0u, 1u, 3u}) {
    UvmTuning t;
    t.page_size = 1_MiB;
    t.fine_page_size = 64_KiB;
    t.access_counter_threshold = threshold;
    std::vector<DeviceConfig> configs;
    for (int d = 0; d < 3; ++d) {
      configs.push_back(DeviceConfig{"g" + std::to_string(d), 6_MiB,
                                     Bandwidth::gib_per_sec(16.0), SimTime::zero()});
    }
    sim::Simulator sg;
    sim::Simulator sw;
    UvmSpace got(sg, t, configs);
    Oracle want(sw, t, configs);
    const ArrayId a = got.alloc(9_MiB + 7, "remote");
    ASSERT_EQ(a, want.alloc(9_MiB + 7, "remote"));
    const ArrayId b = got.alloc(5_MiB, "local");
    ASSERT_EQ(b, want.alloc(5_MiB, "local"));
    got.host_access(a, AccessMode::Write);
    want.host_access(a, AccessMode::Write);
    got.advise(a, Advise::AccessedBy, 1);
    want.advise(a, Advise::AccessedBy, 1);
    Rng rng(threshold + 11);
    for (int op = 0; op < 120; ++op) {
      const auto dev = static_cast<DeviceId>(rng.next_below(3));
      const ParamAccess params[2] = {
          {a, random_range(rng, 9_MiB + 7), random_mode(rng), random_pattern(rng)},
          {b, {}, random_mode(rng), random_pattern(rng)}};
      SCOPED_TRACE("threshold " + std::to_string(threshold) + " op " + std::to_string(op));
      expect_same(got.device_access(dev, params, Parallelism::Moderate),
                  want.device_access(dev, params, Parallelism::Moderate));
      for (DeviceId d = kHostDevice; d < 3; ++d) {
        for (std::uint32_t p = 0; p < got.page_count(a); ++p) {
          ASSERT_EQ(got.page_resident(a, p, d), want.page_resident(a, p, d));
        }
      }
      if (HasFailure()) return;
    }
    EXPECT_EQ(got.stats().faults, want.stats().faults);
    EXPECT_EQ(got.stats().evictions, want.stats().evictions);
  }
}

}  // namespace
}  // namespace grout::uvm

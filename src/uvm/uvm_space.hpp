// UvmSpace: the unified-virtual-memory simulator for one node.
//
// Host DRAM plus N GPU memories form one coherent space. Pages (default
// 2 MiB) migrate on demand: a device touch of a non-resident page faults and
// fetches it over that device's PCIe link; a full device evicts a victim
// first (write-back when the victim is the only up-to-date copy). Three
// service regimes emerge from pressure:
//
//   healthy   free space available          -> PCIe-bandwidth-bound
//   eviction  victims on the critical path  -> PCIe * eviction_efficiency
//   storm     eviction intensity beyond the -> fine-granularity faults,
//             coalescing threshold             replay-latency-bound
//
// The storm regime is the mechanistic source of the paper's oversubscription
// cliff (Figs 1/6a); its constants live in UvmTuning.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/resource.hpp"
#include "sim/engine.hpp"
#include "uvm/access.hpp"
#include "uvm/tuning.hpp"
#include "uvm/types.hpp"

namespace grout::uvm {

/// Static description of one GPU memory attached to the space.
struct DeviceConfig {
  std::string name;
  Bytes capacity{16_GiB};
  Bandwidth pcie_bw = Bandwidth::gib_per_sec(16.0);
  SimTime pcie_latency = SimTime::from_us(5.0);
};

/// Aggregate counters across the lifetime of the space.
struct UvmStats {
  Bytes bytes_fetched{0};
  Bytes bytes_written_back{0};
  std::uint64_t faults{0};
  std::uint64_t evictions{0};
  std::uint64_t storm_kernels{0};
  std::uint64_t kernels{0};
  /// Bytes brought in by explicit prefetch() calls, and the subset whose
  /// pages were later hit by a device touch before being evicted.
  Bytes prefetch_issued{0};
  Bytes prefetch_useful{0};
};

/// Result of a device access, including link-queue completion times.
struct DeviceAccessResult {
  AccessReport report;
  SimTime h2d_done;  ///< PCIe host->device queue drained for this access
  SimTime d2h_done;  ///< PCIe device->host queue drained (write-backs)
};

class UvmSpace {
 public:
  UvmSpace(sim::Engine& simulator, UvmTuning tuning, std::vector<DeviceConfig> devices,
           EvictionPolicyKind eviction = EvictionPolicyKind::ClockLru,
           std::uint64_t seed = 0x5eedULL);

  UvmSpace(const UvmSpace&) = delete;
  UvmSpace& operator=(const UvmSpace&) = delete;

  // -- allocation ----------------------------------------------------------

  /// Allocate `bytes` of managed memory; initially resident on the host.
  ArrayId alloc(Bytes bytes, std::string name);

  /// Release an allocation and all its resident pages.
  void free_array(ArrayId id);

  [[nodiscard]] Bytes array_bytes(ArrayId id) const;
  [[nodiscard]] const std::string& array_name(ArrayId id) const;
  [[nodiscard]] std::size_t live_arrays() const { return live_arrays_; }

  /// Apply a cudaMemAdvise-style hint.
  void advise(ArrayId id, Advise advise, DeviceId device = kHostDevice);

  /// Per-array override of the global UvmTuning::prefetcher_enabled flag:
  /// the driver-level sequential prefetcher can be forced on/off for one
  /// allocation (the adaptive tuner's streaming-vs-random decision).
  /// nullopt restores the global default. No override leaves the service
  /// model bit-identical to the pre-override behaviour.
  void set_prefetch_override(ArrayId id, std::optional<bool> enabled);
  [[nodiscard]] std::optional<bool> prefetch_override(ArrayId id) const;

  // -- accesses ------------------------------------------------------------

  /// Replay one kernel's parameter accesses on `device`, migrating pages and
  /// charging the PCIe links. Returns the traffic report and queue times.
  DeviceAccessResult device_access(DeviceId device, std::span<const ParamAccess> params,
                                   Parallelism parallelism);

  /// CPU touch of (part of) an array; migrates device-resident pages home.
  HostAccessReport host_access(ArrayId id, AccessMode mode, ByteRange range = {});

  /// Explicit bulk migration (cudaMemPrefetchAsync): full PCIe bandwidth,
  /// no fault overheads. Returns the completion time on the link queue.
  SimTime prefetch(ArrayId id, DeviceId device, ByteRange range = {});

  /// Mark the array's current content as "arrived on the host" without PCIe
  /// cost (used when a network transfer lands); device copies are dropped.
  void adopt_host_copy(ArrayId id);

  // -- inspection ----------------------------------------------------------

  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] Bytes capacity(DeviceId device) const;
  [[nodiscard]] Bytes resident_bytes(DeviceId device) const;
  /// Distinct bytes ever faulted on `device` (monotone except for frees).
  [[nodiscard]] Bytes sticky_bytes(DeviceId device) const;
  /// sticky_bytes / capacity: the device's oversubscription pressure.
  [[nodiscard]] double oversubscription(DeviceId device) const;
  /// Live managed allocation over total device memory — the paper's
  /// nominal oversubscription factor.
  [[nodiscard]] double allocation_pressure() const;
  /// Touched working set (distinct pages ever faulted, all devices) over
  /// total device memory. Drives the storm regime: for fully-touched
  /// allocations it equals the allocation pressure, while range-partitioned
  /// accesses to a shared array only count the ranges actually faulted.
  [[nodiscard]] double working_set_pressure() const;
  [[nodiscard]] Bytes live_allocated_bytes() const { return live_bytes_; }
  [[nodiscard]] bool page_resident(ArrayId id, std::uint32_t page, DeviceId device) const;
  /// Bytes of `id` currently resident on `device` (kHostDevice for host).
  [[nodiscard]] Bytes resident_bytes_of(ArrayId id, DeviceId device) const;
  [[nodiscard]] std::uint32_t page_count(ArrayId id) const;
  [[nodiscard]] const UvmStats& stats() const { return stats_; }
  [[nodiscard]] const UvmTuning& tuning() const { return tuning_; }
  [[nodiscard]] sim::Resource& h2d_link(DeviceId device);
  [[nodiscard]] sim::Resource& d2h_link(DeviceId device);

 private:
  struct PageState {
    std::uint16_t mask{1};  ///< residency bits: bit0 = host, bit (d+1) = device d
    std::uint16_t ever_mask{0};  ///< devices that ever faulted this page
    std::uint8_t remote_hits{0};  ///< access-counter value for AccessedBy pages
    std::uint32_t touch_epoch{0};
    bool hot{false};  ///< protected from second-chance eviction this epoch
    /// False until the page holds real data (host init, device write, or a
    /// network arrival). First-touch of an unpopulated page allocates
    /// device-side directly — no host->device copy, like cudaMallocManaged
    /// memory first touched by a kernel.
    bool populated{false};
    /// Set by prefetch(); cleared (and counted useful) on the next touch
    /// hit, or silently on eviction/migration (a wasted prefetch).
    bool prefetched{false};
    /// Scratch mark for compact_ring's duplicate check; false outside it.
    bool ring_mark{false};
  };

  struct ArrayInfo {
    std::string name;
    Bytes bytes{0};
    std::vector<PageState> pages;
    std::vector<std::size_t> sticky_per_device;  ///< distinct pages faulted, per device
    Advise advise{Advise::None};
    DeviceId advise_device{kHostDevice};
    /// Per-array prefetcher override; nullopt = UvmTuning::prefetcher_enabled.
    std::optional<bool> prefetch_override;
    bool live{false};
  };

  struct RingEntry {
    ArrayId array;
    std::uint32_t page;
  };

  /// One device's FIFO of residency entries, oldest first. An entry goes
  /// stale when its page leaves the device some other way (migration, host
  /// access, free); scans skip those.
  ///
  /// A circular buffer over small fixed-size blocks: a block is allocated
  /// when the back reaches it and released when the front leaves it, so the
  /// buffer never reallocates or copies entries as it grows, and its memory
  /// follows the ring's length.
  class Ring {
   public:
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    /// The i-th entry from the front.
    RingEntry& operator[](std::size_t i) { return slot(head_ + i); }
    RingEntry& front() { return slot(head_); }
    RingEntry& back() { return slot(head_ + size_ - 1); }
    void push_back(RingEntry entry) {
      // One spare block keeps the back out of the front's block.
      if (size_ + kBlockEntries >= capacity()) grow();
      const std::size_t pos = wrap(head_ + size_++);
      std::unique_ptr<RingEntry[]>& block = blocks_[pos >> kBlockShift];
      if (!block) block = std::make_unique_for_overwrite<RingEntry[]>(kBlockEntries);
      block[pos & (kBlockEntries - 1)] = entry;
    }
    void pop_front() {
      --size_;
      if ((++head_ & (kBlockEntries - 1)) == 0) {
        blocks_[(head_ >> kBlockShift) - 1].reset();
        if (head_ == capacity()) head_ = 0;
      }
    }
    void pop_back() { --size_; }
    /// Keep, in order, the entries for which `keep` returns true.
    template <typename Keep>
    void retain(Keep&& keep) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < size_; ++i) {
        const RingEntry entry = (*this)[i];
        if (keep(entry)) (*this)[kept++] = entry;
      }
      size_ = kept;
    }

   private:
    static constexpr std::size_t kBlockShift = 6;
    static constexpr std::size_t kBlockEntries = std::size_t{1} << kBlockShift;

    [[nodiscard]] std::size_t capacity() const { return blocks_.size() << kBlockShift; }
    [[nodiscard]] std::size_t wrap(std::size_t pos) const {
      return pos < capacity() ? pos : pos - capacity();
    }
    RingEntry& slot(std::size_t pos) {
      pos = wrap(pos);
      return blocks_[pos >> kBlockShift][pos & (kBlockEntries - 1)];
    }
    void grow();

    std::vector<std::unique_ptr<RingEntry[]>> blocks_;  ///< circular block table
    std::size_t head_{0};  ///< position of the front entry
    std::size_t size_{0};
  };

  struct DeviceState {
    DeviceConfig config;
    std::size_t capacity_pages{0};
    std::size_t used_pages{0};
    /// Distinct pages ever faulted here (the driver's working-set pressure).
    std::size_t sticky_pages{0};
    Ring ring;
    /// Ring length past which compact_ring drops stale and duplicate entries.
    std::size_t ring_limit{0};
    std::uint32_t current_epoch{0};
    std::unique_ptr<sim::Resource> h2d;
    std::unique_ptr<sim::Resource> d2h;
  };

  struct TouchCounters {
    Bytes healthy_fetch{0};
    /// Subset of healthy_fetch faulted by arrays whose *effective* prefetch
    /// is off — charged at the degraded no-prefetch rate + batch latency.
    Bytes healthy_fetch_nopf{0};
    Bytes evict_fetch{0};
    Bytes populate_alloc{0};
    Bytes writeback{0};
    Bytes hit{0};
    Bytes touched{0};
    Bytes remote{0};  ///< served through an AccessedBy remote mapping
    std::uint64_t faults{0};
    std::uint64_t evictions{0};
  };

  static constexpr std::uint16_t host_bit() { return 1u; }
  static constexpr std::uint16_t device_bit(DeviceId d) {
    return static_cast<std::uint16_t>(1u << (d + 1));
  }

  ArrayInfo& array_ref(ArrayId id);
  const ArrayInfo& array_ref(ArrayId id) const;

  [[nodiscard]] bool effective_prefetch(const ArrayInfo& arr) const {
    return arr.prefetch_override.value_or(tuning_.prefetcher_enabled);
  }
  DeviceState& device_ref(DeviceId id);
  const DeviceState& device_ref(DeviceId id) const;

  [[nodiscard]] Bytes page_bytes(const ArrayInfo& arr, std::uint32_t page) const;
  [[nodiscard]] ByteRange normalize_range(const ArrayInfo& arr, ByteRange range) const;

  /// Replay pages first, first + step, ... below `last` of array `id` from
  /// `device`: classify hit/miss, make room, migrate or duplicate, and
  /// account. Pages of an array AccessedBy `device` are served remotely
  /// until the access counter promotes them.
  void touch_range(DeviceId device, ArrayId id, std::uint32_t first, std::uint32_t last,
                   std::uint32_t step, AccessMode mode, bool hot, TouchCounters& c);

  /// Evict from `device` until a page is free or nothing is evictable.
  /// Adds victim write-back bytes to `writeback`; returns the victim count.
  std::uint64_t make_room(DeviceId device, Bytes& writeback);

  /// Remove the copy of a victim page held by `dev` (residency `bit`).
  /// Returns the write-back bytes: the page's, if that was its only copy
  /// and it holds real data.
  Bytes evict_copy(ArrayInfo& arr, std::uint32_t page, DeviceState& dev, std::uint16_t bit);

  /// Make `owner` (one residency bit) the page's only copy, releasing the
  /// slot of every other device that held it.
  void set_sole_copy(PageState& st, std::uint16_t owner);

  void compact_ring(DeviceId device);

  sim::Engine& sim_;
  UvmTuning tuning_;
  EvictionPolicyKind eviction_;
  Rng rng_;
  std::vector<ArrayInfo> arrays_;
  std::vector<DeviceState> devices_;
  std::size_t live_arrays_{0};
  Bytes live_bytes_{0};
  Bytes total_capacity_bytes_{0};
  std::uint32_t epoch_counter_{0};
  UvmStats stats_;
};

}  // namespace grout::uvm

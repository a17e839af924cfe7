#include "uvm/uvm_space.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>

namespace grout::uvm {

namespace {

constexpr std::size_t kEvictionScanLimit = 64;
/// Residency masks are 16 bits wide: the host bit plus one per device.
constexpr std::size_t kMaxDevices = 15;

}  // namespace

UvmSpace::UvmSpace(sim::Engine& simulator, UvmTuning tuning,
                   std::vector<DeviceConfig> devices, EvictionPolicyKind eviction,
                   std::uint64_t seed)
    : sim_{simulator}, tuning_{tuning}, eviction_{eviction}, rng_{seed} {
  GROUT_REQUIRE(!devices.empty(), "UvmSpace requires at least one device");
  GROUT_REQUIRE(devices.size() <= kMaxDevices,
                "at most 15 devices per node (residency mask width)");
  GROUT_REQUIRE(tuning_.page_size > 0, "page size must be positive");
  devices_.reserve(devices.size());
  for (auto& cfg : devices) {
    DeviceState dev;
    dev.capacity_pages = static_cast<std::size_t>(cfg.capacity / tuning_.page_size);
    GROUT_REQUIRE(dev.capacity_pages > 0, "device capacity smaller than one page");
    dev.ring_limit = std::max<std::size_t>(4 * dev.capacity_pages, 1024);
    dev.h2d = std::make_unique<sim::Resource>(sim_, cfg.name + "/h2d", cfg.pcie_bw,
                                              cfg.pcie_latency);
    dev.d2h = std::make_unique<sim::Resource>(sim_, cfg.name + "/d2h", cfg.pcie_bw,
                                              cfg.pcie_latency);
    dev.config = std::move(cfg);
    total_capacity_bytes_ += static_cast<Bytes>(dev.capacity_pages) * tuning_.page_size;
    devices_.push_back(std::move(dev));
  }
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

ArrayId UvmSpace::alloc(Bytes bytes, std::string name) {
  GROUT_REQUIRE(bytes > 0, "zero-byte managed allocation");
  ArrayInfo info;
  info.name = std::move(name);
  info.bytes = bytes;
  const auto pages = static_cast<std::uint32_t>((bytes + tuning_.page_size - 1) / tuning_.page_size);
  info.pages.assign(pages, PageState{});
  info.sticky_per_device.assign(devices_.size(), 0);
  info.live = true;
  arrays_.push_back(std::move(info));
  ++live_arrays_;
  live_bytes_ += bytes;
  return static_cast<ArrayId>(arrays_.size() - 1);
}

void UvmSpace::free_array(ArrayId id) {
  ArrayInfo& arr = array_ref(id);
  GROUT_REQUIRE(arr.live, "double free of managed array");
  for (PageState& st : arr.pages) set_sole_copy(st, host_bit());
  for (DeviceId d = 0; d < static_cast<DeviceId>(devices_.size()); ++d) {
    devices_[d].sticky_pages -= arr.sticky_per_device[d];
  }
  arr.live = false;
  arr.pages.clear();
  arr.pages.shrink_to_fit();
  --live_arrays_;
  live_bytes_ -= arr.bytes;
}

Bytes UvmSpace::array_bytes(ArrayId id) const { return array_ref(id).bytes; }
const std::string& UvmSpace::array_name(ArrayId id) const { return array_ref(id).name; }

void UvmSpace::advise(ArrayId id, Advise advise, DeviceId device) {
  ArrayInfo& arr = array_ref(id);
  if (advise == Advise::PreferredLocation || advise == Advise::AccessedBy) {
    GROUT_REQUIRE(device >= 0 && device < static_cast<DeviceId>(devices_.size()),
                  "advise requires a valid device");
  }
  arr.advise = advise;
  arr.advise_device = device;
}

void UvmSpace::set_prefetch_override(ArrayId id, std::optional<bool> enabled) {
  array_ref(id).prefetch_override = enabled;
}

std::optional<bool> UvmSpace::prefetch_override(ArrayId id) const {
  return array_ref(id).prefetch_override;
}

// ---------------------------------------------------------------------------
// Device access (the fault engine)
// ---------------------------------------------------------------------------

DeviceAccessResult UvmSpace::device_access(DeviceId device, std::span<const ParamAccess> params,
                                           Parallelism parallelism) {
  DeviceState& dev = device_ref(device);
  dev.current_epoch = ++epoch_counter_;

  TouchCounters c;
  for (const ParamAccess& pa : params) {
    ArrayInfo& arr = array_ref(pa.array);
    const ByteRange range = normalize_range(arr, pa.range);
    if (range.empty()) continue;
    const auto first = static_cast<std::uint32_t>(range.begin / tuning_.page_size);
    const auto last = static_cast<std::uint32_t>(
        std::min<Bytes>((range.end + tuning_.page_size - 1) / tuning_.page_size, arr.pages.size()));
    if (first >= last) continue;

    if (const auto* s = std::get_if<StreamingPattern>(&pa.pattern)) {
      for (std::uint32_t pass = 0; pass < s->passes; ++pass) {
        touch_range(device, pa.array, first, last, 1, pa.mode, false, c);
      }
    } else if (std::get_if<HotReusePattern>(&pa.pattern)) {
      touch_range(device, pa.array, first, last, 1, pa.mode, true, c);
    } else if (const auto* rp = std::get_if<RandomPattern>(&pa.pattern)) {
      const std::uint32_t n = last - first;
      Rng rng(rp->seed ^ (static_cast<std::uint64_t>(epoch_counter_) << 17));
      const auto touches = static_cast<std::uint64_t>(std::llround(rp->fraction * n));
      for (std::uint64_t i = 0; i < touches; ++i) {
        const std::uint32_t p = first + static_cast<std::uint32_t>(rng.next_below(n));
        touch_range(device, pa.array, p, p + 1, 1, pa.mode, false, c);
      }
    } else if (const auto* st = std::get_if<StridedPattern>(&pa.pattern)) {
      GROUT_REQUIRE(st->stride > 0, "zero stride");
      touch_range(device, pa.array, first, last, st->stride, pa.mode, false, c);
    }
  }
  const Bytes remote_bytes = c.remote;

  AccessReport r;
  r.bytes_touched = c.touched + remote_bytes;
  r.bytes_hit = c.hit;
  r.healthy_fetch = c.healthy_fetch;
  r.evict_fetch = c.evict_fetch;
  r.populate_alloc = c.populate_alloc;
  r.writeback = c.writeback;
  r.remote_access = remote_bytes;
  r.faults = c.faults;
  r.evictions = c.evictions;
  const auto capacity_bytes = static_cast<double>(dev.capacity_pages) *
                              static_cast<double>(tuning_.page_size);
  r.eviction_intensity =
      capacity_bytes > 0 ? static_cast<double>(c.evictions) *
                               static_cast<double>(tuning_.page_size) / capacity_bytes
                         : 0.0;
  r.oversubscription = working_set_pressure();
  // Fault coalescing collapses once the touched working set oversubscribes
  // the node past the threshold AND eviction is actually on the critical
  // path (Section V-C: the cliff appears between 2x and 3x).
  r.storm = r.oversubscription >= tuning_.storm_oversubscription_threshold &&
            c.evictions > 0;

  // Service-time model.
  const Bandwidth pcie = dev.config.pcie_bw;
  SimTime fault_time = SimTime::zero();
  if (r.storm) {
    // Coalescing has collapsed: every faulted byte — including pure
    // device-side allocations — is serviced at the fine-granularity replay
    // rate, which further degrades as oversubscription deepens.
    const double extra = r.oversubscription - tuning_.storm_oversubscription_threshold;
    const double slowdown = 1.0 + tuning_.storm_compound * extra * extra;
    const Bandwidth storm_bw =
        Bandwidth::bytes_per_sec(tuning_.storm_bandwidth(parallelism).bps() / slowdown);
    fault_time +=
        storm_bw.transfer_time(r.healthy_fetch + r.evict_fetch + r.populate_alloc);
  } else {
    if (r.healthy_fetch > 0) {
      // Each array's *effective* prefetcher setting (per-array override or
      // the global flag) decides which rate its healthy faults are served
      // at: full PCIe with the sequential prefetcher coalescing, or the
      // degraded no-prefetch rate plus per-batch fault latency.
      const Bytes with_pf = r.healthy_fetch - c.healthy_fetch_nopf;
      if (with_pf > 0) {
        fault_time += pcie.transfer_time(with_pf);
      }
      if (c.healthy_fetch_nopf > 0) {
        const Bandwidth degraded =
            Bandwidth::bytes_per_sec(pcie.bps() * tuning_.no_prefetch_bw_factor);
        fault_time += degraded.transfer_time(c.healthy_fetch_nopf);
        const std::uint64_t pages = c.healthy_fetch_nopf / tuning_.page_size;
        const std::uint64_t batches =
            (pages + tuning_.healthy_batch_pages - 1) / tuning_.healthy_batch_pages;
        fault_time += tuning_.fault_batch_latency * static_cast<std::int64_t>(batches);
      }
    }
    if (r.evict_fetch > 0) {
      const Bandwidth degraded =
          Bandwidth::bytes_per_sec(pcie.bps() * tuning_.eviction_efficiency);
      fault_time += degraded.transfer_time(r.evict_fetch);
      fault_time += tuning_.eviction_overhead_per_page *
                    static_cast<std::int64_t>(r.evictions);
    }
  }
  if (remote_bytes > 0) {
    const Bandwidth remote_bw =
        Bandwidth::bytes_per_sec(pcie.bps() * tuning_.remote_access_efficiency);
    fault_time += remote_bw.transfer_time(remote_bytes);
  }
  r.fault_time = fault_time;
  r.writeback_time = r.writeback > 0 ? pcie.transfer_time(r.writeback) : SimTime::zero();

  DeviceAccessResult result;
  result.h2d_done = fault_time > SimTime::zero()
                        ? dev.h2d->submit_duration(fault_time, r.healthy_fetch + r.evict_fetch)
                        : sim_.now();
  result.d2h_done = r.writeback_time > SimTime::zero()
                        ? dev.d2h->submit_duration(r.writeback_time, r.writeback)
                        : sim_.now();

  // Global statistics.
  stats_.bytes_fetched += r.healthy_fetch + r.evict_fetch;
  stats_.bytes_written_back += r.writeback;
  stats_.faults += r.faults;
  stats_.evictions += r.evictions;
  ++stats_.kernels;
  if (r.storm) ++stats_.storm_kernels;

  result.report = r;
  return result;
}

Bytes UvmSpace::evict_copy(ArrayInfo& arr, std::uint32_t page, DeviceState& dev,
                           std::uint16_t bit) {
  PageState& st = arr.pages[page];
  st.mask = static_cast<std::uint16_t>(st.mask & ~bit);
  st.prefetched = false;  // evicted before a touch: the prefetch was wasted
  --dev.used_pages;
  if (st.mask != 0) return 0;
  // Only copy: eviction migrates it back to host memory (unless the page
  // never held real data, in which case it is simply dropped).
  st.mask = host_bit();
  return st.populated ? page_bytes(arr, page) : 0;
}

void UvmSpace::touch_range(DeviceId device, ArrayId id, std::uint32_t first,
                           std::uint32_t last, std::uint32_t step, AccessMode mode, bool hot,
                           TouchCounters& c) {
  ArrayInfo& arr = arrays_[id];
  DeviceState& dev = devices_[static_cast<std::size_t>(device)];
  PageState* const pages = arr.pages.data();
  const std::uint16_t bit = device_bit(device);
  const bool write = writes(mode);
  const bool duplicate = !write && arr.advise == Advise::ReadMostly;
  const bool remote_mapped = arr.advise == Advise::AccessedBy && arr.advise_device == device;
  const std::uint32_t promote_at = tuning_.access_counter_threshold;
  const bool prefetcher = effective_prefetch(arr);
  const std::uint32_t epoch = dev.current_epoch;
  const Bytes page_size = tuning_.page_size;
  const auto tail = static_cast<std::uint32_t>(arr.pages.size() - 1);
  const Bytes tail_bytes = page_bytes(arr, tail);
  const bool clock = eviction_ == EvictionPolicyKind::ClockLru;
  const bool random = eviction_ == EvictionPolicyKind::Random;

  // The array of the ring's front entry, looked up once per run of entries
  // from the same array.
  ArrayId victim_id = kInvalidArray;
  ArrayInfo* victim_arr = nullptr;
  bool victim_preferred = false;

  Bytes touched = 0;
  Bytes hit = 0;
  Bytes remote = 0;
  Bytes healthy_fetch = 0;
  Bytes healthy_fetch_nopf = 0;
  Bytes evict_fetch = 0;
  Bytes populate_alloc = 0;
  Bytes writeback = 0;
  Bytes prefetch_useful = 0;
  std::uint64_t faults = 0;
  std::uint64_t evictions = 0;

  for (std::uint32_t p = first; p < last; p += step) {
    PageState& st = pages[p];
    const Bytes pb = p == tail ? tail_bytes : page_size;
    if (st.mask & bit) {
      hit += pb;
      if (st.prefetched) {
        st.prefetched = false;
        prefetch_useful += pb;
      }
      // A hit that writes also invalidates the other copies.
      if (write && st.mask != bit) set_sole_copy(st, bit);
    } else {
      if (remote_mapped) {
        // AccessedBy mapping for this device: served remotely until the
        // access counter promotes the page (Volta-style hot-page migration).
        if (promote_at == 0 || ++st.remote_hits < promote_at) {
          remote += pb;
          continue;
        }
        st.remote_hits = 0;
      }
      ++faults;
      // Make room first: faulting into a full device evicts on the critical
      // path (the classification below depends on whether that happened).
      std::uint64_t evicted = 0;
      while (dev.used_pages >= dev.capacity_pages) {
        // Fast path: the ring's front entry is resident and not due a
        // second chance, so it is the victim. Anything else takes the
        // general scan, which starts from the same front entry.
        PageState* victim = nullptr;
        RingEntry entry{};
        if (!random && !dev.ring.empty()) {
          entry = dev.ring.front();
          if (entry.array != victim_id) {
            victim_id = entry.array;
            victim_arr = &arrays_[entry.array];
            victim_preferred = victim_arr->advise == Advise::PreferredLocation &&
                            victim_arr->advise_device == device;
          }
          if (victim_arr->live && entry.page < victim_arr->pages.size()) {
            PageState& vs = victim_arr->pages[entry.page];
            const bool second_chance =
                clock && (victim_preferred || (vs.hot && vs.touch_epoch == epoch));
            if ((vs.mask & bit) && !second_chance) victim = &vs;
          }
        }
        if (victim == nullptr) {
          const std::uint64_t victims = make_room(device, writeback);
          evicted += victims;
          break;
        }
        dev.ring.pop_front();
        writeback += evict_copy(*victim_arr, entry.page, dev, bit);
        ++evicted;
      }
      evictions += evicted;
      GROUT_CHECK(dev.used_pages < dev.capacity_pages, "device full and nothing evictable");
      const bool needs_copy = st.populated;

      // Read-duplication, or migration: a write takes exclusive ownership
      // and a plain read moves the page; either way previous holders lose it.
      if (duplicate) {
        st.mask |= bit;
      } else if ((st.mask & ~host_bit()) != 0) {
        set_sole_copy(st, bit);
      } else {
        st.mask = bit;
      }
      ++dev.used_pages;
      if (!(st.ever_mask & bit)) {
        st.ever_mask |= bit;
        ++dev.sticky_pages;
        ++arr.sticky_per_device[static_cast<std::size_t>(device)];
      }
      dev.ring.push_back(RingEntry{id, p});
      if (dev.ring.size() > dev.ring_limit) compact_ring(device);

      st.prefetched = false;  // migrated on a fault: any prior prefetch was wasted
      if (!needs_copy) {
        populate_alloc += pb;  // first touch: map device-side, no H2D copy
      } else if (evicted != 0) {
        evict_fetch += pb;
      } else {
        healthy_fetch += pb;
        if (!prefetcher) healthy_fetch_nopf += pb;
      }
    }
    touched += pb;
    if (write) st.populated = true;
    st.touch_epoch = epoch;
    st.hot = hot;
  }

  c.touched += touched;
  c.hit += hit;
  c.remote += remote;
  c.healthy_fetch += healthy_fetch;
  c.healthy_fetch_nopf += healthy_fetch_nopf;
  c.evict_fetch += evict_fetch;
  c.populate_alloc += populate_alloc;
  c.writeback += writeback;
  c.faults += faults;
  c.evictions += evictions;
  stats_.prefetch_useful += prefetch_useful;
}

std::uint64_t UvmSpace::make_room(DeviceId device, Bytes& writeback) {
  DeviceState& dev = devices_[static_cast<std::size_t>(device)];
  Ring& ring = dev.ring;
  const std::uint16_t bit = device_bit(device);

  // The array of the last ring entry looked at: runs of consecutive entries
  // usually come from one array.
  ArrayId cached_id = kInvalidArray;
  ArrayInfo* cached = nullptr;
  bool preferred_here = false;
  // The victim's resident state on this device, or nullptr for a stale
  // entry (freed array or page no longer here).
  const auto resident = [&](const RingEntry& entry) -> PageState* {
    if (entry.array != cached_id) {
      cached_id = entry.array;
      cached = &arrays_[entry.array];
      preferred_here =
          cached->advise == Advise::PreferredLocation && cached->advise_device == device;
    }
    if (!cached->live || entry.page >= cached->pages.size()) return nullptr;
    PageState& st = cached->pages[entry.page];
    return (st.mask & bit) != 0 ? &st : nullptr;
  };

  std::uint64_t victims = 0;
  while (dev.used_pages >= dev.capacity_pages) {
    bool found = false;
    if (eviction_ == EvictionPolicyKind::Random) {
      // Try random picks first; fall back to a head scan on bad luck.
      for (int attempt = 0; attempt < 16 && !ring.empty(); ++attempt) {
        const auto idx = static_cast<std::size_t>(rng_.next_below(ring.size()));
        const RingEntry entry = ring[idx];
        ring[idx] = ring.back();
        ring.pop_back();
        if (resident(entry) != nullptr) {
          writeback += evict_copy(*cached, entry.page, dev, bit);
          found = true;
          break;
        }
      }
    }
    std::size_t second_chances = 0;
    std::size_t iterations = ring.size() + kEvictionScanLimit;
    while (!found && iterations-- > 0 && !ring.empty()) {
      const RingEntry entry = ring.front();
      ring.pop_front();
      PageState* st = resident(entry);
      if (st == nullptr) continue;  // stale entry

      if (eviction_ == EvictionPolicyKind::ClockLru && second_chances < kEvictionScanLimit) {
        const bool protected_hot = st->hot && st->touch_epoch == dev.current_epoch;
        if (protected_hot || preferred_here) {
          ring.push_back(entry);
          ++second_chances;
          continue;
        }
      }
      writeback += evict_copy(*cached, entry.page, dev, bit);
      found = true;
    }
    if (!found) break;
    ++victims;
  }
  return victims;
}

void UvmSpace::set_sole_copy(PageState& st, std::uint16_t owner) {
  for (unsigned others = st.mask & ~owner & ~host_bit(); others != 0; others &= others - 1) {
    --devices_[static_cast<std::size_t>(std::countr_zero(others) - 1)].used_pages;
  }
  st.mask = owner;
}

void UvmSpace::compact_ring(DeviceId device) {
  DeviceState& dev = devices_[static_cast<std::size_t>(device)];
  const std::uint16_t bit = device_bit(device);
  // Keep the first live entry of each resident page, marking pages as kept.
  dev.ring.retain([&](const RingEntry& entry) {
    ArrayInfo& arr = arrays_[entry.array];
    if (!arr.live || entry.page >= arr.pages.size()) return false;
    PageState& st = arr.pages[entry.page];
    if (!(st.mask & bit) || st.ring_mark) return false;
    st.ring_mark = true;
    return true;
  });
  for (std::size_t i = 0; i < dev.ring.size(); ++i) {
    const RingEntry& entry = dev.ring[i];
    arrays_[entry.array].pages[entry.page].ring_mark = false;
  }
}

void UvmSpace::Ring::grow() {
  // Double the block table, rotated so the front's block comes first; the
  // blocks keep their entries, only the table is rewritten.
  const std::size_t blocks = blocks_.size();
  std::vector<std::unique_ptr<RingEntry[]>> table(std::max<std::size_t>(2 * blocks, 2));
  const std::size_t front_block = head_ >> kBlockShift;
  for (std::size_t b = 0; b < blocks; ++b) {
    table[b] = std::move(blocks_[(front_block + b) % blocks]);
  }
  blocks_.swap(table);
  head_ &= kBlockEntries - 1;
}

// ---------------------------------------------------------------------------
// Host access / prefetch / adoption
// ---------------------------------------------------------------------------

HostAccessReport UvmSpace::host_access(ArrayId id, AccessMode mode, ByteRange range) {
  ArrayInfo& arr = array_ref(id);
  range = normalize_range(arr, range);
  const std::uint32_t first = static_cast<std::uint32_t>(range.begin / tuning_.page_size);
  const std::uint32_t last =
      static_cast<std::uint32_t>((range.end + tuning_.page_size - 1) / tuning_.page_size);

  std::array<Bytes, kMaxDevices> d2h_traffic{};
  Bytes migrated = 0;
  for (std::uint32_t p = first; p < last && p < arr.pages.size(); ++p) {
    PageState& st = arr.pages[p];
    if (!(st.mask & host_bit())) {
      // Page lives on some device; CPU touch migrates it home from the
      // lowest-numbered holder (one source is enough).
      if (st.mask != 0) {
        const auto d = static_cast<std::size_t>(std::countr_zero(st.mask) - 1);
        if (st.populated) d2h_traffic[d] += page_bytes(arr, p);
        st.mask = static_cast<std::uint16_t>(st.mask & (st.mask - 1));
        --devices_[d].used_pages;
      }
      migrated += page_bytes(arr, p);
      st.mask |= host_bit();
    }
    if (writes(mode)) {
      st.populated = true;
      // Host write supersedes any remaining device copies.
      set_sole_copy(st, host_bit());
    }
  }

  SimTime done = sim_.now();
  for (DeviceId d = 0; d < static_cast<DeviceId>(devices_.size()); ++d) {
    if (d2h_traffic[d] > 0) {
      const SimTime t = devices_[d].d2h->submit(d2h_traffic[d]);
      done = std::max(done, t);
    }
  }

  HostAccessReport r;
  r.bytes_migrated = migrated;
  r.duration = done - sim_.now();
  return r;
}

SimTime UvmSpace::prefetch(ArrayId id, DeviceId device, ByteRange range) {
  ArrayInfo& arr = array_ref(id);
  range = normalize_range(arr, range);
  const std::uint32_t first = static_cast<std::uint32_t>(range.begin / tuning_.page_size);
  const std::uint32_t last =
      static_cast<std::uint32_t>((range.end + tuning_.page_size - 1) / tuning_.page_size);

  if (device == kHostDevice) {
    const HostAccessReport r = host_access(id, AccessMode::Read, range);
    return sim_.now() + r.duration;
  }

  DeviceState& dev = device_ref(device);
  TouchCounters c;
  Bytes fetch = 0;
  const std::uint16_t bit = device_bit(device);
  for (std::uint32_t p = first; p < last && p < arr.pages.size(); ++p) {
    PageState& st = arr.pages[p];
    if (st.mask & bit) continue;
    if (dev.used_pages >= dev.capacity_pages) c.evictions += make_room(device, c.writeback);
    // Prefetch is a hint: when the device is full and nothing is evictable
    // (every resident page pinned by advice/heat), truncate the prefetch
    // cleanly — later pages fault on demand — instead of aborting.
    if (dev.used_pages >= dev.capacity_pages) break;
    if (arr.advise == Advise::ReadMostly) {
      st.mask |= bit;
    } else {
      set_sole_copy(st, bit);
    }
    ++dev.used_pages;
    if (!(st.ever_mask & bit)) {
      st.ever_mask |= bit;
      ++dev.sticky_pages;
      ++arr.sticky_per_device[device];
    }
    dev.ring.push_back(RingEntry{id, p});
    st.prefetched = true;
    if (st.populated) fetch += page_bytes(arr, p);
  }

  stats_.bytes_fetched += fetch;
  stats_.prefetch_issued += fetch;
  stats_.bytes_written_back += c.writeback;
  stats_.evictions += c.evictions;

  SimTime done = sim_.now();
  if (fetch > 0) done = dev.h2d->submit(fetch);
  if (c.writeback > 0) done = std::max(done, dev.d2h->submit(c.writeback));
  return done;
}

void UvmSpace::adopt_host_copy(ArrayId id) {
  ArrayInfo& arr = array_ref(id);
  for (PageState& st : arr.pages) {
    set_sole_copy(st, host_bit());
    st.populated = true;
  }
}

// ---------------------------------------------------------------------------
// Inspection & helpers
// ---------------------------------------------------------------------------

Bytes UvmSpace::capacity(DeviceId device) const {
  return static_cast<Bytes>(device_ref(device).capacity_pages) * tuning_.page_size;
}

Bytes UvmSpace::resident_bytes(DeviceId device) const {
  return static_cast<Bytes>(device_ref(device).used_pages) * tuning_.page_size;
}

Bytes UvmSpace::sticky_bytes(DeviceId device) const {
  return static_cast<Bytes>(device_ref(device).sticky_pages) * tuning_.page_size;
}

double UvmSpace::oversubscription(DeviceId device) const {
  const DeviceState& dev = device_ref(device);
  return static_cast<double>(dev.sticky_pages) / static_cast<double>(dev.capacity_pages);
}

double UvmSpace::allocation_pressure() const {
  return static_cast<double>(live_bytes_) / static_cast<double>(total_capacity_bytes_);
}

double UvmSpace::working_set_pressure() const {
  std::size_t sticky = 0;
  std::size_t capacity = 0;
  for (const DeviceState& dev : devices_) {
    sticky += dev.sticky_pages;
    capacity += dev.capacity_pages;
  }
  return static_cast<double>(sticky) / static_cast<double>(capacity);
}

bool UvmSpace::page_resident(ArrayId id, std::uint32_t page, DeviceId device) const {
  const ArrayInfo& arr = array_ref(id);
  GROUT_REQUIRE(page < arr.pages.size(), "page index out of range");
  const std::uint16_t bit = device == kHostDevice ? host_bit() : device_bit(device);
  return (arr.pages[page].mask & bit) != 0;
}

Bytes UvmSpace::resident_bytes_of(ArrayId id, DeviceId device) const {
  const ArrayInfo& arr = array_ref(id);
  const std::uint16_t bit = device == kHostDevice ? host_bit() : device_bit(device);
  Bytes total = 0;
  for (std::uint32_t p = 0; p < arr.pages.size(); ++p) {
    if (arr.pages[p].mask & bit) total += page_bytes(arr, p);
  }
  return total;
}

std::uint32_t UvmSpace::page_count(ArrayId id) const {
  return static_cast<std::uint32_t>(array_ref(id).pages.size());
}

sim::Resource& UvmSpace::h2d_link(DeviceId device) { return *device_ref(device).h2d; }
sim::Resource& UvmSpace::d2h_link(DeviceId device) { return *device_ref(device).d2h; }

UvmSpace::ArrayInfo& UvmSpace::array_ref(ArrayId id) {
  GROUT_REQUIRE(id < arrays_.size(), "unknown array id");
  ArrayInfo& arr = arrays_[id];
  GROUT_REQUIRE(arr.live, "use of freed array");
  return arr;
}

const UvmSpace::ArrayInfo& UvmSpace::array_ref(ArrayId id) const {
  GROUT_REQUIRE(id < arrays_.size(), "unknown array id");
  const ArrayInfo& arr = arrays_[id];
  GROUT_REQUIRE(arr.live, "use of freed array");
  return arr;
}

UvmSpace::DeviceState& UvmSpace::device_ref(DeviceId id) {
  GROUT_REQUIRE(id >= 0 && id < static_cast<DeviceId>(devices_.size()), "unknown device id");
  return devices_[static_cast<std::size_t>(id)];
}

const UvmSpace::DeviceState& UvmSpace::device_ref(DeviceId id) const {
  GROUT_REQUIRE(id >= 0 && id < static_cast<DeviceId>(devices_.size()), "unknown device id");
  return devices_[static_cast<std::size_t>(id)];
}

Bytes UvmSpace::page_bytes(const ArrayInfo& arr, std::uint32_t page) const {
  const Bytes begin = static_cast<Bytes>(page) * tuning_.page_size;
  return std::min(tuning_.page_size, arr.bytes - begin);
}

ByteRange UvmSpace::normalize_range(const ArrayInfo& arr, ByteRange range) const {
  if (range.empty()) return ByteRange{0, arr.bytes};
  GROUT_REQUIRE(range.end <= arr.bytes, "access range past the end of the allocation");
  return range;
}

// ---------------------------------------------------------------------------
// Enum names
// ---------------------------------------------------------------------------

const char* to_string(AccessMode m) {
  switch (m) {
    case AccessMode::Read: return "read";
    case AccessMode::Write: return "write";
    case AccessMode::ReadWrite: return "readwrite";
  }
  return "?";
}

const char* to_string(Parallelism p) {
  switch (p) {
    case Parallelism::Moderate: return "moderate";
    case Parallelism::High: return "high";
    case Parallelism::Massive: return "massive";
  }
  return "?";
}

const char* to_string(Advise a) {
  switch (a) {
    case Advise::None: return "none";
    case Advise::ReadMostly: return "read-mostly";
    case Advise::PreferredLocation: return "preferred-location";
    case Advise::AccessedBy: return "accessed-by";
  }
  return "?";
}

const char* to_string(EvictionPolicyKind k) {
  switch (k) {
    case EvictionPolicyKind::ClockLru: return "clock-lru";
    case EvictionPolicyKind::Fifo: return "fifo";
    case EvictionPolicyKind::Random: return "random";
  }
  return "?";
}

}  // namespace grout::uvm

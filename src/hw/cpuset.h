// CPU mask, modeled after the Linux kernel's cpumask_t.
//
// Used wherever the real systems use affinity masks: thread affinity (the
// job launcher's rank binding stands in for cgroup cpusets), the
// topology's application and system core sets, and IHK's core
// reservation.
//
// Storage is one 64-bit word per 64 cores (no core-count cap), so the set
// algebra runs a word at a time. Bits at and above capacity() stay zero,
// which makes the defaulted == compare capacity and membership.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/ids.h"

namespace hpcos::hw {

class CpuSet {
 public:
  CpuSet() = default;
  explicit CpuSet(std::size_t num_cores);

  // Construct from an explicit list of core ids ("taskset -c 2,3,7" style).
  static CpuSet of(std::size_t num_cores, std::initializer_list<CoreId> ids);
  // All cores set.
  static CpuSet all(std::size_t num_cores);
  // Contiguous range [first, last] inclusive, like "0-47".
  static CpuSet range(std::size_t num_cores, CoreId first, CoreId last);

  std::size_t capacity() const { return size_; }
  // Out-of-range ids (negative or >= capacity) read as unset.
  bool test(CoreId id) const {
    const auto i = static_cast<std::size_t>(id);  // negative ids wrap high
    return i < size_ &&
           ((words_[i / kWordBits] >> (i % kWordBits)) & 1u) != 0;
  }
  void set(CoreId id, bool value = true);

  std::size_t count() const;
  bool empty() const { return !any(); }
  bool any() const;

  // First set core, or kInvalidCore when empty.
  CoreId first() const { return next(-1); }
  // Next set core strictly after `id`, or kInvalidCore.
  CoreId next(CoreId id) const;
  std::vector<CoreId> to_vector() const;

  CpuSet operator&(const CpuSet& o) const;
  CpuSet operator|(const CpuSet& o) const;
  // Cores in *this but not in o.
  CpuSet minus(const CpuSet& o) const;
  bool intersects(const CpuSet& o) const;
  bool contains(const CpuSet& o) const;
  bool operator==(const CpuSet& o) const = default;

  // "0-47" / "48,49" style rendering, mirroring /sys cpulist files.
  std::string to_string() const;

 private:
  static constexpr std::size_t kWordBits = 64;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;  // core i is bit i % 64 of word i / 64
};

}  // namespace hpcos::hw

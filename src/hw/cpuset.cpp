#include "hw/cpuset.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/check.h"

namespace hpcos::hw {

CpuSet::CpuSet(std::size_t num_cores)
    : size_(num_cores), words_((num_cores + kWordBits - 1) / kWordBits, 0) {}

CpuSet CpuSet::of(std::size_t num_cores, std::initializer_list<CoreId> ids) {
  CpuSet s(num_cores);
  for (CoreId id : ids) s.set(id);
  return s;
}

CpuSet CpuSet::all(std::size_t num_cores) {
  CpuSet s(num_cores);
  std::fill(s.words_.begin(), s.words_.end(), ~std::uint64_t{0});
  if (const std::size_t tail = num_cores % kWordBits; tail != 0) {
    s.words_.back() = (std::uint64_t{1} << tail) - 1;
  }
  return s;
}

CpuSet CpuSet::range(std::size_t num_cores, CoreId first, CoreId last) {
  CpuSet s(num_cores);
  HPCOS_CHECK(first >= 0 && last >= first);
  for (CoreId id = first; id <= last; ++id) s.set(id);
  return s;
}

void CpuSet::set(CoreId id, bool value) {
  HPCOS_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < size_,
                  "CpuSet::set out of range");
  const auto i = static_cast<std::size_t>(id);
  const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= bit;
  } else {
    words_[i / kWordBits] &= ~bit;
  }
}

std::size_t CpuSet::count() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

bool CpuSet::any() const {
  return std::any_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w != 0; });
}

CoreId CpuSet::next(CoreId id) const {
  // id == -1 starts at core 0; any other negative id wraps past capacity.
  const auto start = static_cast<std::size_t>(id + 1);
  if (start >= size_) return kInvalidCore;
  std::size_t w = start / kWordBits;
  std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (start % kWordBits));
  while (bits == 0) {
    if (++w == words_.size()) return kInvalidCore;
    bits = words_[w];
  }
  return static_cast<CoreId>(w * kWordBits +
                             static_cast<std::size_t>(std::countr_zero(bits)));
}

std::vector<CoreId> CpuSet::to_vector() const {
  std::vector<CoreId> out;
  for (CoreId id = first(); id != kInvalidCore; id = next(id)) {
    out.push_back(id);
  }
  return out;
}

CpuSet CpuSet::operator&(const CpuSet& o) const {
  CpuSet r(std::max(size_, o.size_));
  const std::size_t n = std::min(words_.size(), o.words_.size());
  for (std::size_t w = 0; w < n; ++w) r.words_[w] = words_[w] & o.words_[w];
  return r;
}

CpuSet CpuSet::operator|(const CpuSet& o) const {
  CpuSet r(std::max(size_, o.size_));
  for (std::size_t w = 0; w < words_.size(); ++w) r.words_[w] |= words_[w];
  for (std::size_t w = 0; w < o.words_.size(); ++w) r.words_[w] |= o.words_[w];
  return r;
}

CpuSet CpuSet::minus(const CpuSet& o) const {
  CpuSet r = *this;
  const std::size_t n = std::min(words_.size(), o.words_.size());
  for (std::size_t w = 0; w < n; ++w) r.words_[w] &= ~o.words_[w];
  return r;
}

bool CpuSet::intersects(const CpuSet& o) const {
  const std::size_t n = std::min(words_.size(), o.words_.size());
  for (std::size_t w = 0; w < n; ++w) {
    if ((words_[w] & o.words_[w]) != 0) return true;
  }
  return false;
}

bool CpuSet::contains(const CpuSet& o) const {
  for (std::size_t w = 0; w < o.words_.size(); ++w) {
    const std::uint64_t mine = w < words_.size() ? words_[w] : 0;
    if ((o.words_[w] & ~mine) != 0) return false;
  }
  return true;
}

std::string CpuSet::to_string() const {
  std::ostringstream oss;
  bool first_range = true;
  CoreId id = first();
  while (id != kInvalidCore) {
    CoreId end = id;
    while (next(end) == end + 1) ++end;
    if (!first_range) oss << ",";
    if (end == id) {
      oss << id;
    } else {
      oss << id << "-" << end;
    }
    first_range = false;
    id = next(end);
  }
  return oss.str();
}

}  // namespace hpcos::hw

#include "hw/cpuset.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace hpcos::hw {

CpuSet::CpuSet(std::size_t num_cores) : bits_(num_cores, false) {}

CpuSet CpuSet::of(std::size_t num_cores, std::initializer_list<CoreId> ids) {
  CpuSet s(num_cores);
  for (CoreId id : ids) s.set(id);
  return s;
}

CpuSet CpuSet::all(std::size_t num_cores) {
  CpuSet s(num_cores);
  std::fill(s.bits_.begin(), s.bits_.end(), true);
  return s;
}

CpuSet CpuSet::range(std::size_t num_cores, CoreId first, CoreId last) {
  CpuSet s(num_cores);
  HPCOS_CHECK(first >= 0 && last >= first);
  for (CoreId id = first; id <= last; ++id) s.set(id);
  return s;
}

bool CpuSet::test(CoreId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= bits_.size()) return false;
  return bits_[static_cast<std::size_t>(id)];
}

void CpuSet::set(CoreId id, bool value) {
  HPCOS_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < bits_.size(),
                  "CpuSet::set out of range");
  bits_[static_cast<std::size_t>(id)] = value;
}

std::size_t CpuSet::count() const {
  return static_cast<std::size_t>(
      std::count(bits_.begin(), bits_.end(), true));
}

CoreId CpuSet::first() const { return next(-1); }

CoreId CpuSet::next(CoreId id) const {
  for (std::size_t i = static_cast<std::size_t>(id + 1); i < bits_.size();
       ++i) {
    if (bits_[i]) return static_cast<CoreId>(i);
  }
  return kInvalidCore;
}

std::vector<CoreId> CpuSet::to_vector() const {
  std::vector<CoreId> out;
  for (CoreId id = first(); id != kInvalidCore; id = next(id)) {
    out.push_back(id);
  }
  return out;
}

CpuSet CpuSet::operator&(const CpuSet& o) const {
  CpuSet r(std::max(bits_.size(), o.bits_.size()));
  for (std::size_t i = 0; i < r.bits_.size(); ++i) {
    r.bits_[i] = (i < bits_.size() && bits_[i]) &&
                 (i < o.bits_.size() && o.bits_[i]);
  }
  return r;
}

CpuSet CpuSet::operator|(const CpuSet& o) const {
  CpuSet r(std::max(bits_.size(), o.bits_.size()));
  for (std::size_t i = 0; i < r.bits_.size(); ++i) {
    r.bits_[i] = (i < bits_.size() && bits_[i]) ||
                 (i < o.bits_.size() && o.bits_[i]);
  }
  return r;
}

CpuSet CpuSet::minus(const CpuSet& o) const {
  CpuSet r = *this;
  for (std::size_t i = 0; i < r.bits_.size(); ++i) {
    if (i < o.bits_.size() && o.bits_[i]) r.bits_[i] = false;
  }
  return r;
}

bool CpuSet::intersects(const CpuSet& o) const {
  const std::size_t n = std::min(bits_.size(), o.bits_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (bits_[i] && o.bits_[i]) return true;
  }
  return false;
}

bool CpuSet::contains(const CpuSet& o) const {
  for (std::size_t i = 0; i < o.bits_.size(); ++i) {
    if (o.bits_[i] && !(i < bits_.size() && bits_[i])) return false;
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

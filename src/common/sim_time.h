// Strongly-typed simulated time.
//
// The whole substrate runs on a single discrete clock measured in integer
// nanoseconds. Using a dedicated type (rather than raw int64_t or
// std::chrono::nanoseconds) keeps instants and durations from silently mixing
// with unrelated integers, while remaining trivially copyable and cheap.
//
// SimTime is used both for instants (time since simulation start) and for
// durations; the simulation epoch is always zero so the distinction carries
// no information here and a single type keeps the arithmetic simple.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace hpcos {

class SimTime {
 public:
  constexpr SimTime() = default;

  // Named constructors; the argument is in the named unit.
  static constexpr SimTime ns(std::int64_t v) { return SimTime{v}; }
  static constexpr SimTime us(std::int64_t v) { return SimTime{v * 1'000}; }
  static constexpr SimTime ms(std::int64_t v) { return SimTime{v * 1'000'000}; }
  static constexpr SimTime sec(std::int64_t v) {
    return SimTime{v * 1'000'000'000};
  }
  // Fractional-unit constructors (round to nearest nanosecond, saturating
  // like from_ns_saturating).
  static constexpr SimTime from_us(double v) {
    return SimTime{round_i64(v * 1e3)};
  }
  static constexpr SimTime from_ms(double v) {
    return SimTime{round_i64(v * 1e6)};
  }
  static constexpr SimTime from_sec(double v) {
    return SimTime{round_i64(v * 1e9)};
  }
  // v nanoseconds truncated toward zero, saturating: v >= 2^63 gives max()
  // and v < -2^63 the most negative time, where a plain cast would be
  // undefined. v must not be NaN.
  static constexpr SimTime from_ns_saturating(double v) {
    if (v >= 0x1p63) return max();
    if (v < -0x1p63) return SimTime{std::numeric_limits<std::int64_t>::min()};
    return SimTime{static_cast<std::int64_t>(v)};
  }

  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr std::int64_t count_ns() const { return ns_; }
  constexpr double to_us() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double to_ms() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double to_sec() const { return static_cast<double>(ns_) / 1e9; }

  constexpr bool is_zero() const { return ns_ == 0; }
  constexpr bool is_negative() const { return ns_ < 0; }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  constexpr SimTime operator+(SimTime o) const { return SimTime{ns_ + o.ns_}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{ns_ - o.ns_}; }
  constexpr SimTime& operator+=(SimTime o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    ns_ -= o.ns_;
    return *this;
  }
  constexpr SimTime operator*(std::int64_t k) const { return SimTime{ns_ * k}; }
  constexpr SimTime operator/(std::int64_t k) const { return SimTime{ns_ / k}; }
  // Scale by a real factor, rounding to the nearest nanosecond
  // (saturating).
  constexpr SimTime scaled(double f) const {
    return SimTime{round_i64(static_cast<double>(ns_) * f)};
  }
  // Ratio of two durations (dimensionless).
  constexpr double ratio(SimTime denom) const {
    return static_cast<double>(ns_) / static_cast<double>(denom.ns_);
  }

  // Human-readable rendering with an auto-selected unit, e.g. "6.5ms".
  std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t v) : ns_(v) {}
  // v rounded to the nearest integer, saturating: v >= 2^63 gives the
  // largest int64 and v < -2^63 the smallest, where a plain cast would be
  // undefined. No double below 2^63 rounds up to it when 0.5 is added (the
  // spacing there is 1,024). v must not be NaN.
  static constexpr std::int64_t round_i64(double v) {
    if (v >= 0x1p63) return std::numeric_limits<std::int64_t>::max();
    if (v < -0x1p63) return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(v >= 0 ? v + 0.5 : v - 0.5);
  }

  std::int64_t ns_ = 0;
};

namespace literals {
constexpr SimTime operator""_ns(unsigned long long v) {
  return SimTime::ns(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_us(unsigned long long v) {
  return SimTime::us(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_ms(unsigned long long v) {
  return SimTime::ms(static_cast<std::int64_t>(v));
}
constexpr SimTime operator""_s(unsigned long long v) {
  return SimTime::sec(static_cast<std::int64_t>(v));
}
}  // namespace literals

}  // namespace hpcos

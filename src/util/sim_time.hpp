// Simulation time: a thin, strongly-typed wrapper over "seconds since the
// Unix epoch" with proleptic-Gregorian calendar conversion.  The toolkit
// deals in wall-clock timestamps because the paper's datasets (syslog CE
// records, BMC sensor samples, inventory scans) are all timestamped series
// keyed to real calendar dates (e.g. "Jan 20 2019 .. Sep 14 2019").
//
// Calendar algorithms follow Howard Hinnant's public-domain civil-date
// derivations (http://howardhinnant.github.io/date_algorithms.html).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace astra {

struct CivilDate {
  int year = 1970;
  int month = 1;  // 1..12
  int day = 1;    // 1..31

  friend constexpr bool operator==(const CivilDate&, const CivilDate&) = default;
};

struct CivilDateTime {
  CivilDate date;
  int hour = 0;    // 0..23
  int minute = 0;  // 0..59
  int second = 0;  // 0..59

  friend constexpr bool operator==(const CivilDateTime&, const CivilDateTime&) = default;
};

// Days since 1970-01-01 for a civil date (valid across the simulation era).
[[nodiscard]] constexpr std::int64_t DaysFromCivil(int y, int m, int d) noexcept {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

[[nodiscard]] constexpr CivilDate CivilFromDays(std::int64_t z) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                       // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                            // [1, 12]
  return CivilDate{static_cast<int>(y + (m <= 2)), static_cast<int>(m),
                   static_cast<int>(d)};
}

// Seconds since the Unix epoch, value-typed with named constructors and
// calendar helpers.  Arithmetic stays explicit (AddSeconds/AddDays) to avoid
// unit confusion between seconds, minutes and days at call sites.
class SimTime {
 public:
  static constexpr std::int64_t kSecondsPerMinute = 60;
  static constexpr std::int64_t kSecondsPerHour = 3600;
  static constexpr std::int64_t kSecondsPerDay = 86400;
  static constexpr std::int64_t kSecondsPerWeek = 7 * kSecondsPerDay;

  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t seconds_since_epoch) noexcept
      : seconds_(seconds_since_epoch) {}

  [[nodiscard]] static constexpr SimTime FromCivil(int year, int month, int day,
                                                   int hour = 0, int minute = 0,
                                                   int second = 0) noexcept {
    return SimTime(DaysFromCivil(year, month, day) * kSecondsPerDay +
                   hour * kSecondsPerHour + minute * kSecondsPerMinute + second);
  }

  [[nodiscard]] constexpr std::int64_t Seconds() const noexcept { return seconds_; }
  [[nodiscard]] constexpr std::int64_t Minutes() const noexcept {
    return seconds_ / kSecondsPerMinute;
  }
  [[nodiscard]] constexpr std::int64_t Days() const noexcept {
    return seconds_ / kSecondsPerDay;
  }

  [[nodiscard]] constexpr SimTime AddSeconds(std::int64_t s) const noexcept {
    return SimTime(seconds_ + s);
  }
  [[nodiscard]] constexpr SimTime AddMinutes(std::int64_t m) const noexcept {
    return SimTime(seconds_ + m * kSecondsPerMinute);
  }
  [[nodiscard]] constexpr SimTime AddHours(std::int64_t h) const noexcept {
    return SimTime(seconds_ + h * kSecondsPerHour);
  }
  [[nodiscard]] constexpr SimTime AddDays(std::int64_t d) const noexcept {
    return SimTime(seconds_ + d * kSecondsPerDay);
  }

  [[nodiscard]] CivilDateTime ToCivil() const noexcept;

  // "YYYY-MM-DD HH:MM:SS" — the timestamp format used by the dataset files.
  [[nodiscard]] std::string ToString() const;
  // "YYYY-MM-DD"
  [[nodiscard]] std::string ToDateString() const;

  // Parse "YYYY-MM-DD[ HH:MM[:SS]]"; returns false on malformed input.
  [[nodiscard]] static bool Parse(std::string_view text, SimTime& out) noexcept;

  // The earliest and latest instants Parse produces: its year is four
  // characters, a signed "-999" up to "9999".
  [[nodiscard]] static constexpr SimTime EarliestParsed() noexcept {
    return FromCivil(-999, 1, 1);
  }
  [[nodiscard]] static constexpr SimTime LatestParsed() noexcept {
    return FromCivil(9999, 12, 31, 23, 59, 59);
  }

  friend constexpr auto operator<=>(const SimTime&, const SimTime&) = default;

 private:
  std::int64_t seconds_ = 0;
};

// Difference in whole seconds (b - a).
[[nodiscard]] constexpr std::int64_t SecondsBetween(SimTime a, SimTime b) noexcept {
  return b.Seconds() - a.Seconds();
}

// A half-open time interval [begin, end).
struct TimeWindow {
  SimTime begin;
  SimTime end;

  [[nodiscard]] constexpr bool Contains(SimTime t) const noexcept {
    return t >= begin && t < end;
  }
  [[nodiscard]] constexpr std::int64_t DurationSeconds() const noexcept {
    return SecondsBetween(begin, end);
  }
  [[nodiscard]] constexpr double DurationDays() const noexcept {
    return static_cast<double>(DurationSeconds()) /
           static_cast<double>(SimTime::kSecondsPerDay);
  }
};

// Zero-based month index (months elapsed since window begin) — used to bucket
// events into the monthly series the paper plots.  A "month" here is the
// calendar month boundary, not a fixed 30-day period.
[[nodiscard]] int CalendarMonthIndex(SimTime origin, SimTime t) noexcept;

// Origin-free calendar month index (year * 12 + month - 1 of t's civil
// date).  CalendarMonthIndex(origin, t) is exactly the difference of the two
// absolute indices, so incremental analyzers can bin by absolute month while
// the campaign window is still unknown and remap to an origin-relative
// series at finalize time without loss.
[[nodiscard]] std::int64_t AbsoluteCalendarMonth(SimTime t) noexcept;

// Memoized AbsoluteCalendarMonth for hot per-record binning: telemetry
// arrives clustered in time, so almost every lookup lands in the month of
// the previous one and skips the civil-date conversion entirely.  Pure
// cache — MonthOf(t) == AbsoluteCalendarMonth(t) for every t — so engines
// may carry one without affecting determinism, merges, or snapshots.
class CalendarMonthCache {
 public:
  [[nodiscard]] std::int64_t MonthOf(SimTime t) noexcept {
    const std::int64_t s = t.Seconds();
    if (s < month_begin_ || s >= month_end_) Refill(s);
    return month_;
  }

 private:
  void Refill(std::int64_t seconds) noexcept;

  std::int64_t month_begin_ = 1;  // empty range: first lookup always refills
  std::int64_t month_end_ = 0;
  std::int64_t month_ = 0;
};

}  // namespace astra

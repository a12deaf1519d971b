#pragma once
/// \file honeyfarm.hpp
/// The honeyfarm outpost simulator: the GreyNoise-style commercial
/// observatory. Unlike the passive telescope, the outpost *converses*
/// with sources, so each catalogued source carries enrichment metadata —
/// classification, intent, protocol tags — stored in a D4M associative
/// array with the exploded schema (`'intent|scan' = 1`), the paper's
/// representation of the GreyNoise data.
///
/// Each study month yields one associative array whose row keys are the
/// dotted-quad addresses seen that month. A source appears when it is
/// (a) active that month in the ground-truth population and (b) detected
/// under the scenario's visibility model and month coverage factor; on
/// top sit ephemeral one-month noise sources (misconfigurations, one-off
/// scanners) that model the month-to-month volume swings and sensor
/// configuration changes in Table I.

#include <cstdint>

#include "common/thread_pool.hpp"
#include "d4m/assoc.hpp"
#include "netgen/population.hpp"
#include "netgen/scenario.hpp"
#include "netgen/visibility.hpp"

namespace obscorr::honeyfarm {

/// One month of honeyfarm observations.
struct MonthlyObservation {
  YearMonth month;
  d4m::AssocArray sources;          ///< exploded-schema assoc array
  std::uint64_t population_sources = 0;  ///< detected ground-truth sources
  std::uint64_t ephemeral_sources = 0;   ///< one-month noise sources
  std::uint64_t total_sources() const { return population_sources + ephemeral_sources; }
};

/// The outpost instrument.
class Honeyfarm {
 public:
  Honeyfarm(const netgen::Population& population, netgen::VisibilityModel visibility,
            std::uint64_t seed);

  /// Observe one study month (month_index is 0-based within the study)
  /// under a `study.month` span. Detection, the ephemeral ownership
  /// checks and the row fill run as `pool` tasks; the month is the same
  /// at any thread count.
  MonthlyObservation observe_month(const netgen::GreyNoiseMonthSpec& spec, int month_index,
                                   ThreadPool& pool) const;

  /// The same month, computed serially on the calling thread.
  MonthlyObservation observe_month(const netgen::GreyNoiseMonthSpec& spec,
                                   int month_index) const;

 private:
  MonthlyObservation observe(const netgen::GreyNoiseMonthSpec& spec, int month_index,
                             ThreadPool* pool) const;

  const netgen::Population& population_;
  netgen::VisibilityModel visibility_;
  std::uint64_t seed_;
};

}  // namespace obscorr::honeyfarm

#include "core/study.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/interrupt.hpp"
#include "common/ipv4.hpp"
#include "core/parallel_capture.hpp"
#include "gbl/kernels.hpp"
#include "netgen/traffic.hpp"
#include "obs/span.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::core {

namespace {

SnapshotData take_snapshot(const netgen::Scenario& scenario, const netgen::Population& population,
                           const netgen::CaidaSnapshotSpec& spec, ThreadPool& pool) {
  const obs::Span span("study.snapshot", [&] { return spec.start_label; });
  SnapshotData snap;
  snap.spec = spec;
  snap.month_index = scenario.month_index(spec.month);
  snap.duration_sec = scenario.scaled_duration_sec(spec);

  telescope::Telescope scope(telescope_config(scenario), pool);
  const netgen::TrafficGenerator generator(population, scenario.traffic);
  snap.matrix =
      capture_window(scope, generator, snap.month_index, scenario.nv(), spec.salt, pool);
  snap.valid_packets = static_cast<std::uint64_t>(snap.matrix.reduce_sum());
  snap.discarded_packets = scope.discarded_packets();
  OBSCORR_INVARIANT(snap.valid_packets == scenario.nv());

  snap.source_packets = snap.matrix.reduce_rows();

  // Trusted exchange (paper §I, sharing approach 1): the anonymized
  // source ids go back to the telescope operator for deanonymization,
  // producing the D4M associative array used for correlation: one
  // `packets` column over the original addresses in text order.
  // Deanonymization is a bijection, so the addresses stay distinct; each
  // sorts as its text-order key, with its position in the low word.
  const auto ids = snap.source_packets.indices();
  const auto counts = snap.source_packets.values();
  const std::size_t n = ids.size();
  std::vector<std::uint64_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = text_order_key(scope.deanonymize(Ipv4(ids[i])));
    order[i] = key << 32 | i;
  }
  gbl::kernels::radix_sort_u64(order.data(), n, mem::scratch_arena());
  std::vector<std::string> row_keys(n);
  std::vector<std::uint64_t> row_ptr(n + 1);
  std::vector<double> val(n);
  for (std::size_t r = 0; r < n; ++r) {
    row_keys[r] = from_text_order_key(static_cast<std::uint32_t>(order[r] >> 32)).to_string();
    row_ptr[r + 1] = r + 1;
    val[r] = counts[order[r] & 0xFFFFFFFFu];
  }
  std::vector<std::string> col_keys;
  if (n != 0) col_keys.emplace_back("packets");
  snap.sources = d4m::AssocArray::from_csr(std::move(row_keys), std::move(col_keys),
                                           std::move(row_ptr), std::vector<std::uint32_t>(n, 0),
                                           std::move(val));
  return snap;
}

StudyData run_impl(const netgen::Scenario& scenario, ThreadPool& pool, bool with_honeyfarm) {
  const obs::Span span("study.run");
  OBSCORR_REQUIRE(!scenario.snapshots.empty(), "scenario needs at least one snapshot");
  StudyData study;
  study.scenario = scenario;
  {
    const obs::Span population_span("netgen.population");
    study.population = std::make_shared<netgen::Population>(scenario.population);
  }
  const netgen::Population& population = *study.population;

  const std::size_t n_snapshots = scenario.snapshots.size();
  const std::size_t n_months = with_honeyfarm ? scenario.months.size() : 0;
  study.snapshots.resize(n_snapshots);
  std::optional<honeyfarm::Honeyfarm> farm;
  if (with_honeyfarm) {
    study.months.resize(n_months);
    farm.emplace(population, scenario.visibility, scenario.population.seed ^ 0x64E4015EULL);
  }

  // Warm the activity chains up front: month m depends on month m-1, so
  // the lazy fill is inherently serial — doing it here keeps the pool
  // tasks from queueing on the population's activity mutex.
  int last_month = 0;
  for (const auto& spec : scenario.snapshots) {
    last_month = std::max(last_month, scenario.month_index(spec.month));
  }
  if (n_months > 0) last_month = std::max(last_month, static_cast<int>(n_months) - 1);
  (void)population.active(0, last_month);

  // Snapshots and honeyfarm months are independent observations of the
  // same (now read-only) world: run them as pool tasks into pre-sized
  // slots.
  parallel_for(pool, 0, n_snapshots + n_months, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // Cooperative stop between observations, never mid-frame: a
      // SIGINT/SIGTERM skips the remaining windows and run_impl throws a
      // clean diagnostic below instead of returning a partial study.
      if (interrupt::stop_requested()) continue;
      if (i < n_snapshots) {
        study.snapshots[i] = take_snapshot(scenario, population, scenario.snapshots[i], pool);
      } else {
        const std::size_t m = i - n_snapshots;
        study.months[m] = farm->observe_month(scenario.months[m], static_cast<int>(m), pool);
      }
    }
  });
  OBSCORR_REQUIRE(!interrupt::stop_requested(),
                  "study: interrupted — in-memory campaign discarded "
                  "(use `obscorr archive`, which checkpoints and resumes)");
  return study;
}

}  // namespace

StudyData run_study(const netgen::Scenario& scenario, ThreadPool& pool) {
  return run_impl(scenario, pool, /*with_honeyfarm=*/true);
}

StudyData run_telescope_only(const netgen::Scenario& scenario, ThreadPool& pool) {
  return run_impl(scenario, pool, /*with_honeyfarm=*/false);
}

SnapshotData run_snapshot(const netgen::Scenario& scenario, const netgen::Population& population,
                          std::size_t snapshot_index, ThreadPool& pool) {
  OBSCORR_REQUIRE(snapshot_index < scenario.snapshots.size(),
                  "run_snapshot: snapshot index out of range");
  return take_snapshot(scenario, population, scenario.snapshots[snapshot_index], pool);
}

honeyfarm::MonthlyObservation run_month(const netgen::Scenario& scenario,
                                        const netgen::Population& population,
                                        std::size_t month_index, ThreadPool& pool) {
  OBSCORR_REQUIRE(month_index < scenario.months.size(), "run_month: month index out of range");
  const honeyfarm::Honeyfarm farm(population, scenario.visibility,
                                  scenario.population.seed ^ 0x64E4015EULL);
  return farm.observe_month(scenario.months[month_index], static_cast<int>(month_index), pool);
}

honeyfarm::MonthlyObservation run_month(const netgen::Scenario& scenario,
                                        const netgen::Population& population,
                                        std::size_t month_index) {
  OBSCORR_REQUIRE(month_index < scenario.months.size(), "run_month: month index out of range");
  const honeyfarm::Honeyfarm farm(population, scenario.visibility,
                                  scenario.population.seed ^ 0x64E4015EULL);
  return farm.observe_month(scenario.months[month_index], static_cast<int>(month_index));
}

}  // namespace obscorr::core

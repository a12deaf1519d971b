// Layer-by-layer traced walk of one benchmark workload.
//
// The tracer calls each module's public entry points in the workload's
// order and records a span around every call: name, detail, start, end
// and the enclosing span. Spans and counts stay in memory and are written
// as one JSON document when the walk ends. Nothing inside the program is
// instrumented for this; the program's own counters are read only where
// they already exist (telescope anonymization memo hits/misses, page cache
// hits/misses).
//
// Calls run one after another on the tracer thread, each handed the
// workload's pool, so a span measures one layer call at the workload's
// thread count rather than the overlap the CLI schedules between
// independent observations.
//
// usage: perfbench-trace study|capture|replay|serve --log2-nv K --seed S
//          --threads T --work DIR --out FILE [--archive DIR]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analysis/correlate.hpp"
#include "analysis/window_series.hpp"
#include "archive/compact.hpp"
#include "archive/page_cache.hpp"
#include "archive/study_archive.hpp"
#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "core/correlation.hpp"
#include "core/degree_analysis.hpp"
#include "core/parallel_capture.hpp"
#include "core/scaling_analysis.hpp"
#include "core/study.hpp"
#include "crypt/cryptopan.hpp"
#include "d4m/assoc.hpp"
#include "gbl/coo.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/kernels.hpp"
#include "gbl/quantities.hpp"
#include "honeyfarm/honeyfarm.hpp"
#include "netgen/population.hpp"
#include "netgen/scenario.hpp"
#include "netgen/traffic.hpp"
#include "obs/telemetry.hpp"
#include "svc/ingest.hpp"
#include "svc/protocol.hpp"
#include "svc/queries.hpp"
#include "telescope/telescope.hpp"

namespace fs = std::filesystem;
using namespace obscorr;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::string detail;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// In-memory span recorder for the tracer thread.
class Tracer {
 public:
  int begin(std::string name, std::string detail) {
    spans_.push_back({std::move(name), std::move(detail), now_ns(), 0,
                      stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  /// A span recorded after the fact (times taken on another thread).
  void add(std::string name, std::string detail, std::int64_t start, std::int64_t end) {
    spans_.push_back({std::move(name), std::move(detail), start, end,
                      stack_.empty() ? -1 : stack_.back()});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;
std::map<std::string, double> g_counts;
std::map<std::string, bool> g_checks;

/// Run `fn` inside a span and return its result.
template <typename Fn>
auto traced(const std::string& name, const std::string& detail, Fn&& fn) {
  const int id = g_tracer.begin(name, detail);
  struct Closer {
    int id;
    ~Closer() { g_tracer.end(id); }
  } closer{id};
  return fn();
}

std::uint64_t counter_value(const char* name) { return obs::counter(name).value(); }

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void write_document(const std::string& path, const std::string& workload) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw std::runtime_error("cannot write " + path);
  os.precision(17);
  os << "{\"workload\":\"" << workload << "\",\"spans\":[";
  const auto& spans = g_tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? "," : "") << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
       << json_escape(s.name) << "\",\"detail\":\"" << json_escape(s.detail)
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}";
  }
  os << "],\"counts\":{";
  bool first = true;
  for (const auto& [k, v] : g_counts) {
    os << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  os << "},\"checks\":{";
  first = true;
  for (const auto& [k, v] : g_checks) {
    os << (first ? "" : ",") << "\"" << k << "\":" << (v ? "true" : "false");
    first = false;
  }
  os << "}}\n";
}

telescope::TelescopeConfig scope_config(const netgen::Scenario& scenario) {
  telescope::TelescopeConfig cfg;
  cfg.darkspace = scenario.traffic.darkspace;
  cfg.legit_prefixes = {scenario.traffic.legit_prefix};
  cfg.cryptopan_seed = scenario.population.seed ^ 0xCA1DAULL;
  return cfg;
}

bool same_quantities(const gbl::AggregateQuantities& a, const gbl::AggregateQuantities& b) {
  return a.valid_packets == b.valid_packets && a.unique_links == b.unique_links &&
         a.max_link_packets == b.max_link_packets && a.unique_sources == b.unique_sources &&
         a.max_source_packets == b.max_source_packets &&
         a.max_source_fanout == b.max_source_fanout &&
         a.unique_destinations == b.unique_destinations &&
         a.max_destination_packets == b.max_destination_packets &&
         a.max_destination_fanin == b.max_destination_fanin;
}

/// One window through netgen, crypt, telescope and gbl, each layer timed
/// on its own: generate into a discarding sink, anonymize every distinct
/// source cold, capture the stored packets through a telescope, then
/// sort, merge and reduce the window's blocks directly with the gbl
/// kernels. The telescope matrix and the direct gbl matrix must agree on
/// every Table II quantity (CryptoPAN is a bijection on addresses).
void layer_probes(const netgen::Scenario& scenario, const netgen::TrafficGenerator& generator,
                  int month, std::uint64_t valid, std::uint64_t salt, ThreadPool& pool) {
  std::uint64_t emitted = 0;
  traced("netgen.generate", std::to_string(valid), [&] {
    emitted = generator.stream_window_batched(
        month, valid, salt, [&](std::span<const Packet> batch) { (void)batch; });
  });
  g_counts["netgen.generated_packets"] = static_cast<double>(emitted);

  std::vector<Packet> packets;
  packets.reserve(emitted);
  generator.stream_window_batched(month, valid, salt, [&](std::span<const Packet> batch) {
    packets.insert(packets.end(), batch.begin(), batch.end());
  });

  std::vector<std::uint32_t> sources;
  {
    std::unordered_set<std::uint32_t> seen;
    for (const Packet& p : packets) {
      if (seen.insert(p.src.value()).second) sources.push_back(p.src.value());
    }
  }
  const auto cryptopan = crypt::CryptoPan::from_seed(scope_config(scenario).cryptopan_seed);
  traced("crypt.anonymize", std::to_string(sources.size()), [&] {
    for (const std::uint32_t a : sources) (void)cryptopan.anonymize(Ipv4(a));
  });
  g_counts["crypt.addresses"] = static_cast<double>(sources.size());

  telescope::Telescope scope(scope_config(scenario), pool);
  const std::uint64_t hits0 = counter_value("telescope.anon_cache_hits");
  const std::uint64_t miss0 = counter_value("telescope.anon_cache_misses");
  std::uint64_t captured = 0;
  traced("telescope.capture_block", std::to_string(packets.size()), [&] {
    constexpr std::size_t kBatch = netgen::TrafficGenerator::kDefaultBatchPackets;
    for (std::size_t i = 0; i < packets.size(); i += kBatch) {
      const std::size_t n = std::min(kBatch, packets.size() - i);
      captured += scope.capture_block(std::span<const Packet>(packets.data() + i, n));
    }
  });
  const gbl::DcsrMatrix window = traced("telescope.finish_window", "", [&] {
    return scope.finish_window();
  });
  g_counts["telescope.valid_packets"] = static_cast<double>(captured);
  g_counts["telescope.discarded_packets"] = static_cast<double>(scope.discarded_packets());
  g_counts["telescope.anon_cache_hits"] =
      static_cast<double>(counter_value("telescope.anon_cache_hits") - hits0);
  g_counts["telescope.anon_cache_misses"] =
      static_cast<double>(counter_value("telescope.anon_cache_misses") - miss0);

  // gbl on the same window: packed keys of the valid packets, in the
  // telescope's 2^block_log2 leaf blocks.
  const auto darkspace = scenario.traffic.darkspace;
  const auto legit = scenario.traffic.legit_prefix;
  std::vector<std::uint64_t> keys;
  keys.reserve(captured);
  for (const Packet& p : packets) {
    if (darkspace.contains(p.dst) && !legit.contains(p.src)) {
      keys.push_back(gbl::pack_key(p.src.value(), p.dst.value()));
    }
  }
  const std::size_t block = std::size_t{1} << scope.config().block_log2;
  std::vector<gbl::DcsrMatrix> blocks;
  traced("gbl.block_sort", std::to_string(keys.size()), [&] {
    for (std::size_t i = 0; i < keys.size(); i += block) {
      const std::size_t n = std::min(block, keys.size() - i);
      gbl::kernels::radix_sort_u64(keys.data() + i, n, mem::scratch_arena());
      blocks.push_back(gbl::DcsrMatrix::from_sorted_packed_keys(
          std::span<const std::uint64_t>(keys.data() + i, n)));
    }
  });
  std::uint64_t merges = 0;
  gbl::DcsrMatrix total = traced("gbl.carry_merge", std::to_string(blocks.size()), [&] {
    // Binary carry propagation, as the hierarchical accumulator does.
    std::vector<std::optional<gbl::DcsrMatrix>> levels;
    for (auto& b : blocks) {
      gbl::DcsrMatrix carry = std::move(b);
      std::size_t level = 0;
      while (level < levels.size() && levels[level].has_value()) {
        carry = gbl::DcsrMatrix::ewise_add(*levels[level], carry);
        ++merges;
        levels[level].reset();
        ++level;
      }
      if (level == levels.size()) levels.emplace_back();
      levels[level] = std::move(carry);
    }
    std::optional<gbl::DcsrMatrix> acc;
    for (auto& l : levels) {
      if (!l.has_value()) continue;
      if (acc.has_value()) {
        acc = gbl::DcsrMatrix::ewise_add(*acc, *l);
        ++merges;
      } else {
        acc = std::move(l);
      }
    }
    return acc.has_value() ? std::move(*acc) : gbl::DcsrMatrix();
  });
  g_counts["gbl.merge_calls"] = static_cast<double>(merges);
  const gbl::AggregateQuantities direct = traced("gbl.reduce", "", [&] {
    const gbl::EntityQuantities entities = gbl::entity_quantities(total);
    g_counts["gbl.reduced_sources"] = static_cast<double>(entities.source_packets.nnz());
    return gbl::aggregate_quantities(total);
  });
  g_checks["gbl_matches_telescope"] = same_quantities(direct, gbl::aggregate_quantities(window));
}

/// Walk the campaign the way `run_study` does, one observation at a
/// time: every snapshot's capture window and its deanonymized D4M array,
/// then every honeyfarm month through `core::run_month`, then each
/// month's `observe_month` alone, then a D4M rebuild of each month's
/// array from its triples.
core::StudyData campaign(const netgen::Scenario& scenario, ThreadPool& pool) {
  core::StudyData study;
  study.scenario = scenario;
  study.population = traced("netgen.population", "", [&] {
    auto population = std::make_shared<netgen::Population>(scenario.population);
    int last = static_cast<int>(scenario.months.size()) - 1;
    for (const auto& spec : scenario.snapshots) {
      last = std::max(last, scenario.month_index(spec.month));
    }
    (void)population->active(0, last);
    return population;
  });
  const netgen::Population& population = *study.population;
  const netgen::TrafficGenerator generator(population, scenario.traffic);
  const auto& first = scenario.snapshots.front();
  layer_probes(scenario, generator, scenario.month_index(first.month), scenario.nv(), first.salt,
               pool);

  std::uint64_t valid = 0;
  std::uint64_t discarded = 0;
  std::uint64_t triples_built = 0;
  for (const auto& spec : scenario.snapshots) {
    core::SnapshotData snap;
    snap.spec = spec;
    snap.month_index = scenario.month_index(spec.month);
    snap.duration_sec = scenario.scaled_duration_sec(spec);
    telescope::Telescope scope(scope_config(scenario), pool);
    snap.matrix = traced("core.capture_window", spec.start_label, [&] {
      return core::capture_window(scope, generator, snap.month_index, scenario.nv(), spec.salt,
                                  pool);
    });
    snap.valid_packets = static_cast<std::uint64_t>(snap.matrix.reduce_sum());
    snap.discarded_packets = scope.discarded_packets();
    valid += snap.valid_packets;
    discarded += snap.discarded_packets;
    snap.source_packets = snap.matrix.reduce_rows();
    std::vector<d4m::Triple> triples;
    const auto ids = snap.source_packets.indices();
    const auto counts = snap.source_packets.values();
    for (std::size_t i = 0; i < snap.source_packets.nnz(); ++i) {
      triples.push_back({scope.deanonymize(Ipv4(ids[i])).to_string(), "packets", counts[i]});
    }
    triples_built += triples.size();
    snap.sources = traced("d4m.from_triples", "snapshot " + spec.start_label,
                          [&] { return d4m::AssocArray::from_triples(std::move(triples)); });
    study.snapshots.push_back(std::move(snap));
  }
  g_counts["campaign.valid_packets"] = static_cast<double>(valid);
  g_counts["campaign.discarded_packets"] = static_cast<double>(discarded);
  // The tracer builds its own telescopes to time the capture alone; the
  // program's snapshot must come out the same.
  const core::SnapshotData first_snap = core::run_snapshot(scenario, population, 0, pool);
  g_checks["snapshot_matches_core"] = first_snap.matrix == study.snapshots[0].matrix &&
                                      first_snap.sources == study.snapshots[0].sources &&
                                      first_snap.discarded_packets ==
                                          study.snapshots[0].discarded_packets;

  for (std::size_t m = 0; m < scenario.months.size(); ++m) {
    study.months.push_back(traced("core.month", std::to_string(m),
                                  [&] { return core::run_month(scenario, population, m); }));
  }
  // observe_month alone, without the farm's construction: the farm is
  // built here with the seed core::run_month uses, and each month must
  // equal the one core::run_month returned.
  const honeyfarm::Honeyfarm farm(population, scenario.visibility,
                                  scenario.population.seed ^ 0x64E4015EULL);
  bool months_equal = true;
  for (std::size_t m = 0; m < scenario.months.size(); ++m) {
    const honeyfarm::MonthlyObservation obs =
        traced("honeyfarm.observe_month", std::to_string(m),
               [&] { return farm.observe_month(scenario.months[m], static_cast<int>(m)); });
    const honeyfarm::MonthlyObservation& core_month = study.months[m];
    months_equal = months_equal && obs.sources == core_month.sources &&
                   obs.population_sources == core_month.population_sources &&
                   obs.ephemeral_sources == core_month.ephemeral_sources;
  }
  g_checks["observe_month_matches_core"] = months_equal;
  bool rebuilt_equal = true;
  for (std::size_t m = 0; m < study.months.size(); ++m) {
    std::vector<d4m::Triple> triples = study.months[m].sources.to_triples();
    triples_built += triples.size();
    const d4m::AssocArray rebuilt =
        traced("d4m.from_triples", "month " + std::to_string(m),
               [&] { return d4m::AssocArray::from_triples(std::move(triples)); });
    rebuilt_equal = rebuilt_equal && rebuilt == study.months[m].sources;
  }
  g_counts["d4m.triples"] = static_cast<double>(triples_built);
  g_checks["d4m_rebuild_identical"] = rebuilt_equal;
  return study;
}

void analyses(const core::StudyData& study, ThreadPool& pool, const std::string& detail) {
  traced("core.analyses", detail, [&] {
    const auto degrees = core::analyze_all_degrees(study);
    const auto peaks = core::peak_correlation_all(study);
    g_counts["core.degree_analyses"] = static_cast<double>(degrees.size());
    g_counts["core.peak_bins"] = static_cast<double>(peaks.size());
  });
  traced("core.fit_grid", detail, [&] {
    const auto grid = core::fit_grid(study, 20, pool);
    g_counts["core.fit_cells"] = static_cast<double>(grid.size());
  });
}

void run_study_walk(const netgen::Scenario& scenario, ThreadPool& pool) {
  const core::StudyData study = campaign(scenario, pool);
  analyses(study, pool, "fresh");
}

void run_capture_walk(const netgen::Scenario& scenario, ThreadPool& pool) {
  // The `obscorr scaling` ladder: windows 2^10 .. 2^log2_nv from month 0.
  const auto population = traced("netgen.population", "", [&] {
    auto p = std::make_shared<netgen::Population>(scenario.population);
    (void)p->active(0, 0);
    return p;
  });
  const netgen::TrafficGenerator generator(*population, scenario.traffic);
  const int top = static_cast<int>(scenario.population.log2_nv);
  layer_probes(scenario, generator, 0, 1ULL << top, 0x5CA1E000 + static_cast<std::uint64_t>(top),
               pool);
  std::uint64_t valid = 0;
  std::uint64_t discarded = 0;
  traced("core.scaling", "", [&] {
    std::vector<int> ks;
    std::vector<double> srcs;
    for (int k = 10; k <= top; ++k) {
      telescope::Telescope scope(scope_config(scenario), pool);
      const gbl::DcsrMatrix m = traced("core.capture_window", "2^" + std::to_string(k), [&] {
        return core::capture_window(scope, generator, 0, 1ULL << k,
                                    0x5CA1E000 + static_cast<std::uint64_t>(k), pool);
      });
      valid += static_cast<std::uint64_t>(m.reduce_sum());
      discarded += scope.discarded_packets();
      ks.push_back(k);
      srcs.push_back(static_cast<double>(gbl::aggregate_quantities(m).unique_sources));
    }
    g_counts["core.source_exponent_x1e6"] = std::round(core::log_log_slope(ks, srcs) * 1e6);
  });
  g_counts["campaign.valid_packets"] = static_cast<double>(valid);
  g_counts["campaign.discarded_packets"] = static_cast<double>(discarded);
}

/// The service layer over an archive: every query type cold and warm
/// through the in-process engine (the first `lookup` builds the honeyfarm
/// database), then a few live-ingest windows.
void svc_walk(const std::string& dir, ThreadPool& pool, std::size_t ingest_windows) {
  const archive::StudyReader reader(dir);
  const std::uint64_t hits0 = counter_value("cache.hits");
  const std::uint64_t miss0 = counter_value("cache.misses");
  svc::QueryEngine engine(dir, pool);
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"report", R"({"id":1,"query":"report"})"},
      {"scaling", R"({"id":2,"query":"scaling"})"},
      {"degrees", R"({"id":3,"query":"degrees","params":{"snapshot":0}})"},
      {"lookup", R"({"id":4,"query":"lookup","params":{"ip":"10.0.0.1"}})"},
      {"correlate", R"({"id":5,"query":"correlate","params":{"domain":"snapshots"}})"},
      {"stats", R"({"id":6,"query":"stats"})"},
  };
  bool all_ok = true;
  for (const char* phase : {"svc.exec_cold", "svc.exec_warm"}) {
    for (const auto& [name, line] : queries) {
      const std::string reply = traced(phase, name, [&, l = line] {
        return engine.execute(svc::parse_request(l));
      });
      all_ok = all_ok && reply.find("\"ok\":true") != std::string::npos;
    }
  }
  g_checks["svc_replies_ok"] = all_ok;
  g_counts["svc.cache_hits"] = static_cast<double>(counter_value("cache.hits") - hits0);
  g_counts["svc.cache_misses"] = static_cast<double>(counter_value("cache.misses") - miss0);

  if (ingest_windows == 0) return;
  std::mutex mu;
  std::vector<std::int64_t> published;
  std::uint64_t ingested = 0;
  svc::IngestConfig icfg;
  icfg.max_windows = ingest_windows;
  icfg.on_publish = [&](const svc::PublishedWindow& pw) {
    const std::lock_guard<std::mutex> lock(mu);
    published.push_back(now_ns());
    ingested += pw.meta.valid_packets;
  };
  const std::int64_t start = now_ns();
  {
    svc::IngestLoop ingest(dir, engine, pool, icfg);
    ingest.start();
    while (ingest.published() < ingest_windows && ingest.error().empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ingest.stop_and_join();
    g_checks["svc_ingest_ok"] = ingest.error().empty();
  }
  std::int64_t prev = start;
  for (std::size_t w = 0; w < published.size(); ++w) {
    g_tracer.add("svc.ingest_window", std::to_string(w), prev, published[w]);
    prev = published[w];
  }
  g_counts["svc.ingest_packets"] = static_cast<double>(ingested);
}

void run_replay_walk(const netgen::Scenario& scenario, ThreadPool& pool, const std::string& work) {
  const std::string raw = work + "/raw.obsar";
  const std::string packed = work + "/compact.obsar";
  fs::remove_all(raw);
  fs::remove_all(packed);
  {
    const core::StudyData study = campaign(scenario, pool);
    traced("archive.write", "", [&] { archive::write_study(study, raw); });
  }
  fs::copy(raw, packed, fs::copy_options::recursive);
  archive::CompactOptions opts;
  opts.compress_all = true;
  const archive::CompactStats stats =
      traced("archive.compact", "", [&] { return archive::compact_archive(packed, opts); });
  g_counts["archive.raw_bytes"] = static_cast<double>(stats.raw_bytes);
  g_counts["archive.stored_bytes"] = static_cast<double>(stats.stored_bytes_after);

  // Loads: the raw archive, the compacted one with no page cache (every
  // page decoded on use), then compacted at the default budget, warmed
  // once and timed hot.
  std::optional<archive::StudyReader> raw_reader;
  traced("archive.open", "raw", [&] { raw_reader.emplace(raw); });
  const core::StudyData raw_study =
      traced("archive.load_raw", "", [&] { return raw_reader->analysis_study(); });
  archive::set_cache_bytes(0);
  {
    std::optional<archive::StudyReader> cold;
    traced("archive.open", "compacted", [&] { cold.emplace(packed); });
    (void)traced("archive.load_cold", "", [&] { return cold->analysis_study(); });
  }
  archive::set_cache_bytes(std::nullopt);
  {
    const archive::StudyReader hot(packed);
    (void)hot.analysis_study();
    (void)traced("archive.load_hot", "", [&] { return hot.analysis_study(); });
  }
  analyses(raw_study, pool, "archived");

  const analysis::SeriesStore store = traced("analysis.store", "", [&] {
    return analysis::store_from_reader(*raw_reader, analysis::Domain::kSnapshots);
  });
  const analysis::WindowRange highlight = analysis::default_highlight(raw_reader->snapshot_count());
  const auto ranked = traced("analysis.rank", "", [&] {
    return analysis::rank_series(store, analysis::default_baseline(highlight), highlight,
                                 analysis::Method::kKs2);
  });
  g_counts["analysis.ranked_series"] = static_cast<double>(ranked.size());
  raw_reader.reset();
  svc_walk(packed, pool, 4);
}

struct Options {
  std::string workload;
  int log2_nv = 16;
  std::uint64_t seed = 1;
  std::size_t threads = 4;
  std::string work;
  std::string out;
  std::string archive;
};

Options parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing workload");
  Options o;
  o.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--log2-nv") o.log2_nv = std::stoi(v);
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--threads") o.threads = std::stoull(v);
    else if (k == "--work") o.work = v;
    else if (k == "--out") o.out = v;
    else if (k == "--archive") o.archive = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (o.out.empty() || o.work.empty()) throw std::invalid_argument("--out and --work are required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    obs::set_level(obs::Level::kCounters);
    ThreadPool pool(o.threads);
    const auto scenario = netgen::Scenario::paper(o.log2_nv, o.seed);
    const int root = g_tracer.begin("workload", o.workload);
    if (o.workload == "study") {
      run_study_walk(scenario, pool);
    } else if (o.workload == "capture") {
      run_capture_walk(scenario, pool);
    } else if (o.workload == "replay") {
      run_replay_walk(scenario, pool, o.work);
    } else if (o.workload == "serve") {
      if (o.archive.empty()) throw std::invalid_argument("serve needs --archive DIR");
      svc_walk(o.archive, pool, 4);
    } else {
      throw std::invalid_argument("unknown workload " + o.workload);
    }
    g_tracer.end(root);
    obs::set_level(obs::Level::kOff);
    write_document(o.out, o.workload);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench-trace: %s\n", e.what());
    return 1;
  }
}

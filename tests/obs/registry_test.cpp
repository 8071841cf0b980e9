// MetricsRegistry: enumeration order, lookup, deterministic JSON/CSV
// export, and the catalog of a live RgbSystem (counter names, order and the
// fields behind them).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "test_util.hpp"

namespace rgb::obs {
namespace {

using rgb::testing::RgbSystemTest;

TEST(MetricsRegistry, EnumeratesInRegistrationOrder) {
  common::Counter a, b;
  a.increment(3);
  MetricsRegistry reg;
  reg.add_counter("z.second", &b);
  reg.add_counter("a.first", &a);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "z.second");  // registration order, not sorted
  EXPECT_EQ(snap[0].value, 0u);
  EXPECT_EQ(snap[1].name, "a.first");
  EXPECT_EQ(snap[1].value, 3u);
}

TEST(MetricsRegistry, ReadsLiveValuesAtSnapshotTime) {
  common::Counter c;
  MetricsRegistry reg;
  reg.add_counter("c", &c);
  EXPECT_EQ(reg.value_of("c"), 0u);
  c.increment(7);
  EXPECT_EQ(reg.value_of("c"), 7u);
  EXPECT_FALSE(reg.value_of("missing").has_value());
}

TEST(MetricsRegistry, FamiliesExpandInline) {
  MetricsRegistry reg;
  reg.add_family("fam.<k>", []() {
    return std::vector<MetricsRegistry::Sample>{{"fam.x", 1}, {"fam.y", 2}};
  });
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "fam.x");
  EXPECT_EQ(reg.value_of("fam.y"), 2u);
}

TEST(MetricsRegistry, HistogramSummariesAndJsonAreDeterministic) {
  common::Histogram h;
  h.add(10.0);
  h.add(1000.0);
  common::Counter c;
  c.increment(5);
  MetricsRegistry reg;
  reg.add_counter("n", &c);
  reg.add_histogram("lat", &h);

  const auto rows = reg.histograms();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "lat");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[0].max, 1000.0);

  std::ostringstream j1, j2, csv;
  reg.write_json(j1);
  reg.write_json(j2);
  reg.write_csv(csv);
  EXPECT_EQ(j1.str(), j2.str());
  EXPECT_NE(j1.str().find("\"n\": 5"), std::string::npos) << j1.str();
  EXPECT_NE(csv.str().find("n,5"), std::string::npos) << csv.str();
}

TEST(MetricsRegistry, CatalogCarriesTypesAndDescriptions) {
  common::Counter c;
  common::Histogram h;
  MetricsRegistry reg;
  reg.add_counter("ops", &c, "operations applied");
  reg.add_gauge("depth", []() { return std::uint64_t{0}; }, "queue depth");
  reg.add_family(
      "fam.kind<K>",
      []() { return std::vector<MetricsRegistry::Sample>{{"fam.kind1", 1}}; },
      "per-kind family");
  reg.add_histogram("lat", &h, "latency digest");

  const auto rows = reg.catalog();
  ASSERT_EQ(rows.size(), 4u);
  // Catalog order: scalar entries in registration order, then histograms.
  EXPECT_EQ(rows[0].name, "ops");
  EXPECT_STREQ(rows[0].type, "counter");
  EXPECT_EQ(rows[0].description, "operations applied");
  EXPECT_STREQ(rows[1].type, "gauge");
  EXPECT_EQ(rows[2].name, "fam.kind<K>");  // the pattern, not an expansion
  EXPECT_STREQ(rows[2].type, "family");
  EXPECT_EQ(rows[3].name, "lat");
  EXPECT_STREQ(rows[3].type, "histogram");

  std::ostringstream a, b;
  reg.write_catalog(a);
  reg.write_catalog(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_NE(a.str().find("ops"), std::string::npos);
  EXPECT_NE(a.str().find("latency digest"), std::string::npos);
}

class RegistryParityTest : public RgbSystemTest {};

/// The protocol and network counters of a live system's catalog, pinned by
/// exact name and order (the `rgb_exp metrics --catalog` layout, which
/// downstream readers key on), and every rgb.* counter bumped through its
/// RgbMetrics field reads back through the registry under its own name.
TEST_F(RegistryParityTest, CatalogPinsCounterNamesAndReadsTheirFields) {
  auto& sys = build(2, 3);
  sys.start_probing();
  for (std::uint64_t i = 1; i <= 20; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  run_for_ms(2000);

  std::vector<std::string> names;
  for (const auto& row : sys.obs().registry.catalog()) {
    if (row.name.rfind("rgb.", 0) == 0 || row.name.rfind("net.", 0) == 0) {
      names.push_back(row.name);
    }
  }
  const std::vector<std::string> expected = {
      "rgb.rounds_started",
      "rgb.rounds_completed",
      "rgb.empty_probe_rounds",
      "rgb.ops_disseminated",
      "rgb.ops_aggregated",
      "rgb.token_retransmits",
      "rgb.repairs",
      "rgb.leader_failovers",
      "rgb.notifications_sent",
      "rgb.notify_retransmits",
      "rgb.holder_acks",
      "rgb.merges",
      "rgb.ne_joins",
      "rgb.ne_leaves",
      "rgb.snapshots_sent",
      "rgb.snapshots_applied",
      "rgb.snapshot_decode_errors",
      "rgb.snapshot_retransmits",
      "rgb.snapshot_push_give_ups",
      "rgb.reconcile_rounds",
      "rgb.reconcile_replies",
      "rgb.reconcile_retransmits",
      "rgb.reconcile_give_ups",
      "rgb.reconcile_reanchors",
      "rgb.stability_alerts",
      "rgb.stability_cuts",
      "rgb.stability_batched_failures",
      "rgb.stability_suppressed_flaps",
      "rgb.stability_timeout_fallbacks",
      "rgb.digest_groups_packed",
      "rgb.group_fulls_sent",
      "rgb.group_diffs_sent",
      "rgb.groups_created",
      "net.sent",
      "net.delivered",
      "net.dropped_loss",
      "net.dropped_crash",
      "net.dropped_src_crash",
      "net.dropped_partition",
      "net.dropped_unattached",
      "net.bytes_sent",
      "net.sent.kind<K>",
      "net.bytes.kind<K>",
  };
  EXPECT_EQ(names, expected);

  // Distinct bumps per counter, so a registry entry reading a neighbour's
  // field cannot pass.
  const MetricsRegistry& reg = sys.obs().registry;
  std::uint64_t bump = 1000;
#define RGB_CHECK_COUNTER(field, description)                        \
  {                                                                  \
    const std::uint64_t before = sys.metrics().field.value();        \
    sys.metrics().field.increment(++bump);                           \
    EXPECT_EQ(reg.value_of("rgb." #field), before + bump) << #field; \
  }
  RGB_METRICS_COUNTERS(RGB_CHECK_COUNTER)
#undef RGB_CHECK_COUNTER
  EXPECT_EQ(reg.value_of("net.sent"), network_.metrics().sent);
  EXPECT_EQ(reg.value_of("net.bytes_sent"), network_.metrics().bytes_sent);
}

/// Every metric an RgbSystem registers shows up in the catalog with a
/// non-empty description — the `rgb_exp metrics --catalog` contract.
TEST_F(RegistryParityTest, LiveSystemCatalogIsFullyDescribed) {
  auto& sys = build(1, 3);
  const auto rows = sys.obs().registry.catalog();
  EXPECT_GE(rows.size(), 40u);
  for (const auto& row : rows) {
    EXPECT_FALSE(row.name.empty());
    EXPECT_FALSE(row.description.empty()) << row.name;
    EXPECT_NE(row.type, nullptr) << row.name;
  }
  // The profiler surface is wired in: default-on handler accounting.
  EXPECT_TRUE(sys.obs().registry.value_of("obs.prof.handled.total"));
  EXPECT_TRUE(sys.obs().registry.value_of("obs.prof.mq_depth"));
}

class ProfilerTest : public RgbSystemTest {};

/// The deterministic handler profiler counts every delivery by message
/// kind with spans off (the default), and its registry surface reads the
/// same totals.
TEST_F(ProfilerTest, CountsDeliveriesPerKindUnderRealTraffic) {
  auto& sys = build(2, 3);
  ASSERT_FALSE(sys.obs().spans.enabled());  // default-off spans
  sys.start_probing();
  for (std::uint64_t i = 1; i <= 12; ++i) {
    sys.join(common::Guid{i}, sys.aps()[i % sys.aps().size()]);
  }
  run_for_ms(2000);

  const HandlerProfiler& prof = sys.obs().profiler;
  EXPECT_GT(prof.handled_total(), 0u);
  const HandlerProfiler::PerKind per_kind = prof.handled_per_kind();
  std::uint64_t sum = 0;
  std::size_t kinds_seen = 0;
  for (const std::uint64_t n : per_kind) {
    sum += n;
    kinds_seen += n != 0;
  }
  EXPECT_EQ(sum, prof.handled_total());
  EXPECT_GT(kinds_seen, 3u);  // probes, tokens, view sync, ...
  // Registry family exposes exactly the non-zero kinds.
  EXPECT_EQ(sys.obs().registry.value_of("obs.prof.handled.total"),
            prof.handled_total());
  for (std::size_t k = 0; k < per_kind.size(); ++k) {
    const auto name = "obs.prof.handled.kind" + std::to_string(k);
    const auto value = sys.obs().registry.value_of(name);
    if (per_kind[k] != 0) {
      ASSERT_TRUE(value.has_value()) << name;
      EXPECT_EQ(*value, per_kind[k]);
    } else {
      EXPECT_FALSE(value.has_value()) << name;
    }
  }
  // Wall attribution is opt-in and stays out of deterministic surfaces.
  EXPECT_FALSE(prof.wall_enabled());
}

}  // namespace
}  // namespace rgb::obs

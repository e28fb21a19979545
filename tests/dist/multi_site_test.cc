// End-to-end scale-out integration: Q17 and the subquery workload on ≥3
// simulated sites must (a) compute the single-site answer and (b), with
// cost-based AIP, ship measurably fewer bytes across the mesh than the
// no-AIP baseline (the adaptive distributed Bloomjoin).
#include "dist/scale_out.h"

#include <gtest/gtest.h>

#include "tests/testing/catalog_factory.h"
#include "tests/testing/stats_reference.h"
#include "workload/experiment.h"

namespace pushsip {
namespace {

using testing::TinyTpchCatalog;

struct RunOutcome {
  DistQueryStats stats;
  std::vector<Tuple> rows;
  uint64_t row_hash = 0;
};

RunOutcome RunScaleOut(ScaleOutQuery query,
                       const std::shared_ptr<Catalog>& catalog, int sites,
                       bool aip) {
  ScaleOutOptions options;
  options.num_sites = sites;
  options.aip = aip;
  options.weak_part_filter = true;  // non-empty results at tiny scale
  // Aggressive pacing: at tiny scale the sharded streams are short (a
  // partsupp shard is ~500 rows), and the AIP-prunes-before-the-wire
  // assertions need the shuffle to outlive the build-side completion and
  // filter shipment by a comfortable margin on any scheduler — including
  // single-core CI boxes and sanitizer slowdowns.
  options.pace_every_rows = 64;
  options.pace_ms = 2.0;
  auto built = BuildScaleOutQuery(query, catalog, options);
  built.status().CheckOK();
  auto stats = (*built)->Run();
  stats.status().CheckOK();
  RunOutcome out;
  out.stats = *stats;
  out.rows = (*built)->root_sink->TakeRows();
  out.row_hash = HashRows(out.rows);
  return out;
}

TEST(MultiSiteTest, Q17ThreeSitesMatchesSingleSite) {
  auto catalog = TinyTpchCatalog();
  const RunOutcome single =
      RunScaleOut(ScaleOutQuery::kQ17, catalog, /*sites=*/1, /*aip=*/false);
  const RunOutcome dist =
      RunScaleOut(ScaleOutQuery::kQ17, catalog, /*sites=*/3, /*aip=*/false);

  ASSERT_EQ(single.rows.size(), 1u);
  ASSERT_EQ(dist.rows.size(), 1u);
  const Value& want = single.rows[0].at(0);
  const Value& got = dist.rows[0].at(0);
  if (want.is_null()) {
    EXPECT_TRUE(got.is_null());
  } else {
    // Partial sums combine in a different order; allow FP reassociation.
    EXPECT_NEAR(got.AsDouble(), want.AsDouble(),
                std::abs(want.AsDouble()) * 1e-9 + 1e-9);
  }
  // The distributed run really moved the data over the mesh.
  EXPECT_GT(dist.stats.bytes_shipped, 0);
  EXPECT_GT(dist.stats.link_seconds, 0);
  EXPECT_EQ(single.stats.bytes_shipped, 0);  // one site: loopback only
}

TEST(MultiSiteTest, Q17AipShipsMeasurablyFewerBytes) {
  auto catalog = TinyTpchCatalog();
  const RunOutcome base =
      RunScaleOut(ScaleOutQuery::kQ17, catalog, /*sites=*/3, /*aip=*/false);
  const RunOutcome aip =
      RunScaleOut(ScaleOutQuery::kQ17, catalog, /*sites=*/3, /*aip=*/true);

  // Same answer (Bloom pruning has no false negatives)...
  ASSERT_EQ(base.rows.size(), 1u);
  ASSERT_EQ(aip.rows.size(), 1u);
  if (base.rows[0].at(0).is_null()) {
    EXPECT_TRUE(aip.rows[0].at(0).is_null());
  } else {
    EXPECT_NEAR(aip.rows[0].at(0).AsDouble(), base.rows[0].at(0).AsDouble(),
                std::abs(base.rows[0].at(0).AsDouble()) * 1e-9 + 1e-9);
  }
  // ...but the shipped filters pruned lineitem tuples at their source
  // sites, so far fewer bytes crossed the mesh.
  EXPECT_GT(aip.stats.aip_sets, 0);
  EXPECT_GT(aip.stats.rows_source_pruned, 0);
  EXPECT_LT(aip.stats.bytes_shipped, base.stats.bytes_shipped * 6 / 10)
      << "aip shipped " << aip.stats.bytes_shipped << " of baseline "
      << base.stats.bytes_shipped;
}

TEST(MultiSiteTest, SubqueryScaleOutMatchesSingleSite) {
  auto catalog = TinyTpchCatalog();
  const RunOutcome single = RunScaleOut(ScaleOutQuery::kSubquery, catalog,
                                        /*sites=*/1, /*aip=*/false);
  const RunOutcome dist = RunScaleOut(ScaleOutQuery::kSubquery, catalog,
                                      /*sites=*/3, /*aip=*/false);
  EXPECT_GT(single.rows.size(), 0u);
  EXPECT_EQ(dist.rows.size(), single.rows.size());
  EXPECT_EQ(dist.row_hash, single.row_hash);
  EXPECT_GT(dist.stats.bytes_shipped, 0);
}

TEST(MultiSiteTest, SubqueryAipPrunesBeforeTheWire) {
  auto catalog = TinyTpchCatalog();
  const RunOutcome base = RunScaleOut(ScaleOutQuery::kSubquery, catalog,
                                      /*sites=*/3, /*aip=*/false);
  const RunOutcome aip = RunScaleOut(ScaleOutQuery::kSubquery, catalog,
                                     /*sites=*/3, /*aip=*/true);
  EXPECT_EQ(aip.row_hash, base.row_hash);
  EXPECT_GT(aip.stats.aip_sets, 0);
  EXPECT_LT(aip.stats.bytes_shipped, base.stats.bytes_shipped);
}

// Regression: a summary built from hash-partitioned state (site i's join
// side holds only keys with hash%N==i) must never be shipped to the shared
// upstream scans — attached there it would prune rows destined for OTHER
// sites and silently drop join results. The X side below finishes long
// before the paced Y shuffle, so an (incorrectly) shipped X-partition
// filter would reliably over-prune; the answer must stay exact.
TEST(MultiSiteTest, PartitionLocalStateNeverShipsAcrossTheMesh) {
  constexpr int kSites = 2;
  constexpr int64_t kXKeys = 40;    // selective side: keys 0..39
  constexpr int64_t kYKeys = 400;   // probe side: keys 0..399, 3 rows each
  constexpr int64_t kCopies = 3;

  auto x = std::make_shared<Table>(
      "x", Schema({Field{"x.k", TypeId::kInt64, kInvalidAttr}}));
  for (int64_t k = 0; k < kXKeys; ++k) x->AppendRow(Tuple({Value::Int64(k)}));
  x->ComputeStats();
  auto y = std::make_shared<Table>(
      "y", Schema({Field{"y.k", TypeId::kInt64, kInvalidAttr},
                   Field{"y.v", TypeId::kInt64, kInvalidAttr}}));
  for (int64_t c = 0; c < kCopies; ++c) {
    for (int64_t k = 0; k < kYKeys; ++k) {
      y->AppendRow(Tuple({Value::Int64(k), Value::Int64(c)}));
    }
  }
  y->ComputeStats();
  Catalog full;
  full.RegisterTable(x).CheckOK();
  full.RegisterTable(y).CheckOK();
  auto catalogs = PartitionCatalog(full, {"x", "y"}, kSites);

  DistributedQuery q;
  q.mesh = std::make_unique<SiteMesh>(kSites, 1e9, 0.1);
  for (int s = 0; s < kSites; ++s) {
    q.sites.push_back(std::make_unique<SiteEngine>(
        s, "site" + std::to_string(s), catalogs[static_cast<size_t>(s)]));
    q.sites.back()->context().set_batch_size(64);
  }
  const Schema x_schema = MakeInstanceSchema(*x, "x", 0);
  const Schema y_schema = MakeInstanceSchema(*y, "y", 1);

  // Channel ids are indexes in q.channels: ch_final is 0, site i's X and
  // Y partitions are 1 + 2i and 2 + 2i.
  std::vector<std::shared_ptr<ExchangeChannel>> ch_x, ch_y;
  auto ch_final = std::make_shared<ExchangeChannel>();
  ch_final->set_num_senders(kSites);
  ch_final->set_consumer_site(0);
  q.channels.push_back(ch_final);
  for (int i = 0; i < kSites; ++i) {
    ch_x.push_back(std::make_shared<ExchangeChannel>());
    ch_y.push_back(std::make_shared<ExchangeChannel>());
    ch_x.back()->set_num_senders(kSites);
    ch_y.back()->set_num_senders(kSites);
    ch_x.back()->set_consumer_site(i);
    ch_y.back()->set_consumer_site(i);
    q.channels.push_back(ch_x.back());
    q.channels.push_back(ch_y.back());
  }
  ASSERT_TRUE(ConnectSimEndpoints(q).ok());
  const auto fan_out = [&](uint32_t first_id,
                           const std::vector<std::shared_ptr<ExchangeChannel>>&
                               ch) {
    std::vector<ExchangeDestination> dests;
    for (int to = 0; to < kSites; ++to) {
      dests.push_back({ch[static_cast<size_t>(to)],
                       first_id + 2 * static_cast<uint32_t>(to)});
    }
    return dests;
  };
  std::vector<int> all_sites;
  for (int to = 0; to < kSites; ++to) all_sites.push_back(to);
  const auto ship_everywhere = [&](int at) {
    return MakeFilterShipper(q.sites[static_cast<size_t>(at)].get(),
                             all_sites);
  };

  Schema join_out;
  for (int i = 0; i < kSites; ++i) {
    SiteEngine& site = *q.sites[static_cast<size_t>(i)];
    {  // X map: fast, unpaced.
      PlanBuilder& pb = site.NewFragment();
      auto sid = pb.ScanShard("x", x_schema);
      ASSERT_TRUE(sid.ok());
      auto sender = std::make_unique<ExchangeSender>(
          &site.context(), "xsend_x", x_schema, ExchangeMode::kHashPartition,
          std::vector<int>{0}, fan_out(1, ch_x));
      ASSERT_TRUE(sender->OpenEdges(*site.endpoint()).ok());
      ASSERT_TRUE(pb.FinishWith(*sid, std::move(sender)).ok());
    }
    {  // Y map: paced, so X's state completes while Y still streams.
      PlanBuilder& pb = site.NewFragment();
      ScanOptions paced;
      paced.delay_every_rows = 64;
      paced.delay_ms = 2.0;
      auto sid = pb.ScanShard("y", y_schema, paced);
      ASSERT_TRUE(sid.ok());
      auto sender = std::make_unique<ExchangeSender>(
          &site.context(), "xsend_y", y_schema, ExchangeMode::kHashPartition,
          std::vector<int>{0}, fan_out(2, ch_y));
      ASSERT_TRUE(sender->OpenEdges(*site.endpoint()).ok());
      ASSERT_TRUE(pb.FinishWith(*sid, std::move(sender)).ok());
    }
    {  // Compute: X ⋈ Y over this site's key range.
      PlanBuilder& pb = site.NewFragment();
      auto rx = pb.Source(
          std::make_unique<ExchangeReceiver>(pb.context(), "xrecv_x",
                                             x_schema,
                                             ch_x[static_cast<size_t>(i)]),
          kXKeys / kSites, {{x_schema.field(0).attr, kXKeys / kSites}},
          ship_everywhere(i), /*partitioned_stream=*/true);
      ASSERT_TRUE(rx.ok());
      auto ry = pb.Source(
          std::make_unique<ExchangeReceiver>(pb.context(), "xrecv_y",
                                             y_schema,
                                             ch_y[static_cast<size_t>(i)]),
          kCopies * kYKeys / kSites,
          {{y_schema.field(0).attr, kYKeys / kSites}}, ship_everywhere(i),
          /*partitioned_stream=*/true);
      ASSERT_TRUE(ry.ok());
      auto j = pb.Join(*rx, *ry, {{"x.k", "y.k"}});
      ASSERT_TRUE(j.ok());
      join_out = pb.schema(*j);
      auto sender = std::make_unique<ExchangeSender>(
          &site.context(), "xsend_out", join_out, ExchangeMode::kForward,
          std::vector<int>{},
          std::vector<ExchangeDestination>{{ch_final, 0}});
      ASSERT_TRUE(sender->OpenEdges(*site.endpoint()).ok());
      ASSERT_TRUE(pb.FinishWith(*j, std::move(sender)).ok());
      // Eager AIP: near-zero fixed cost so any plausible set is built.
      AipOptions aip;
      CostConstants cost;
      cost.set_fixed = 0.5;
      cost.set_create = 0.001;
      ASSERT_TRUE(
          site.InstallAip(site.fragments().size() - 1, aip, cost).ok());
    }
  }
  {  // Coordinator: union of both sites' join rows.
    PlanBuilder& pb = q.sites[0]->NewFragment();
    auto recv = pb.Source(
        std::make_unique<ExchangeReceiver>(pb.context(), "xrecv_out",
                                           join_out, ch_final),
        kCopies * kXKeys, {});
    ASSERT_TRUE(recv.ok());
    ASSERT_TRUE(pb.Finish(*recv).ok());
    q.root_sink = pb.sink();
  }

  auto stats = q.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Every X key matches its kCopies Y rows — nothing may be over-pruned.
  EXPECT_EQ(stats->result_rows, kCopies * kXKeys);
  // No remotely shipped filter may exist at any site's scans: the only
  // available sources are partition-local.
  for (const auto& site : q.sites) {
    EXPECT_EQ(site->remote_filter_pruned(), 0);
  }
}

// Shard s holds rows s, s+N, s+2N, ... of the full table, in order and
// bit-identical; string columns share the full table's dictionaries; the
// shard statistics equal the row-by-row reference; key metadata carries.
// Unsharded tables stay whole at site 0.
TEST(MultiSiteTest, PartitionCatalogCoversEveryRowExactlyOnce) {
  constexpr size_t kSites = 4;
  auto full = TinyTpchCatalog();
  auto parts = PartitionCatalog(*full, {"lineitem", "part"}, kSites);
  ASSERT_EQ(parts.size(), kSites);
  EXPECT_EQ(*parts[0]->GetTable("orders"), *full->GetTable("orders"));
  for (size_t s = 1; s < kSites; ++s) {
    EXPECT_FALSE(parts[s]->HasTable("orders"));
  }
  size_t string_columns = 0;
  for (const std::string name : {"lineitem", "part"}) {
    const TablePtr table = *full->GetTable(name);
    size_t total = 0;
    for (size_t s = 0; s < kSites; ++s) {
      SCOPED_TRACE(name + " shard " + std::to_string(s));
      auto got = parts[s]->GetTable(name);
      ASSERT_TRUE(got.ok());
      const Table& shard = **got;
      ASSERT_EQ(shard.num_cols(), table->num_cols());
      ASSERT_EQ(shard.num_rows(),
                (table->num_rows() + kSites - 1 - s) / kSites);
      for (size_t c = 0; c < shard.num_cols(); ++c) {
        const Column& col = shard.col(c);
        const Column& src = table->col(c);
        EXPECT_EQ(col.type(), src.type());
        if (src.type() == TypeId::kString) {
          EXPECT_EQ(col.dict().get(), src.dict().get());
          ++string_columns;
        }
        for (size_t r = 0; r < shard.num_rows(); ++r) {
          const size_t from = s + r * kSites;
          ASSERT_EQ(col.CompareAt(r, src, from), 0)
              << "column " << c << " row " << r;
          ASSERT_EQ(col.HashAt(r), src.HashAt(from))
              << "column " << c << " row " << r;
        }
      }
      testing::ExpectStatsMatchReference(shard);
      EXPECT_EQ(shard.primary_key(), table->primary_key());
      ASSERT_EQ(shard.foreign_keys().size(), table->foreign_keys().size());
      for (size_t i = 0; i < shard.foreign_keys().size(); ++i) {
        EXPECT_EQ(shard.foreign_keys()[i].col, table->foreign_keys()[i].col);
        EXPECT_EQ(shard.foreign_keys()[i].ref_table,
                  table->foreign_keys()[i].ref_table);
        EXPECT_EQ(shard.foreign_keys()[i].ref_col,
                  table->foreign_keys()[i].ref_col);
      }
      total += shard.num_rows();
    }
    EXPECT_EQ(total, table->num_rows());
  }
  EXPECT_GT(string_columns, 0u);  // part's brand/container/... columns
}

}  // namespace
}  // namespace pushsip

#include "dist/scale_out.h"

#include <algorithm>

namespace pushsip {

const char* ScaleOutQueryName(ScaleOutQuery query) {
  switch (query) {
    case ScaleOutQuery::kQ17: return "Q17-scaleout";
    case ScaleOutQuery::kSubquery: return "subquery-scaleout";
  }
  return "?";
}

std::vector<std::shared_ptr<Catalog>> PartitionCatalog(
    const Catalog& full, const std::vector<std::string>& shard_tables,
    int num_sites) {
  std::vector<std::shared_ptr<Catalog>> catalogs;
  for (int s = 0; s < num_sites; ++s) {
    catalogs.push_back(std::make_shared<Catalog>());
  }
  for (const std::string& name : full.TableNames()) {
    const bool sharded =
        std::find(shard_tables.begin(), shard_tables.end(), name) !=
        shard_tables.end();
    if (!sharded || num_sites == 1) {
      catalogs[0]->RegisterTable(*full.GetTable(name)).CheckOK();
      continue;
    }
    std::vector<TablePtr> shards = *full.Shards(name, num_sites);
    for (int s = 0; s < num_sites; ++s) {
      catalogs[static_cast<size_t>(s)]
          ->RegisterTable(std::move(shards[static_cast<size_t>(s)]))
          .CheckOK();
    }
  }
  return catalogs;
}

namespace {

using NodeId = LogicalPlan::NodeId;

/// Shard scans: paced like disk-streamed sources.
ScanOptions PacedScan(const ScaleOutOptions& o) {
  ScanOptions scan;
  scan.delay_every_rows = o.pace_every_rows;
  scan.delay_ms = o.pace_ms;
  return scan;
}

// ---------------------------------------------------------------------------
// TPC-H Q17, partitioned (see header). Fragments:
//   site 0:      part scan -> filter -> project[p_partkey] -> BROADCAST
//   every site:  lineitem-shard scan (l1) -> project -> HASH(l_partkey)
//   every site:  lineitem-shard scan (l2) -> project -> HASH(l_partkey)
//   every site:  compute = (part ⋈ l1) ⋈ (0.2·AVG(l2 qty) by partkey),
//                residual qty < lim, partial SUM(extendedprice) -> FORWARD
//   site 0:      final SUM / 7 -> Sink
// ---------------------------------------------------------------------------
NodeId Q17Plan(LogicalPlan* lp, const ScaleOutOptions& o) {
  // Each scan reads only the columns its filter and project use.
  const NodeId p = lp->Scan("part", "p", {},
                            {"p_partkey", "p_brand", "p_container"});
  const NodeId l1 =
      lp->Scan("lineitem", "l1", PacedScan(o),
               {"l_partkey", "l_quantity", "l_extendedprice"});
  const NodeId l2 = lp->Scan("lineitem", "l2", PacedScan(o),
                             {"l_partkey", "l_quantity"});

  const bool weak = o.weak_part_filter;
  const NodeId pf = lp->Filter(
      p,
      [weak](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr brand, ColNamed(s, "p_brand"));
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr container,
                                 ColNamed(s, "p_container"));
        if (weak) {
          return Cmp(CmpOp::kEq, std::move(container), LitString("MED CAN"));
        }
        return And(Cmp(CmpOp::kEq, std::move(brand), LitString("Brand#34")),
                   Cmp(CmpOp::kEq, std::move(container),
                       LitString("MED CAN")));
      },
      weak ? 1.0 / 40 : 1.0 / 1000);
  const NodeId part =
      lp->Exchange(lp->Project(pf, {"p.p_partkey"}), ExchangeMode::kBroadcast,
                   "p.p_partkey", "part");
  const NodeId li1 = lp->Exchange(
      lp->Project(l1, {"l1.l_partkey", "l1.l_quantity", "l1.l_extendedprice"}),
      ExchangeMode::kHashPartition, "l1.l_partkey", "l1");
  const NodeId li2 =
      lp->Exchange(lp->Project(l2, {"l2.l_partkey", "l2.l_quantity"}),
                   ExchangeMode::kHashPartition, "l2.l_partkey", "l2");

  const NodeId j1 = lp->Join(part, li1, {{"p.p_partkey", "l1.l_partkey"}});
  const NodeId avg = lp->Aggregate(
      li2, {"l2.l_partkey"}, {{AggFunc::kAvg, "l2.l_quantity", "avg_q"}});
  const NodeId lim = lp->ProjectExprs(
      avg, [](const Schema& s) -> Result<Projection> {
        PUSHSIP_ASSIGN_OR_RETURN(const int pk, s.IndexOf("l2.l_partkey"));
        PUSHSIP_ASSIGN_OR_RETURN(const int avg_q, s.IndexOf("avg_q"));
        Projection out;
        out.fields = {s.field(static_cast<size_t>(pk)),
                      Field{"lim", TypeId::kDouble, kInvalidAttr}};
        out.exprs = {Col(pk, TypeId::kInt64, "l2.l_partkey"),
                     Arith(ArithOp::kMul, LitDouble(0.2),
                           Col(avg_q, TypeId::kDouble, "avg_q"))};
        return out;
      });
  const NodeId top = lp->Join(
      j1, lim, {{"p.p_partkey", "l2.l_partkey"}},
      [](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr qty, ColNamed(s, "l1.l_quantity"));
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr limit, ColNamed(s, "lim"));
        return Cmp(CmpOp::kLt, std::move(qty), std::move(limit));
      },
      0.3);
  const NodeId partial = lp->Exchange(
      lp->Aggregate(top, {},
                    {{AggFunc::kSum, "l1.l_extendedprice", "revenue"}}),
      ExchangeMode::kForward, "", "partial");

  const NodeId total =
      lp->Aggregate(partial, {}, {{AggFunc::kSum, "revenue", "total"}});
  return lp->ProjectExprs(total, [](const Schema& s) -> Result<Projection> {
    PUSHSIP_ASSIGN_OR_RETURN(const int t, s.IndexOf("total"));
    Projection out;
    out.fields = {Field{"avg_yearly", TypeId::kDouble, kInvalidAttr}};
    out.exprs = {Arith(ArithOp::kDiv, Col(t, TypeId::kDouble, "total"),
                       LitDouble(7.0))};
    return out;
  });
}

// ---------------------------------------------------------------------------
// The IBM subquery workload, partitioned. PARTSUPP is the sharded relation;
// part and the (supplier ⋈ nation[FRANCE]) subplans are filtered at site 0
// and broadcast; both blocks run per site over the ps_partkey range; final
// rows are unioned at the coordinator.
// ---------------------------------------------------------------------------
NodeId SubqueryPlan(LogicalPlan* lp, const ScaleOutOptions& o) {
  // Declared first so instance numbers (AttrIds) are p..n2 = 0..6.
  const NodeId p = lp->Scan("part", "p");
  const NodeId ps1 = lp->Scan("partsupp", "ps1", PacedScan(o));
  const NodeId ps2 = lp->Scan("partsupp", "ps2", PacedScan(o));
  const NodeId s1 = lp->Scan("supplier", "s1");
  const NodeId n1 = lp->Scan("nation", "n1");
  const NodeId s2 = lp->Scan("supplier", "s2");
  const NodeId n2 = lp->Scan("nation", "n2");

  const bool weak = o.weak_part_filter;
  const NodeId pf = lp->Filter(
      p,
      [weak](const Schema& s) -> Result<ExprPtr> {
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr size_col, ColNamed(s, "p_size"));
        PUSHSIP_ASSIGN_OR_RETURN(ExprPtr type_col, ColNamed(s, "p_type"));
        if (weak) return Like(std::move(type_col), "%BRASS");
        return And(Cmp(CmpOp::kEq, std::move(size_col), LitInt(15)),
                   Like(std::move(type_col), "%BRASS"));
      },
      weak ? 1.0 / 5 : 1.0 / 250);
  const NodeId part =
      lp->Exchange(lp->Project(pf, {"p.p_partkey"}), ExchangeMode::kBroadcast,
                   "p.p_partkey", "part");

  // supplier ⋈ nation[FRANCE], one per instance, broadcast from site 0.
  const auto french_suppliers = [&](NodeId s, NodeId n, const std::string& sa,
                                    const std::string& na) {
    const NodeId france = lp->Filter(
        n,
        [na](const Schema& schema) -> Result<ExprPtr> {
          PUSHSIP_ASSIGN_OR_RETURN(ExprPtr name,
                                   ColNamed(schema, na + ".n_name"));
          return Cmp(CmpOp::kEq, std::move(name), LitString("FRANCE"));
        },
        1.0 / 25);
    const NodeId j =
        lp->Join(s, france, {{sa + ".s_nationkey", na + ".n_nationkey"}});
    return lp->Exchange(
        lp->Project(j, {sa + ".s_suppkey", sa + ".s_name", sa + ".s_acctbal",
                        sa + ".s_address", sa + ".s_phone",
                        sa + ".s_comment"}),
        ExchangeMode::kBroadcast, sa + ".s_suppkey", "s" + na);
  };
  const NodeId sn1 = french_suppliers(s1, n1, "s1", "n1");
  const NodeId sn2 = french_suppliers(s2, n2, "s2", "n2");

  // partsupp shuffles by partkey.
  const auto shuffle = [&](NodeId ps, const std::string& a) {
    return lp->Exchange(
        lp->Project(ps, {a + ".ps_partkey", a + ".ps_suppkey",
                         a + ".ps_supplycost"}),
        ExchangeMode::kHashPartition, a + ".ps_partkey", a);
  };
  const NodeId rps1 = shuffle(ps1, "ps1");
  const NodeId rps2 = shuffle(ps2, "ps2");

  // Outer block: eligible (part, partsupp, supplier) triples.
  const NodeId j1 = lp->Join(part, rps1, {{"p.p_partkey", "ps1.ps_partkey"}});
  const NodeId outer =
      lp->Join(j1, sn1, {{"ps1.ps_suppkey", "s1.s_suppkey"}});
  // Child block: per-part minimum supply cost among FRANCE suppliers.
  const NodeId j4 = lp->Join(rps2, sn2, {{"ps2.ps_suppkey", "s2.s_suppkey"}});
  const NodeId agg = lp->Aggregate(
      j4, {"ps2.ps_partkey"}, {{AggFunc::kMin, "ps2.ps_supplycost", "min_sc"}});
  const NodeId top = lp->Join(
      outer, agg,
      {{"p.p_partkey", "ps2.ps_partkey"}, {"ps1.ps_supplycost", "min_sc"}});
  return lp->Exchange(
      lp->Project(top, {"s1.s_name", "s1.s_acctbal", "s1.s_address",
                        "s1.s_phone", "s1.s_comment"}),
      ExchangeMode::kForward, "", "result");
}

// Chaos (ScaleOutOptions::stateful_kill_site): arms one receiver of the Q17
// compute fragment at the kill site. A rebuilt fragment gets fresh
// receivers and a restarted one keeps the fired latch, so the failure
// fires once.
void ArmStatefulKill(DistributedQuery* q, const ScaleOutOptions& o) {
  if (o.stateful_kill_site < 0 ||
      o.stateful_kill_site >= static_cast<int>(q->sites.size())) {
    return;
  }
  const std::string target =
      o.stateful_kill_aggregate ? "xrecv_l2" : "xrecv_part";
  const SiteEngine& site = *q->sites[static_cast<size_t>(o.stateful_kill_site)];
  for (const auto& fragment : site.fragments()) {
    for (SourceOperator* source : fragment->sources()) {
      if (source->name() == target) {
        static_cast<ExchangeReceiver*>(source)->ArmFailAfterFrames(
            o.stateful_kill_after_frames);
      }
    }
  }
}

}  // namespace

Result<std::unique_ptr<DistributedQuery>> BuildScaleOutQuery(
    ScaleOutQuery query, const std::shared_ptr<Catalog>& full_catalog,
    const ScaleOutOptions& options) {
  if (full_catalog == nullptr) {
    return Status::InvalidArgument("no catalog");
  }
  if (options.num_sites < 1 || options.num_sites > 64) {
    return Status::InvalidArgument("num_sites out of range");
  }

  const bool q17 = query == ScaleOutQuery::kQ17;
  LogicalPlan plan;
  const NodeId root =
      q17 ? Q17Plan(&plan, options) : SubqueryPlan(&plan, options);
  PlanFragmenter fragmenter(
      PartitionCatalog(*full_catalog, {q17 ? "lineitem" : "partsupp"},
                       options.num_sites),
      std::make_shared<SiteMesh>(options.num_sites, options.bandwidth_bps,
                                 options.latency_ms));
  PUSHSIP_ASSIGN_OR_RETURN(std::unique_ptr<DistributedQuery> q,
                           fragmenter.Fragment(plan, root, options));
  if (q17) ArmStatefulKill(q.get(), options);
  return q;
}

}  // namespace pushsip

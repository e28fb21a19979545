// Golden plan shapes of the two scale-out workloads and of the served
// query (serve/query_session.h's ServedPlan). Every assembled
// DistributedQuery is dumped as text — per site, each fragment's operator
// tree with its exchange modes, receiver estimates and partitioning, plus
// which fragments carry an AIP Manager, which are registered migratable
// (and whether with a rebuild recipe) and which are stateful — and
// compared with tests/dist/plan_shape_golden.txt. The estimates are what
// AIP's cost model reads, so a plan that changes shape or estimates shows
// here before it shows in a benchmark.
//
// To regenerate the golden file after an intended change, run the suite
// with PUSHSIP_UPDATE_GOLDEN=1 and review the diff.
//
// The recovery-coverage case enumerates the same fragments and requires
// each to be recoverable — migratable with a recipe that rebuilds an
// identical fragment elsewhere, or stateful with a bound checkpointer — or
// to be on an explicit refusal list with its reason.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "dist/scale_out.h"
#include "serve/query_session.h"
#include "storage/tpch_generator.h"
#include "tests/serve/serve_test_util.h"

namespace pushsip {
namespace {

const char kGoldenPath[] = PUSHSIP_TEST_DATA_DIR "/plan_shape_golden.txt";

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string FieldList(const Schema& schema) {
  std::string out;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) out += ",";
    out += schema.field(i).name + "#" + std::to_string(schema.field(i).attr);
  }
  return out;
}

// One operator line: name plus what the estimator and the exchange layer
// were told about it.
std::string DescribeOp(PlanBuilder& f, const Operator* op) {
  std::string out = op->name();
  if (const auto* scan = dynamic_cast<const TableScan*>(op)) {
    out += " (" + FieldList(scan->output_schema()) + ")";
    if (scan->options().delay_every_rows > 0) {
      out += " pace=" + std::to_string(scan->options().delay_every_rows) +
             "/" + Num(scan->options().delay_ms) + "ms";
    }
  } else if (const auto* sender = dynamic_cast<const ExchangeSender*>(op)) {
    out += std::string(" ") + ExchangeModeName(sender->mode());
    for (const int idx : sender->hash_cols()) {
      out += " hash=" +
             sender->output_schema().field(static_cast<size_t>(idx)).name;
    }
    out += " dests=" + std::to_string(sender->destinations().size());
  } else if (const auto* recv = dynamic_cast<const ExchangeReceiver*>(op)) {
    out += " (" + FieldList(recv->output_schema()) + ")";
    for (const auto& node : f.plan().nodes()) {
      if (node->op != op) continue;
      out += " est_rows=" + Num(node->exchange_est_rows.load());
      std::map<std::string, double> ndv;  // sorted for a stable dump
      for (const auto& [attr, d] : node->exchange_ndv) {
        const Result<int> idx = recv->output_schema().IndexOfAttr(attr);
        ndv[idx.ok() ? recv->output_schema()
                           .field(static_cast<size_t>(*idx))
                           .name
                     : "#" + std::to_string(attr)] = d;
      }
      out += " ndv={";
      bool first = true;
      for (const auto& [name, d] : ndv) {
        out += (first ? "" : ",") + name + ":" + Num(d);
        first = false;
      }
      out += "}";
    }
    out += recv->options().ordered_merge ? " ordered" : "";
  }
  if (op->IsStateful()) {
    // Per input port: is the state built from one hash partition?
    out += " partitioned=";
    for (int port = 0; port < op->num_inputs(); ++port) {
      bool partitioned = false;
      for (const StatefulPort& sp :
           f.sip_info().stateful_ports) {
        if (sp.op == op && sp.port == port) {
          partitioned = sp.state_is_partitioned;
        }
      }
      out += partitioned ? "1" : "0";
    }
  }
  return out;
}

void DumpTree(PlanBuilder& f, const Operator* op, int depth,
              std::ostringstream* out) {
  *out << std::string(static_cast<size_t>(2 * depth + 4), ' ')
       << DescribeOp(f, op) << "\n";
  std::vector<const Operator*> inputs(static_cast<size_t>(op->num_inputs()));
  for (const auto& child : f.operators()) {
    if (child->output() == op) {
      inputs[static_cast<size_t>(child->output_port())] = child.get();
    }
  }
  for (const Operator* in : inputs) {
    if (in != nullptr) DumpTree(f, in, depth + 1, out);
  }
}

std::string DumpPlanShape(const DistributedQuery& q) {
  std::ostringstream out;
  out << "channels=" << q.channels.size()
      << " exchange_consumers=" << q.exchange_consumers.size() << "\n";
  for (const auto& site : q.sites) {
    for (size_t i = 0; i < site->fragments().size(); ++i) {
      PlanBuilder* f = site->fragments()[i].get();
      out << "  site " << site->id() << " fragment " << i;
      if (f->sink() != nullptr && f->sink() == q.root_sink) out << " root";
      for (const auto& m : site->aip_managers()) {
        if (m->plan() == &f->plan()) out << " aip";
      }
      for (const MigratableFragmentSpec& m : q.migratable_fragments) {
        if (m.fragment != f) continue;
        out << " migratable(stage=" << m.stage
            << " home=" << m.home_site
            << " scan=" << (m.scan != nullptr ? m.scan->name() : "-")
            << " recipe=" << (m.rebuild != nullptr ? "yes" : "no") << ")";
      }
      for (const StatefulFragmentSpec& s : q.stateful_fragments) {
        if (s.fragment != f) continue;
        out << " stateful(inputs=" << s.input_channels.size()
            << " producers=" << s.producers.size() << " checkpointer="
            << (s.checkpointer != nullptr ? s.checkpointer->bound_receivers()
                                          : 0)
            << ")";
      }
      out << "\n";
      DumpTree(*f, f->terminal(), 0, &out);
    }
  }
  return out.str();
}

std::shared_ptr<Catalog> GoldenCatalog() {
  // fig15's scale, with fixed data whatever PUSHSIP_TEST_SEED says: the
  // estimates depend on it.
  TpchConfig config;
  config.scale_factor = 0.02;
  config.seed = 42;
  return MakeTpchCatalog(config);
}

/// One assembled plan of the golden set.
struct GoldenPlan {
  std::string label;
  std::unique_ptr<DistributedQuery> query;
};

/// The served query cut over `catalogs`, as a QueryServer session cuts it.
GoldenPlan ServedGolden(const std::string& label, const ServeQuery& q,
                        std::vector<std::shared_ptr<Catalog>> catalogs,
                        bool probe_sharded) {
  LogicalPlan plan;
  const LogicalPlan::NodeId root = ServedPlan(q, probe_sharded, {}, &plan);
  const int sites = static_cast<int>(catalogs.size());
  auto built = PlanFragmenter(std::move(catalogs),
                              std::make_shared<SiteMesh>(sites, 1e9, 0.1))
                   .Fragment(plan, root);
  EXPECT_TRUE(built.ok()) << label << ": " << built.status().ToString();
  return {label, built.ok() ? std::move(*built) : nullptr};
}

/// Every golden plan, in dump order: the scale-out workloads at 1, 2 and 4
/// sites without and with AIP, then the served query on one site, on
/// three sites probing the sharded lineitem, and on three sites probing
/// the unsharded orders (one fragment at site 0).
std::vector<GoldenPlan> GoldenPlans() {
  const auto catalog = GoldenCatalog();
  std::vector<GoldenPlan> plans;
  for (const ScaleOutQuery query :
       {ScaleOutQuery::kQ17, ScaleOutQuery::kSubquery}) {
    for (const int sites : {1, 2, 4}) {
      for (const bool aip : {false, true}) {
        ScaleOutOptions options;
        options.num_sites = sites;
        options.aip = aip;
        auto built = BuildScaleOutQuery(query, catalog, options);
        EXPECT_TRUE(built.ok()) << built.status().ToString();
        plans.push_back({std::string(ScaleOutQueryName(query)) +
                             " sites=" + std::to_string(sites) +
                             " aip=" + (aip ? "1" : "0"),
                         built.ok() ? std::move(*built) : nullptr});
      }
    }
  }
  const auto shards = PartitionCatalog(*catalog, {"lineitem"}, 3);
  plans.push_back(ServedGolden("served sites=1 probe=lineitem",
                               testing::PartQuery(25), {catalog}, false));
  plans.push_back(ServedGolden("served sites=3 probe=lineitem(sharded)",
                               testing::PartQuery(25), shards, true));
  plans.push_back(ServedGolden("served sites=3 probe=orders",
                               testing::OrdersQuery(13), shards, false));
  return plans;
}

std::string DumpAll() {
  std::string out;
  for (const GoldenPlan& plan : GoldenPlans()) {
    if (plan.query != nullptr) {
      out += plan.label + " " + DumpPlanShape(*plan.query);
    }
  }
  return out;
}

TEST(PlanShapeTest, ScaleOutPlansMatchGolden) {
  const std::string actual = DumpAll();
  if (std::getenv("PUSHSIP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(kGoldenPath) << actual;
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenPath;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str());
}

TEST(PlanShapeTest, EveryFragmentIsRecoverableOrRefused) {
  // Fragments that are neither migratable nor stateful, keyed by their
  // terminal operator, and why.
  const std::map<std::string, std::string> refusals = {
      {"sink", "the root holds the answer; it cannot restart or move"},
      {"xsend_sn1", "supplier ⋈ nation reads two scans: not replayable"},
      {"xsend_sn2", "supplier ⋈ nation reads two scans: not replayable"},
      {"xsend_result",
       "the subquery compute fragment is fed by the non-replayable "
       "supplier ⋈ nation fragments, so its producers cannot be replayed "
       "into a restored checkpoint"},
  };
  for (GoldenPlan& plan : GoldenPlans()) {
    SCOPED_TRACE(plan.label);
    ASSERT_NE(plan.query, nullptr);
    DistributedQuery& q = *plan.query;
    const int sites = static_cast<int>(q.sites.size());
    std::vector<std::pair<int, PlanBuilder*>> fragments;
    for (const auto& site : q.sites) {
      for (const auto& f : site->fragments()) {
        fragments.emplace_back(site->id(), f.get());
      }
    }
    for (const auto& [site, f] : fragments) {
      const std::string terminal = f->terminal()->name();
      SCOPED_TRACE("site " + std::to_string(site) + " " + terminal);
      const MigratableFragmentSpec* migratable = nullptr;
      for (const MigratableFragmentSpec& m : q.migratable_fragments) {
        if (m.fragment == f) migratable = &m;
      }
      const StatefulFragmentSpec* stateful = nullptr;
      for (const StatefulFragmentSpec& s : q.stateful_fragments) {
        if (s.fragment == f) stateful = &s;
      }
      const auto refusal = refusals.find(terminal);
      if (refusal != refusals.end()) {
        EXPECT_EQ(migratable, nullptr) << "refused: " << refusal->second;
        EXPECT_EQ(stateful, nullptr) << "refused: " << refusal->second;
        continue;
      }
      ASSERT_NE(migratable, nullptr) << "neither recoverable nor refused";
      ASSERT_NE(migratable->rebuild, nullptr);
      EXPECT_EQ(migratable->home_site, site);
      if (stateful != nullptr) {
        ASSERT_NE(stateful->checkpointer, nullptr);
        EXPECT_GT(stateful->input_channels.size(), 0u);
        EXPECT_EQ(stateful->checkpointer->bound_receivers(),
                  stateful->input_channels.size());
        EXPECT_FALSE(stateful->producers.empty());
      } else {
        EXPECT_NE(migratable->scan, nullptr) << "migratable but neither "
                                                "replayable nor stateful";
      }
      // The recipe rebuilds the same fragment on another site.
      const int host = (site + 1) % sites;
      Result<RebuiltFragment> rebuilt =
          migratable->rebuild(*q.sites[static_cast<size_t>(host)]);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
      EXPECT_EQ(rebuilt->scan != nullptr, migratable->scan != nullptr);
      std::ostringstream original, copy;
      DumpTree(*f, f->terminal(), 0, &original);
      DumpTree(*rebuilt->fragment, rebuilt->fragment->terminal(), 0, &copy);
      EXPECT_EQ(copy.str(), original.str());
    }
  }
}

}  // namespace
}  // namespace pushsip

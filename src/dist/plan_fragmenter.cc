#include "dist/plan_fragmenter.h"

#include <algorithm>
#include <initializer_list>
#include <unordered_map>

namespace pushsip {

LogicalPlan::NodeId LogicalPlan::Add(Node node) {
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

LogicalPlan::NodeId LogicalPlan::Scan(std::string table, std::string alias,
                                      ScanOptions options,
                                      std::vector<std::string> cols) {
  Node n;
  n.kind = Node::Kind::kScan;
  n.table = std::move(table);
  n.alias = std::move(alias);
  n.instance = num_scans_++;
  n.scan_options = std::move(options);
  n.cols = std::move(cols);
  return Add(std::move(n));
}

LogicalPlan::NodeId LogicalPlan::Filter(NodeId input, PredicateFn predicate,
                                        double selectivity) {
  Node n;
  n.kind = Node::Kind::kFilter;
  n.children = {input};
  n.predicate = std::move(predicate);
  n.selectivity = selectivity;
  return Add(std::move(n));
}

LogicalPlan::NodeId LogicalPlan::Project(NodeId input,
                                         std::vector<std::string> cols) {
  Node n;
  n.kind = Node::Kind::kProject;
  n.children = {input};
  n.cols = std::move(cols);
  return Add(std::move(n));
}

LogicalPlan::NodeId LogicalPlan::ProjectExprs(NodeId input,
                                              ProjectionFn projection) {
  Node n;
  n.kind = Node::Kind::kProjectExprs;
  n.children = {input};
  n.projection = std::move(projection);
  return Add(std::move(n));
}

LogicalPlan::NodeId LogicalPlan::Join(
    NodeId left, NodeId right,
    std::vector<std::pair<std::string, std::string>> eq_cols,
    PredicateFn residual, double residual_sel) {
  Node n;
  n.kind = Node::Kind::kJoin;
  n.children = {left, right};
  n.eq_cols = std::move(eq_cols);
  n.predicate = std::move(residual);
  n.selectivity = residual_sel;
  return Add(std::move(n));
}

LogicalPlan::NodeId LogicalPlan::Aggregate(NodeId input,
                                           std::vector<std::string> group_cols,
                                           std::vector<AggDesc> aggs) {
  Node n;
  n.kind = Node::Kind::kAggregate;
  n.children = {input};
  n.group_cols = std::move(group_cols);
  n.aggs = std::move(aggs);
  return Add(std::move(n));
}

LogicalPlan::NodeId LogicalPlan::Distinct(NodeId input) {
  Node n;
  n.kind = Node::Kind::kDistinct;
  n.children = {input};
  return Add(std::move(n));
}

LogicalPlan::NodeId LogicalPlan::Exchange(NodeId input, ExchangeMode mode,
                                          std::string key_col,
                                          std::string stage) {
  Node n;
  n.kind = Node::Kind::kExchange;
  n.children = {input};
  n.mode = mode;
  n.key_col = std::move(key_col);
  n.stage = std::move(stage);
  return Add(std::move(n));
}

PlanFragmenter::PlanFragmenter(
    std::vector<std::shared_ptr<Catalog>> site_catalogs,
    std::shared_ptr<SiteMesh> mesh, int coordinator)
    : catalogs_(std::move(site_catalogs)),
      mesh_(std::move(mesh)),
      coordinator_(coordinator) {}

namespace {

using NodeId = LogicalPlan::NodeId;
using Kind = LogicalPlan::Node::Kind;

constexpr int kAllSites = -1;
constexpr int kUnplaced = -2;

/// One cut of the plan: an Exchange node's channels and producers, and what
/// its receivers are told about the stream.
struct Cut {
  std::vector<int> producer_sites;
  /// Indexed by consuming site; null where the stream is not consumed.
  std::vector<std::shared_ptr<ExchangeChannel>> channels;
  std::vector<uint32_t> channel_ids;  ///< index in the query's channels
  bool built = false;
  Schema schema;
  double est_rows = 0;
  std::unordered_map<AttrId, double> ndv;
  std::vector<PlanBuilder*> producers;  ///< as assembled
  bool replayable = true;               ///< every producer is replayable
};

/// Everything a fragment build reads. Fragment() fills it; afterwards it is
/// read-only and shared by every rebuild recipe, which may run mid-query.
struct Layout {
  LogicalPlan plan;  ///< the caller's plan plus the implicit forward cuts
  /// Per node: its inputs, with implicit cuts substituted.
  std::vector<std::vector<NodeId>> children;
  /// Per node: the site it runs at, kAllSites, or kUnplaced (unreachable).
  std::vector<int> site;
  std::vector<Cut> cuts;  ///< per node; meaningful for exchanges only
  std::vector<std::shared_ptr<Catalog>> catalogs;
  int coordinator = 0;
  ScaleOutOptions options;
  DistributedQuery* query = nullptr;

  const LogicalPlan::Node& node(NodeId id) const {
    return plan.nodes()[static_cast<size_t>(id)];
  }
  const std::vector<NodeId>& inputs(NodeId id) const {
    return children[static_cast<size_t>(id)];
  }
  int placement(NodeId id) const { return site[static_cast<size_t>(id)]; }
  int num_sites() const { return static_cast<int>(catalogs.size()); }
  /// The sites a placement covers.
  std::vector<int> Sites(int placement) const {
    if (placement != kAllSites) return {placement};
    std::vector<int> all;
    for (int s = 0; s < num_sites(); ++s) all.push_back(s);
    return all;
  }
};

/// Appends an implicit forward cut of `input` toward `dest`.
NodeId AddForwardCut(Layout* l, NodeId input, std::string key_col,
                     int dest) {
  // Appended, not `"s" + to_string(...)`: GCC 12's -Wrestrict misfires on
  // that form in Release builds.
  std::string stage = "s";
  stage += std::to_string(l->placement(input));
  const NodeId x = l->plan.Exchange(input, ExchangeMode::kForward,
                                    std::move(key_col), std::move(stage));
  l->children.push_back({input});
  l->site.push_back(dest);
  return x;
}

/// Places `id` and everything below it (see the header's rules).
Result<int> Place(Layout* l, NodeId id) {
  if (l->placement(id) != kUnplaced) return l->placement(id);
  // With one site, "every site" is that site.
  const int all = l->num_sites() == 1 ? 0 : kAllSites;
  const Kind kind = l->node(id).kind;
  const std::vector<NodeId> children = l->inputs(id);  // a cut may replace one
  int site = 0;
  if (kind == Kind::kScan) {
    const std::string& table = l->node(id).table;
    std::vector<int> holders;
    for (int s = 0; s < l->num_sites(); ++s) {
      if (l->catalogs[static_cast<size_t>(s)]->HasTable(table)) {
        holders.push_back(s);
      }
    }
    if (holders.empty()) {
      return Status::NotFound("no site hosts table " + table);
    }
    if (holders.size() == 1) {
      site = holders[0];
    } else if (static_cast<int>(holders.size()) == l->num_sites()) {
      site = all;
    } else {
      return Status::InvalidArgument("table " + table +
                                     " is held by some sites but not all");
    }
  } else if (kind == Kind::kExchange) {
    PUSHSIP_RETURN_NOT_OK(Place(l, children[0]).status());
    site = l->node(id).mode == ExchangeMode::kForward ? l->coordinator : all;
  } else if (kind == Kind::kJoin) {
    PUSHSIP_ASSIGN_OR_RETURN(const int left, Place(l, children[0]));
    PUSHSIP_ASSIGN_OR_RETURN(const int right, Place(l, children[1]));
    site = left;
    if (left != right) {
      if (left == kAllSites || right == kAllSites) {
        return Status::InvalidArgument(
            "join of a single-site input with an all-sites input needs an "
            "explicit exchange");
      }
      // The right input ships to the left input's site, keyed on its
      // first join column (a join without one fails when it is built).
      const auto& eq_cols = l->node(id).eq_cols;
      std::string key = eq_cols.empty() ? "" : eq_cols[0].second;
      const NodeId cut = AddForwardCut(l, children[1], std::move(key), left);
      l->children[static_cast<size_t>(id)][1] = cut;
    }
  } else {
    PUSHSIP_ASSIGN_OR_RETURN(site, Place(l, children[0]));
  }
  l->site[static_cast<size_t>(id)] = site;
  return site;
}

/// True when the fragment rooted at `id` (its subtree down to the next
/// cuts) reads an exchange receiver.
bool ReadsReceiver(const Layout& l, NodeId id) {
  if (l.node(id).kind == Kind::kExchange) return true;
  for (const NodeId c : l.inputs(id)) {
    if (ReadsReceiver(l, c)) return true;
  }
  return false;
}

/// True when the fragment rooted at `id` holds a node of one of `kinds`
/// that reads an exchange receiver.
bool HasReceiverFed(const Layout& l, NodeId id,
                    std::initializer_list<Kind> kinds) {
  const Kind kind = l.node(id).kind;
  if (kind == Kind::kExchange) return false;
  const bool fed = std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
  for (const NodeId c : l.inputs(id)) {
    if ((fed && ReadsReceiver(l, c)) || HasReceiverFed(l, c, kinds)) {
      return true;
    }
  }
  return false;
}

/// A fragment built by FragmentBuilder.
struct Built {
  RebuiltFragment fragment;  ///< scan set only when replayable
  PlanBuilder::NodeId out = 0;  ///< the node the terminal consumes
  int key = -1;  ///< index of the cut's key column in out's schema
  std::vector<std::shared_ptr<ExchangeChannel>> input_channels;
  std::vector<NodeId> input_cuts;
};

/// Materializes fragments of a Layout. At assembly (`assembly` non-null) it
/// also builds every cut's producers on first use and fills the query's
/// registries; a rebuild recipe uses it read-only to re-create one fragment
/// on a host site, feeding and reading the original channels.
class FragmentBuilder {
 public:
  FragmentBuilder(std::shared_ptr<const Layout> layout, Layout* assembly)
      : layout_(std::move(layout)), l_(*layout_), assembly_(assembly) {}

  /// Assembly: builds the producers of cut `x` on every producing site,
  /// registers them, and derives the cut's receiver estimates.
  Status BuildCut(NodeId x);

  /// Builds the fragment feeding cut `x` from site `home` (whose shards it
  /// scans and whose receivers' channels it reads) on `host`, publishes it
  /// and installs its AIP Manager.
  Result<Built> BuildProducer(NodeId x, int home, SiteEngine& host);

  /// Assembly: the root fragment with the query's Sink, at the coordinator.
  Status BuildRoot(NodeId root);

 private:
  Result<PlanBuilder::NodeId> Build(NodeId id, int home, SiteEngine& host,
                                    PlanBuilder* pb, Built* built);
  Result<PlanBuilder::NodeId> Receive(NodeId x, int home, SiteEngine& host,
                                      PlanBuilder* pb, Built* built);
  Status MaybeInstallAip(NodeId fragment_root, SiteEngine& host) const;
  void Register(NodeId x, int home, const Built& built);

  std::shared_ptr<const Layout> layout_;
  const Layout& l_;
  Layout* assembly_;
};

Result<PlanBuilder::NodeId> FragmentBuilder::Build(NodeId id, int home,
                                                   SiteEngine& host,
                                                   PlanBuilder* pb,
                                                   Built* built) {
  const LogicalPlan::Node& n = l_.node(id);
  const std::vector<NodeId>& children = l_.inputs(id);
  if (n.kind == Kind::kScan) {
    PUSHSIP_ASSIGN_OR_RETURN(
        TablePtr table,
        l_.catalogs[static_cast<size_t>(home)]->GetTable(n.table));
    // Deterministic batch windows make scan-rooted fragments replayable.
    ScanOptions options = n.scan_options;
    options.window_batches = true;
    Schema schema = MakeInstanceSchema(*table, n.alias, n.instance, n.cols);
    return pb->ScanTable(std::move(table), std::move(schema),
                         std::move(options));
  }
  if (n.kind == Kind::kExchange) return Receive(id, home, host, pb, built);
  if (n.kind == Kind::kJoin) {
    PUSHSIP_ASSIGN_OR_RETURN(const PlanBuilder::NodeId left,
                             Build(children[0], home, host, pb, built));
    PUSHSIP_ASSIGN_OR_RETURN(const PlanBuilder::NodeId right,
                             Build(children[1], home, host, pb, built));
    ExprPtr residual;
    if (n.predicate) {
      PUSHSIP_ASSIGN_OR_RETURN(residual,
                               n.predicate(pb->ConcatSchema(left, right)));
    }
    return pb->Join(left, right, n.eq_cols, std::move(residual),
                    n.selectivity);
  }
  PUSHSIP_ASSIGN_OR_RETURN(const PlanBuilder::NodeId in,
                           Build(children[0], home, host, pb, built));
  switch (n.kind) {
    case Kind::kFilter: {
      PUSHSIP_ASSIGN_OR_RETURN(ExprPtr pred, n.predicate(pb->schema(in)));
      return pb->Filter(in, std::move(pred), n.selectivity);
    }
    case Kind::kProject:
      return pb->Project(in, n.cols);
    case Kind::kProjectExprs: {
      PUSHSIP_ASSIGN_OR_RETURN(Projection p, n.projection(pb->schema(in)));
      return pb->ProjectExprs(in, std::move(p.fields), std::move(p.exprs));
    }
    case Kind::kAggregate:
      return pb->Aggregate(in, n.group_cols, n.aggs);
    case Kind::kDistinct:
      return pb->Distinct(in);
    default:
      return Status::Internal("unknown logical node kind");
  }
}

Result<PlanBuilder::NodeId> FragmentBuilder::Receive(NodeId x, int home,
                                                     SiteEngine& host,
                                                     PlanBuilder* pb,
                                                     Built* built) {
  if (assembly_ != nullptr) PUSHSIP_RETURN_NOT_OK(BuildCut(x));
  const LogicalPlan::Node& n = l_.node(x);
  const Cut& cut = l_.cuts[static_cast<size_t>(x)];
  const std::shared_ptr<ExchangeChannel>& channel =
      cut.channels[static_cast<size_t>(home)];
  DistributedQuery& q = *l_.query;

  ReceiverOptions ro;  // heartbeat inherited from the host's ExecContext
  ro.ordered_merge = l_.options.deterministic_merge;
  auto receiver = std::make_unique<ExchangeReceiver>(
      pb->context(), "xrecv_" + n.stage, cut.schema, channel, ro);
  // Filters built here ship back to the producing sites from the host's
  // endpoint, whichever it is when they ship.
  RemoteFilterShipFn shipper = MakeFilterShipper(&host, cut.producer_sites);
  const bool partitioned = n.mode == ExchangeMode::kHashPartition;
  PUSHSIP_ASSIGN_OR_RETURN(
      const PlanBuilder::NodeId src,
      pb->Source(std::move(receiver), cut.est_rows, cut.ndv,
                 std::move(shipper), partitioned));
  // The adaptive runtime feeds observed producer cardinalities into this
  // node. A rebuild reuses the original registration.
  if (assembly_ != nullptr) {
    q.exchange_consumers.push_back({channel.get(), pb->plan_node(src)});
  }
  built->input_channels.push_back(channel);
  built->input_cuts.push_back(x);
  return src;
}

Status FragmentBuilder::MaybeInstallAip(NodeId fragment_root,
                                        SiteEngine& host) const {
  if (!l_.options.aip || !HasReceiverFed(l_, fragment_root, {Kind::kJoin})) {
    return Status::OK();
  }
  return host.InstallAip(host.fragments().size() - 1, l_.options.aip_options,
                         l_.options.cost);
}

Result<Built> FragmentBuilder::BuildProducer(NodeId x, int home,
                                             SiteEngine& host) {
  const LogicalPlan::Node& n = l_.node(x);
  const Cut& cut = l_.cuts[static_cast<size_t>(x)];
  const NodeId input = l_.inputs(x)[0];
  // Built detached, published only when complete: a rebuild runs while AIP
  // filters may be attaching on the host concurrently.
  std::unique_ptr<PlanBuilder> detached = host.NewDetachedFragment();
  PlanBuilder& pb = *detached;
  Built built;
  PUSHSIP_ASSIGN_OR_RETURN(built.out, Build(input, home, host, &pb, &built));
  const Schema schema = pb.schema(built.out);
  std::vector<int> hash_cols;
  if (!n.key_col.empty()) {
    PUSHSIP_ASSIGN_OR_RETURN(built.key, schema.IndexOf(n.key_col));
    if (n.mode == ExchangeMode::kHashPartition) hash_cols.push_back(built.key);
  }
  std::vector<ExchangeDestination> dests;
  for (const int to : l_.Sites(l_.placement(x))) {
    dests.push_back({cut.channels[static_cast<size_t>(to)],
                     cut.channel_ids[static_cast<size_t>(to)]});
  }
  auto sender = std::make_unique<ExchangeSender>(
      &host.context(), "xsend_" + n.stage, schema, n.mode,
      std::move(hash_cols), std::move(dests));
  PUSHSIP_RETURN_NOT_OK(sender->OpenEdges(*host.endpoint()));
  built.fragment.sender = sender.get();
  PUSHSIP_RETURN_NOT_OK(pb.FinishWith(built.out, std::move(sender)));
  if (EnableFragmentReplay(pb)) built.fragment.scan = pb.source_scans()[0];
  built.fragment.fragment = &host.PublishFragment(std::move(detached));
  PUSHSIP_RETURN_NOT_OK(MaybeInstallAip(input, host));
  return built;
}

void FragmentBuilder::Register(NodeId x, int home, const Built& built) {
  Layout& l = *assembly_;
  DistributedQuery& q = *l.query;
  const NodeId input = l.inputs(x)[0];
  const bool replayable = built.fragment.scan != nullptr;
  bool stateful = !replayable && HasReceiverFed(l, input,
                                                {Kind::kJoin,
                                                 Kind::kAggregate,
                                                 Kind::kDistinct});
  std::vector<PlanBuilder*> producers;
  for (const NodeId in : built.input_cuts) {
    const Cut& feed = l.cuts[static_cast<size_t>(in)];
    stateful = stateful && feed.replayable;
    producers.insert(producers.end(), feed.producers.begin(),
                     feed.producers.end());
  }
  Cut& cut = l.cuts[static_cast<size_t>(x)];
  cut.producers.push_back(built.fragment.fragment);
  cut.replayable = cut.replayable && replayable;
  if (!replayable && !stateful) return;  // restarts in place, if at all

  MigratableFragmentSpec spec;
  spec.fragment = built.fragment.fragment;
  spec.scan = built.fragment.scan;
  spec.sender = built.fragment.sender;
  spec.stage = built.fragment.sender->name();
  spec.home_site = home;
  // The one recipe: re-materialize this fragment's logical subtree on the
  // host, scanning the home site's shards (a replica; in the simulation the
  // shared TablePtr) and feeding/reading the same channels.
  spec.rebuild = [layout = layout_, x,
                  home](SiteEngine& host) -> Result<RebuiltFragment> {
    FragmentBuilder builder(layout, /*assembly=*/nullptr);
    PUSHSIP_ASSIGN_OR_RETURN(Built rebuilt,
                             builder.BuildProducer(x, home, host));
    return rebuilt.fragment;
  };
  q.migratable_fragments.push_back(std::move(spec));

  if (stateful) {
    StatefulFragmentSpec sspec;
    sspec.fragment = built.fragment.fragment;
    sspec.checkpointer = std::make_shared<FragmentCheckpointer>(
        l.options.checkpoint_interval_frames);
    sspec.checkpointer->Bind(built.fragment.fragment);
    sspec.input_channels = built.input_channels;
    sspec.producers = std::move(producers);
    q.stateful_fragments.push_back(std::move(sspec));
  }
}

Status FragmentBuilder::BuildCut(NodeId x) {
  Cut& cut = assembly_->cuts[static_cast<size_t>(x)];
  if (cut.built) return Status::OK();
  cut.built = true;
  // Receivers are told what the producers estimate: their rows summed, and
  // the largest of their NDVs of the key column (a shard may miss keys).
  double rows = 0, key_ndv = -1;
  AttrId key_attr = kInvalidAttr;
  for (const int home : cut.producer_sites) {
    SiteEngine& site = *l_.query->sites[static_cast<size_t>(home)];
    PUSHSIP_ASSIGN_OR_RETURN(const Built built, BuildProducer(x, home, site));
    Register(x, home, built);
    const PlanBuilder& pb = *built.fragment.fragment;
    cut.schema = pb.schema(built.out);
    rows += pb.estimated_rows(built.out);
    if (built.key < 0) continue;
    key_attr = cut.schema.field(static_cast<size_t>(built.key)).attr;
    const auto& ndv = pb.estimated_ndv(built.out);
    const auto it = ndv.find(key_attr);
    if (it != ndv.end()) key_ndv = std::max(key_ndv, it->second);
  }
  // A hash partition hands each consumer 1/N of the rows and of the keys.
  const double parts =
      l_.node(x).mode == ExchangeMode::kHashPartition
          ? static_cast<double>(l_.Sites(l_.placement(x)).size())
          : 1.0;
  cut.est_rows = rows / parts;
  if (key_ndv >= 0) cut.ndv[key_attr] = key_ndv / parts;
  return Status::OK();
}

Status FragmentBuilder::BuildRoot(NodeId root) {
  DistributedQuery& q = *l_.query;
  SiteEngine& coord = *q.sites[static_cast<size_t>(l_.coordinator)];
  std::unique_ptr<PlanBuilder> detached = coord.NewDetachedFragment();
  Built built;
  PUSHSIP_ASSIGN_OR_RETURN(
      const PlanBuilder::NodeId out,
      Build(root, l_.coordinator, coord, detached.get(), &built));
  PUSHSIP_RETURN_NOT_OK(detached->Finish(out));
  q.root_sink = coord.PublishFragment(std::move(detached)).sink();
  q.root_site = l_.coordinator;
  return MaybeInstallAip(root, coord);
}

}  // namespace

Result<std::unique_ptr<DistributedQuery>> PlanFragmenter::Fragment(
    const LogicalPlan& plan, LogicalPlan::NodeId root,
    const ScaleOutOptions& options) {
  if (catalogs_.empty()) return Status::InvalidArgument("no site catalogs");
  if (root < 0 || root >= static_cast<int>(plan.nodes().size())) {
    return Status::InvalidArgument("bad logical root");
  }
  if (coordinator_ < 0 ||
      coordinator_ >= static_cast<int>(catalogs_.size())) {
    return Status::InvalidArgument("bad coordinator site");
  }
  if (mesh_ == nullptr ||
      mesh_->num_sites() < static_cast<int>(catalogs_.size())) {
    return Status::InvalidArgument("the mesh has fewer sites than catalogs");
  }

  auto query = std::make_unique<DistributedQuery>();
  query->mesh = mesh_;
  if (options.fault_injector != nullptr) {
    query->mesh->InstallFaultInjector(options.fault_injector);
    query->fault_injector = options.fault_injector;
  }
  query->max_fragment_restarts = options.max_fragment_restarts;
  for (size_t s = 0; s < catalogs_.size(); ++s) {
    query->sites.push_back(std::make_unique<SiteEngine>(
        static_cast<int>(s), "site" + std::to_string(s), catalogs_[s]));
    query->sites.back()->context().set_batch_size(options.batch_size);
    query->sites.back()->context().set_exchange_idle_timeout_sec(
        options.exchange_idle_timeout_sec);
  }

  auto layout = std::make_shared<Layout>();
  layout->plan = plan;
  for (const LogicalPlan::Node& n : plan.nodes()) {
    layout->children.push_back(n.children);
  }
  layout->site.assign(plan.nodes().size(), kUnplaced);
  layout->catalogs = catalogs_;
  layout->coordinator = coordinator_;
  layout->options = options;
  layout->query = query.get();
  Layout& l = *layout;

  PUSHSIP_ASSIGN_OR_RETURN(const int root_site, Place(&l, root));
  if (root_site == kAllSites) {
    return Status::InvalidArgument(
        "the plan root runs at every site; end it with a forward exchange");
  }
  if (root_site != coordinator_) {
    root = AddForwardCut(&l, root, "", coordinator_);
  }

  // Every cut's channels exist before any fragment is built: channel ids
  // (their index in query->channels) follow declaration order.
  l.cuts.resize(l.plan.nodes().size());
  for (NodeId x = 0; x < static_cast<NodeId>(l.plan.nodes().size()); ++x) {
    if (l.node(x).kind != Kind::kExchange || l.placement(x) == kUnplaced) {
      continue;
    }
    Cut& cut = l.cuts[static_cast<size_t>(x)];
    cut.producer_sites = l.Sites(l.placement(l.inputs(x)[0]));
    cut.channels.resize(catalogs_.size());
    cut.channel_ids.resize(catalogs_.size());
    for (const int to : l.Sites(l.placement(x))) {
      auto channel =
          std::make_shared<ExchangeChannel>(options.channel_capacity);
      channel->set_num_senders(static_cast<int>(cut.producer_sites.size()));
      channel->set_consumer_site(to);
      cut.channels[static_cast<size_t>(to)] = channel;
      cut.channel_ids[static_cast<size_t>(to)] =
          static_cast<uint32_t>(query->channels.size());
      query->channels.push_back(std::move(channel));
    }
  }
  // Every site sends over its sim endpoint; a query without cuts has no
  // edges and gets none.
  if (!query->channels.empty()) {
    PUSHSIP_RETURN_NOT_OK(ConnectSimEndpoints(*query));
  }

  // Fragments follow the order their cuts were declared in; a cut's
  // producers are always built before its consumers.
  FragmentBuilder builder(layout, &l);
  for (NodeId x = 0; x < static_cast<NodeId>(l.plan.nodes().size()); ++x) {
    if (!l.cuts[static_cast<size_t>(x)].producer_sites.empty()) {
      PUSHSIP_RETURN_NOT_OK(builder.BuildCut(x));
    }
  }
  PUSHSIP_RETURN_NOT_OK(builder.BuildRoot(root));
  return query;
}

}  // namespace pushsip

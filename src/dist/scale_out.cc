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
    const TablePtr table = *full.GetTable(name);
    const bool sharded =
        std::find(shard_tables.begin(), shard_tables.end(), name) !=
        shard_tables.end();
    if (!sharded || num_sites == 1) {
      catalogs[0]->RegisterTable(table).CheckOK();
      continue;
    }
    // Shard s takes rows s, s+N, s+2N, ...: one typed gather per column
    // through a single reused row-index list.
    const size_t n = static_cast<size_t>(num_sites);
    std::vector<uint32_t> rows;
    rows.reserve(table->num_rows() / n + 1);
    for (size_t s = 0; s < n; ++s) {
      auto shard = std::make_shared<Table>(name, table->schema());
      shard->SetPrimaryKey(table->primary_key());
      for (const Table::ForeignKey& fk : table->foreign_keys()) {
        shard->AddForeignKey(fk.col, fk.ref_table, fk.ref_col);
      }
      rows.clear();
      for (size_t r = s; r < table->num_rows(); r += n) {
        rows.push_back(static_cast<uint32_t>(r));
      }
      shard->Reserve(rows.size());
      shard->AppendGather(*table, rows.data(), rows.size());
      shard->ComputeStats();
      catalogs[s]->RegisterTable(std::move(shard)).CheckOK();
    }
  }
  return catalogs;
}

namespace {

using NodeId = PlanBuilder::NodeId;

/// Shared assembly context for one scale-out build.
struct Assembly {
  DistributedQuery* q = nullptr;
  const ScaleOutOptions* opts = nullptr;
  int sites = 0;

  SiteEngine& site(int i) { return *q->sites[static_cast<size_t>(i)]; }
  std::shared_ptr<SimLink> link(int from, int to) {
    return q->mesh->link(from, to);
  }

  /// One channel per site, each to be fed by `senders` senders.
  std::vector<std::shared_ptr<ExchangeChannel>> ChannelPerSite(int senders) {
    std::vector<std::shared_ptr<ExchangeChannel>> channels;
    for (int i = 0; i < sites; ++i) {
      channels.push_back(OneChannel(senders));
    }
    return channels;
  }

  /// A single channel fed by `senders` senders (coordinator-side merges).
  std::shared_ptr<ExchangeChannel> OneChannel(int senders) {
    auto ch = std::make_shared<ExchangeChannel>(opts->channel_capacity);
    ch->set_num_senders(senders);
    q->channels.push_back(ch);
    return ch;
  }

  /// Destinations of a sender at `from`, one per site, over mesh links.
  std::vector<ExchangeDestination> FanOut(
      int from, const std::vector<std::shared_ptr<ExchangeChannel>>& chans) {
    std::vector<ExchangeDestination> dests;
    for (int to = 0; to < sites; ++to) {
      dests.push_back({chans[static_cast<size_t>(to)], link(from, to)});
    }
    return dests;
  }

  /// A shipper delivering AIP filters from consumer site `at` to every
  /// site (the producers of a hash/broadcast shuffle). Multi-process
  /// builds route the shipments over the transport instead of the
  /// (meaningless in that mode) private sim mesh.
  RemoteFilterShipFn ShipToAllSites(int at) {
    if (opts->transport != nullptr) {
      std::vector<std::pair<int, SiteEngine*>> producers;
      for (int to = 0; to < sites; ++to) {
        producers.emplace_back(to, &site(to));
      }
      return MakeTransportFilterShipper(std::move(producers),
                                        opts->transport);
    }
    std::vector<std::pair<SiteEngine*, std::shared_ptr<SimLink>>> producers;
    for (int to = 0; to < sites; ++to) {
      producers.emplace_back(&site(to), link(at, to));
    }
    return MakeFilterShipper(std::move(producers), &site(at).context());
  }

  /// Registers an ExchangeReceiver leaf in `pb` (hosted at site `at`).
  /// `partitioned` marks hash-shuffle inputs: state built from them is
  /// site-local and must not be shipped to other sites' scans. The leaf's
  /// plan node is recorded in the query's exchange-consumer registry so the
  /// adaptive runtime can feed observed producer cardinalities into it.
  Result<NodeId> Receiver(PlanBuilder& pb, const std::string& name,
                          const Schema& schema,
                          const std::shared_ptr<ExchangeChannel>& channel,
                          double est_rows,
                          std::unordered_map<AttrId, double> ndv,
                          RemoteFilterShipFn ship, bool partitioned = false,
                          int64_t fail_after_frames = 0) {
    ReceiverOptions ro;  // heartbeat inherited from the site's ExecContext
    ro.ordered_merge = opts->deterministic_merge;
    ro.fail_after_frames = fail_after_frames;
    auto recv = std::make_unique<ExchangeReceiver>(pb.context(), name,
                                                   schema, channel, ro);
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId id, pb.Source(std::move(recv), est_rows, std::move(ndv),
                                   std::move(ship), partitioned));
    // Record which site consumes this channel — the multi-process wiring
    // pass needs it to decide which exchange edges cross process
    // boundaries.
    for (int s = 0; s < sites; ++s) {
      if (&site(s).context() == pb.context()) {
        channel->set_consumer_site(s);
        break;
      }
    }
    q->exchange_consumers.push_back({channel.get(), pb.plan_node(id)});
    return id;
  }

  /// Base options of every shard scan: deterministic window batching, so
  /// scan-rooted fragments are replayable after a site failure.
  ScanOptions ShardScan() const {
    ScanOptions o;
    o.window_batches = true;
    return o;
  }

  ScanOptions PacedScan() const {
    ScanOptions o = ShardScan();
    o.delay_every_rows = opts->pace_every_rows;
    o.delay_ms = opts->pace_ms;
    return o;
  }

  Status InstallAipOnLastFragment(int at) {
    if (!opts->aip) return Status::OK();
    SiteEngine& s = site(at);
    return s.InstallAip(s.fragments().size() - 1, opts->aip_options,
                        opts->cost);
  }
};

// Attribute of `col` in `schema`, for exchange NDV hints.
AttrId AttrOf(const Schema& schema, const std::string& col) {
  const int idx = *schema.IndexOf(col);
  return schema.field(static_cast<size_t>(idx)).attr;
}

// ---------------------------------------------------------------------------
// Map-fragment recipes. The sharded scans' map fragments (scan -> project ->
// shuffle sender) are built through a value-captured description so the
// adaptive runtime can re-materialize the identical fragment on any host
// site: same shard data (the home partition, readable from the destination
// — a replica in a real deployment, the shared TablePtr here), same
// instance schema (stable attribute ids keep the streams AIP-correlatable),
// same channels — only the outgoing links change to the host's.
// ---------------------------------------------------------------------------
struct MapFragmentDesc {
  TablePtr shard;                  ///< the home site's data partition
  Schema scan_schema;              ///< shared instance schema
  ScanOptions scan_options;
  /// Optional filter between scan and project, value-captured as a plain
  /// function of the scan node so expression predicates re-materialize
  /// identically on any host site (the recipe owns no Expr objects).
  std::function<Result<ExprPtr>(PlanBuilder&, NodeId)> make_predicate;
  double predicate_selectivity = 1.0;
  std::vector<std::string> project_cols;
  std::string sender_name;
  ExchangeMode mode = ExchangeMode::kForward;
  std::string hash_col;            ///< set for kHashPartition
  std::vector<std::shared_ptr<ExchangeChannel>> channels;  ///< per site
  DistributedQuery* q = nullptr;   ///< for mesh links (heap-stable)
};

Result<RebuiltFragment> BuildMapFragment(const MapFragmentDesc& d,
                                         SiteEngine& host, int host_site) {
  // Built detached, published only when complete: a migration runs this
  // recipe while AIP filters may be attaching on the host concurrently.
  std::unique_ptr<PlanBuilder> detached = host.NewDetachedFragment();
  PlanBuilder& pb = *detached;
  PUSHSIP_ASSIGN_OR_RETURN(
      const NodeId scan_id,
      pb.ScanTable(d.shard, d.scan_schema, d.scan_options));
  NodeId filtered = scan_id;
  if (d.make_predicate) {
    PUSHSIP_ASSIGN_OR_RETURN(ExprPtr pred, d.make_predicate(pb, scan_id));
    PUSHSIP_ASSIGN_OR_RETURN(
        filtered, pb.Filter(scan_id, std::move(pred),
                            d.predicate_selectivity));
  }
  PUSHSIP_ASSIGN_OR_RETURN(const NodeId proj,
                           pb.Project(filtered, d.project_cols));
  const Schema out = pb.schema(proj);
  std::vector<int> hash_cols;
  if (!d.hash_col.empty()) {
    PUSHSIP_ASSIGN_OR_RETURN(const int idx, out.IndexOf(d.hash_col));
    hash_cols.push_back(idx);
  }
  std::vector<ExchangeDestination> dests;
  for (size_t to = 0; to < d.channels.size(); ++to) {
    dests.push_back(
        {d.channels[to], d.q->mesh->link(host_site, static_cast<int>(to))});
  }
  auto sender = std::make_unique<ExchangeSender>(
      &host.context(), d.sender_name, out, d.mode, std::move(hash_cols),
      std::move(dests));
  return FinishRebuiltFragment(host, std::move(detached), proj,
                               std::move(sender));
}

// Builds the map fragment on its home site and registers it as migratable,
// with a rebuild recipe that re-runs the same description elsewhere.
// `out_fragment`, when non-null, receives the built fragment (stateful
// consumers record their producers for quiesce-and-replay recovery).
Result<Schema> AddMigratableMapFragment(Assembly* a, MapFragmentDesc desc,
                                        int home_site,
                                        PlanBuilder** out_fragment = nullptr) {
  PUSHSIP_ASSIGN_OR_RETURN(
      RebuiltFragment built,
      BuildMapFragment(desc, a->site(home_site), home_site));
  MigratableFragmentSpec spec;
  spec.fragment = built.fragment;
  spec.scan = built.scan;
  spec.sender = built.sender;
  spec.stage = desc.sender_name;
  spec.home_site = home_site;
  spec.rebuild = [desc](SiteEngine& host, int host_site) {
    return BuildMapFragment(desc, host, host_site);
  };
  a->q->migratable_fragments.push_back(std::move(spec));
  if (out_fragment != nullptr) *out_fragment = built.fragment;
  return built.sender->output_schema();
}

// ---------------------------------------------------------------------------
// Q17 compute-fragment recipe. The stateful block (two hash joins, two
// aggregates over three exchange inputs) is built from a value-captured
// description, like the map fragments: a site failure mid-join-build can
// then re-materialize the identical fragment on a healthy host, restore
// its checkpointed state into it, and resume the streams at the next
// epoch. Everything captured is either a value or heap-stable (channels,
// the DistributedQuery) — never the stack-local ScaleOutOptions.
// ---------------------------------------------------------------------------
struct Q17ComputeDesc {
  Schema part_in, l1_in, l2_in;    ///< receiver schemas (stable attrs)
  std::shared_ptr<ExchangeChannel> ch_part, ch_l1, ch_l2, ch_final;
  double part_est = 0;             ///< broadcast part stream rows
  double li_est = 0;               ///< per-site lineitem stream rows
  double pk_est = 0;               ///< per-site partkey NDV hint
  bool ordered_merge = false;
  bool aip = false;
  AipOptions aip_options;
  CostConstants cost;
  /// Chaos arming (original build only; rebuild recipes zero these so the
  /// injected failure fires at most once per run).
  int64_t kill_part_after = 0;     ///< fail xrecv_part after N frames
  int64_t kill_l2_after = 0;       ///< fail xrecv_l2 after N frames
  DistributedQuery* q = nullptr;
};

// `a` is non-null only at assembly time: the original build registers the
// channels' consumer sites and exchange-consumer nodes; a rebuild must not
// (the channel objects persist, already registered).
Result<RebuiltFragment> BuildQ17ComputeFragment(const Q17ComputeDesc& d,
                                                SiteEngine& host,
                                                int host_site, Assembly* a) {
  std::unique_ptr<PlanBuilder> detached = host.NewDetachedFragment();
  PlanBuilder& pb = *detached;
  const auto receiver =
      [&](const std::string& name, const Schema& schema,
          const std::shared_ptr<ExchangeChannel>& ch, double est,
          std::unordered_map<AttrId, double> ndv, bool partitioned,
          int64_t fail_after) -> Result<NodeId> {
    if (a != nullptr) {
      return a->Receiver(pb, name, schema, ch, est, std::move(ndv),
                         a->ShipToAllSites(host_site), partitioned,
                         fail_after);
    }
    ReceiverOptions ro;
    ro.ordered_merge = d.ordered_merge;
    auto recv = std::make_unique<ExchangeReceiver>(pb.context(), name,
                                                   schema, ch, ro);
    // Rebuilt fragments ship AIP filters over the sim mesh: stateful
    // recovery runs single-process only (the refusal rule), so every
    // producer engine is directly reachable.
    RemoteFilterShipFn ship;
    if (d.aip) {
      std::vector<std::pair<SiteEngine*, std::shared_ptr<SimLink>>>
          producers;
      for (const auto& s : d.q->sites) {
        producers.emplace_back(s.get(),
                               d.q->mesh->link(host_site, s->id()));
      }
      ship = MakeFilterShipper(std::move(producers), &host.context());
    }
    return pb.Source(std::move(recv), est, std::move(ndv), std::move(ship),
                     partitioned);
  };

  PUSHSIP_ASSIGN_OR_RETURN(
      const NodeId rp,
      receiver("xrecv_part", d.part_in, d.ch_part, d.part_est,
               {{AttrOf(d.part_in, "p.p_partkey"), d.part_est}},
               /*partitioned=*/false, d.kill_part_after));
  PUSHSIP_ASSIGN_OR_RETURN(
      const NodeId rl1,
      receiver("xrecv_l1", d.l1_in, d.ch_l1, d.li_est,
               {{AttrOf(d.l1_in, "l1.l_partkey"), d.pk_est}},
               /*partitioned=*/true, 0));
  PUSHSIP_ASSIGN_OR_RETURN(
      const NodeId rl2,
      receiver("xrecv_l2", d.l2_in, d.ch_l2, d.li_est,
               {{AttrOf(d.l2_in, "l2.l_partkey"), d.pk_est}},
               /*partitioned=*/true, d.kill_l2_after));

  PUSHSIP_ASSIGN_OR_RETURN(
      const NodeId j1, pb.Join(rp, rl1, {{"p.p_partkey", "l1.l_partkey"}}));
  PUSHSIP_ASSIGN_OR_RETURN(
      const NodeId agg,
      pb.Aggregate(rl2, {"l2.l_partkey"},
                   {{AggFunc::kAvg, "l2.l_quantity", "avg_q"}}));
  const Schema& agg_schema = pb.schema(agg);
  PUSHSIP_ASSIGN_OR_RETURN(const int pk_idx,
                           agg_schema.IndexOf("l2.l_partkey"));
  PUSHSIP_ASSIGN_OR_RETURN(const int avg_idx, agg_schema.IndexOf("avg_q"));
  std::vector<Field> lim_fields = {
      agg_schema.field(static_cast<size_t>(pk_idx)),
      Field{"lim", TypeId::kDouble, kInvalidAttr}};
  std::vector<ExprPtr> lim_exprs = {
      Col(pk_idx, TypeId::kInt64, "l2.l_partkey"),
      Arith(ArithOp::kMul, LitDouble(0.2),
            Col(avg_idx, TypeId::kDouble, "avg_q"))};
  PUSHSIP_ASSIGN_OR_RETURN(
      const NodeId lim,
      pb.ProjectExprs(agg, std::move(lim_fields), std::move(lim_exprs)));

  const Schema top_schema = pb.ConcatSchema(j1, lim);
  PUSHSIP_ASSIGN_OR_RETURN(ExprPtr qty_col,
                           ColNamed(top_schema, "l1.l_quantity"));
  PUSHSIP_ASSIGN_OR_RETURN(ExprPtr lim_col, ColNamed(top_schema, "lim"));
  PUSHSIP_ASSIGN_OR_RETURN(
      const NodeId top,
      pb.Join(j1, lim, {{"p.p_partkey", "l2.l_partkey"}},
              Cmp(CmpOp::kLt, std::move(qty_col), std::move(lim_col)),
              0.3));
  PUSHSIP_ASSIGN_OR_RETURN(
      const NodeId partial,
      pb.Aggregate(top, {},
                   {{AggFunc::kSum, "l1.l_extendedprice", "revenue"}}));
  auto sender = std::make_unique<ExchangeSender>(
      &host.context(), "xsend_partial", pb.schema(partial),
      ExchangeMode::kForward, std::vector<int>{},
      std::vector<ExchangeDestination>{
          {d.ch_final, d.q->mesh->link(host_site, 0)}});
  ExchangeSender* sender_raw = sender.get();
  PUSHSIP_RETURN_NOT_OK(pb.FinishWith(partial, std::move(sender)));
  PlanBuilder& published = host.PublishFragment(std::move(detached));
  if (d.aip) {
    PUSHSIP_RETURN_NOT_OK(host.InstallAip(host.fragments().size() - 1,
                                          d.aip_options, d.cost));
  }
  RebuiltFragment out;
  out.fragment = &published;
  out.scan = nullptr;  // exchange-fed: recovery restores from a checkpoint
  out.sender = sender_raw;
  return out;
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
Status BuildQ17(Assembly* a, const Catalog& full) {
  const int N = a->sites;
  const TablePtr part = *full.GetTable("part");
  const TablePtr lineitem = *full.GetTable("lineitem");
  const double part_rows = static_cast<double>(part->num_rows());
  const double li_rows = static_cast<double>(lineitem->num_rows());
  const double part_sel = a->opts->weak_part_filter ? 1.0 / 40 : 1.0 / 1000;

  // Each scan reads only the columns its filter and project use.
  const Schema p_schema = MakeInstanceSchema(
      *part, "p", 0, {"p_partkey", "p_brand", "p_container"});
  const Schema l1_schema = MakeInstanceSchema(
      *lineitem, "l1", 1, {"l_partkey", "l_quantity", "l_extendedprice"});
  const Schema l2_schema =
      MakeInstanceSchema(*lineitem, "l2", 2, {"l_partkey", "l_quantity"});

  auto ch_part = a->ChannelPerSite(/*senders=*/1);
  auto ch_l1 = a->ChannelPerSite(/*senders=*/N);
  auto ch_l2 = a->ChannelPerSite(/*senders=*/N);
  auto ch_final = a->OneChannel(/*senders=*/N);

  // --- part fragment (site 0): filter, project, broadcast. Built from a
  // migratable recipe like the shuffles — the filter is value-captured, so
  // even this expression-predicate fragment has a rebuild recipe ---
  Schema part_out;
  PlanBuilder* part_fragment = nullptr;
  {
    MapFragmentDesc d;
    d.shard = part;  // unsharded: every site reads the one shared table
    d.scan_schema = p_schema;
    d.scan_options = a->ShardScan();
    const bool weak = a->opts->weak_part_filter;
    d.predicate_selectivity = part_sel;
    d.make_predicate = [weak](PlanBuilder& pb,
                              NodeId p) -> Result<ExprPtr> {
      PUSHSIP_ASSIGN_OR_RETURN(ExprPtr brand, pb.ColRef(p, "p_brand"));
      PUSHSIP_ASSIGN_OR_RETURN(ExprPtr container,
                               pb.ColRef(p, "p_container"));
      if (weak) {
        return Cmp(CmpOp::kEq, std::move(container), LitString("MED CAN"));
      }
      return And(Cmp(CmpOp::kEq, std::move(brand), LitString("Brand#34")),
                 Cmp(CmpOp::kEq, std::move(container),
                     LitString("MED CAN")));
    };
    d.project_cols = {"p.p_partkey"};
    d.sender_name = "xsend_part";
    d.mode = ExchangeMode::kBroadcast;
    d.channels = ch_part;
    d.q = a->q;
    PUSHSIP_ASSIGN_OR_RETURN(
        part_out,
        AddMigratableMapFragment(a, std::move(d), 0, &part_fragment));
  }

  // --- lineitem map fragments (every site): project + hash shuffle,
  // built from migratable recipes so the adaptive runtime can rebuild any
  // of them on a healthy site mid-query ---
  Schema l1_out, l2_out;
  std::vector<PlanBuilder*> shuffle_producers = {part_fragment};
  for (int i = 0; i < N; ++i) {
    PUSHSIP_ASSIGN_OR_RETURN(TablePtr shard,
                             a->site(i).catalog()->GetTable("lineitem"));
    PlanBuilder* frag = nullptr;
    {
      MapFragmentDesc d;
      d.shard = shard;
      d.scan_schema = l1_schema;
      d.scan_options = a->PacedScan();
      d.project_cols = {"l1.l_partkey", "l1.l_quantity",
                        "l1.l_extendedprice"};
      d.sender_name = "xsend_l1";
      d.mode = ExchangeMode::kHashPartition;
      d.hash_col = "l1.l_partkey";
      d.channels = ch_l1;
      d.q = a->q;
      PUSHSIP_ASSIGN_OR_RETURN(
          l1_out, AddMigratableMapFragment(a, std::move(d), i, &frag));
      shuffle_producers.push_back(frag);
    }
    {
      MapFragmentDesc d;
      d.shard = shard;
      d.scan_schema = l2_schema;
      d.scan_options = a->PacedScan();
      d.project_cols = {"l2.l_partkey", "l2.l_quantity"};
      d.sender_name = "xsend_l2";
      d.mode = ExchangeMode::kHashPartition;
      d.hash_col = "l2.l_partkey";
      d.channels = ch_l2;
      d.q = a->q;
      PUSHSIP_ASSIGN_OR_RETURN(
          l2_out, AddMigratableMapFragment(a, std::move(d), i, &frag));
      shuffle_producers.push_back(frag);
    }
  }

  // --- compute fragments (every site): the Q17 block per key range.
  // Stateful (join builds + aggregate tables over exchange inputs), so each
  // is registered both migratable (value-captured rebuild recipe) and
  // stateful (checkpointer + producer set for quiesce-and-replay) ---
  Schema partial_schema;
  for (int i = 0; i < N; ++i) {
    Q17ComputeDesc cd;
    cd.part_in = part_out;
    cd.l1_in = l1_out;
    cd.l2_in = l2_out;
    cd.ch_part = ch_part[static_cast<size_t>(i)];
    cd.ch_l1 = ch_l1[static_cast<size_t>(i)];
    cd.ch_l2 = ch_l2[static_cast<size_t>(i)];
    cd.ch_final = ch_final;
    cd.part_est = part_rows * part_sel;
    cd.li_est = li_rows / N;
    cd.pk_est = part_rows / N;
    cd.ordered_merge = a->opts->deterministic_merge;
    cd.aip = a->opts->aip;
    cd.aip_options = a->opts->aip_options;
    cd.cost = a->opts->cost;
    cd.q = a->q;
    if (i == a->opts->stateful_kill_site) {
      if (a->opts->stateful_kill_aggregate) {
        cd.kill_l2_after = a->opts->stateful_kill_after_frames;
      } else {
        cd.kill_part_after = a->opts->stateful_kill_after_frames;
      }
    }
    PUSHSIP_ASSIGN_OR_RETURN(RebuiltFragment built,
                             BuildQ17ComputeFragment(cd, a->site(i), i, a));
    partial_schema = built.sender->output_schema();

    MigratableFragmentSpec mspec;
    mspec.fragment = built.fragment;
    mspec.scan = nullptr;  // exchange-fed: no window-progress sampling
    mspec.sender = built.sender;
    mspec.stage = "xsend_partial";
    mspec.home_site = i;
    Q17ComputeDesc clean = cd;
    clean.kill_part_after = 0;  // the replacement must not re-fire chaos
    clean.kill_l2_after = 0;
    mspec.rebuild = [clean](SiteEngine& host, int host_site) {
      return BuildQ17ComputeFragment(clean, host, host_site, nullptr);
    };
    a->q->migratable_fragments.push_back(std::move(mspec));

    StatefulFragmentSpec sspec;
    sspec.fragment = built.fragment;
    sspec.checkpointer = std::make_shared<FragmentCheckpointer>(
        a->opts->checkpoint_interval_frames);
    sspec.checkpointer->Bind(built.fragment);
    sspec.input_channels = {cd.ch_part, cd.ch_l1, cd.ch_l2};
    sspec.producers = shuffle_producers;
    a->q->stateful_fragments.push_back(std::move(sspec));
  }

  // --- final fragment (site 0): combine the partial sums ---
  {
    PlanBuilder& pb = a->site(0).NewFragment();
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId recv,
        a->Receiver(pb, "xrecv_partial", partial_schema, ch_final,
                    static_cast<double>(N), {}, nullptr));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId total,
        pb.Aggregate(recv, {}, {{AggFunc::kSum, "revenue", "total"}}));
    const Schema& total_schema = pb.schema(total);
    PUSHSIP_ASSIGN_OR_RETURN(const int t_idx, total_schema.IndexOf("total"));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId out,
        pb.ProjectExprs(total,
                        {Field{"avg_yearly", TypeId::kDouble, kInvalidAttr}},
                        {Arith(ArithOp::kDiv,
                               Col(t_idx, TypeId::kDouble, "total"),
                               LitDouble(7.0))}));
    PUSHSIP_RETURN_NOT_OK(pb.Finish(out));
    a->q->root_sink = pb.sink();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The IBM subquery workload, partitioned. PARTSUPP is the sharded relation;
// part and the (supplier ⋈ nation[FRANCE]) subplans are filtered at site 0
// and broadcast; both blocks run per site over the ps_partkey range; final
// rows are unioned at the coordinator.
// ---------------------------------------------------------------------------
Status BuildSubquery(Assembly* a, const Catalog& full) {
  const int N = a->sites;
  const TablePtr part = *full.GetTable("part");
  const TablePtr partsupp = *full.GetTable("partsupp");
  const TablePtr supplier = *full.GetTable("supplier");
  const TablePtr nation = *full.GetTable("nation");
  const double part_rows = static_cast<double>(part->num_rows());
  const double ps_rows = static_cast<double>(partsupp->num_rows());
  const double s_rows = static_cast<double>(supplier->num_rows());
  const double part_sel = a->opts->weak_part_filter ? 1.0 / 5 : 1.0 / 250;

  const Schema p_schema = MakeInstanceSchema(*part, "p", 0);
  const Schema ps1_schema = MakeInstanceSchema(*partsupp, "ps1", 1);
  const Schema ps2_schema = MakeInstanceSchema(*partsupp, "ps2", 2);
  const Schema s1_schema = MakeInstanceSchema(*supplier, "s1", 3);
  const Schema n1_schema = MakeInstanceSchema(*nation, "n1", 4);
  const Schema s2_schema = MakeInstanceSchema(*supplier, "s2", 5);
  const Schema n2_schema = MakeInstanceSchema(*nation, "n2", 6);

  auto ch_part = a->ChannelPerSite(/*senders=*/1);
  auto ch_ps1 = a->ChannelPerSite(/*senders=*/N);
  auto ch_ps2 = a->ChannelPerSite(/*senders=*/N);
  auto ch_sn1 = a->ChannelPerSite(/*senders=*/1);
  auto ch_sn2 = a->ChannelPerSite(/*senders=*/1);
  auto ch_final = a->OneChannel(/*senders=*/N);

  // --- part fragment (site 0): filter + broadcast, value-captured recipe
  // (the size/type predicate re-materializes on any host site) ---
  Schema part_out;
  {
    MapFragmentDesc d;
    d.shard = part;
    d.scan_schema = p_schema;
    d.scan_options = a->ShardScan();
    const bool weak = a->opts->weak_part_filter;
    d.predicate_selectivity = part_sel;
    d.make_predicate = [weak](PlanBuilder& pb,
                              NodeId p) -> Result<ExprPtr> {
      PUSHSIP_ASSIGN_OR_RETURN(ExprPtr size_col, pb.ColRef(p, "p_size"));
      PUSHSIP_ASSIGN_OR_RETURN(ExprPtr type_col, pb.ColRef(p, "p_type"));
      if (weak) return Like(std::move(type_col), "%BRASS");
      return And(Cmp(CmpOp::kEq, std::move(size_col), LitInt(15)),
                 Like(std::move(type_col), "%BRASS"));
    };
    d.project_cols = {"p.p_partkey"};
    d.sender_name = "xsend_part";
    d.mode = ExchangeMode::kBroadcast;
    d.channels = ch_part;
    d.q = a->q;
    PUSHSIP_ASSIGN_OR_RETURN(part_out,
                             AddMigratableMapFragment(a, std::move(d), 0));
  }

  // --- supplier ⋈ nation[FRANCE] fragments (site 0), one per instance ---
  Schema sn1_out, sn2_out;
  const auto build_sn =
      [&](const Schema& s_schema, const Schema& n_schema,
          const std::string& s_alias, const std::string& n_alias,
          const std::vector<std::shared_ptr<ExchangeChannel>>& chans,
          Schema* out) -> Status {
    PlanBuilder& pb = a->site(0).NewFragment();
    PUSHSIP_ASSIGN_OR_RETURN(const NodeId s,
                             pb.ScanShard("supplier", s_schema,
                                          a->ShardScan()));
    PUSHSIP_ASSIGN_OR_RETURN(const NodeId n,
                             pb.ScanShard("nation", n_schema,
                                          a->ShardScan()));
    PUSHSIP_ASSIGN_OR_RETURN(ExprPtr name_col,
                             pb.ColRef(n, n_alias + ".n_name"));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId nf,
        pb.Filter(n, Cmp(CmpOp::kEq, std::move(name_col),
                         LitString("FRANCE")),
                  1.0 / 25));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId j,
        pb.Join(s, nf, {{s_alias + ".s_nationkey", n_alias + ".n_nationkey"}}));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId proj,
        pb.Project(j, {s_alias + ".s_suppkey", s_alias + ".s_name",
                       s_alias + ".s_acctbal", s_alias + ".s_address",
                       s_alias + ".s_phone", s_alias + ".s_comment"}));
    *out = pb.schema(proj);
    auto sender = std::make_unique<ExchangeSender>(
        &a->site(0).context(), "xsend_" + s_alias, *out,
        ExchangeMode::kBroadcast, std::vector<int>{}, a->FanOut(0, chans));
    return pb.FinishWith(proj, std::move(sender));
  };
  PUSHSIP_RETURN_NOT_OK(
      build_sn(s1_schema, n1_schema, "s1", "n1", ch_sn1, &sn1_out));
  PUSHSIP_RETURN_NOT_OK(
      build_sn(s2_schema, n2_schema, "s2", "n2", ch_sn2, &sn2_out));

  // --- partsupp map fragments (every site): hash shuffle by partkey,
  // migratable recipes as in Q17 ---
  Schema ps1_out, ps2_out;
  for (int i = 0; i < N; ++i) {
    PUSHSIP_ASSIGN_OR_RETURN(TablePtr shard,
                             a->site(i).catalog()->GetTable("partsupp"));
    const auto build_ps =
        [&](const Schema& schema, const std::string& alias,
            const std::vector<std::shared_ptr<ExchangeChannel>>& chans,
            Schema* out) -> Status {
      MapFragmentDesc d;
      d.shard = shard;
      d.scan_schema = schema;
      d.scan_options = a->PacedScan();
      d.project_cols = {alias + ".ps_partkey", alias + ".ps_suppkey",
                        alias + ".ps_supplycost"};
      d.sender_name = "xsend_" + alias;
      d.mode = ExchangeMode::kHashPartition;
      d.hash_col = alias + ".ps_partkey";
      d.channels = chans;
      d.q = a->q;
      PUSHSIP_ASSIGN_OR_RETURN(*out,
                               AddMigratableMapFragment(a, std::move(d), i));
      return Status::OK();
    };
    PUSHSIP_RETURN_NOT_OK(build_ps(ps1_schema, "ps1", ch_ps1, &ps1_out));
    PUSHSIP_RETURN_NOT_OK(build_ps(ps2_schema, "ps2", ch_ps2, &ps2_out));
  }

  // --- compute fragments (every site) ---
  Schema result_schema;
  for (int i = 0; i < N; ++i) {
    PlanBuilder& pb = a->site(i).NewFragment();
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId rp,
        a->Receiver(pb, "xrecv_part", part_out,
                    ch_part[static_cast<size_t>(i)], part_rows * part_sel,
                    {{AttrOf(part_out, "p.p_partkey"),
                      part_rows * part_sel}},
                    a->ShipToAllSites(i)));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId rps1,
        a->Receiver(pb, "xrecv_ps1", ps1_out, ch_ps1[static_cast<size_t>(i)],
                    ps_rows / N,
                    {{AttrOf(ps1_out, "ps1.ps_partkey"), part_rows / N}},
                    a->ShipToAllSites(i), /*partitioned=*/true));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId rps2,
        a->Receiver(pb, "xrecv_ps2", ps2_out, ch_ps2[static_cast<size_t>(i)],
                    ps_rows / N,
                    {{AttrOf(ps2_out, "ps2.ps_partkey"), part_rows / N}},
                    a->ShipToAllSites(i), /*partitioned=*/true));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId rsn1,
        a->Receiver(pb, "xrecv_sn1", sn1_out, ch_sn1[static_cast<size_t>(i)],
                    s_rows / 25,
                    {{AttrOf(sn1_out, "s1.s_suppkey"), s_rows / 25}},
                    nullptr));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId rsn2,
        a->Receiver(pb, "xrecv_sn2", sn2_out, ch_sn2[static_cast<size_t>(i)],
                    s_rows / 25,
                    {{AttrOf(sn2_out, "s2.s_suppkey"), s_rows / 25}},
                    nullptr));

    // Outer block: eligible (part, partsupp, supplier) triples.
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId j1,
        pb.Join(rp, rps1, {{"p.p_partkey", "ps1.ps_partkey"}}));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId outer,
        pb.Join(j1, rsn1, {{"ps1.ps_suppkey", "s1.s_suppkey"}}));

    // Child block: per-part minimum supply cost among FRANCE suppliers.
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId j4,
        pb.Join(rps2, rsn2, {{"ps2.ps_suppkey", "s2.s_suppkey"}}));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId agg,
        pb.Aggregate(j4, {"ps2.ps_partkey"},
                     {{AggFunc::kMin, "ps2.ps_supplycost", "min_sc"}}));

    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId top,
        pb.Join(outer, agg,
                {{"p.p_partkey", "ps2.ps_partkey"},
                 {"ps1.ps_supplycost", "min_sc"}}));
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId proj,
        pb.Project(top, {"s1.s_name", "s1.s_acctbal", "s1.s_address",
                         "s1.s_phone", "s1.s_comment"}));
    result_schema = pb.schema(proj);
    auto sender = std::make_unique<ExchangeSender>(
        &a->site(i).context(), "xsend_result", result_schema,
        ExchangeMode::kForward, std::vector<int>{},
        std::vector<ExchangeDestination>{{ch_final, a->link(i, 0)}});
    PUSHSIP_RETURN_NOT_OK(pb.FinishWith(proj, std::move(sender)));
    PUSHSIP_RETURN_NOT_OK(a->InstallAipOnLastFragment(i));
  }

  // --- final fragment (site 0): union of the per-site rows ---
  {
    PlanBuilder& pb = a->site(0).NewFragment();
    PUSHSIP_ASSIGN_OR_RETURN(
        const NodeId recv,
        a->Receiver(pb, "xrecv_result", result_schema, ch_final,
                    part_rows * part_sel, {}, nullptr));
    PUSHSIP_RETURN_NOT_OK(pb.Finish(recv));
    a->q->root_sink = pb.sink();
  }
  return Status::OK();
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

  const std::string shard_table =
      query == ScaleOutQuery::kQ17 ? "lineitem" : "partsupp";
  auto catalogs =
      PartitionCatalog(*full_catalog, {shard_table}, options.num_sites);

  auto q = std::make_unique<DistributedQuery>();
  if (options.shared_mesh != nullptr) {
    if (options.shared_mesh->num_sites() < options.num_sites) {
      return Status::InvalidArgument("shared mesh spans too few sites");
    }
    q->mesh = options.shared_mesh;
    q->mesh_shared = true;
  } else {
    q->mesh = std::make_shared<SiteMesh>(options.num_sites,
                                         options.bandwidth_bps,
                                         options.latency_ms);
  }
  if (options.fault_injector != nullptr) {
    q->mesh->InstallFaultInjector(options.fault_injector);
    q->fault_injector = options.fault_injector;
  }
  q->max_fragment_restarts = options.max_fragment_restarts;
  for (int s = 0; s < options.num_sites; ++s) {
    q->sites.push_back(std::make_unique<SiteEngine>(
        s, "site" + std::to_string(s), catalogs[static_cast<size_t>(s)]));
    q->sites.back()->context().set_batch_size(options.batch_size);
    q->sites.back()->context().set_exchange_idle_timeout_sec(
        options.exchange_idle_timeout_sec);
  }

  Assembly a;
  a.q = q.get();
  a.opts = &options;
  a.sites = options.num_sites;
  if (query == ScaleOutQuery::kQ17) {
    PUSHSIP_RETURN_NOT_OK(BuildQ17(&a, *full_catalog));
  } else {
    PUSHSIP_RETURN_NOT_OK(BuildSubquery(&a, *full_catalog));
  }
  return q;
}

}  // namespace pushsip

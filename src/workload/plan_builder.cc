#include "workload/plan_builder.h"

namespace pushsip {

Schema MakeInstanceSchema(const Table& table, const std::string& alias,
                          int instance, const std::vector<std::string>& cols) {
  const Schema& base = table.schema();
  const auto instance_field = [&](size_t c) {
    std::string short_name = base.field(c).name;
    const size_t dot = short_name.find('.');
    if (dot != std::string::npos) short_name = short_name.substr(dot + 1);
    return Field{alias + "." + short_name, base.field(c).type,
                 static_cast<AttrId>(instance * 100 + static_cast<int>(c))};
  };
  Schema schema;
  if (cols.empty()) {
    for (size_t c = 0; c < base.num_fields(); ++c) {
      schema.AddField(instance_field(c));
    }
    return schema;
  }
  for (const std::string& name : cols) {
    const Result<int> c = base.IndexOf(name);
    // A name that matches no column stays in the schema untyped, so the
    // scan built from it fails (PlanBuilder::ScanTable) instead of
    // silently reading fewer columns.
    schema.AddField(c.ok() ? instance_field(static_cast<size_t>(*c))
                           : Field{alias + "." + name, TypeId::kNull,
                                   kInvalidAttr});
  }
  return schema;
}

PlanBuilder::PlanBuilder(ExecContext* ctx, std::shared_ptr<Catalog> catalog)
    : ctx_(ctx), catalog_(std::move(catalog)) {}

PlanBuilder::~PlanBuilder() = default;

Result<PlanBuilder::NodeRec*> PlanBuilder::GetNode(NodeId id) {
  if (id < 0 || id >= static_cast<NodeId>(nodes_.size())) {
    return Status::InvalidArgument("bad plan node id " + std::to_string(id));
  }
  return &nodes_[static_cast<size_t>(id)];
}

PlanBuilder::NodeId PlanBuilder::Register(std::unique_ptr<Operator> op,
                                          std::unique_ptr<PlanNode> pnode,
                                          NodeRec rec) {
  pnode->op = op.get();
  rec.op = op.get();
  rec.pnode = plan_.AddNode(std::move(pnode));
  operators_.push_back(std::move(op));
  nodes_.push_back(std::move(rec));
  return static_cast<NodeId>(nodes_.size() - 1);
}

const Schema& PlanBuilder::schema(NodeId node) const {
  return nodes_[static_cast<size_t>(node)].op->output_schema();
}

double PlanBuilder::estimated_rows(NodeId node) const {
  return nodes_[static_cast<size_t>(node)].pnode->est_rows;
}

const std::unordered_map<AttrId, double>& PlanBuilder::estimated_ndv(
    NodeId node) const {
  return nodes_[static_cast<size_t>(node)].pnode->ndv;
}

Result<ExprPtr> PlanBuilder::ColRef(NodeId node, const std::string& name)
    const {
  return ColNamed(schema(node), name);
}

Result<PlanBuilder::NodeId> PlanBuilder::Scan(const std::string& table_name,
                                              const std::string& alias,
                                              ScanOptions options,
                                              bool remote) {
  PUSHSIP_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(table_name));
  if (options.delay_every_rows == 0 && pace_every_rows_ > 0) {
    options.delay_every_rows = pace_every_rows_;
    // Slightly stagger per-instance rates (as distinct remote sources would
    // have) so equal-sized inputs don't finish in a coin-flip order.
    options.delay_ms = pace_ms_ * (1.0 + 0.3 * next_instance_);
  }
  // Build the instance schema: rename "table.col" -> "alias.col" and assign
  // fresh per-instance attribute ids.
  Schema schema = MakeInstanceSchema(*table, alias, next_instance_++);
  return ScanTable(std::move(table), std::move(schema), std::move(options),
                   remote);
}

Result<PlanBuilder::NodeId> PlanBuilder::ScanShard(
    const std::string& table_name, Schema instance_schema, ScanOptions options,
    bool remote) {
  PUSHSIP_ASSIGN_OR_RETURN(TablePtr table, catalog_->GetTable(table_name));
  return ScanTable(std::move(table), std::move(instance_schema),
                   std::move(options), remote);
}

Result<PlanBuilder::NodeId> PlanBuilder::ScanTable(TablePtr table,
                                                   Schema instance_schema,
                                                   ScanOptions options,
                                                   bool remote) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  // The scan is named after the instance alias, its fields' prefix.
  std::string alias = table->name();
  if (instance_schema.num_fields() > 0) {
    const std::string& name = instance_schema.field(0).name;
    const size_t dot = name.find('.');
    if (dot != std::string::npos) alias = name.substr(0, dot);
  }
  auto scan = std::make_unique<TableScan>(ctx_, "scan_" + alias, table,
                                          std::move(instance_schema),
                                          std::move(options));
  PUSHSIP_RETURN_NOT_OK(scan->bind_status());
  TableScan* raw = scan.get();
  scans_.push_back(raw);
  sources_.push_back(raw);

  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kScan;
  pnode->table = table;
  pnode->table_cols = raw->table_columns();
  NodeRec rec;
  rec.scan = raw;
  rec.remote = remote;
  rec.scan_link = raw->options().link;
  return Register(std::move(scan), std::move(pnode), std::move(rec));
}

PlanNode* PlanBuilder::plan_node(NodeId node) const {
  if (node < 0 || node >= static_cast<NodeId>(nodes_.size())) return nullptr;
  return nodes_[static_cast<size_t>(node)].pnode;
}

Result<PlanBuilder::NodeId> PlanBuilder::Source(
    std::unique_ptr<SourceOperator> op, double est_rows,
    std::unordered_map<AttrId, double> ndv, RemoteFilterShipFn remote_ship,
    bool partitioned_stream) {
  if (op == nullptr) return Status::InvalidArgument("null source operator");
  if (op->context() != ctx_) {
    return Status::InvalidArgument("source built on a different ExecContext");
  }
  SourceOperator* raw = op.get();
  sources_.push_back(raw);
  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kExchange;
  pnode->exchange_est_rows = est_rows;
  pnode->exchange_ndv = std::move(ndv);
  NodeRec rec;
  rec.remote_ship = std::move(remote_ship);
  rec.partitioned = partitioned_stream;
  return Register(std::move(op), std::move(pnode), std::move(rec));
}

Result<PlanBuilder::NodeId> PlanBuilder::Filter(NodeId input,
                                                ExprPtr predicate,
                                                double selectivity) {
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* in, GetNode(input));
  auto op = std::make_unique<FilterOp>(
      ctx_, "filter", in->op->output_schema(), std::move(predicate));
  in->op->SetOutput(op.get(), 0);
  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kFilter;
  pnode->selectivity = selectivity;
  pnode->children = {in->pnode};
  // Filters pass scans through for the "direct scan" bookkeeping: a filter
  // over a scan still lets AIP prefilter at the scan (schemas match).
  NodeRec rec;
  rec.scan = in->scan;
  rec.remote = in->remote;
  rec.scan_link = in->scan_link;
  rec.remote_ship = in->remote_ship;
  rec.partitioned = in->partitioned;
  return Register(std::move(op), std::move(pnode), std::move(rec));
}

Result<PlanBuilder::NodeId> PlanBuilder::Project(
    NodeId input, const std::vector<std::string>& cols) {
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* in, GetNode(input));
  const Schema& in_schema = in->op->output_schema();
  Schema out_schema;
  std::vector<ExprPtr> exprs;
  for (const std::string& name : cols) {
    PUSHSIP_ASSIGN_OR_RETURN(const int idx, in_schema.IndexOf(name));
    const Field& f = in_schema.field(static_cast<size_t>(idx));
    out_schema.AddField(f);
    exprs.push_back(Col(idx, f.type, f.name));
  }
  auto op = std::make_unique<ProjectOp>(ctx_, "project", out_schema,
                                        std::move(exprs));
  in->op->SetOutput(op.get(), 0);
  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kProject;
  pnode->children = {in->pnode};
  NodeRec rec;
  rec.partitioned = in->partitioned;
  return Register(std::move(op), std::move(pnode), std::move(rec));
}

Result<PlanBuilder::NodeId> PlanBuilder::ProjectExprs(
    NodeId input, std::vector<Field> out_fields, std::vector<ExprPtr> exprs) {
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* in, GetNode(input));
  if (out_fields.size() != exprs.size()) {
    return Status::InvalidArgument("field/expr arity mismatch");
  }
  auto op = std::make_unique<ProjectOp>(ctx_, "project",
                                        Schema(std::move(out_fields)),
                                        std::move(exprs));
  in->op->SetOutput(op.get(), 0);
  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kProject;
  pnode->children = {in->pnode};
  NodeRec rec;
  rec.partitioned = in->partitioned;
  return Register(std::move(op), std::move(pnode), std::move(rec));
}

void PlanBuilder::AddStatefulPort(Operator* op, int port,
                                  const NodeRec& child) {
  StatefulPort sp;
  sp.op = op;
  sp.port = port;
  sp.schema = child.op->output_schema();
  sp.direct_scan = child.scan;
  sp.scan_is_remote = child.remote;
  sp.scan_link = child.scan_link;
  sp.remote_ship = child.remote_ship;
  sp.state_is_partitioned = child.partitioned;
  sip_info_.stateful_ports.push_back(std::move(sp));
}

Result<PlanBuilder::NodeId> PlanBuilder::Join(
    NodeId left, NodeId right,
    const std::vector<std::pair<std::string, std::string>>& eq_cols,
    ExprPtr residual, double residual_sel) {
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* l, GetNode(left));
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* r, GetNode(right));
  const Schema& ls = l->op->output_schema();
  const Schema& rs = r->op->output_schema();

  std::vector<int> lkeys, rkeys;
  std::vector<std::pair<AttrId, AttrId>> join_attrs;
  for (const auto& [lname, rname] : eq_cols) {
    PUSHSIP_ASSIGN_OR_RETURN(const int li, ls.IndexOf(lname));
    PUSHSIP_ASSIGN_OR_RETURN(const int ri, rs.IndexOf(rname));
    lkeys.push_back(li);
    rkeys.push_back(ri);
    const AttrId la = ls.field(static_cast<size_t>(li)).attr;
    const AttrId ra = rs.field(static_cast<size_t>(ri)).attr;
    if (la != kInvalidAttr && ra != kInvalidAttr) {
      // Conjunctive top-level equality: feeds the source-predicate graph.
      sip_info_.equalities.emplace_back(la, ra);
      join_attrs.emplace_back(la, ra);
    }
  }
  if (lkeys.empty()) {
    return Status::InvalidArgument("join requires at least one key pair");
  }

  auto op = std::make_unique<SymmetricHashJoin>(
      ctx_, "join", ls, rs, lkeys, rkeys, std::move(residual));
  l->op->SetOutput(op.get(), 0);
  r->op->SetOutput(op.get(), 1);
  AddStatefulPort(op.get(), 0, *l);
  AddStatefulPort(op.get(), 1, *r);

  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kJoin;
  pnode->join_attrs = std::move(join_attrs);
  pnode->selectivity = residual_sel;
  pnode->children = {l->pnode, r->pnode};
  NodeRec rec;
  rec.partitioned = l->partitioned || r->partitioned;
  return Register(std::move(op), std::move(pnode), std::move(rec));
}

Result<PlanBuilder::NodeId> PlanBuilder::Aggregate(
    NodeId input, const std::vector<std::string>& group_cols,
    const std::vector<AggDesc>& aggs) {
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* in, GetNode(input));
  const Schema& in_schema = in->op->output_schema();

  std::vector<int> group_idx;
  std::vector<AttrId> group_attrs;
  for (const std::string& name : group_cols) {
    PUSHSIP_ASSIGN_OR_RETURN(const int idx, in_schema.IndexOf(name));
    group_idx.push_back(idx);
    const AttrId a = in_schema.field(static_cast<size_t>(idx)).attr;
    if (a != kInvalidAttr) group_attrs.push_back(a);
  }
  std::vector<AggSpec> specs;
  for (const AggDesc& d : aggs) {
    AggSpec spec;
    spec.func = d.func;
    spec.out_name = d.out_name;
    spec.out_attr = kInvalidAttr;
    if (!d.input_col.empty()) {
      PUSHSIP_ASSIGN_OR_RETURN(spec.input, ColNamed(in_schema, d.input_col));
    }
    specs.push_back(std::move(spec));
  }

  auto op = std::make_unique<HashAggregate>(ctx_, "agg", in_schema, group_idx,
                                            std::move(specs));
  in->op->SetOutput(op.get(), 0);
  AddStatefulPort(op.get(), 0, *in);

  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kAggregate;
  pnode->group_attrs = std::move(group_attrs);
  pnode->children = {in->pnode};
  NodeRec rec;
  rec.partitioned = in->partitioned;
  return Register(std::move(op), std::move(pnode), std::move(rec));
}

Result<PlanBuilder::NodeId> PlanBuilder::Distinct(NodeId input) {
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* in, GetNode(input));
  auto op = std::make_unique<DistinctOp>(ctx_, "distinct",
                                         in->op->output_schema());
  in->op->SetOutput(op.get(), 0);
  AddStatefulPort(op.get(), 0, *in);
  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kDistinct;
  pnode->children = {in->pnode};
  NodeRec rec;
  rec.partitioned = in->partitioned;
  return Register(std::move(op), std::move(pnode), std::move(rec));
}

Result<PlanBuilder::NodeId> PlanBuilder::MagicBuild(
    NodeId input, const std::vector<std::string>& key_cols,
    std::shared_ptr<MagicSetState> state) {
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* in, GetNode(input));
  const Schema& in_schema = in->op->output_schema();
  std::vector<int> keys;
  for (const std::string& name : key_cols) {
    PUSHSIP_ASSIGN_OR_RETURN(const int idx, in_schema.IndexOf(name));
    keys.push_back(idx);
  }
  auto op = std::make_unique<MagicSetBuilder>(ctx_, "magic_build", in_schema,
                                              keys, std::move(state));
  in->op->SetOutput(op.get(), 0);
  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kMagicBuilder;
  pnode->children = {in->pnode};
  NodeRec rec;
  rec.scan = in->scan;
  rec.remote = in->remote;
  rec.scan_link = in->scan_link;
  rec.remote_ship = in->remote_ship;
  rec.partitioned = in->partitioned;
  return Register(std::move(op), std::move(pnode), std::move(rec));
}

Result<PlanBuilder::NodeId> PlanBuilder::MagicGateOn(
    NodeId input, const std::vector<std::string>& key_cols,
    std::shared_ptr<MagicSetState> state, double selectivity) {
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* in, GetNode(input));
  const Schema& in_schema = in->op->output_schema();
  std::vector<int> keys;
  for (const std::string& name : key_cols) {
    PUSHSIP_ASSIGN_OR_RETURN(const int idx, in_schema.IndexOf(name));
    keys.push_back(idx);
  }
  auto op = std::make_unique<MagicGate>(ctx_, "magic_gate", in_schema, keys,
                                        std::move(state));
  in->op->SetOutput(op.get(), 0);
  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kMagicGate;
  pnode->selectivity = selectivity;
  pnode->children = {in->pnode};
  NodeRec rec;
  rec.partitioned = in->partitioned;
  return Register(std::move(op), std::move(pnode), std::move(rec));
}

Status PlanBuilder::Finish(NodeId root) {
  if (finished_) return Status::Internal("plan already finished");
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* r, GetNode(root));
  auto op = std::make_unique<Sink>(ctx_, "sink", r->op->output_schema());
  sink_ = op.get();
  return Finalize(root, std::move(op));
}

Status PlanBuilder::FinishWith(NodeId root,
                               std::unique_ptr<Operator> terminal) {
  if (finished_) return Status::Internal("plan already finished");
  if (terminal == nullptr) return Status::InvalidArgument("null terminal");
  if (terminal->num_inputs() != 1) {
    return Status::InvalidArgument("fragment terminal must take one input");
  }
  return Finalize(root, std::move(terminal));
}

Status PlanBuilder::Finalize(NodeId root, std::unique_ptr<Operator> op) {
  if (finished_) return Status::Internal("plan already finished");
  PUSHSIP_ASSIGN_OR_RETURN(NodeRec* r, GetNode(root));
  terminal_ = op.get();
  r->op->SetOutput(op.get(), 0);
  auto pnode = std::make_unique<PlanNode>();
  pnode->kind = PlanNode::Kind::kSink;
  pnode->children = {r->pnode};
  const NodeId sink_id = Register(std::move(op), std::move(pnode),
                                  NodeRec{});
  plan_.SetRoot(nodes_[static_cast<size_t>(sink_id)].pnode);
  plan_.Estimate();

  // Finalize SipPlanInfo: depths and graph.
  for (StatefulPort& sp : sip_info_.stateful_ports) {
    const PlanNode* input = plan_.InputNode(sp.op, sp.port);
    sp.depth = input != nullptr && input->parent != nullptr
                   ? input->parent->depth
                   : 0;
  }
  for (const auto& [a, b] : sip_info_.equalities) {
    sip_info_.graph.AddEquality(a, b);
  }
  sip_info_.plan = &plan_;
  finished_ = true;
  return Status::OK();
}

Result<QueryStats> PlanBuilder::Run() {
  if (!finished_) return Status::Internal("call Finish() before Run()");
  if (sink_ == nullptr) {
    return Status::Internal("fragment has no Sink; use the multi-site driver");
  }
  Driver driver(ctx_, sources_, sink_);
  return driver.Run();
}

}  // namespace pushsip

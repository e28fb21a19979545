#include "optimizer/cardinality.h"

#include <algorithm>

namespace pushsip {

namespace {

// NDVs cannot exceed the row count; rows cannot be negative.
void ClampNode(PlanNode* n) {
  n->est_rows = std::max(0.0, n->est_rows);
  for (auto& [attr, d] : n->ndv) {
    d = std::max(1.0, std::min(d, std::max(1.0, n->est_rows)));
  }
}

// Copies a child's NDV entries for every attribute still present in the
// output schema.
void InheritNdv(PlanNode* n, const PlanNode* child) {
  for (const auto& [attr, d] : child->ndv) {
    if (n->schema().HasAttr(attr)) n->ndv[attr] = d;
  }
}

}  // namespace

double SemijoinSelectivity(double set_keys, double node_ndv) {
  if (node_ndv <= 0) return 1.0;
  return std::min(1.0, set_keys / node_ndv);
}

void FeedObservedExchangeRows(PlanNode* node, double observed_rows) {
  if (node == nullptr || node->kind != PlanNode::Kind::kExchange) return;
  node->exchange_est_rows.store(std::max(0.0, observed_rows),
                                std::memory_order_relaxed);
}

void EstimateCardinality(PlanNode* n) {
  n->ndv.clear();
  switch (n->kind) {
    case PlanNode::Kind::kScan: {
      n->est_rows = static_cast<double>(n->table->num_rows());
      const Schema& schema = n->schema();
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        const AttrId attr = schema.field(c).attr;
        if (attr == kInvalidAttr) continue;
        const size_t col = static_cast<size_t>(n->table_cols[c]);
        const double d =
            n->table->has_stats()
                ? static_cast<double>(
                      n->table->column_stats(col).distinct_count)
                : n->est_rows;
        n->ndv[attr] = d;
      }
      break;
    }
    case PlanNode::Kind::kFilter: {
      const PlanNode* child = n->children[0];
      n->est_rows = child->est_rows * n->selectivity;
      InheritNdv(n, child);
      break;
    }
    case PlanNode::Kind::kProject:
    case PlanNode::Kind::kMagicBuilder: {
      const PlanNode* child = n->children[0];
      n->est_rows = child->est_rows;
      InheritNdv(n, child);
      break;
    }
    case PlanNode::Kind::kMagicGate: {
      // A magic gate semijoins against the (unknown-at-plan-time) filter
      // set; use the selectivity hint supplied by the rewriter.
      const PlanNode* child = n->children[0];
      n->est_rows = child->est_rows * n->selectivity;
      InheritNdv(n, child);
      break;
    }
    case PlanNode::Kind::kJoin: {
      const PlanNode* l = n->children[0];
      const PlanNode* r = n->children[1];
      double rows = l->est_rows * r->est_rows;
      for (const auto& [la, ra] : n->join_attrs) {
        const double dl = l->ndv.count(la) ? l->ndv.at(la) : l->est_rows;
        const double dr = r->ndv.count(ra) ? r->ndv.at(ra) : r->est_rows;
        rows /= std::max(1.0, std::max(dl, dr));
      }
      rows *= n->selectivity;  // residual predicate, if any
      n->est_rows = rows;
      InheritNdv(n, l);
      InheritNdv(n, r);
      // Join keys: surviving distinct values bounded by both sides.
      for (const auto& [la, ra] : n->join_attrs) {
        const double dl = l->ndv.count(la) ? l->ndv.at(la) : l->est_rows;
        const double dr = r->ndv.count(ra) ? r->ndv.at(ra) : r->est_rows;
        const double d = std::min(dl, dr);
        if (n->schema().HasAttr(la)) n->ndv[la] = d;
        if (n->schema().HasAttr(ra)) n->ndv[ra] = d;
      }
      break;
    }
    case PlanNode::Kind::kAggregate: {
      const PlanNode* child = n->children[0];
      double groups = 1;
      for (const AttrId a : n->group_attrs) {
        groups *= child->ndv.count(a) ? child->ndv.at(a) : child->est_rows;
      }
      n->est_rows = std::min(child->est_rows, std::max(1.0, groups));
      InheritNdv(n, child);
      for (const AttrId a : n->group_attrs) {
        if (n->schema().HasAttr(a)) {
          n->ndv[a] = child->ndv.count(a) ? child->ndv.at(a) : n->est_rows;
        }
      }
      break;
    }
    case PlanNode::Kind::kDistinct: {
      const PlanNode* child = n->children[0];
      double combos = 1;
      bool any = false;
      for (const auto& [attr, d] : child->ndv) {
        if (n->schema().HasAttr(attr)) {
          combos *= d;
          any = true;
        }
      }
      n->est_rows = any ? std::min(child->est_rows, combos) : child->est_rows;
      InheritNdv(n, child);
      break;
    }
    case PlanNode::Kind::kSink: {
      const PlanNode* child = n->children[0];
      n->est_rows = child->est_rows;
      InheritNdv(n, child);
      break;
    }
    case PlanNode::Kind::kExchange: {
      n->est_rows = n->exchange_est_rows.load(std::memory_order_relaxed);
      for (const auto& [attr, d] : n->exchange_ndv) {
        if (n->schema().HasAttr(attr)) n->ndv[attr] = d;
      }
      break;
    }
  }
  ClampNode(n);
}

}  // namespace pushsip

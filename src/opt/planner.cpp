#include "opt/planner.hpp"

#include "opt/fingerprint.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "exec/exec_agg.hpp"
#include "exec/exec_basic.hpp"
#include "exec/exec_join.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "opt/cost.hpp"
#include "util/status.hpp"

namespace quotient {

namespace {

/// Detects a conjunction of cross-side column equalities; fills the key
/// column names when eligible.
bool IsEquiJoinCondition(const ExprPtr& condition, const Schema& left, const Schema& right,
                         std::vector<std::string>* left_keys,
                         std::vector<std::string>* right_keys) {
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(condition, &conjuncts);
  for (const ExprPtr& conjunct : conjuncts) {
    if (conjunct->kind() != Expr::Kind::kCompare || conjunct->cmp_op() != CmpOp::kEq) {
      return false;
    }
    const ExprPtr& l = conjunct->left();
    const ExprPtr& r = conjunct->right();
    if (l->kind() != Expr::Kind::kColumn || r->kind() != Expr::Kind::kColumn) return false;
    const std::string& lc = l->column_name();
    const std::string& rc = r->column_name();
    if (left.Contains(lc) && right.Contains(rc)) {
      left_keys->push_back(lc);
      right_keys->push_back(rc);
    } else if (left.Contains(rc) && right.Contains(lc)) {
      left_keys->push_back(rc);
      right_keys->push_back(lc);
    } else {
      return false;
    }
  }
  return !left_keys->empty();
}

/// Healy's expansion of r1 ÷ r2 as a logical plan over the original
/// subplans: πA(r1) − πA((πA(r1) × r2) − r1).
PlanPtr HealyExpansion(const PlanPtr& dividend, const PlanPtr& divisor) {
  DivisionAttributes attrs =
      DivisionAttributeSets(dividend->schema(), divisor->schema(), /*allow_c=*/false);
  PlanPtr pa = LogicalOp::Project(dividend, attrs.a);
  PlanPtr spoilers = LogicalOp::Project(
      LogicalOp::Difference(LogicalOp::Product(pa, divisor), dividend), attrs.a);
  return LogicalOp::Difference(pa, spoilers);
}

// Plan-fragment fingerprints (FingerprintPlan / VersionedFingerprint) live
// in opt/fingerprint.{hpp,cpp}, shared between the artifact recycler's
// cache keys and the rewrite memo's subtree deduplication.

/// Composes the divisions' RecycleSpec: build_key addresses the divisor-side
/// artifact, probe_key the full probe state that additionally captures the
/// dividend drain. The physical algorithm is deliberately absent from both
/// keys — every division algorithm runs over the same encoded state — and so
/// is the thread count (chunk-ordered merges make build state bit-identical
/// at every thread count, docs/parallel_execution.md). The tag
/// ("div"/"gd") selects the artifact type the adopting iterator casts to, so
/// it must differ wherever the concrete artifact struct differs.
RecycleSpec DivideRecycleSpec(const std::string& tag, const LogicalOp& op,
                              const Catalog& catalog, const PlannerOptions& options) {
  RecycleSpec spec;
  if (options.recycler == nullptr) return spec;
  std::string divisor_fp = VersionedFingerprint(op.child(1), catalog, &spec.tables);
  if (divisor_fp.empty()) return spec;
  spec.recycler = options.recycler;
  spec.build_key = tag + ".build|" + divisor_fp;
  std::string dividend_fp = VersionedFingerprint(op.child(0), catalog, &spec.tables);
  if (!dividend_fp.empty()) {
    spec.probe_key = tag + ".probe|" + dividend_fp + "|" + divisor_fp;
  }
  return spec;
}

/// Composes a build-side-only RecycleSpec (joins, grouping). `context`
/// captures everything outside the build subtree that shapes the artifact:
/// the probe-side schema names for natural/semi joins (they pick the key
/// columns and bucket projections) and the key columns for equi joins.
RecycleSpec BuildSideRecycleSpec(const std::string& tag, const PlanPtr& build_side,
                                 const std::string& context, const Catalog& catalog,
                                 const PlannerOptions& options) {
  RecycleSpec spec;
  if (options.recycler == nullptr) return spec;
  std::string fp = VersionedFingerprint(build_side, catalog, &spec.tables);
  if (fp.empty()) return spec;
  spec.recycler = options.recycler;
  spec.build_key = tag + "|" + context + "|" + fp;
  return spec;
}

std::string SchemaNamesContext(const Schema& schema) {
  std::string context;
  FingerprintNames(schema.Names(), &context);
  return context;
}

/// Common-subexpression materialization: rewrite rules deliberately share
/// subplans by pointer (e.g. Laws 11/12 reuse the grouped dividend in the
/// guard and in the result), so any node referenced more than once in the
/// plan DAG is evaluated once and served from a cached relation.
struct BuildContext {
  std::unordered_map<const LogicalOp*, int> use_counts;
  std::unordered_map<const LogicalOp*, std::shared_ptr<const Relation>> materialized;
  /// Feeds per-node cost hints (Iterator::cost_rows_hint) for the
  /// executor's per-pipeline costed choices; never null inside a build.
  const StatsCache* stats = nullptr;
};

void CountUses(const PlanPtr& plan, std::unordered_map<const LogicalOp*, int>* counts) {
  (*counts)[plan.get()] += 1;
  if ((*counts)[plan.get()] > 1) return;  // children already counted once
  for (const PlanPtr& child : plan->children()) CountUses(child, counts);
}

IterPtr Build(const PlanPtr& plan, const Catalog& catalog, const PlannerOptions& options,
              BuildContext* context);

IterPtr BuildShared(const PlanPtr& plan, const Catalog& catalog,
                    const PlannerOptions& options, BuildContext* context) {
  bool shared = context != nullptr && context->use_counts[plan.get()] > 1 &&
                plan->kind() != LogicalOp::Kind::kScan &&
                plan->kind() != LogicalOp::Kind::kValues;
  if (shared) {
    auto it = context->materialized.find(plan.get());
    if (it == context->materialized.end()) {
      IterPtr built = Build(plan, catalog, options, context);
      auto relation = std::make_shared<const Relation>(ExecuteToRelation(*built));
      it = context->materialized.emplace(plan.get(), std::move(relation)).first;
    }
    return std::make_unique<RelationScan>(it->second);
  }
  return Build(plan, catalog, options, context);
}

IterPtr BuildNode(const PlanPtr& plan, const Catalog& catalog, const PlannerOptions& options,
                  BuildContext* context) {
  auto child = [&](size_t i) { return BuildShared(plan->child(i), catalog, options, context); };
  (void)child;
  const LogicalOp& op = *plan;
  switch (op.kind()) {
    case LogicalOp::Kind::kScan:
      // Scans read through the catalog's cached per-table dictionary
      // encoding, so repeated queries share encode work across Open()s
      // and morsel workers share one immutable table encoding. The scan
      // holds an OWNING handle to the relation, so a plan built against one
      // catalog snapshot stays valid after DDL publishes a newer one
      // (api/database.hpp).
      return std::make_unique<RelationScan>(catalog.GetShared(op.table()),
                                            catalog.Encoding(op.table()));
    case LogicalOp::Kind::kValues:
      return std::make_unique<RelationScan>(
          std::make_shared<const Relation>(op.values()));
    case LogicalOp::Kind::kSelect:
      return std::make_unique<FilterIterator>(child(0),
                                              op.predicate());
    case LogicalOp::Kind::kProject:
      return std::make_unique<ProjectIterator>(child(0),
                                               op.columns());
    case LogicalOp::Kind::kUnion:
      return std::make_unique<UnionIterator>(child(0),
                                             child(1));
    case LogicalOp::Kind::kIntersect:
      return std::make_unique<IntersectIterator>(child(0),
                                                 child(1));
    case LogicalOp::Kind::kDifference:
      return std::make_unique<DifferenceIterator>(child(0),
                                                  child(1));
    case LogicalOp::Kind::kProduct:
      return std::make_unique<CrossProductIterator>(child(0),
                                                    child(1));
    case LogicalOp::Kind::kThetaJoin: {
      std::vector<std::string> left_keys, right_keys;
      if (IsEquiJoinCondition(op.predicate(), op.child(0)->schema(), op.child(1)->schema(),
                              &left_keys, &right_keys)) {
        std::string key_context = "keys=";
        FingerprintNames(left_keys, &key_context);
        key_context += '/';
        FingerprintNames(right_keys, &key_context);
        auto join = std::make_unique<EquiJoinIterator>(child(0),
                                                       child(1),
                                                       std::move(left_keys),
                                                       std::move(right_keys));
        join->SetRecycle(
            BuildSideRecycleSpec("join.equi", op.child(1), key_context, catalog, options));
        return join;
      }
      return std::make_unique<NestedLoopJoinIterator>(child(0),
                                                      child(1),
                                                      op.predicate());
    }
    case LogicalOp::Kind::kNaturalJoin: {
      auto join = std::make_unique<HashJoinIterator>(child(0),
                                                     child(1));
      join->SetRecycle(BuildSideRecycleSpec("join.natural", op.child(1),
                                            SchemaNamesContext(op.child(0)->schema()),
                                            catalog, options));
      return join;
    }
    case LogicalOp::Kind::kSemiJoin:
    case LogicalOp::Kind::kAntiJoin: {
      // Semi and anti joins share one build key: the membership set is
      // identical, only the probe's keep-test differs.
      auto join = std::make_unique<HashSemiJoinIterator>(
          child(0), child(1), /*anti=*/op.kind() == LogicalOp::Kind::kAntiJoin);
      join->SetRecycle(BuildSideRecycleSpec("join.semi", op.child(1),
                                            SchemaNamesContext(op.child(0)->schema()),
                                            catalog, options));
      return join;
    }
    case LogicalOp::Kind::kDivide: {
      if (options.expand_divide) {
        return Build(HealyExpansion(op.child(0), op.child(1)), catalog, options, context);
      }
      auto div = std::make_unique<DivisionIterator>(child(0),
                                                    child(1),
                                                    options.division);
      div->SetRecycle(DivideRecycleSpec("div", op, catalog, options));
      return div;
    }
    case LogicalOp::Kind::kGreatDivide: {
      DivisionAttributes attrs = op.division_attributes();
      if (attrs.c.empty()) {
        // Lowered to the same small-divide iterator — and the same "div"
        // keys: with identical children the encoded state is identical, so
        // ÷ and a C-free ÷* share artifacts.
        auto div = std::make_unique<DivisionIterator>(child(0),
                                                      child(1),
                                                      options.division);
        div->SetRecycle(DivideRecycleSpec("div", op, catalog, options));
        return div;
      }
      auto gd = std::make_unique<GreatDivideIterator>(child(0),
                                                      child(1),
                                                      options.great_divide);
      gd->SetRecycle(DivideRecycleSpec("gd", op, catalog, options));
      return gd;
    }
    case LogicalOp::Kind::kGroupBy: {
      auto agg = std::make_unique<HashAggregateIterator>(child(0),
                                                         op.group_names(), op.aggs());
      // Fingerprint the GroupBy node itself: the grouping columns and
      // aggregate specs are part of the node's serialization, so no extra
      // context string is needed.
      agg->SetRecycle(BuildSideRecycleSpec("agg", plan, "", catalog, options));
      return agg;
    }
    case LogicalOp::Kind::kRename:
      return std::make_unique<RenameIterator>(child(0),
                                              op.renames());
  }
  throw SchemaError("planner: bad logical operator kind");
}

IterPtr Build(const PlanPtr& plan, const Catalog& catalog, const PlannerOptions& options,
              BuildContext* context) {
  IterPtr built = BuildNode(plan, catalog, options, context);
  // Tag the operator with its cost-model cardinality so the executor's
  // per-pipeline choices (ChoosePipeline, exec/pipeline.hpp) see through
  // filters and divisions instead of trusting structural upper bounds.
  // Harvests stay cheap: a scan's BuildNode above just warmed the catalog's
  // encoding cache, so the stats layer reads dictionary sizes instead of
  // rescanning data (opt/stats.hpp).
  if (context != nullptr && context->stats != nullptr) {
    built->set_cost_rows_hint(EstimatePlan(plan, catalog, *context->stats).cardinality);
  }
  return built;
}

}  // namespace

IterPtr BuildPhysicalPlan(const PlanPtr& plan, const Catalog& catalog,
                          const PlannerOptions& options, const StatsCache* stats) {
  BuildContext context;
  CountUses(plan, &context.use_counts);
  StatsCache transient;
  context.stats = stats != nullptr ? stats : &transient;
  return Build(plan, catalog, options, &context);
}

void FillRunProfile(Iterator* root, const QueryContext* context, ExecProfile* profile) {
  if (root != nullptr) {
    profile->total_rows = TotalRowsProduced(*root);
    profile->max_rows = MaxRowsProduced(*root);
    profile->max_dop = MaxPipelineDop(*root);
    profile->explain = ExplainTree(*root);
    profile->pipelines = DescribePipelines(*root);
  }
  if (context != nullptr) {
    profile->rows_charged_bytes = context->charged_bytes();
    profile->cancelled = context->cancelled();
    profile->fault_site = context->fault_site();
    profile->spill_partitions = context->spill_partitions();
    profile->spill_bytes_written = context->spill_bytes_written();
    profile->recycler_hits = context->recycler_hits();
    profile->recycler_misses = context->recycler_misses();
  }
}

Relation ExecutePlan(const PlanPtr& plan, const Catalog& catalog, const PlannerOptions& options,
                     ExecProfile* profile, QueryContext* context, const StatsCache* stats) {
  ScopedQueryContext scope(context != nullptr ? context : CurrentQueryContext());
  IterPtr root = BuildPhysicalPlan(plan, catalog, options, stats);
  Relation result = ExecuteToRelation(*root);
  if (profile != nullptr) FillRunProfile(root.get(), CurrentQueryContext(), profile);
  return result;
}

}  // namespace quotient

#include "corpus/workload.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "nlq/render.h"

namespace unify::corpus {

namespace {

using nlq::AggFunc;
using nlq::Condition;
using nlq::GroupMetric;
using nlq::QueryAst;
using nlq::SetOpKind;
using nlq::TaskKind;

int64_t AttrOf(const DocAttrs& a, const std::string& attr) {
  if (attr == "views") return a.views;
  if (attr == "score") return a.score;
  if (attr == "answers") return a.answers;
  if (attr == "comments") return a.comments;
  if (attr == "words") return a.words;
  return 0;
}

/// Rounds to 2 significant digits so thresholds read naturally
/// ("over 540 views", not "over 537").
int64_t RoundThreshold(double v) {
  if (v < 10) return std::max<int64_t>(1, std::llround(v));
  double mag = std::pow(10.0, std::floor(std::log10(v)) - 1);
  return static_cast<int64_t>(std::llround(v / mag) * mag);
}

/// Sampling helpers over the corpus vocabulary.
class LiteralSampler {
 public:
  LiteralSampler(const Corpus& corpus, Rng& rng)
      : corpus_(corpus), rng_(rng) {}

  std::string Category() {
    const auto& cats = corpus_.knowledge().categories();
    return cats[rng_.NextUint64(cats.size())];
  }
  std::string Tag() {
    const auto& tags = corpus_.knowledge().tags();
    return tags[rng_.NextUint64(tags.size())];
  }
  std::string Group() {
    const auto& groups = corpus_.knowledge().groups();
    return groups[rng_.NextUint64(groups.size())];
  }
  std::pair<std::string, std::string> TwoCategories() {
    auto a = Category();
    auto b = Category();
    while (b == a) b = Category();
    return {a, b};
  }
  std::pair<std::string, std::string> TwoTags() {
    auto a = Tag();
    auto b = Tag();
    while (b == a) b = Tag();
    return {a, b};
  }
  std::string Attr() {
    const auto& attrs = nlq::KnownAttributes();
    return attrs[rng_.NextUint64(attrs.size())];
  }

  /// A threshold near the chosen quantile of `attr` over the whole corpus.
  int64_t Threshold(const std::string& attr) {
    SampleStats stats;
    for (const auto& d : corpus_.docs()) {
      stats.Add(static_cast<double>(AttrOf(d.attrs, attr)));
    }
    double q = 0.3 + 0.55 * rng_.NextDouble();
    return RoundThreshold(std::max(1.0, stats.Quantile(q)));
  }

 private:
  const Corpus& corpus_;
  Rng& rng_;
};

/// Rejects instantiations whose ground truth is degenerate or unstable
/// (so accuracy measurement is meaningful).
bool GroundTruthStable(const QueryAst& q, const Corpus& corpus,
                       const Answer& gt) {
  const auto& kb = corpus.knowledge();
  std::vector<const Document*> docs;
  for (const auto& d : corpus.docs()) docs.push_back(&d);

  switch (q.task) {
    case TaskKind::kCount:
    case TaskKind::kSetCount:
      return gt.kind == Answer::Kind::kNumber && gt.number >= 5;
    case TaskKind::kAgg: {
      if (gt.kind != Answer::Kind::kNumber) return false;
      // Require enough support.
      QueryAst count = q;
      count.task = TaskKind::kCount;
      Answer c = EvaluateQueryOnDocs(count, docs, kb);
      return c.number >= 8;
    }
    case TaskKind::kTopK: {
      if (gt.kind != Answer::Kind::kList) return false;
      if (static_cast<int>(gt.list.size()) < q.top_k) return false;
      return true;
    }
    case TaskKind::kCompareCount:
    case TaskKind::kCompareAgg: {
      if (gt.kind != Answer::Kind::kText) return false;
      // Margin: the two sides must differ by at least 10%.
      auto value_of = [&](const nlq::DocSet& side) -> double {
        QueryAst s;
        s.entity = q.entity;
        s.docset = side;
        if (q.task == TaskKind::kCompareCount) {
          s.task = TaskKind::kCount;
        } else {
          s.task = TaskKind::kAgg;
          s.agg = q.agg;
          s.attr = q.attr;
          s.percentile = q.percentile;
        }
        Answer a = EvaluateQueryOnDocs(s, docs, kb);
        return a.kind == Answer::Kind::kNumber ? a.number : -1;
      };
      double a = value_of(q.docset);
      double b = value_of(q.docset_b);
      if (a < 0 || b < 0) return false;
      double hi = std::max(a, b);
      double lo = std::min(a, b);
      return hi > 0 && (hi - lo) / hi >= 0.10;
    }
    case TaskKind::kGroupArgBest: {
      if (gt.kind != Answer::Kind::kText) return false;
      // Margin: recompute per-group values and require a clear winner gap.
      std::map<std::string, std::vector<const Document*>> groups;
      std::vector<const Document*> filtered;
      for (const Document* d : docs) {
        bool ok = true;
        for (const auto& c : q.docset.conditions) {
          if (c.kind == Condition::Kind::kNumeric) {
            int64_t v = AttrOf(d->attrs, c.attribute);
            bool m = false;
            switch (c.cmp) {
              case Condition::Cmp::kGt:
                m = v > c.value;
                break;
              case Condition::Cmp::kGe:
                m = v >= c.value;
                break;
              case Condition::Cmp::kLt:
                m = v < c.value;
                break;
              case Condition::Cmp::kLe:
                m = v <= c.value;
                break;
              case Condition::Cmp::kEq:
                m = v == c.value;
                break;
              case Condition::Cmp::kBetween:
                m = v >= c.value && v <= c.value2;
                break;
            }
            if (!m) ok = false;
          } else if (!kb.Matches(c.text, d->attrs)) {
            ok = false;
          }
          if (!ok) break;
        }
        if (ok) filtered.push_back(d);
      }
      for (const Document* d : filtered) groups[d->attrs.category].push_back(d);
      std::vector<double> values;
      for (const auto& [name, members] : groups) {
        double value = -1;
        switch (q.metric.kind) {
          case GroupMetric::Kind::kCount:
            value = static_cast<double>(members.size());
            break;
          case GroupMetric::Kind::kAgg: {
            if (members.empty()) continue;
            SampleStats s;
            for (const Document* d : members)
              s.Add(static_cast<double>(AttrOf(d->attrs, q.metric.attr)));
            switch (q.metric.func) {
              case AggFunc::kSum:
                value = s.sum();
                break;
              case AggFunc::kAvg:
                value = s.Mean();
                break;
              case AggFunc::kMin:
                value = s.Min();
                break;
              case AggFunc::kMax:
                value = s.Max();
                break;
              case AggFunc::kMedian:
                value = s.Median();
                break;
              case AggFunc::kPercentile:
                value = s.Quantile(q.percentile / 100.0);
                break;
            }
            break;
          }
          case GroupMetric::Kind::kRatio: {
            size_t num = 0;
            size_t den = 0;
            for (const Document* d : members) {
              if (q.metric.num.cond && kb.Matches(q.metric.num.cond->text,
                                                  d->attrs))
                ++num;
              if (q.metric.den.cond && kb.Matches(q.metric.den.cond->text,
                                                  d->attrs))
                ++den;
            }
            if (den < 3) continue;  // unstable tiny denominators
            value = static_cast<double>(num) / static_cast<double>(den);
            break;
          }
        }
        if (value >= 0) values.push_back(value);
      }
      if (values.size() < 2) return false;
      std::sort(values.begin(), values.end());
      if (q.best_is_max) {
        double best = values[values.size() - 1];
        double second = values[values.size() - 2];
        return best > 0 && (best - second) / best >= 0.08;
      }
      double best = values[0];
      double second = values[1];
      return second > 0 && (second - best) / second >= 0.08;
    }
    case TaskKind::kRatio: {
      if (gt.kind != Answer::Kind::kNumber) return false;
      QueryAst den = q;
      den.task = TaskKind::kCount;
      den.docset = q.docset_b;
      Answer d = EvaluateQueryOnDocs(den, docs, kb);
      return d.kind == Answer::Kind::kNumber && d.number >= 10;
    }
  }
  return false;
}

/// Builds one instantiation of template `tpl` (0-based). Returns an AST;
/// validation happens in the caller.
QueryAst Instantiate(int tpl, const Corpus& corpus, Rng& rng) {
  LiteralSampler lit(corpus, rng);
  QueryAst q;
  q.entity = corpus.entity();
  const std::string kind = corpus.category_kind();
  switch (tpl) {
    case 0:  // T1: count by category
      q.task = TaskKind::kCount;
      q.docset.conditions = {Condition::Semantic(lit.Category())};
      break;
    case 1: {  // T2: count by category + numeric
      q.task = TaskKind::kCount;
      std::string attr = "views";
      q.docset.conditions = {
          Condition::Semantic(lit.Category()),
          Condition::Numeric(attr, Condition::Cmp::kGt, lit.Threshold(attr))};
      break;
    }
    case 2: {  // T3: count by tag + numeric
      q.task = TaskKind::kCount;
      std::string attr = lit.Attr();
      q.docset.conditions = {
          Condition::Semantic(lit.Tag()),
          Condition::Numeric(attr, Condition::Cmp::kGt, lit.Threshold(attr))};
      break;
    }
    case 3:  // T4: count by group
      q.task = TaskKind::kCount;
      q.docset.conditions = {Condition::Semantic(lit.Group())};
      break;
    case 4:  // T5: avg views by category
      q.task = TaskKind::kAgg;
      q.agg = AggFunc::kAvg;
      q.attr = "views";
      q.docset.conditions = {Condition::Semantic(lit.Category())};
      break;
    case 5:  // T6: sum answers by category
      q.task = TaskKind::kAgg;
      q.agg = AggFunc::kSum;
      q.attr = "answers";
      q.docset.conditions = {Condition::Semantic(lit.Category())};
      break;
    case 6:  // T7: max views by tag
      q.task = TaskKind::kAgg;
      q.agg = AggFunc::kMax;
      q.attr = "views";
      q.docset.conditions = {Condition::Semantic(lit.Tag())};
      break;
    case 7:  // T8: median score by category
      q.task = TaskKind::kAgg;
      q.agg = AggFunc::kMedian;
      q.attr = "score";
      q.docset.conditions = {Condition::Semantic(lit.Category())};
      break;
    case 8:  // T9: 90th percentile views by group
      q.task = TaskKind::kAgg;
      q.agg = AggFunc::kPercentile;
      q.percentile = 90;
      q.attr = "views";
      q.docset.conditions = {Condition::Semantic(lit.Group())};
      break;
    case 9: {  // T10: min words with score filter
      q.task = TaskKind::kAgg;
      q.agg = AggFunc::kMin;
      q.attr = "words";
      q.docset.conditions = {
          Condition::Semantic(lit.Category()),
          Condition::Numeric("score", Condition::Cmp::kGe,
                             lit.Threshold("score"))};
      break;
    }
    case 10:  // T11: top-5 by views
      q.task = TaskKind::kTopK;
      q.top_k = 5;
      q.top_desc = true;
      q.attr = "views";
      q.docset.conditions = {Condition::Semantic(lit.Category())};
      break;
    case 11: {  // T12: top-3 by score with views filter
      q.task = TaskKind::kTopK;
      q.top_k = 3;
      q.top_desc = true;
      q.attr = "score";
      q.docset.conditions = {
          Condition::Semantic(lit.Tag()),
          Condition::Numeric("views", Condition::Cmp::kGt,
                             lit.Threshold("views"))};
      break;
    }
    case 12: {  // T13: compare counts of two categories
      q.task = TaskKind::kCompareCount;
      auto [a, b] = lit.TwoCategories();
      q.docset.conditions = {Condition::Semantic(a)};
      q.docset_b.conditions = {Condition::Semantic(b)};
      break;
    }
    case 13: {  // T14: compare counts of two tags
      q.task = TaskKind::kCompareCount;
      auto [a, b] = lit.TwoTags();
      q.docset.conditions = {Condition::Semantic(a)};
      q.docset_b.conditions = {Condition::Semantic(b)};
      break;
    }
    case 14: {  // T15: compare avg views of two categories
      q.task = TaskKind::kCompareAgg;
      q.agg = AggFunc::kAvg;
      q.attr = "views";
      auto [a, b] = lit.TwoCategories();
      q.docset.conditions = {Condition::Semantic(a)};
      q.docset_b.conditions = {Condition::Semantic(b)};
      break;
    }
    case 15: {  // T16: arg-max group count with numeric filter
      q.task = TaskKind::kGroupArgBest;
      q.group_attr = kind;
      q.best_is_max = true;
      q.metric.kind = GroupMetric::Kind::kCount;
      q.docset.conditions = {Condition::Numeric(
          "views", Condition::Cmp::kGt, lit.Threshold("views"))};
      break;
    }
    case 16: {  // T17: arg-best group average attribute
      q.task = TaskKind::kGroupArgBest;
      q.group_attr = kind;
      q.best_is_max = rng.Bernoulli(0.5);
      q.metric.kind = GroupMetric::Kind::kAgg;
      q.metric.func = AggFunc::kAvg;
      q.metric.attr = "views";
      q.docset.conditions = {Condition::Semantic(lit.Tag())};
      break;
    }
    case 17: {  // T18: flagship arg-max group ratio
      q.task = TaskKind::kGroupArgBest;
      q.group_attr = kind;
      q.best_is_max = true;
      q.metric.kind = GroupMetric::Kind::kRatio;
      auto [a, b] = lit.TwoTags();
      q.metric.num.cond = Condition::Semantic(a);
      q.metric.den.cond = Condition::Semantic(b);
      q.docset.conditions = {
          Condition::Semantic(lit.Group()),
          Condition::Numeric("views", Condition::Cmp::kGt,
                             lit.Threshold("views"))};
      break;
    }
    case 18: {  // T19: ratio of two tag counts
      q.task = TaskKind::kRatio;
      auto [a, b] = lit.TwoTags();
      q.docset.conditions = {Condition::Semantic(a)};
      q.docset_b.conditions = {Condition::Semantic(b)};
      break;
    }
    case 19: {  // T20: set operation count
      q.task = TaskKind::kSetCount;
      int which = static_cast<int>(rng.NextUint64(3));
      q.set_op = which == 0   ? SetOpKind::kUnion
                 : which == 1 ? SetOpKind::kIntersect
                              : SetOpKind::kDifference;
      auto [a, b] = lit.TwoTags();
      if (q.set_op == SetOpKind::kIntersect || rng.Bernoulli(0.5)) {
        q.docset.conditions = {Condition::Semantic(lit.Category())};
        q.docset_b.conditions = {Condition::Semantic(a)};
      } else {
        q.docset.conditions = {Condition::Semantic(a)};
        q.docset_b.conditions = {Condition::Semantic(b)};
      }
      break;
    }
    default:
      UNIFY_FATAL() << "unknown template " << tpl;
  }
  return q;
}

}  // namespace

std::vector<QueryCase> GenerateWorkload(const Corpus& corpus,
                                        const WorkloadOptions& options) {
  std::vector<QueryCase> out;
  Rng rng(HashCombine(options.seed, StableHash64(corpus.name())));
  int next_id = 0;
  constexpr int kNumTemplates = 20;
  for (int tpl = 0; tpl < kNumTemplates; ++tpl) {
    for (int rep = 0; rep < options.per_template; ++rep) {
      QueryCase qc;
      bool ok = false;
      for (int attempt = 0; attempt < 300 && !ok; ++attempt) {
        QueryAst ast = Instantiate(tpl, corpus, rng);
        Answer gt = EvaluateQuery(ast, corpus);
        if (!GroundTruthStable(ast, corpus, gt)) continue;
        qc.ast = std::move(ast);
        qc.ground_truth = std::move(gt);
        ok = true;
      }
      UNIFY_CHECK(ok) << "template " << tpl
                      << " could not be instantiated on " << corpus.name();
      qc.id = next_id++;
      qc.template_id = tpl;
      qc.style = static_cast<uint32_t>(qc.id);
      qc.text = nlq::Render(qc.ast, qc.style);
      out.push_back(std::move(qc));
    }
  }
  return out;
}

std::vector<HistoricalPredicate> GenerateHistoricalPredicates(
    const Corpus& corpus, int count, uint64_t seed) {
  Rng rng(HashCombine(seed, StableHash64(corpus.name() + "|hist")));
  std::vector<HistoricalPredicate> out;
  const auto& kb = corpus.knowledge();
  std::vector<std::string> phrases;
  for (const auto& c : kb.categories()) phrases.push_back(c);
  for (const auto& t : kb.tags()) phrases.push_back(t);
  for (const auto& g : kb.groups()) phrases.push_back(g);
  for (int i = 0; i < count; ++i) {
    const std::string& phrase = phrases[rng.NextUint64(phrases.size())];
    HistoricalPredicate hp;
    hp.condition = Condition::Semantic(phrase);
    hp.phrase = phrase;
    size_t n = 0;
    if (const auto pred = kb.Resolve(phrase)) {
      for (const auto& d : corpus.docs()) n += pred->Matches(d.attrs);
    }
    hp.selectivity = static_cast<double>(n) /
                     static_cast<double>(std::max<size_t>(1, corpus.size()));
    out.push_back(std::move(hp));
  }
  return out;
}

}  // namespace unify::corpus

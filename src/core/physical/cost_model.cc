#include "core/physical/cost_model.h"

#include <algorithm>

#include "common/string_util.h"

namespace unify::core {

namespace {

/// Conservative defaults (seconds per element) used before calibration.
double DefaultPerElement(PhysicalImpl impl) {
  if (ImplUsesLlm(impl)) return 0.08;  // batched worker-LLM per document
  return 1e-5;
}

double DefaultPerElementDollars(PhysicalImpl impl) {
  if (ImplUsesLlm(impl)) return 3e-5;  // ~150 in-tokens + 5 out per doc
  return 0;
}

}  // namespace

double CostModel::EffectiveCardinality(PhysicalImpl impl, const OpArgs& args,
                                       double card_in) {
  if (impl == PhysicalImpl::kIndexScanFilter) {
    auto cand_it = args.find("index_candidates");
    if (cand_it != args.end()) {
      return std::min(
          card_in,
          std::max(1.0, ParseDouble(cand_it->second).value_or(card_in)));
    }
    return card_in;
  }
  return std::max(0.0, card_in);
}

std::string CostModel::Key(const std::string& op_name,
                           PhysicalImpl impl) const {
  return op_name + "/" + PhysicalImplName(impl);
}

void CostModel::Record(const std::string& op_name, PhysicalImpl impl,
                       size_t card, double llm_seconds, double cpu_seconds,
                       double dollars) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[Key(op_name, impl)];
  double seconds = llm_seconds + cpu_seconds;
  if (card > 0) {
    e.total_seconds += seconds;
    e.total_dollars += dollars;
    e.total_card += static_cast<double>(card);
  } else {
    e.flat_seconds =
        (e.flat_seconds * static_cast<double>(e.runs) + seconds) /
        static_cast<double>(e.runs + 1);
  }
  e.runs += 1;
  records_ += 1;
}

double CostModel::PerElementSeconds(const std::string& op_name,
                                    PhysicalImpl impl) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key(op_name, impl));
  if (it == entries_.end() || it->second.total_card <= 0) {
    return DefaultPerElement(impl);
  }
  return it->second.total_seconds / it->second.total_card;
}

double CostModel::EstimateDollars(const std::string& op_name,
                                  PhysicalImpl impl, const OpArgs& args,
                                  double card_in) const {
  double per_elem;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(Key(op_name, impl));
    per_elem = (it == entries_.end() || it->second.total_card <= 0 ||
                it->second.total_dollars <= 0)
                   ? DefaultPerElementDollars(impl)
                   : it->second.total_dollars / it->second.total_card;
  }
  return per_elem * EffectiveCardinality(impl, args, card_in);
}

double CostModel::EstimateSeconds(const std::string& op_name,
                                  PhysicalImpl impl, const OpArgs& args,
                                  double card_in) const {
  double per_elem;
  double flat = 1e-4;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(Key(op_name, impl));
    per_elem = (it == entries_.end() || it->second.total_card <= 0)
                   ? DefaultPerElement(impl)
                   : it->second.total_seconds / it->second.total_card;
    if (it != entries_.end() && it->second.flat_seconds > 0) {
      flat = it->second.flat_seconds;
    }
  }
  return flat + per_elem * EffectiveCardinality(impl, args, card_in);
}

}  // namespace unify::core

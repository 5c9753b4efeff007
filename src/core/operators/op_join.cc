#include <algorithm>
#include <iterator>
#include <set>

#include "common/string_util.h"
#include "core/operators/op_families.h"
#include "core/operators/physical_common.h"

namespace unify::core::ops {
namespace {

using internal::ArgStr;
using internal::kCpuFlat;
using internal::kCpuPerDoc;
using internal::kCpuPerValue;
using internal::WrongInput;

StatusOr<OpOutput> ExecJoin(PhysicalImpl impl, const OpArgs& args,
                            const std::vector<Value>& inputs,
                            ExecContext& ctx) {
  if (inputs.size() < 2 || !inputs[0].is<DocList>() ||
      !inputs[1].is<DocList>()) {
    return WrongInput("Join", "two document lists");
  }
  const DocList& left = inputs[0].get<DocList>();
  const DocList& right = inputs[1].get<DocList>();
  const std::string on = ArgStr(args, "on", "category");
  const internal::AttributeReader attribute(ctx, on);
  OpOutput out;

  auto keys_of = [&](const DocList& docs)
      -> StatusOr<std::vector<std::string>> {
    std::vector<std::string> keys;
    if (on == "category") {
      if (impl == PhysicalImpl::kLlmJoin) {
        return internal::LlmClassifyDocs(
            docs, ctx.corpus->category_kind(), ctx, out.stats);
      }
      for (uint64_t id : docs) {
        keys.push_back(internal::RuleClassify(ctx.corpus->doc(id),
                                              ctx.corpus->profile()));
      }
      out.stats.cpu_seconds +=
          10 * kCpuPerDoc * static_cast<double>(docs.size());
      return keys;
    }
    if (impl == PhysicalImpl::kLlmJoin) {
      UNIFY_ASSIGN_OR_RETURN(std::vector<double> values,
                             internal::LlmExtractValues(docs, on, ctx,
                                                        out.stats));
      for (double v : values) keys.push_back(FormatDouble(v, 6));
      return keys;
    }
    for (uint64_t id : docs) {
      auto v = attribute.Read(id);
      keys.push_back(v.has_value() ? FormatDouble(*v, 6) : "");
    }
    out.stats.cpu_seconds += kCpuPerDoc * static_cast<double>(docs.size());
    return keys;
  };

  UNIFY_ASSIGN_OR_RETURN(auto left_keys, keys_of(left));
  UNIFY_ASSIGN_OR_RETURN(auto right_keys, keys_of(right));
  std::set<std::string> right_set;
  for (const auto& k : right_keys) {
    if (!k.empty()) right_set.insert(k);
  }
  DocList joined;
  for (size_t i = 0; i < left.size(); ++i) {
    if (!left_keys[i].empty() && right_set.count(left_keys[i]) > 0) {
      joined.push_back(left[i]);
    }
  }
  out.value = Value::Docs(std::move(joined));
  return out;
}

StatusOr<OpOutput> ExecSetOp(const std::string& op_name,
                             const std::vector<Value>& inputs) {
  if (inputs.size() < 2 || !inputs[0].is<DocList>() ||
      !inputs[1].is<DocList>()) {
    return WrongInput(op_name, "two document lists");
  }
  std::set<uint64_t> a(inputs[0].get<DocList>().begin(),
                       inputs[0].get<DocList>().end());
  std::set<uint64_t> b(inputs[1].get<DocList>().begin(),
                       inputs[1].get<DocList>().end());
  DocList result;
  if (op_name == "Union") {
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(result));
  } else if (op_name == "Intersection") {
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(result));
  } else {
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(result));
  }
  OpOutput out;
  out.stats.cpu_seconds +=
      kCpuFlat + kCpuPerValue * static_cast<double>(a.size() + b.size());
  out.value = Value::Docs(std::move(result));
  return out;
}

/// Join keys both sides then hash-matches; set ops are pure CPU. kLlmJoin
/// issues two dependent classify/extract streams over different inputs —
/// left unpartitioned (inter-operator parallelism already covers the
/// two-input case).
class JoinOperator : public PhysicalOperator {
 public:
  std::vector<std::string> OpNames() const override {
    return {"Join", "Union", "Intersection", "Complementary"};
  }

  StatusOr<OpOutput> Execute(const std::string& op_name, PhysicalImpl impl,
                             const OpArgs& args,
                             const std::vector<Value>& inputs,
                             ExecContext& ctx) const override {
    if (op_name == "Join") return ExecJoin(impl, args, inputs, ctx);
    return ExecSetOp(op_name, inputs);
  }

  std::vector<PhysicalImpl> Candidates(const std::string& op_name,
                                       const OpArgs& args) const override {
    if (op_name == "Join") {
      return {PhysicalImpl::kHashJoin, PhysicalImpl::kLlmJoin};
    }
    return {PhysicalImpl::kPreSetOp};
  }
};

}  // namespace

const PhysicalOperator& JoinOp() {
  static const JoinOperator* op = new JoinOperator();
  return *op;
}

}  // namespace unify::core::ops

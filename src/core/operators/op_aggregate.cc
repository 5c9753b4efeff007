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

/// The pre-programmed values of `attribute` over `docs`, in order,
/// skipping documents without one; charges the per-document CPU.
std::vector<double> ReadValues(const internal::AttributeReader& attribute,
                               const DocList& docs, OpStats& stats) {
  std::vector<double> values;
  for (uint64_t id : docs) {
    if (auto v = attribute.Read(id)) values.push_back(*v);
  }
  stats.cpu_seconds += kCpuPerDoc * static_cast<double>(docs.size());
  return values;
}

StatusOr<OpOutput> ExecCount(PhysicalImpl impl, const OpArgs& args,
                             const std::vector<Value>& inputs,
                             ExecContext& ctx) {
  if (inputs.empty()) return WrongInput("Count", "one");
  OpOutput out;
  const Value& input = inputs[0];
  if (impl == PhysicalImpl::kLlmCount && input.is<DocList>()) {
    llm::LlmCall call;
    call.type = llm::PromptType::kSemanticAggregate;
    call.tier = llm::ModelTier::kWorker;
    call.fields["op"] = "Count";
    for (uint64_t id : input.get<DocList>()) {
      call.items.push_back(std::to_string(id));
    }
    llm::LlmResult result = ctx.llm->Call(call);
    if (!result.status.ok()) return result.status;
    out.stats.llm_seconds += result.seconds;
    out.stats.llm_dollars += result.dollars;
    out.stats.llm_calls += 1;
    out.value = Value::Number(ParseDouble(result.Get("value")).value_or(0));
    return out;
  }
  out.stats.cpu_seconds += kCpuFlat;
  if (input.is<DocList>()) {
    out.value =
        Value::Number(static_cast<double>(input.get<DocList>().size()));
    return out;
  }
  if (input.is<GroupedDocs>()) {
    GroupedNumbers counts;
    for (const auto& [label, docs] : input.get<GroupedDocs>().groups) {
      counts.values.emplace_back(label, static_cast<double>(docs.size()));
    }
    out.value = Value(Value::Rep(std::move(counts)));
    return out;
  }
  if (input.is<NumberList>()) {
    out.value = Value::Number(
        static_cast<double>(input.get<NumberList>().values.size()));
    return out;
  }
  return WrongInput("Count", "documents or values");
}

StatusOr<double> LlmAggregateDocs(const DocList& docs,
                                  const std::string& op_name,
                                  const OpArgs& args, ExecContext& ctx,
                                  OpStats& stats) {
  llm::LlmCall call;
  call.type = llm::PromptType::kSemanticAggregate;
  call.tier = llm::ModelTier::kWorker;
  call.fields["op"] = op_name;
  call.fields["attribute"] = ArgStr(args, "attribute");
  call.fields["p"] = ArgStr(args, "p", "90");
  for (uint64_t id : docs) call.items.push_back(std::to_string(id));
  llm::LlmResult result = ctx.llm->Call(call);
  if (!result.status.ok()) return result.status;
  stats.llm_seconds += result.seconds;
  stats.llm_dollars += result.dollars;
  stats.llm_calls += 1;
  return ParseDouble(result.Get("value")).value_or(0.0);
}

StatusOr<OpOutput> ExecAggregate(const std::string& op_name,
                                 PhysicalImpl impl, const OpArgs& args,
                                 const std::vector<Value>& inputs,
                                 ExecContext& ctx) {
  if (inputs.empty()) return WrongInput(op_name, "one");
  OpOutput out;
  const Value& input = inputs[0];

  // Arg-best over grouped scalars ("which group has the highest value").
  if (input.is<GroupedNumbers>()) {
    const auto& values = input.get<GroupedNumbers>().values;
    if (values.empty()) {
      return Status::FailedPrecondition(op_name + " over empty groups");
    }
    bool want_max = op_name == "Max";
    size_t best = 0;
    for (size_t i = 1; i < values.size(); ++i) {
      if (want_max ? values[i].second > values[best].second
                   : values[i].second < values[best].second) {
        best = i;
      }
    }
    out.stats.cpu_seconds += kCpuFlat;
    if (ArgStr(args, "arg") == "group") {
      out.value = Value::Text(values[best].first);
    } else {
      out.value = Value::Number(values[best].second);
    }
    return out;
  }

  if (input.is<NumberList>()) {
    UNIFY_ASSIGN_OR_RETURN(
        double v,
        internal::AggregateValues(input.get<NumberList>().values, op_name,
                                  args));
    out.stats.cpu_seconds +=
        kCpuFlat +
        kCpuPerValue *
            static_cast<double>(input.get<NumberList>().values.size());
    out.value = Value::Number(v);
    return out;
  }
  if (input.is<GroupedNumberLists>()) {
    GroupedNumbers result;
    for (const auto& [label, values] : input.get<GroupedNumberLists>().groups) {
      if (values.values.empty()) continue;
      UNIFY_ASSIGN_OR_RETURN(
          double v, internal::AggregateValues(values.values, op_name, args));
      result.values.emplace_back(label, v);
    }
    if (result.values.empty()) {
      return Status::FailedPrecondition(op_name + " over empty groups");
    }
    out.stats.cpu_seconds += kCpuFlat;
    out.value = Value(Value::Rep(std::move(result)));
    return out;
  }

  // Aggregation straight over documents: extract, then fold.
  if (input.is<DocList>()) {
    const DocList& docs = input.get<DocList>();
    if (impl == PhysicalImpl::kLlmAggregate) {
      UNIFY_ASSIGN_OR_RETURN(
          double v, LlmAggregateDocs(docs, op_name, args, ctx, out.stats));
      out.value = Value::Number(v);
      return out;
    }
    const internal::AttributeReader attribute(ctx, ArgStr(args, "attribute"));
    UNIFY_ASSIGN_OR_RETURN(
        double v,
        internal::AggregateValues(ReadValues(attribute, docs, out.stats),
                                  op_name, args));
    out.value = Value::Number(v);
    return out;
  }
  if (input.is<GroupedDocs>()) {
    const internal::AttributeReader attribute(ctx, ArgStr(args, "attribute"));
    GroupedNumbers result;
    for (const auto& [label, docs] : input.get<GroupedDocs>().groups) {
      if (docs.empty()) continue;
      double v = 0;
      if (impl == PhysicalImpl::kLlmAggregate) {
        UNIFY_ASSIGN_OR_RETURN(
            v, LlmAggregateDocs(docs, op_name, args, ctx, out.stats));
      } else {
        std::vector<double> values = ReadValues(attribute, docs, out.stats);
        if (values.empty()) continue;
        UNIFY_ASSIGN_OR_RETURN(
            v, internal::AggregateValues(values, op_name, args));
      }
      result.values.emplace_back(label, v);
    }
    if (result.values.empty()) {
      return Status::FailedPrecondition(op_name + " over empty groups");
    }
    out.value = Value(Value::Rep(std::move(result)));
    return out;
  }
  return WrongInput(op_name, "documents or values");
}

StatusOr<OpOutput> ExecExtract(PhysicalImpl impl, const OpArgs& args,
                               const std::vector<Value>& inputs,
                               ExecContext& ctx) {
  if (inputs.empty()) return WrongInput("Extract", "one");
  OpOutput out;
  const std::string attr = ArgStr(args, "attribute");
  const internal::AttributeReader attribute(ctx, attr);
  auto extract = [&](const DocList& docs) -> StatusOr<NumberList> {
    NumberList values;
    if (impl == PhysicalImpl::kLlmExtract) {
      UNIFY_ASSIGN_OR_RETURN(
          values.values,
          internal::LlmExtractValues(docs, attr, ctx, out.stats));
    } else {
      values.values = ReadValues(attribute, docs, out.stats);
    }
    return values;
  };
  if (inputs[0].is<DocList>()) {
    UNIFY_ASSIGN_OR_RETURN(NumberList values,
                           extract(inputs[0].get<DocList>()));
    out.value = Value(Value::Rep(std::move(values)));
    return out;
  }
  if (inputs[0].is<GroupedDocs>()) {
    GroupedNumberLists result;
    for (const auto& [label, docs] : inputs[0].get<GroupedDocs>().groups) {
      UNIFY_ASSIGN_OR_RETURN(NumberList values, extract(docs));
      result.groups.emplace_back(label, std::move(values));
    }
    out.value = Value(Value::Rep(std::move(result)));
    return out;
  }
  return WrongInput("Extract", "documents");
}

/// Count, the numeric folds, and Extract. kLlmExtract issues per-document
/// batches (LlmPerDoc); kLlmCount / kLlmAggregate are single whole-input
/// LLM calls.
class AggregateOperator : public PhysicalOperator {
 public:
  std::vector<std::string> OpNames() const override {
    return {"Count", "Sum",        "Average", "Min",
            "Max",   "Median",     "Percentile", "Extract"};
  }

  StatusOr<OpOutput> Execute(const std::string& op_name, PhysicalImpl impl,
                             const OpArgs& args,
                             const std::vector<Value>& inputs,
                             ExecContext& ctx) const override {
    if (op_name == "Count") return ExecCount(impl, args, inputs, ctx);
    if (op_name == "Extract") return ExecExtract(impl, args, inputs, ctx);
    return ExecAggregate(op_name, impl, args, inputs, ctx);
  }

  std::vector<PhysicalImpl> Candidates(const std::string& op_name,
                                       const OpArgs& args) const override {
    if (op_name == "Count") {
      return {PhysicalImpl::kPreCount, PhysicalImpl::kLlmCount};
    }
    if (op_name == "Extract") {
      return {PhysicalImpl::kRegexExtract, PhysicalImpl::kLlmExtract};
    }
    return {PhysicalImpl::kPreAggregate, PhysicalImpl::kLlmAggregate};
  }
};

}  // namespace

const PhysicalOperator& AggregateOp() {
  static const AggregateOperator* op = new AggregateOperator();
  return *op;
}

}  // namespace unify::core::ops

#include "llm/sim_llm.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "corpus/answer.h"
#include "nlq/parse.h"
#include "nlq/reduction.h"
#include "nlq/render.h"
#include "text/keyword_matcher.h"

namespace unify::llm {

namespace {

using corpus::Answer;
using corpus::DocAttrs;
using corpus::Document;

int64_t AttrValue(const DocAttrs& attrs, const std::string& attr) {
  if (attr == "views") return attrs.views;
  if (attr == "score") return attrs.score;
  if (attr == "answers") return attrs.answers;
  if (attr == "comments") return attrs.comments;
  if (attr == "words") return attrs.words;
  return 0;
}

const char* DegreeName(nlq::SolveDegree degree) {
  return degree == nlq::SolveDegree::kFully ? "fully" : "partially";
}

}  // namespace

int64_t ApproxTokens(const std::string& text) {
  int64_t words = 1;
  for (char c : text) {
    if (c == ' ') ++words;
  }
  return words * 4 / 3 + 2;
}

SimulatedLlm::SimulatedLlm(const corpus::Corpus* corpus, SimLlmOptions options)
    : corpus_(corpus), options_(options) {}

bool SimulatedLlm::Flip(double p, const std::string& key) const {
  if (p <= 0) return false;
  Rng rng(HashCombine(options_.seed, StableHash64(key)));
  return rng.NextDouble() < p;
}

std::string SimulatedLlm::CorruptPhrase(const std::string& phrase) const {
  const auto& kb = corpus_->knowledge();
  std::vector<std::string> vocab;
  for (const auto& c : kb.categories()) vocab.push_back(c);
  for (const auto& t : kb.tags()) vocab.push_back(t);
  for (const auto& g : kb.groups()) vocab.push_back(g);
  Rng rng(HashCombine(options_.seed, StableHash64("corrupt|" + phrase)));
  for (int i = 0; i < 8; ++i) {
    const std::string& pick = vocab[rng.NextUint64(vocab.size())];
    if (pick != phrase) return pick;
  }
  return vocab.front();
}

void SimulatedLlm::Account(const LlmCall& call, int64_t in_tokens,
                           int64_t out_tokens, LlmResult& result) {
  result.in_tokens = in_tokens;
  result.out_tokens = out_tokens;
  result.seconds =
      options_.latency.SecondsFor(call.tier, in_tokens, out_tokens);
  result.dollars =
      options_.prices.DollarsFor(call.tier, in_tokens, out_tokens);
  std::lock_guard<std::mutex> lock(mu_);
  usage_.calls += 1;
  usage_.in_tokens += in_tokens;
  usage_.out_tokens += out_tokens;
  usage_.seconds += result.seconds;
  usage_.dollars += result.dollars;
}

LlmUsage SimulatedLlm::usage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return usage_;
}

void SimulatedLlm::ResetUsage() {
  std::lock_guard<std::mutex> lock(mu_);
  usage_ = LlmUsage{};
}

LlmResult SimulatedLlm::Call(const LlmCall& call) { return Dispatch(call); }

LlmResult SimulatedLlm::Dispatch(const LlmCall& call) {
  switch (call.type) {
    case PromptType::kSemanticParse:
      return SemanticParse(call);
    case PromptType::kRerankOperators:
      return RerankOperators(call);
    case PromptType::kReduceQuery:
      return ReduceQuery(call);
    case PromptType::kSimpleQuestion:
      return SimpleQuestion(call);
    case PromptType::kDependencyCheck:
      return DependencyCheck(call);
    case PromptType::kEvalPredicate:
      return EvalPredicate(call);
    case PromptType::kExtractValue:
      return ExtractValue(call);
    case PromptType::kClassifyDoc:
      return ClassifyDoc(call);
    case PromptType::kSemanticAggregate:
      return SemanticAggregate(call);
    case PromptType::kGenerateAnswer:
      return GenerateAnswer(call);
    case PromptType::kChooseFallbackStrategy:
      return ChooseFallbackStrategy(call);
    case PromptType::kGenerateCode:
      return GenerateCode(call);
    case PromptType::kReplanDecision:
      return ReplanDecision(call);
    case PromptType::kPlanOneShot:
      return PlanOneShot(call);
    case PromptType::kDecompose:
      return Decompose(call);
    case PromptType::kSelectAnswer:
      return SelectAnswer(call);
  }
  LlmResult bad;
  bad.status = Status::InvalidArgument("unknown prompt type");
  return bad;
}

LlmResult SimulatedLlm::SemanticParse(const LlmCall& call) {
  LlmResult result;
  const std::string query = call.Get("query");
  auto parsed = nlq::Parse(query);
  std::string lr;
  if (parsed.ok()) {
    lr = nlq::RenderLogicalRepresentation(*parsed);
    if (Flip(options_.errors.semantic_parse, "parse|" + query)) {
      // A sloppy parse: one placeholder lost.
      lr = StrReplaceAll(lr, ", [Condition]", "");
    }
  } else {
    // The model echoes an abstraction of text it cannot structure.
    lr = query;
  }
  result.fields["lr"] = lr;
  result.fields["parsed"] = parsed.ok() ? "true" : "false";
  Account(call, 60 + ApproxTokens(query), ApproxTokens(lr) + 6, result);
  return result;
}

LlmResult SimulatedLlm::RerankOperators(const LlmCall& call) {
  LlmResult result;
  const std::string query = call.Get("query");
  auto parsed = nlq::Parse(query);
  std::map<std::string, std::string> degrees;
  if (parsed.ok()) {
    for (const auto& step : nlq::ApplicableSteps(*parsed)) {
      auto& d = degrees[step.op_name];
      if (d.empty() || step.degree == nlq::SolveDegree::kFully) {
        d = DegreeName(step.degree);
      }
    }
  }
  int64_t in_tokens = 80 + ApproxTokens(query);
  for (const auto& name : call.items) {
    in_tokens += ApproxTokens(name) + 8;
    auto it = degrees.find(name);
    std::string degree = it == degrees.end() ? "not" : it->second;
    if (Flip(options_.errors.rerank, "rerank|" + query + "|" + name)) {
      degree = (degree == "not") ? "partially" : "not";
    }
    result.items.push_back(name + "\t" + degree);
  }
  Account(call, in_tokens, 6 * static_cast<int64_t>(call.items.size()) + 4,
          result);
  return result;
}

LlmResult SimulatedLlm::ReduceQuery(const LlmCall& call) {
  LlmResult result;
  const std::string query = call.Get("query");
  const std::string op = call.Get("operator");
  const std::string next_var = call.Get("next_var", "V1");
  int variant = 0;
  if (auto v = ParseInt64(call.Get("variant", "0")); v.has_value()) {
    variant = static_cast<int>(*v);
  }

  auto fail = [&](const char* why) {
    result.fields["applicable"] = "false";
    result.fields["why"] = why;
    Account(call, 70 + ApproxTokens(query), 8, result);
    return result;
  };

  auto parsed = nlq::Parse(query);
  if (!parsed.ok()) return fail("cannot understand query");
  std::vector<nlq::ReductionStep> matching;
  for (auto& step : nlq::ApplicableSteps(*parsed)) {
    if (step.op_name == op) matching.push_back(std::move(step));
  }
  if (variant >= static_cast<int>(matching.size())) {
    return fail("operator does not match any segment");
  }
  nlq::ReductionStep step = matching[variant];

  // Error injection: the model occasionally rewrites the query correctly
  // but extracts wrong operator inputs (a phrase it confused, a number it
  // misread).
  if (Flip(options_.errors.reduce, "reduce|" + query + "|" + op)) {
    auto it = step.args.find("phrase");
    if (it != step.args.end()) {
      it->second = CorruptPhrase(it->second);
      step.args["condition"] = "about " + it->second;
    } else if (step.args.count("value") > 0) {
      auto v = ParseInt64(step.args["value"]).value_or(0);
      step.args["value"] = std::to_string(v * 2);
    }
  }

  nlq::QueryAst reduced = nlq::ApplyStep(*parsed, step, next_var);
  result.fields["applicable"] = "true";
  result.fields["op"] = step.op_name;
  result.fields["reduced_query"] = nlq::Render(reduced, 0);
  result.fields["output_desc"] = step.output_desc;
  result.fields["degree"] = DegreeName(step.degree);
  result.fields["requires_semantics"] =
      step.requires_semantics ? "true" : "false";
  result.fields["variants"] = std::to_string(matching.size());
  std::string inputs;
  for (size_t i = 0; i < step.input_vars.size(); ++i) {
    if (i) inputs += ",";
    inputs += step.input_vars[i].empty() ? "$docs" : step.input_vars[i];
  }
  result.fields["inputs"] = inputs;
  for (const auto& [k, v] : step.args) result.fields["arg." + k] = v;

  Account(call, 70 + ApproxTokens(query) + 10,
          ApproxTokens(result.fields["reduced_query"]) + 25, result);
  return result;
}

LlmResult SimulatedLlm::SimpleQuestion(const LlmCall& call) {
  LlmResult result;
  const std::string query = call.Get("query");
  auto parsed = nlq::Parse(query);
  bool final = parsed.ok() && nlq::IsFullyReduced(*parsed);
  if (Flip(options_.errors.simple_question, "simple|" + query)) final = !final;
  result.fields["final"] = final ? "true" : "false";
  if (final && parsed.ok()) result.fields["final_var"] = parsed->final_var;
  Account(call, 40 + ApproxTokens(query), 4, result);
  return result;
}

LlmResult SimulatedLlm::DependencyCheck(const LlmCall& call) {
  LlmResult result;
  const std::string producer = call.Get("producer_output");
  const std::string inputs = call.Get("consumer_inputs");
  bool depends = false;
  for (const auto& piece : StrSplit(inputs, ',')) {
    if (std::string(StripAsciiWhitespace(piece)) == producer) depends = true;
  }
  if (Flip(options_.errors.dependency, "dep|" + producer + "|" + inputs)) {
    depends = !depends;
  }
  result.fields["depends"] = depends ? "true" : "false";
  Account(call, 40 + ApproxTokens(inputs), 4, result);
  return result;
}

LlmResult SimulatedLlm::EvalPredicate(const LlmCall& call) {
  LlmResult result;
  const std::string kind = call.Get("kind", "semantic");
  const std::string cond_key = ConditionKey(call.fields);
  const auto& kb = corpus_->knowledge();
  int64_t in_tokens = 30;
  for (const auto& item : call.items) {
    auto id = ParseInt64(item);
    if (!id.has_value() ||
        static_cast<size_t>(*id) >= corpus_->size()) {
      result.items.push_back("no");
      continue;
    }
    const Document& doc = corpus_->doc(static_cast<uint64_t>(*id));
    in_tokens += ApproxTokens(doc.text);
    bool truth = false;
    double flip_p = 0;
    if (kind == "semantic") {
      const std::string phrase = call.Get("phrase");
      auto pred = kb.Resolve(phrase);
      if (pred.has_value()) {
        truth = pred->Matches(doc.attrs);
        flip_p = truth ? options_.errors.predicate_false_negative
                       : options_.errors.predicate_false_positive;
      } else {
        // Out-of-vocabulary phrase: the model falls back to surface
        // intuition (keyword presence).
        truth = text::KeywordMatcher(phrase).MatchesAny(doc.text);
        flip_p = 0.10;
      }
    } else {
      const std::string attr = call.Get("attribute");
      const std::string cmp = call.Get("cmp", "gt");
      int64_t value = ParseInt64(call.Get("value", "0")).value_or(0);
      int64_t value2 = ParseInt64(call.Get("value2", "0")).value_or(0);
      int64_t v = AttrValue(doc.attrs, attr);
      if (cmp == "gt") truth = v > value;
      else if (cmp == "ge") truth = v >= value;
      else if (cmp == "lt") truth = v < value;
      else if (cmp == "le") truth = v <= value;
      else if (cmp == "eq") truth = v == value;
      else if (cmp == "between") truth = v >= value && v <= value2;
      flip_p = options_.errors.numeric_predicate;
    }
    if (Flip(flip_p, "pred|" + cond_key + "|" + item)) truth = !truth;
    result.items.push_back(truth ? "yes" : "no");
  }
  Account(call, in_tokens, 4 * static_cast<int64_t>(call.items.size()) + 2,
          result);
  return result;
}

LlmResult SimulatedLlm::ExtractValue(const LlmCall& call) {
  LlmResult result;
  const std::string attr = call.Get("attribute");
  int64_t in_tokens = 30;
  for (const auto& item : call.items) {
    auto id = ParseInt64(item);
    if (!id.has_value() ||
        static_cast<size_t>(*id) >= corpus_->size()) {
      result.items.push_back("0");
      continue;
    }
    const Document& doc = corpus_->doc(static_cast<uint64_t>(*id));
    in_tokens += ApproxTokens(doc.text);
    int64_t v = AttrValue(doc.attrs, attr);
    if (Flip(options_.errors.extract, "extract|" + attr + "|" + item)) {
      // Misread: off by a digit-scale factor.
      Rng rng(HashCombine(options_.seed,
                          StableHash64("extval|" + attr + "|" + item)));
      double factor = rng.Bernoulli(0.5) ? 0.5 : 2.0;
      v = static_cast<int64_t>(std::llround(static_cast<double>(v) * factor));
    }
    result.items.push_back(std::to_string(v));
  }
  Account(call, in_tokens, 6 * static_cast<int64_t>(call.items.size()) + 2,
          result);
  return result;
}

LlmResult SimulatedLlm::ClassifyDoc(const LlmCall& call) {
  LlmResult result;
  int64_t in_tokens = 30;
  const auto& categories = corpus_->knowledge().categories();
  for (const auto& item : call.items) {
    auto id = ParseInt64(item);
    if (!id.has_value() ||
        static_cast<size_t>(*id) >= corpus_->size()) {
      result.items.push_back("unknown");
      continue;
    }
    const Document& doc = corpus_->doc(static_cast<uint64_t>(*id));
    in_tokens += ApproxTokens(doc.text);
    std::string label = doc.attrs.category;
    if (Flip(options_.errors.classify, "classify|" + item)) {
      Rng rng(HashCombine(options_.seed, StableHash64("clsv|" + item)));
      label = categories[rng.NextUint64(categories.size())];
    }
    result.items.push_back(label);
  }
  Account(call, in_tokens, 5 * static_cast<int64_t>(call.items.size()) + 2,
          result);
  return result;
}

LlmResult SimulatedLlm::SemanticAggregate(const LlmCall& call) {
  LlmResult result;
  const std::string op = call.Get("op", "Count");
  const std::string attr = call.Get("attribute");
  int percentile = static_cast<int>(
      ParseInt64(call.Get("p", "90")).value_or(90));
  int64_t in_tokens = 40;
  std::vector<double> values;
  size_t count = 0;
  for (const auto& item : call.items) {
    auto id = ParseInt64(item);
    if (!id.has_value() ||
        static_cast<size_t>(*id) >= corpus_->size())
      continue;
    const Document& doc = corpus_->doc(static_cast<uint64_t>(*id));
    in_tokens += ApproxTokens(doc.text);
    ++count;
    if (attr.empty()) continue;
    int64_t v = AttrValue(doc.attrs, attr);
    // Same per-document misread behaviour as kExtractValue, keyed
    // identically so batching never changes outcomes.
    if (Flip(options_.errors.extract, "extract|" + attr + "|" + item)) {
      Rng rng(HashCombine(options_.seed,
                          StableHash64("extval|" + attr + "|" + item)));
      double factor = rng.Bernoulli(0.5) ? 0.5 : 2.0;
      v = static_cast<int64_t>(std::llround(static_cast<double>(v) * factor));
    }
    values.push_back(static_cast<double>(v));
  }
  double out = 0;
  if (op == "Count" || attr.empty()) {
    out = static_cast<double>(count);
  } else if (!values.empty()) {
    SampleStats stats;
    stats.AddAll(values);
    if (op == "Sum") out = stats.sum();
    else if (op == "Average") out = stats.Mean();
    else if (op == "Min") out = stats.Min();
    else if (op == "Max") out = stats.Max();
    else if (op == "Median") out = stats.Median();
    else if (op == "Percentile") out = stats.Quantile(percentile / 100.0);
  }
  result.fields["value"] = FormatDouble(out, 6);
  Account(call, in_tokens, 12, result);
  return result;
}

LlmResult SimulatedLlm::GenerateAnswer(const LlmCall& call) {
  LlmResult result;
  const std::string query = call.Get("query");
  double scale = 1.0;
  if (auto s = ParseDouble(call.Get("scale", "1")); s.has_value()) scale = *s;

  std::vector<const Document*> context;
  int64_t in_tokens = 50 + ApproxTokens(query);
  for (const auto& item : call.items) {
    auto id = ParseInt64(item);
    if (!id.has_value() ||
        static_cast<size_t>(*id) >= corpus_->size())
      continue;
    const Document& doc = corpus_->doc(static_cast<uint64_t>(*id));
    in_tokens += ApproxTokens(doc.text);
    context.push_back(&doc);
  }

  Answer answer = Answer::None();
  auto parsed = nlq::Parse(query);
  if (parsed.ok()) {
    // The model reasons faithfully — but only over the context it sees.
    answer = corpus::EvaluateQueryOnDocs(*parsed, context,
                                         corpus_->knowledge(), scale);
  }
  if (Flip(options_.errors.generate, "gen|" + query)) {
    Rng rng(HashCombine(options_.seed, StableHash64("genv|" + query)));
    switch (answer.kind) {
      case Answer::Kind::kNumber:
        answer.number *= rng.Uniform(0.6, 1.5);
        break;
      case Answer::Kind::kText: {
        const auto& cats = corpus_->knowledge().categories();
        answer.text = cats[rng.NextUint64(cats.size())];
        break;
      }
      case Answer::Kind::kList:
        if (!answer.list.empty()) answer.list.pop_back();
        break;
      case Answer::Kind::kNone:
        break;
    }
  }

  switch (answer.kind) {
    case Answer::Kind::kNumber:
      result.fields["kind"] = "number";
      result.fields["answer"] = FormatDouble(answer.number, 6);
      break;
    case Answer::Kind::kText:
      result.fields["kind"] = "text";
      result.fields["answer"] = answer.text;
      break;
    case Answer::Kind::kList:
      result.fields["kind"] = "list";
      result.fields["answer"] = StrJoin(answer.list, ";");
      break;
    case Answer::Kind::kNone:
      result.fields["kind"] = "none";
      result.fields["answer"] = "";
      break;
  }
  // Free-form answers include chain-of-thought scanning of the context;
  // callers hint at the expected verbosity.
  int64_t out_tokens =
      ParseInt64(call.Get("out_tokens_hint", "130")).value_or(130);
  Account(call, in_tokens, out_tokens, result);
  return result;
}

LlmResult SimulatedLlm::ChooseFallbackStrategy(const LlmCall& call) {
  LlmResult result;
  const std::string query = call.Get("query");
  // The model prefers writing code when the task has a programmable
  // structure it can articulate; otherwise it answers from retrieval.
  bool programmable = nlq::Parse(query).ok();
  result.fields["strategy"] = programmable ? "code" : "rag";
  Account(call, 60 + ApproxTokens(query), 12, result);
  return result;
}

LlmResult SimulatedLlm::ReplanDecision(const LlmCall& call) {
  LlmResult result;
  // The planner model reviews the observed-vs-estimated divergence and
  // endorses re-lowering the remaining operators. The verdict is
  // content-deterministic; the numeric adoption decision itself stays
  // with the cost model (docs/replanning.md).
  result.fields["verdict"] = "reoptimize";
  const std::string context =
      call.Get("query") + call.Get("node") + call.Get("observed_card");
  Account(call, 90 + ApproxTokens(context), 16, result);
  return result;
}

LlmResult SimulatedLlm::GenerateCode(const LlmCall& call) {
  LlmResult result;
  const std::string query = call.Get("query");
  auto parsed = nlq::Parse(query);
  Answer answer = Answer::None();
  if (parsed.ok()) {
    // The generated program scans the corpus with extraction + matching
    // rules; a correct program computes the exact answer.
    std::vector<const Document*> all;
    all.reserve(corpus_->size());
    for (const auto& doc : corpus_->docs()) all.push_back(&doc);
    answer = corpus::EvaluateQueryOnDocs(*parsed, all,
                                         corpus_->knowledge(), 1.0);
    if (Flip(options_.errors.codegen, "code|" + query)) {
      // Buggy program: off-by-something output.
      Rng rng(HashCombine(options_.seed, StableHash64("codev|" + query)));
      if (answer.kind == Answer::Kind::kNumber) {
        answer.number *= rng.Uniform(0.5, 1.8);
      } else {
        answer = Answer::None();
      }
    }
  }
  switch (answer.kind) {
    case Answer::Kind::kNumber:
      result.fields["kind"] = "number";
      result.fields["answer"] = FormatDouble(answer.number, 6);
      break;
    case Answer::Kind::kText:
      result.fields["kind"] = "text";
      result.fields["answer"] = answer.text;
      break;
    case Answer::Kind::kList:
      result.fields["kind"] = "list";
      result.fields["answer"] = StrJoin(answer.list, ";");
      break;
    case Answer::Kind::kNone:
      result.fields["kind"] = "none";
      result.fields["answer"] = "";
      break;
  }
  // Writing the program is expensive (planner-tier, ~300 tokens).
  Account(call, 120 + ApproxTokens(query), 300, result);
  return result;
}

LlmResult SimulatedLlm::PlanOneShot(const LlmCall& call) {
  LlmResult result;
  const std::string query = call.Get("query");
  auto parsed = nlq::Parse(query);
  int64_t out_tokens = 20;
  if (parsed.ok()) {
    nlq::QueryAst ast = *parsed;
    int var = 0;
    int guard = 0;
    while (!nlq::IsFullyReduced(ast) && ++guard < 32) {
      auto steps = nlq::ApplicableSteps(ast);
      if (steps.empty()) break;
      nlq::ReductionStep step = steps.front();
      std::string out_var = "P" + std::to_string(++var);
      std::string step_key = "plan1|" + query + "|" + std::to_string(guard);
      bool corrupted = Flip(options_.errors.plan_step, step_key);
      nlq::QueryAst next = nlq::ApplyStep(ast, step, out_var);
      if (corrupted && step.op_name == "Filter") {
        // The one-shot plan silently forgets this filter: downstream steps
        // consume the unfiltered input.
        ast = next;
        // Re-alias: subsequent steps expect `out_var`; emit a pass-through
        // marker so executors bind it to the step's input.
        std::string item = "op=Identity|inputs=" +
                           std::string(step.input_vars[0].empty()
                                           ? "$docs"
                                           : step.input_vars[0]) +
                           "|output=" + out_var;
        result.items.push_back(item);
        out_tokens += 15;
        continue;
      }
      if (corrupted) {
        auto it = step.args.find("phrase");
        if (it != step.args.end()) it->second = CorruptPhrase(it->second);
      }
      std::string item = "op=" + step.op_name + "|inputs=";
      for (size_t i = 0; i < step.input_vars.size(); ++i) {
        if (i) item += ",";
        item += step.input_vars[i].empty() ? "$docs" : step.input_vars[i];
      }
      item += "|output=" + out_var;
      for (const auto& [k, v] : step.args) item += "|" + k + "=" + v;
      result.items.push_back(item);
      out_tokens += 30;
      ast = next;
    }
  }
  result.fields["ok"] = result.items.empty() ? "false" : "true";
  Account(call, 400 + ApproxTokens(query), out_tokens, result);
  return result;
}

LlmResult SimulatedLlm::Decompose(const LlmCall& call) {
  LlmResult result;
  const std::string query = call.Get("query");
  auto parsed = nlq::Parse(query);
  if (parsed.ok()) {
    auto add_conditions = [&](const nlq::DocSet& set) {
      for (const auto& c : set.conditions) {
        result.items.push_back(parsed->entity + " " +
                               nlq::RenderCondition(c, 0));
      }
    };
    add_conditions(parsed->docset);
    add_conditions(parsed->docset_b);
    if (parsed->metric.num.cond.has_value()) {
      result.items.push_back(parsed->entity + " " +
                             nlq::RenderCondition(*parsed->metric.num.cond, 0));
    }
    if (parsed->metric.den.cond.has_value()) {
      result.items.push_back(parsed->entity + " " +
                             nlq::RenderCondition(*parsed->metric.den.cond, 0));
    }
  }
  result.items.push_back(query);
  int64_t out_tokens = 0;
  for (const auto& item : result.items) out_tokens += ApproxTokens(item);
  Account(call, 60 + ApproxTokens(query), out_tokens, result);
  return result;
}

LlmResult SimulatedLlm::SelectAnswer(const LlmCall& call) {
  LlmResult result;
  std::map<std::string, int> votes;
  for (const auto& item : call.items) ++votes[item];
  std::string best;
  int best_votes = -1;
  for (const auto& item : call.items) {  // first-seen tie-breaking
    int v = votes[item];
    if (v > best_votes) {
      best_votes = v;
      best = item;
    }
  }
  std::string key = "select|" + StrJoin(call.items, "\x1f");
  if (!call.items.empty() && Flip(options_.errors.select, key)) {
    Rng rng(HashCombine(options_.seed, StableHash64(key)));
    best = call.items[rng.NextUint64(call.items.size())];
  }
  result.fields["choice"] = best;
  int64_t in_tokens = 40;
  for (const auto& item : call.items) in_tokens += ApproxTokens(item);
  Account(call, in_tokens, 10, result);
  return result;
}

}  // namespace unify::llm

// The paper's motivating scenario (Section I): analytics over Sports
// Stack Exchange pages. This example walks through what Unify does under
// the hood for the flagship query —
//
//   "Among questions with over 500 views, which ball sport has the
//    highest ratio of injury-related to training-related questions?"
//
// — showing the optimized physical plan, the semantic cardinality
// estimates that drove it, and a comparison against a plain RAG pipeline
// on the same question.

#include <cstdio>

#include "core/baselines/rag.h"
#include "core/baselines/retrieval.h"
#include "core/physical/sce.h"
#include "unify/api.h"
#include "corpus/answer.h"
#include "corpus/dataset_profile.h"
#include "llm/sim_llm.h"
#include "nlq/render.h"

int main() {
  using namespace unify;

  corpus::Corpus docs =
      corpus::GenerateCorpus(corpus::SportsProfile(), /*seed=*/2024);
  llm::SimulatedLlm llm(&docs, llm::SimLlmOptions{});
  core::UnifySystem unify_system(&docs, &llm, core::UnifyOptions{});
  if (auto st = unify_system.Setup(); !st.ok()) {
    std::printf("setup failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Construct the flagship query via the workload AST (so we can compute
  // the exact ground truth for comparison) and render it to English — the
  // only thing Unify ever sees.
  nlq::QueryAst q;
  q.task = nlq::TaskKind::kGroupArgBest;
  q.entity = "questions";
  q.group_attr = "sport";
  q.best_is_max = true;
  q.docset.conditions = {
      nlq::Condition::Semantic("ball sports"),
      nlq::Condition::Numeric("views", nlq::Condition::Cmp::kGt, 500)};
  q.metric.kind = nlq::GroupMetric::Kind::kRatio;
  q.metric.num.cond = nlq::Condition::Semantic("injury");
  q.metric.den.cond = nlq::Condition::Semantic("training");
  std::string query = nlq::Render(q);
  corpus::Answer truth = corpus::EvaluateQuery(q, docs);

  std::printf("query: %s\n\n", query.c_str());

  // Show what the semantic cardinality estimator believes about the
  // predicates before execution (Section VI-B).
  for (const char* phrase : {"ball sports", "injury", "training"}) {
    core::OpArgs cond{{"kind", "semantic"}, {"phrase", phrase}};
    auto est = unify_system.estimator().EstimateCondition(
        cond, core::SceMethod::kImportance);
    double exact = unify_system.estimator().TrueCardinality(cond);
    if (est.ok()) {
      std::printf("SCE: |%s| ~ %.0f (true %.0f, %lld sampled docs)\n",
                  phrase, est->cardinality, exact,
                  static_cast<long long>(est->samples));
    }
  }

  auto result = unify_system.Answer(query);
  std::printf("\nUnify answer: %s   (ground truth: %s)\n",
              result.answer.ToString().c_str(), truth.ToString().c_str());
  std::printf("plan:\n%s", result.plan_explain.c_str());
  std::printf("latency: %.1f min planning + %.1f min execution\n\n",
              result.plan_seconds / 60, result.exec_seconds / 60);

  // The same question through plain RAG: retrieval + one generation call
  // cannot aggregate across thousands of documents.
  core::SentenceRetriever retriever(&docs, &unify_system.doc_embedder());
  if (auto st = retriever.Build(); !st.ok()) {
    std::printf("retriever failed: %s\n", st.ToString().c_str());
    return 1;
  }
  core::RagBaseline rag(&retriever, &llm, {});
  auto rag_result = rag.Run(query);
  std::printf("RAG answer:   %s   in %.1f min  (%s)\n",
              rag_result.answer.ToString().c_str(),
              rag_result.total_seconds / 60,
              corpus::Answer::Equivalent(rag_result.answer, truth)
                  ? "correct"
                  : "incorrect");
  return 0;
}

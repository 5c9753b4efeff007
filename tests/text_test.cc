#include <limits>

#include <gtest/gtest.h>

#include "text/field_extractor.h"
#include "text/keyword_matcher.h"
#include "text/tokenizer.h"

namespace unify::text {
namespace {

TEST(TokenizerTest, SplitsOnPunctuationAndLowercases) {
  auto tokens = Tokenize("Hello, World! It's 2000-2010.");
  std::vector<std::string> expected = {"hello", "world", "it",
                                       "s",     "2000",  "2010"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("  \t\n ").empty());
  EXPECT_TRUE(Tokenize("...!!!").empty());
}

TEST(TokenizerTest, StopwordsRecognized) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("with"));
  EXPECT_FALSE(IsStopword("football"));
}

TEST(TokenizerTest, ContentTokensDropStopwordsAndSingles) {
  auto tokens = ContentTokens("the cat is on a mat");
  std::vector<std::string> expected = {"cat", "mat"};
  EXPECT_EQ(tokens, expected);
}

TEST(StemTest, CommonSuffixes) {
  EXPECT_EQ(Stem("training"), "train");
  EXPECT_EQ(Stem("running"), "run");
  EXPECT_EQ(Stem("injuries"), "injury");
  EXPECT_EQ(Stem("matches"), "match");
  EXPECT_EQ(Stem("sports"), "sport");
  EXPECT_EQ(Stem("injured"), "injur");
  EXPECT_EQ(Stem("quickly"), "quick");
}

TEST(StemTest, GuardsShortWords) {
  EXPECT_EQ(Stem("is"), "is");
  EXPECT_EQ(Stem("ring"), "ring");   // too short for -ing strip
  EXPECT_EQ(Stem("pass"), "pass");   // -ss preserved
  EXPECT_EQ(Stem("ball"), "ball");
}

TEST(StemTest, MatchesAcrossInflections) {
  EXPECT_EQ(Stem("injury"), Stem("injuries"));
  EXPECT_EQ(Stem("train"), Stem("training"));
}

TEST(KeywordMatcherTest, AllAndAny) {
  KeywordMatcher m("tennis rackets");
  EXPECT_TRUE(m.MatchesAll("I restrung my tennis racket yesterday"));
  EXPECT_FALSE(m.MatchesAll("I play tennis"));
  EXPECT_TRUE(m.MatchesAny("I play tennis"));
  EXPECT_FALSE(m.MatchesAny("I play golf"));
}

TEST(KeywordMatcherTest, EmptyPhraseIsVacuouslyTrue) {
  KeywordMatcher m("the of and");
  EXPECT_TRUE(m.MatchesAll("anything"));
  EXPECT_DOUBLE_EQ(m.MatchFraction("anything"), 1.0);
}

TEST(KeywordMatcherTest, MatchFraction) {
  KeywordMatcher m("injury training rules");
  EXPECT_NEAR(m.MatchFraction("my injury needs training"), 2.0 / 3.0, 1e-9);
}

TEST(KeywordMatcherTest, CountKeyword) {
  EXPECT_EQ(CountKeyword("train hard, keep training, trains daily", "train"),
            3u);
  EXPECT_EQ(CountKeyword("nothing here", "train"), 0u);
}

TEST(FieldExtractorTest, ViewsPattern) {
  auto v = FieldExtractor::ExtractInt("It has been viewed 523 times.",
                                      "views");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 523);
}

TEST(FieldExtractorTest, ScoreColonPattern) {
  auto v = FieldExtractor::ExtractInt("Blah. Score: 12. More.", "score");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 12);
}

TEST(FieldExtractorTest, CountBeforeLabel) {
  std::string text = "It has 3 answers and 7 comments.";
  EXPECT_EQ(FieldExtractor::ExtractInt(text, "answers").value(), 3);
  EXPECT_EQ(FieldExtractor::ExtractInt(text, "comments").value(), 7);
}

TEST(FieldExtractorTest, WordsPattern) {
  auto v =
      FieldExtractor::ExtractInt("The post contains 220 words.", "words");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 220);
}

TEST(FieldExtractorTest, MissingFieldReturnsNullopt) {
  EXPECT_FALSE(
      FieldExtractor::ExtractInt("no numbers here at all", "views")
          .has_value());
  EXPECT_FALSE(FieldExtractor::ExtractInt("", "score").has_value());
}

TEST(FieldExtractorTest, FullGeneratedDocShape) {
  std::string text =
      "Post 17. This question is about tennis. Thanks in advance for any "
      "help. It has been viewed 1042 times. Score: 9. It has 2 answers and "
      "11 comments. The post contains 187 words.";
  EXPECT_EQ(FieldExtractor::ExtractInt(text, "views").value(), 1042);
  EXPECT_EQ(FieldExtractor::ExtractInt(text, "score").value(), 9);
  EXPECT_EQ(FieldExtractor::ExtractInt(text, "answers").value(), 2);
  EXPECT_EQ(FieldExtractor::ExtractInt(text, "comments").value(), 11);
  EXPECT_EQ(FieldExtractor::ExtractInt(text, "words").value(), 187);
}

TEST(FieldExtractorTest, AllIntegers) {
  auto ints = FieldExtractor::AllIntegers("a1b22c333");
  std::vector<int64_t> expected = {1, 22, 333};
  EXPECT_EQ(ints, expected);
}

// A digit run that does not fit in int64_t is not a number: extraction
// treats it as absent instead of overflowing.
TEST(FieldExtractorTest, OverlongNumberAfterLabelIsNotANumber) {
  EXPECT_FALSE(FieldExtractor::ExtractInt("Score: 99999999999999999999.",
                                          "score")
                   .has_value());
  EXPECT_FALSE(FieldExtractor::ExtractInt(
                   "It has been viewed 9223372036854775808 times.", "views")
                   .has_value());
  EXPECT_EQ(FieldExtractor::ExtractInt(
                "It has been viewed 9223372036854775807 times.", "views"),
            std::numeric_limits<int64_t>::max());
}

TEST(FieldExtractorTest, OverlongNumberBeforeLabelIsNotANumber) {
  EXPECT_FALSE(
      FieldExtractor::ExtractInt("The post contains 123456789012345678901 "
                                 "words.",
                                 "words")
          .has_value());
  EXPECT_EQ(FieldExtractor::ExtractInt("The post contains 000000000000000000"
                                       "00000220 words.",
                                       "words"),
            220);
}

TEST(FieldExtractorTest, AllIntegersSkipsOverlongRuns) {
  auto ints = FieldExtractor::AllIntegers(
      "a1b99999999999999999999c3 9223372036854775807 9223372036854775808");
  std::vector<int64_t> expected = {1, 3, std::numeric_limits<int64_t>::max()};
  EXPECT_EQ(ints, expected);
}

TEST(SentenceSplitTest, SplitsOnTerminators) {
  auto sentences = SplitSentences("One. Two! Three? Four");
  ASSERT_EQ(sentences.size(), 4u);
  EXPECT_EQ(sentences[0], "One.");
  EXPECT_EQ(sentences[3], "Four");
}

TEST(SentenceSplitTest, EmptyInput) {
  EXPECT_TRUE(SplitSentences("").empty());
  EXPECT_TRUE(SplitSentences("   ").empty());
}

}  // namespace
}  // namespace unify::text

#ifndef UNIFY_TEXT_FIELD_EXTRACTOR_H_
#define UNIFY_TEXT_FIELD_EXTRACTOR_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace unify::text {

/// Pre-programmed extraction of structured fields from document prose.
///
/// Documents rendered by the corpus generator mention some attributes in
/// regular surface patterns ("It has been viewed 523 times.",
/// "Score: 12."). This extractor implements the paper's "Keyword/Regex
/// extraction" physical operator for Extract: it finds the number or phrase
/// that follows (or precedes) a field label, without any semantics.
class FieldExtractor {
 public:
  /// Extracts the integer associated with `field` in `doc_text`, if the text
  /// contains a recognizable pattern. Recognized patterns for a field named
  /// e.g. "views":
  ///   "<field>: <number>", "<number> <field>", "viewed <number> times",
  ///   "<field> of <number>".
  /// A digit run too long for int64_t is not a number: it never matches.
  static std::optional<int64_t> ExtractInt(std::string_view doc_text,
                                           std::string_view field);

  /// Extracts the first quoted phrase after "<field>:" if present.
  static std::optional<std::string> ExtractPhrase(std::string_view doc_text,
                                                  std::string_view field);

  /// All integers appearing in the text, in order; digit runs too long for
  /// int64_t are skipped.
  static std::vector<int64_t> AllIntegers(std::string_view doc_text);
};

/// Splits prose into sentences on '.', '!', '?' boundaries (keeping
/// non-empty trimmed sentences). Used by RAG-style baselines that retrieve
/// sentence-level chunks.
std::vector<std::string> SplitSentences(std::string_view text);

}  // namespace unify::text

#endif  // UNIFY_TEXT_FIELD_EXTRACTOR_H_

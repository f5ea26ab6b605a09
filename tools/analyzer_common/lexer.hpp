// analyzer_common — the token-level C++ scanning substrate shared by the
// repo's static analyzers (tools/modcheck, wirecheck, lifecheck, costcheck).
//
// The analyzers are deliberately not C++ front-ends: they strip comments
// and string literals, tokenize, and pattern-match. That is enough for the
// rule families they enforce, costs no dependencies, and runs in
// milliseconds as a CTest step. This header holds the lexing layer; see
// diagnostics.hpp for reporting and suppress.hpp for the shared
// `<tool>:allow(rule): justification` lifecycle.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace analyzer {

struct Token {
  std::string text;
  int line;
  bool ident;
};

std::string trim(const std::string& s);
std::vector<std::string> split_ws(const std::string& s);

/// Splits `text` into lines (getline semantics; no trailing empty line).
std::vector<std::string> split_lines(const std::string& text);

/// Removes comments and the contents of string/char literals while keeping
/// line structure intact (so token line numbers match the source).
std::vector<std::string> strip_comments(const std::vector<std::string>& lines);

std::vector<Token> tokenize(const std::vector<std::string>& code_lines);

bool tok_is(const std::vector<Token>& t, std::size_t i, const char* s);

/// True when tokens[i] is qualified as std:: (i.e. preceded by "std::").
bool std_qualified(const std::vector<Token>& t, std::size_t i);

/// True when tokens[i] is a member access (preceded by "." or "->").
bool member_access(const std::vector<Token>& t, std::size_t i);

/// Skips a balanced <...> starting at the '<' at index i; returns the index
/// just past the matching '>'. Returns i when tokens[i] is not '<'.
std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i);

/// Brace depth at every token ('{' carries the pre-open depth, '}' the
/// post-close depth, so a block's braces sit at the depth of the enclosing
/// scope and its contents one deeper).
std::vector<int> brace_depth(const std::vector<Token>& t);

/// Index of the ')' matching the '(' at `open`, or t.size().
std::size_t match_paren(const std::vector<Token>& t, std::size_t open);

/// Token range [abegin, aend) of argument `argno` (1-based) of the call
/// whose '(' is at `open`; nested (), {}, [] are skipped.
bool call_arg_range(const std::vector<Token>& t, std::size_t open, int argno,
                    std::size_t& abegin, std::size_t& aend);

/// True when identifier `name` occurs in the token range [a, b).
bool range_mentions(const std::vector<Token>& t, std::size_t a, std::size_t b,
                    const std::string& name);

/// Demux tag constants: `constexpr std::uint8_t kName = <literal>`. The
/// literal requirement keeps runtime reads (`const std::uint8_t kind =
/// r.u8();`) out of the tag set.
std::set<std::string> tag_constants(const std::vector<Token>& t);

/// Path minus extension: the header/source pair of one translation unit.
std::string path_stem(const std::string& rel);

}  // namespace analyzer

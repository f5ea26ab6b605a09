#include "lexer.hpp"

#include <cctype>
#include <sstream>

namespace analyzer {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string w;
  while (in >> w) out.push_back(w);
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    // CRLF input would otherwise leave a '\r' glued to the last token of
    // every line (and to suppression justifications).
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  return lines;
}

std::vector<std::string> strip_comments(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  bool in_block = false;
  for (const std::string& line : lines) {
    std::string code;
    for (std::size_t i = 0; i < line.size();) {
      if (in_block) {
        if (line.compare(i, 2, "*/") == 0) {
          in_block = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      if (line.compare(i, 2, "//") == 0) break;
      if (line.compare(i, 2, "/*") == 0) {
        in_block = true;
        i += 2;
        continue;
      }
      char c = line[i];
      if (c == '"' || c == '\'') {
        char quote = c;
        code += quote;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            ++i;
            break;
          }
          ++i;
        }
        code += quote;
        continue;
      }
      code += c;
      ++i;
    }
    out.push_back(code);
  }
  return out;
}

std::vector<Token> tokenize(const std::vector<std::string>& code_lines) {
  std::vector<Token> toks;
  for (std::size_t li = 0; li < code_lines.size(); ++li) {
    const std::string& line = code_lines[li];
    int lineno = static_cast<int>(li) + 1;
    for (std::size_t i = 0; i < line.size();) {
      char c = line[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t j = i;
        while (j < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[j])) ||
                line[j] == '_'))
          ++j;
        toks.push_back({line.substr(i, j - i), lineno, true});
        i = j;
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        std::size_t j = i;
        while (j < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[j])) ||
                line[j] == '.' || line[j] == '\''))
          ++j;
        toks.push_back({line.substr(i, j - i), lineno, false});
        i = j;
      } else {
        toks.push_back({std::string(1, c), lineno, false});
        ++i;
      }
    }
  }
  return toks;
}

bool tok_is(const std::vector<Token>& t, std::size_t i, const char* s) {
  return i < t.size() && t[i].text == s;
}

bool std_qualified(const std::vector<Token>& t, std::size_t i) {
  return i >= 3 && t[i - 1].text == ":" && t[i - 2].text == ":" &&
         t[i - 3].text == "std";
}

bool member_access(const std::vector<Token>& t, std::size_t i) {
  if (i == 0) return false;
  if (t[i - 1].text == ".") return true;
  return i >= 2 && t[i - 1].text == ">" && t[i - 2].text == "-";
}

std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i) {
  if (!tok_is(t, i, "<")) return i;
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].text == "<") ++depth;
    if (t[i].text == ">" && --depth == 0) return i + 1;
  }
  return i;
}

std::vector<int> brace_depth(const std::vector<Token>& t) {
  std::vector<int> depth(t.size(), 0);
  int d = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "{") {
      depth[i] = d;
      ++d;
    } else if (t[i].text == "}") {
      if (d > 0) --d;
      depth[i] = d;
    } else {
      depth[i] = d;
    }
  }
  return depth;
}

std::size_t match_paren(const std::vector<Token>& t, std::size_t open) {
  int pd = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "(") ++pd;
    else if (t[i].text == ")" && --pd == 0) return i;
  }
  return t.size();
}

bool call_arg_range(const std::vector<Token>& t, std::size_t open, int argno,
                    std::size_t& abegin, std::size_t& aend) {
  int pd = 0, bd = 0, sd = 0, arg = 1;
  std::size_t begin = open + 1;
  for (std::size_t j = open; j < t.size(); ++j) {
    const std::string& s = t[j].text;
    if (s == "(") {
      if (++pd == 1) begin = j + 1;
      continue;
    }
    if (s == ")") {
      if (--pd == 0) {
        if (arg == argno) {
          abegin = begin;
          aend = j;
          return true;
        }
        return false;
      }
      continue;
    }
    if (pd == 1) {
      if (s == "{") ++bd;
      else if (s == "}") --bd;
      else if (s == "[") ++sd;
      else if (s == "]") --sd;
      else if (s == "," && bd == 0 && sd == 0) {
        if (arg == argno) {
          abegin = begin;
          aend = j;
          return true;
        }
        ++arg;
        begin = j + 1;
      }
    }
  }
  return false;
}

bool range_mentions(const std::vector<Token>& t, std::size_t a, std::size_t b,
                    const std::string& name) {
  for (std::size_t j = a; j < b && j < t.size(); ++j)
    if (t[j].ident && t[j].text == name) return true;
  return false;
}

std::set<std::string> tag_constants(const std::vector<Token>& t) {
  std::set<std::string> tags;
  for (std::size_t i = 4; i + 3 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "uint8_t") continue;
    if (!(t[i - 1].text == ":" && t[i - 2].text == ":" &&
          t[i - 3].text == "std" &&
          (t[i - 4].text == "constexpr" || t[i - 4].text == "const")))
      continue;
    if (t[i + 1].ident && tok_is(t, i + 2, "=") && !t[i + 3].ident)
      tags.insert(t[i + 1].text);
  }
  return tags;
}

std::string path_stem(const std::string& rel) {
  const std::size_t dot = rel.rfind('.');
  const std::size_t slash = rel.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return rel;
  return rel.substr(0, dot);
}

}  // namespace analyzer

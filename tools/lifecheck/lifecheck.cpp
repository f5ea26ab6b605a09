#include "lifecheck.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lexer.hpp"
#include "suppress.hpp"

namespace fs = std::filesystem;

namespace lifecheck {

using analyzer::Site;
using analyzer::Suppression;
using analyzer::Token;
using analyzer::match_paren;
using analyzer::member_access;
using analyzer::range_mentions;
using analyzer::skip_template_args;
using analyzer::std_qualified;
using analyzer::tok_is;

namespace {

const std::set<std::string> kKnownRules = {
    "timer.leak",          "timer.stale",
    "timer.lost",          "inst.leak",
    "state.switch",        "flow.unreachable",
    "meta.bad-suppression", "meta.unused-suppression"};

}  // namespace

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

bool Manifest::is_instance_file(const std::string& relative_path) const {
  return std::find(instance_files.begin(), instance_files.end(),
                   relative_path) != instance_files.end();
}

Manifest parse_manifest(std::istream& in) {
  Manifest m;
  enum class Sec { kNone, kInstances, kEvents };
  Sec sec = Sec::kNone;
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = analyzer::trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']')
        throw std::runtime_error(std::to_string(lineno) +
                                 ": unterminated section header");
      const std::string name = analyzer::trim(line.substr(1, line.size() - 2));
      if (name == "instances") {
        sec = Sec::kInstances;
      } else if (name == "events") {
        sec = Sec::kEvents;
      } else {
        throw std::runtime_error(std::to_string(lineno) +
                                 ": unknown section [" + name + "]");
      }
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error(std::to_string(lineno) +
                               ": expected key = value");
    const std::string key = analyzer::trim(line.substr(0, eq));
    const std::string value = analyzer::trim(line.substr(eq + 1));
    switch (sec) {
      case Sec::kNone:
        throw std::runtime_error(std::to_string(lineno) +
                                 ": key outside any section");
      case Sec::kInstances:
        if (key == "files") {
          for (const std::string& f : analyzer::split_ws(value))
            m.instance_files.push_back(f);
        } else {
          throw std::runtime_error(std::to_string(lineno) +
                                   ": unknown [instances] key '" + key + "'");
        }
        break;
      case Sec::kEvents:
        if (key == "registry") {
          m.events_registry = value;
        } else if (key == "app") {
          for (const std::string& e : analyzer::split_ws(value))
            m.app_events.push_back(e);
        } else {
          throw std::runtime_error(std::to_string(lineno) +
                                   ": unknown [events] key '" + key + "'");
        }
        break;
    }
  }
  return m;
}

Manifest load_manifest(const fs::path& file) {
  std::ifstream in(file);
  if (!in) throw std::runtime_error("cannot open manifest " + file.string());
  try {
    return parse_manifest(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(file.string() + ":" + e.what());
  }
}

namespace {

// ---------------------------------------------------------------------------
// Cross-file fact stores
// ---------------------------------------------------------------------------

struct TimerFacts {
  std::map<std::string, Site> fields;  ///< TimerId field declarations by name
  /// Names assigned from set_timer. Kept separate from `fields` because a
  /// .cpp's arm sites are scanned before its .hpp's declarations.
  std::set<std::string> armed;
  std::set<std::string> cancelled;  ///< names passed to cancel_timer
  bool has_cancel_call = false;
  std::vector<Site> discarded;  ///< set_timer results thrown away
};

struct InstFacts {
  struct Field {
    Site decl;
    std::string container;
  };
  std::map<std::string, Field> fields;   ///< manifest-file container fields
  std::set<std::string> released;        ///< names with a release site
};

struct SwitchSite {
  Site site;
  bool has_default = false;
  bool opaque = false;  ///< non-identifier label: cannot reason, skip
  /// (qualifier, name) per case label; qualifier empty for plain labels.
  std::vector<std::pair<std::string, std::string>> labels;
};

struct Facts {
  std::map<std::string, TimerFacts> timers;  ///< by path stem
  std::map<std::string, InstFacts> inst;     ///< by path stem
  std::map<std::string, std::set<std::string>> enums;
  std::vector<SwitchSite> switches;
};

// ---------------------------------------------------------------------------
// Pass-1 collectors
// ---------------------------------------------------------------------------

struct FileWork {
  std::string rel;
  std::string stem;
  std::vector<Suppression> sups;
  std::vector<Diagnostic> pending;

  void flag(int line, const std::string& rule, const std::string& message) {
    pending.push_back({rel, line, rule, message, false, ""});
  }
};

enum class CallUse { kAssigned, kUsed, kDiscarded };

struct CallClass {
  CallUse use = CallUse::kDiscarded;
  std::string field;  ///< assigned-to name when use == kAssigned
};

/// Classifies the statement context of a member set_timer call at token
/// `i` by scanning backward to the statement boundary. The receiver chain
/// (`stack_->rt().set_timer`) may contain balanced parens; an unbalanced
/// '(' or a top-level ',' means the call is itself an argument.
CallClass classify_set_timer(const std::vector<Token>& t, std::size_t i) {
  int balance = 0;
  for (std::size_t j = i; j-- > 0;) {
    const std::string& s = t[j].text;
    if (s == ")") {
      ++balance;
      continue;
    }
    if (s == "(") {
      if (balance == 0) return {CallUse::kUsed, ""};
      --balance;
      continue;
    }
    if (balance > 0) continue;
    if (s == ";" || s == "{" || s == "}") return {CallUse::kDiscarded, ""};
    if (s == "=") {
      if (j > 0 && t[j - 1].ident) return {CallUse::kAssigned, t[j - 1].text};
      return {CallUse::kUsed, ""};
    }
    if (s == "return" || s == ",") return {CallUse::kUsed, ""};
  }
  return {CallUse::kDiscarded, ""};
}

void collect_timer_facts(const std::vector<Token>& t, std::size_t file_idx,
                         FileWork& wk, TimerFacts& tf) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident) continue;
    const std::string& s = t[i].text;

    // Field declaration: `runtime::TimerId name = ... kInvalidTimer ... ;`
    if (s == "TimerId" && i + 2 < t.size() && t[i + 1].ident &&
        tok_is(t, i + 2, "=")) {
      for (std::size_t j = i + 3; j < t.size() && j < i + 12; ++j) {
        if (t[j].text == ";") break;
        if (t[j].ident && t[j].text == "kInvalidTimer") {
          tf.fields.emplace(t[i + 1].text, Site{file_idx, t[i + 1].line});
          break;
        }
      }
      continue;
    }

    // Member call sites. Plain-name matches would also hit the runtime's
    // own definitions (`TimerId set_timer(...) override`), so require an
    // object expression in front.
    if (s == "set_timer" && member_access(t, i) && tok_is(t, i + 1, "(")) {
      const CallClass cc = classify_set_timer(t, i);
      if (cc.use == CallUse::kAssigned) {
        tf.armed.insert(cc.field);
        const std::size_t close = match_paren(t, i + 1);
        if (!range_mentions(t, i + 2, close, cc.field)) {
          wk.flag(t[i].line, "timer.stale",
                  "set_timer call assigned to '" + cc.field +
                      "' never mentions it: the callback cannot clear or "
                      "re-validate its own id, so the field keeps pointing "
                      "at a dead timer after it fires");
        }
      } else if (cc.use == CallUse::kDiscarded) {
        tf.discarded.push_back({file_idx, t[i].line});
      }
      continue;
    }
    if (s == "cancel_timer" && member_access(t, i) && tok_is(t, i + 1, "(")) {
      tf.has_cancel_call = true;
      const std::size_t close = match_paren(t, i + 1);
      for (std::size_t j = i + 2; j < close && j < t.size(); ++j)
        if (t[j].ident) tf.cancelled.insert(t[j].text);
    }
  }
}

const std::set<std::string> kContainers = {
    "map",  "multimap", "set",    "multiset",     "unordered_map",
    "list", "deque",    "vector", "unordered_set"};

const std::set<std::string> kReleases = {"erase",    "clear",   "pop_front",
                                         "pop_back", "pop",     "extract",
                                         "reset",    "swap"};

void collect_inst_facts(const std::vector<Token>& t, std::size_t file_idx,
                        bool fields_in_scope, InstFacts& fi) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident) continue;
    // Field declaration: `std::<container><...> name_;` — only members
    // (trailing underscore, the repo convention) in manifest files.
    if (fields_in_scope && t[i].text == "std" && tok_is(t, i + 1, ":") &&
        tok_is(t, i + 2, ":") && i + 4 < t.size() && t[i + 3].ident &&
        kContainers.count(t[i + 3].text) && tok_is(t, i + 4, "<")) {
      const std::size_t j = skip_template_args(t, i + 4);
      if (j < t.size() && t[j].ident && t[j].text.size() > 1 &&
          t[j].text.back() == '_' &&
          (tok_is(t, j + 1, ";") || tok_is(t, j + 1, "=") ||
           tok_is(t, j + 1, "{"))) {
        fi.fields.emplace(
            t[j].text,
            InstFacts::Field{{file_idx, t[j].line}, t[i + 3].text});
      }
      continue;
    }
    // Release site: `name.erase(` / `.clear(` / ... — collected for every
    // file so a header-resident release satisfies its source file's field.
    if (tok_is(t, i + 1, ".") && i + 3 < t.size() && t[i + 2].ident &&
        kReleases.count(t[i + 2].text) && tok_is(t, i + 3, "(")) {
      fi.released.insert(t[i].text);
    }
    // The C++20 free-function form: `std::erase(name, v)` /
    // `std::erase_if(name, pred)`.
    if ((t[i].text == "erase" || t[i].text == "erase_if") &&
        std_qualified(t, i) && tok_is(t, i + 1, "(") && i + 2 < t.size() &&
        t[i + 2].ident) {
      fi.released.insert(t[i + 2].text);
    }
  }
}

void collect_enums(const std::vector<Token>& t,
                   std::map<std::string, std::set<std::string>>& enums) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "enum") continue;
    std::size_t j = i + 1;
    if (tok_is(t, j, "class") || tok_is(t, j, "struct")) ++j;
    if (j >= t.size() || !t[j].ident) continue;
    const std::string name = t[j].text;
    ++j;
    if (tok_is(t, j, ":")) {  // underlying type
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
    }
    if (!tok_is(t, j, "{")) continue;  // forward declaration
    std::set<std::string> enumerators;
    int pd = 0, bd = 1;
    bool expect_name = true;
    for (std::size_t k = j + 1; k < t.size() && bd > 0; ++k) {
      const std::string& s = t[k].text;
      if (s == "{") ++bd;
      else if (s == "}") --bd;
      else if (s == "(") ++pd;
      else if (s == ")") --pd;
      else if (s == "," && bd == 1 && pd == 0) expect_name = true;
      else if (expect_name && t[k].ident && bd == 1 && pd == 0) {
        enumerators.insert(t[k].text);
        expect_name = false;
      }
    }
    if (!enumerators.empty()) enums[name] = enumerators;
  }
}

void collect_switches(const std::vector<Token>& t,
                      const std::vector<int>& depth, std::size_t file_idx,
                      std::vector<SwitchSite>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].ident || t[i].text != "switch" || !tok_is(t, i + 1, "("))
      continue;
    const std::size_t close = match_paren(t, i + 1);
    if (close >= t.size() || !tok_is(t, close + 1, "{")) continue;
    const std::size_t open = close + 1;
    const int d = depth[open];
    std::size_t end = t.size();
    for (std::size_t j = open + 1; j < t.size(); ++j)
      if (t[j].text == "}" && depth[j] == d) {
        end = j;
        break;
      }
    SwitchSite sw;
    sw.site = {file_idx, t[i].line};
    for (std::size_t j = open + 1; j < end; ++j) {
      if (!t[j].ident || depth[j] != d + 1) continue;
      if (t[j].text == "default" && tok_is(t, j + 1, ":") &&
          !tok_is(t, j + 2, ":")) {
        sw.has_default = true;
        continue;
      }
      if (t[j].text != "case") continue;
      // Label tokens run to the first ':' that is not part of a '::'.
      std::vector<const Token*> label;
      std::size_t k = j + 1;
      while (k < end) {
        if (t[k].text == ":") {
          if (tok_is(t, k + 1, ":")) {
            k += 2;
            continue;
          }
          break;
        }
        label.push_back(&t[k]);
        ++k;
      }
      if (label.empty() || !label.back()->ident) {
        sw.opaque = true;
        continue;
      }
      const std::string qual =
          label.size() >= 2 && label[label.size() - 2]->ident
              ? label[label.size() - 2]->text
              : "";
      sw.labels.emplace_back(qual, label.back()->text);
    }
    if (!sw.labels.empty()) out.push_back(sw);
  }
}

std::string join_sorted(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

Report analyze(const fs::path& root, const Manifest& manifest,
               analyzer::ChannelGraph* flow, const analyzer::SourceTree* tree) {
  analyzer::SourceTree local;
  if (!tree) {
    local = analyzer::load_tree(root);
    tree = &local;
  }
  analyzer::ChannelGraph graph = analyzer::extract_channels(
      *tree, manifest.events_registry, manifest.app_events);

  Report report;
  std::vector<FileWork> works;
  works.reserve(tree->files.size());
  Facts facts;

  // Pass 1: per-file checks (timer.stale) and cross-file fact collection.
  for (const analyzer::SourceFile& src : tree->files) {
    const std::string& rel = src.rel;

    FileWork wk;
    wk.rel = rel;
    wk.stem = analyzer::path_stem(rel);
    wk.sups = analyzer::collect_suppressions("lifecheck", kKnownRules, rel,
                                             src.lines, report.diagnostics);
    const std::vector<Token>& toks = src.tokens;
    const std::vector<int> depth = analyzer::brace_depth(toks);
    const std::size_t idx = works.size();

    collect_timer_facts(toks, idx, wk, facts.timers[wk.stem]);
    collect_inst_facts(toks, idx, manifest.is_instance_file(rel),
                       facts.inst[wk.stem]);
    collect_enums(toks, facts.enums);
    collect_switches(toks, depth, idx, facts.switches);

    ++report.files_scanned;
    works.push_back(std::move(wk));
  }

  // Pass 2: whole-program rules over the collected facts.
  for (const auto& [stem, tf] : facts.timers) {
    for (const auto& [name, decl] : tf.fields) {
      if (tf.armed.count(name) && !tf.cancelled.count(name)) {
        works[decl.file].flag(
            decl.line, "timer.leak",
            "timer field '" + name + "' is armed but '" + stem +
                ".*' never passes it to cancel_timer: no teardown or decide "
                "path can disarm it");
      }
    }
    if (tf.has_cancel_call) {
      for (const Site& site : tf.discarded) {
        works[site.file].flag(
            site.line, "timer.lost",
            "set_timer return value is discarded although '" + stem +
                ".*' cancels timers elsewhere: this timer's id is "
                "unrecoverable, so it can never be cancelled");
      }
    }
  }

  for (const auto& [stem, fi] : facts.inst) {
    for (const auto& [name, field] : fi.fields) {
      if (!fi.released.count(name)) {
        works[field.decl.file].flag(
            field.decl.line, "inst.leak",
            "per-instance container '" + name + "' (std::" + field.container +
                ") has no erase/clear/pop release site in '" + stem +
                ".*': decided-instance state accumulates without bound");
      }
    }
  }

  std::set<std::string> registry_family;  // scratch for registry switches
  for (const SwitchSite& sw : facts.switches) {
    if (sw.opaque || sw.has_default) continue;
    std::set<std::string> covered;
    std::string qual;
    for (const auto& [q, name] : sw.labels) {
      covered.insert(name);
      if (qual.empty()) qual = q;
    }
    const std::set<std::string>* family = nullptr;
    std::string family_desc;
    if (!qual.empty()) {
      auto ei = facts.enums.find(qual);
      if (ei != facts.enums.end()) {
        family = &ei->second;
        family_desc = "enum " + qual;
      }
    }
    if (!family) {
      const bool all_mod =
          std::all_of(covered.begin(), covered.end(), [](const std::string& n) {
            return n.rfind("kMod", 0) == 0;
          });
      const bool all_ev =
          std::all_of(covered.begin(), covered.end(), [](const std::string& n) {
            return n.rfind("kEv", 0) == 0;
          });
      if (all_mod || all_ev) {
        registry_family.clear();
        for (const auto& [n, ch] : all_mod ? graph.modules : graph.events)
          registry_family.insert(n);
        if (!registry_family.empty()) {
          family = &registry_family;
          family_desc = all_mod ? "ModuleId registry" : "EventType registry";
        }
      }
    }
    if (!family && qual.empty()) {
      auto ti = graph.unit_tags.find(works[sw.site.file].stem);
      if (ti != graph.unit_tags.end()) {
        const bool all_tags = std::all_of(
            covered.begin(), covered.end(),
            [&](const std::string& n) { return ti->second.count(n) > 0; });
        if (all_tags) {
          family = &ti->second;
          family_desc = "wire tags of " + works[sw.site.file].stem + ".*";
        }
      }
    }
    if (!family) continue;
    std::set<std::string> missing;
    for (const std::string& n : *family)
      if (!covered.count(n)) missing.insert(n);
    if (!missing.empty()) {
      works[sw.site.file].flag(
          sw.site.line, "state.switch",
          "switch over " + family_desc + " has no default and misses " +
              join_sorted(missing) +
              ": a new message kind would be silently dropped");
    }
  }

  auto check = [&](const std::map<std::string, analyzer::Channel>& chans,
                   const char* kind) {
    for (const auto& [name, ch] : chans) {
      if (!ch.unreachable()) continue;
      works[ch.first_handler.file].flag(
          ch.first_handler.line, "flow.unreachable",
          std::string(kind) + " '" + name +
              "' has a handler but no send/raise path in the tree can "
              "reach it: dead protocol surface");
    }
  };
  check(graph.modules, "module id");
  check(graph.events, "event");

  // Pass 3: suppression lifecycle, then stable output order.
  for (FileWork& wk : works) {
    analyzer::dedupe_by_line_rule(wk.pending);
    analyzer::apply_suppressions("lifecheck", wk.rel, wk.sups, wk.pending,
                                 report.diagnostics);
  }
  report.sort_stable();

  if (flow) *flow = std::move(graph);
  return report;
}

std::string to_json(const Report& report, const std::string& root) {
  return analyzer::to_json(report, "lifecheck", root);
}

}  // namespace lifecheck

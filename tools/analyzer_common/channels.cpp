#include "channels.hpp"

#include <algorithm>
#include <stdexcept>

#include "diagnostics.hpp"

namespace analyzer {

namespace {

/// The channel registry name `name` denotes, or null when the registry
/// does not declare it.
Channel* find_channel(ChannelGraph& g, const std::string& name) {
  auto& chans = name.rfind("kMod", 0) == 0 ? g.modules : g.events;
  const auto it = chans.find(name);
  return it == chans.end() ? nullptr : &it->second;
}

/// Registry declarations: `... EventType kEvX = ...` / `... ModuleId kModX
/// = ...`.
void declare_registry(const std::vector<Token>& t, ChannelGraph& g) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].ident) continue;
    const bool ev = t[i].text == "EventType";
    const bool mod = t[i].text == "ModuleId";
    if (!ev && !mod) continue;
    if (!t[i + 1].ident || !tok_is(t, i + 2, "=")) continue;
    const std::string& name = t[i + 1].text;
    if (name.rfind(ev ? "kEv" : "kMod", 0) == 0)
      (ev ? g.events : g.modules)[name];
  }
}

/// Records every bind/bind_wire (handler) and Event::local/send_wire*
/// (producer) site of file `f` whose channel argument is a registry name.
void walk_calls(const SourceFile& src, std::size_t f, ChannelGraph& g) {
  const std::vector<Token>& t = src.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident || !tok_is(t, i + 1, "(")) continue;
    const std::string& s = t[i].text;
    const char* prefix = "kMod";
    int argno = 1;
    bool handler = false;
    if (s == "bind") {
      prefix = "kEv";
      handler = true;
    } else if (s == "bind_wire") {
      handler = true;
    } else if (s == "local" && i >= 3 && t[i - 1].text == ":" &&
               t[i - 2].text == ":" && t[i - 3].text == "Event") {
      prefix = "kEv";
    } else if (s == "send_wire") {
      argno = 2;
    } else if (s != "send_wire_to_others") {
      continue;
    }
    std::size_t a, b;
    if (!call_arg_range(t, i + 1, argno, a, b)) continue;
    // The first identifier in the argument carrying the channel prefix.
    const Token* name = nullptr;
    for (std::size_t j = a; j < b && !name; ++j)
      if (t[j].ident && t[j].text.rfind(prefix, 0) == 0) name = &t[j];
    Channel* ch = name ? find_channel(g, name->text) : nullptr;
    if (!ch) continue;
    (handler ? ch->handlers : ch->producers).insert(src.rel);
    Site& first = handler ? ch->first_handler : ch->first_producer;
    if (first.line == 0) first = Site{f, name->line};
  }
}

void append_string_array(std::string& out, const char* key,
                         const std::set<std::string>& values,
                         const char* indent, bool trailing_comma) {
  out += indent;
  out += "\"";
  out += key;
  out += "\": [";
  bool first = true;
  for (const std::string& v : values) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += json_escape(v);
    out += "\"";
  }
  out += trailing_comma ? "],\n" : "]\n";
}

void append_channels(std::string& out, const char* key,
                     const std::map<std::string, Channel>& chans,
                     bool with_tags) {
  out += "  \"";
  out += key;
  out += "\": {\n";
  std::size_t i = 0;
  for (const auto& [name, ch] : chans) {
    out += "    \"" + json_escape(name) + "\": {\n";
    append_string_array(out, "producers", ch.producers, "      ", true);
    append_string_array(out, "handlers", ch.handlers, "      ", with_tags);
    if (with_tags)
      append_string_array(out, "tags", ch.tags, "      ", false);
    out += ++i < chans.size() ? "    },\n" : "    }\n";
  }
  out += "  },\n";
}

}  // namespace

ChannelGraph extract_channels(const SourceTree& tree,
                              const std::string& registry,
                              const std::vector<std::string>& app) {
  ChannelGraph g;
  if (!registry.empty()) {
    const auto it = std::find_if(
        tree.files.begin(), tree.files.end(),
        [&](const SourceFile& f) { return f.rel == registry; });
    if (it == tree.files.end())
      throw std::runtime_error("events registry '" + registry +
                               "' names no file under the scanned root");
    declare_registry(it->tokens, g);
  }
  for (const std::string& name : app)
    if (Channel* ch = find_channel(g, name)) ch->app = true;

  for (std::size_t f = 0; f < tree.files.size(); ++f) {
    const SourceFile& src = tree.files[f];
    const std::set<std::string> tags = tag_constants(src.tokens);
    if (!tags.empty())
      g.unit_tags[path_stem(src.rel)].insert(tags.begin(), tags.end());
    walk_calls(src, f, g);
  }

  // A module speaks the wire tags its producers' translation units define.
  for (auto& [name, ch] : g.modules) {
    for (const std::string& producer : ch.producers) {
      const auto ti = g.unit_tags.find(path_stem(producer));
      if (ti != g.unit_tags.end())
        ch.tags.insert(ti->second.begin(), ti->second.end());
    }
  }
  return g;
}

std::set<std::string> unreachable_channels(const ChannelGraph& g) {
  std::set<std::string> out;
  for (const auto* chans : {&g.modules, &g.events})
    for (const auto& [name, ch] : *chans)
      if (ch.unreachable()) out.insert(name);
  return out;
}

std::string flow_to_json(const ChannelGraph& g) {
  std::string out = "{\n  \"version\": 1,\n";
  append_channels(out, "modules", g.modules, true);
  append_channels(out, "events", g.events, false);
  append_string_array(out, "unreachable", unreachable_channels(g), "  ",
                      false);
  out += "}\n";
  return out;
}

std::string flow_to_dot(const ChannelGraph& g) {
  std::string out =
      "// Module×event flow graph extracted by tools/lifecheck.\n"
      "// Boxes are source files; ellipses are registry channels\n"
      "// (blue = wire module ids, yellow = local event types).\n"
      "digraph abcast_flow {\n"
      "  rankdir=LR;\n"
      "  node [shape=box, fontsize=10];\n";
  auto emit = [&out](const std::map<std::string, Channel>& chans,
                     const char* color, bool with_tags) {
    for (const auto& [name, ch] : chans) {
      out += "  \"" + name + "\" [shape=ellipse, style=filled, fillcolor=" +
             color;
      if (with_tags && !ch.tags.empty()) {
        out += ", label=\"" + name + "\\n";
        bool first = true;
        for (const std::string& tag : ch.tags) {
          if (!first) out += " ";
          first = false;
          out += tag;
        }
        out += "\"";
      }
      out += "];\n";
      for (const std::string& p : ch.producers)
        out += "  \"" + p + "\" -> \"" + name + "\";\n";
      for (const std::string& h : ch.handlers)
        out += "  \"" + name + "\" -> \"" + h + "\";\n";
    }
  };
  emit(g.modules, "lightblue", true);
  emit(g.events, "lightyellow", false);
  for (const std::string& name : unreachable_channels(g))
    out += "  \"" + name + "\" [color=red, penwidth=2];\n";
  out += "}\n";
  return out;
}

}  // namespace analyzer

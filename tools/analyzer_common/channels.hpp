// analyzer_common — the module×event channel graph.
//
// The paper's §5.2 cost model counts which module sends what to whom. In
// this repo every such edge is one of four call shapes: a module sends to a
// demux id with `send_wire(to, kModX, ...)` or `send_wire_to_others(kModX,
// ...)`, raises a local event with `Event::local(kEvX, ...)`, and handles
// them with `bind_wire(kModX, ...)` and `bind(kEvX, ...)`.
// extract_channels() walks those shapes once over a SourceTree and records,
// for every channel the EventType/ModuleId registry declares, who produces
// it and who handles it. wirecheck (wire.unhandled), lifecheck
// (flow.unreachable, registry and wire-tag switch families) and costcheck
// (stack modules and tags) all read this one graph, and its JSON and DOT
// forms are committed as results/flowgraph.{json,dot}.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "source.hpp"

namespace analyzer {

/// A position in a SourceTree: index into `files` and a 1-based line
/// (line 0 = no such site).
struct Site {
  std::size_t file = 0;
  int line = 0;
};

/// One registry channel: a kMod* demux target or a kEv* local event.
struct Channel {
  std::set<std::string> producers;  ///< files that send/raise the channel
  std::set<std::string> handlers;   ///< files that bind a handler
  std::set<std::string> tags;       ///< wire tags spoken by producers
  Site first_producer;              ///< in tree order
  Site first_handler;               ///< in tree order
  /// Application-facing: produced or consumed by harness code outside the
  /// scanned tree, so a missing side is expected.
  bool app = false;

  /// Produced in the tree but handled nowhere: every receiver drops it.
  bool unhandled() const {
    return !app && !producers.empty() && handlers.empty();
  }
  /// Handled in the tree but produced nowhere: dead protocol surface.
  bool unreachable() const {
    return !app && !handlers.empty() && producers.empty();
  }
};

/// The extracted graph. Keys are registry names; file sets hold
/// root-relative paths.
struct ChannelGraph {
  std::map<std::string, Channel> modules;  ///< kMod* demux targets
  std::map<std::string, Channel> events;   ///< kEv* local events
  /// Demux tag constants per translation unit (path stem), for every
  /// scanned file that declares any.
  std::map<std::string, std::set<std::string>> unit_tags;
};

/// Builds the graph of `tree`. Only names declared in the `registry` header
/// (`EventType kEvX = ...`, `ModuleId kModX = ...`) count, and each gets a
/// channel whether or not anything uses it; an empty `registry` gives a
/// graph without channels. Channels named in `app` are marked
/// application-facing. Throws std::runtime_error when `registry` names no
/// file of the tree.
ChannelGraph extract_channels(const SourceTree& tree,
                              const std::string& registry,
                              const std::vector<std::string>& app);

/// Names of the unreachable channels, modules and events together.
std::set<std::string> unreachable_channels(const ChannelGraph& g);

/// Serializations. The JSON is key-sorted and array-stable so it can be
/// committed and gated with tools/benchdiff; the DOT mirrors it for human
/// consumption.
std::string flow_to_json(const ChannelGraph& g);
std::string flow_to_dot(const ChannelGraph& g);

}  // namespace analyzer

// Input-robustness tests shared by all four analyzers: a tree containing a
// CRLF-terminated source file, a UTF-8-BOM-prefixed header, and a module
// directory with no sources must neither crash any analyzer nor shift its
// diagnostic line numbers.
#include <gtest/gtest.h>

#include <filesystem>

#include "channels.hpp"
#include "costcheck.hpp"
#include "lifecheck.hpp"
#include "modcheck.hpp"
#include "source.hpp"
#include "wirecheck.hpp"

namespace fs = std::filesystem;

namespace {

const fs::path kRoot = fs::path(ANALYZER_ROBUSTNESS_FIXTURES) / "src";

}  // namespace

TEST(AnalyzerRobustness, TreeLoadsWithExactLines) {
  const analyzer::SourceTree tree = analyzer::load_tree(kRoot);
  // .gitkeep in the empty module dir is not a source file.
  ASSERT_EQ(tree.files.size(), 3u);
  for (const auto& f : tree.files) {
    // The raw text keeps its original bytes, but no '\r' may leak into the
    // split lines (they feed suppression parsing) and no BOM into line 1.
    for (const auto& line : f.lines)
      EXPECT_TRUE(line.empty() || line.back() != '\r') << f.rel;
    ASSERT_FALSE(f.lines.empty()) << f.rel;
    EXPECT_EQ(f.lines[0].rfind("// ", 0), 0u) << f.rel;
  }
}

TEST(AnalyzerRobustness, ModcheckAndWirecheckSurvive) {
  // Default manifests: the point is that odd encodings do not crash the
  // scan and every finding stays well-formed. With no layers declared,
  // modcheck reports exactly one layer.unmapped per source file (the
  // .gitkeep-only module dir contributes none).
  modcheck::Report mr = modcheck::analyze(kRoot, modcheck::Manifest{});
  EXPECT_EQ(mr.files_scanned, 3u);
  EXPECT_EQ(mr.violations(), 3u);
  for (const auto& d : mr.diagnostics) {
    EXPECT_EQ(d.rule, "layer.unmapped");
    EXPECT_EQ(d.line, 1);
  }
  // The fixture sends tags nothing decodes and a module id nothing binds;
  // wirecheck must anchor those findings on the exact CRLF lines (u8
  // writes on 14/20, first send on 15) and read the BOM registry.
  const analyzer::SourceTree tree = analyzer::load_tree(kRoot);
  wirecheck::Report wr = wirecheck::analyze(
      kRoot, wirecheck::Manifest{},
      analyzer::extract_channels(tree, "events.hpp", {}), &tree);
  EXPECT_EQ(wr.files_scanned, 3u);
  EXPECT_EQ(wr.violations(), 3u);
  for (const auto& d : wr.diagnostics) {
    EXPECT_EQ(d.rule, "wire.unhandled");
    EXPECT_EQ(d.file, "proto.cpp");
    EXPECT_TRUE(d.line == 14 || d.line == 15 || d.line == 20) << d.line;
  }
}

TEST(AnalyzerRobustness, LifecheckReadsBomRegistry) {
  lifecheck::Manifest life;
  life.events_registry = "events.hpp";
  analyzer::ChannelGraph flow;
  lifecheck::analyze(kRoot, life, &flow);
  // The BOM did not glue onto the registry's first tokens: the module
  // declaration and the CRLF producer both made it into the flow graph.
  ASSERT_EQ(flow.modules.count("kModProto"), 1u);
  EXPECT_EQ(flow.modules.at("kModProto").producers.count("proto.cpp"), 1u);
  EXPECT_EQ(flow.modules.at("kModProto").tags.count("kPing"), 1u);
}

TEST(AnalyzerRobustness, CostcheckLinesAreExactUnderCrlfAndBom) {
  const fs::path fixdir = fs::path(ANALYZER_ROBUSTNESS_FIXTURES);
  costcheck::Manifest manifest =
      costcheck::load_manifest(fixdir / "cost.toml");
  const analyzer::ChannelGraph flow = analyzer::extract_channels(
      analyzer::load_tree(kRoot), "events.hpp", {});
  costcheck::CostReport cost;
  costcheck::Report r = costcheck::analyze(kRoot, manifest, flow, &cost);

  ASSERT_EQ(cost.stacks.size(), 1u);
  EXPECT_TRUE(cost.stacks[0].match);

  // proto.cpp is CRLF throughout; the seeded '>' flip sits on line 27 and
  // the justified chatter suppression covers line 22 from line 21.
  bool flip = false, chatter = false, stale = false;
  for (const auto& d : r.diagnostics) {
    if (d.rule == "quorum.threshold" && !d.suppressed) {
      EXPECT_EQ(d.file, "proto.cpp");
      EXPECT_EQ(d.line, 27);
      flip = true;
    }
    if (d.rule == "cost.unbudgeted_send") {
      EXPECT_TRUE(d.suppressed);
      EXPECT_EQ(d.file, "proto.cpp");
      EXPECT_EQ(d.line, 22);
      EXPECT_NE(d.justification.find("debug-only"), std::string::npos);
      chatter = true;
    }
    // events.hpp starts with a BOM; its stale allow still lands on line 12.
    if (d.rule == "meta.unused-suppression") {
      EXPECT_EQ(d.file, "events.hpp");
      EXPECT_EQ(d.line, 12);
      stale = true;
    }
  }
  EXPECT_TRUE(flip);
  EXPECT_TRUE(chatter);
  EXPECT_TRUE(stale);
  EXPECT_EQ(r.violations(), 2u);  // the flip + the stale allow
}

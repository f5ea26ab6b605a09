// Unit tests: the wirecheck static analyzer (tools/wirecheck) against the
// fixture mini-trees under tests/wirecheck_fixtures/. Every contract family
// is exercised: encode/decode asymmetry detected (tagged and [format]
// pairs), clean tree passes, dead/unhandled tags and unhandled channels
// flagged, hot-path hygiene rules fire only in manifest-hot files, and the
// shared suppression lifecycle (justified allows honored; empty
// justification, unknown rule and stale allows all fail).
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "channels.hpp"
#include "lifecheck.hpp"
#include "wirecheck.hpp"

namespace {

namespace fs = std::filesystem;
using wirecheck::Diagnostic;
using wirecheck::Report;

fs::path fixture(const std::string& name) {
  return fs::path(WIRECHECK_FIXTURES) / name;
}

/// Fixtures that use registry channels declare them in events.hpp, and
/// kEvApp stands for a channel the harness handles (the real tree declares
/// both in tools/lifecheck/life.toml).
Report run_fixture(const std::string& name) {
  const fs::path src = fixture(name) / "src";
  const auto m = wirecheck::load_manifest(fixture(name) / "wire.toml");
  const analyzer::SourceTree tree = analyzer::load_tree(src);
  const std::string registry =
      fs::exists(src / "events.hpp") ? "events.hpp" : "";
  return wirecheck::analyze(
      src, m, analyzer::extract_channels(tree, registry, {"kEvApp"}), &tree);
}

std::size_t count_rule(const Report& r, const std::string& rule,
                       bool suppressed = false) {
  std::size_t n = 0;
  for (const Diagnostic& d : r.diagnostics)
    if (d.rule == rule && d.suppressed == suppressed) ++n;
  return n;
}

bool has_diag_in(const Report& r, const std::string& file,
                 const std::string& rule) {
  for (const Diagnostic& d : r.diagnostics)
    if (d.file == file && d.rule == rule && !d.suppressed) return true;
  return false;
}

TEST(WirecheckFixtures, CleanTreePasses) {
  Report r = run_fixture("clean");
  EXPECT_EQ(r.files_scanned, 5u);
  EXPECT_EQ(r.violations(), 0u) << wirecheck::to_json(r, "clean");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(WirecheckFixtures, AsymmetriesDetected) {
  Report r = run_fixture("asym");
  // Tagged codec: encoder u32 vs decoder u64 on kPing.
  EXPECT_TRUE(has_diag_in(r, "codec.cpp", "wire.asym"));
  // [format] pair: encoder str vs decoder blob.
  EXPECT_TRUE(has_diag_in(r, "record.cpp", "wire.asym"));
  EXPECT_EQ(count_rule(r, "wire.asym"), 2u) << wirecheck::to_json(r, "asym");
  EXPECT_EQ(r.violations(), 2u);
}

TEST(WirecheckFixtures, AsymMessagesNameBothSequences) {
  Report r = run_fixture("asym");
  bool found = false;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.file != "codec.cpp" || d.rule != "wire.asym") continue;
    found = true;
    EXPECT_NE(d.message.find("kPing"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("[u32 u64]"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("[u64 u64]"), std::string::npos) << d.message;
  }
  EXPECT_TRUE(found);
}

TEST(WirecheckFixtures, FrameAndReaderDecodeHelpersMatchByName) {
  Report r = run_fixture("frame_reader");
  // decode_item(msg, r) and decode_bundle(frame, r) count as helper calls
  // like decode_X(r): kItem, kBundle and the fix.bundle format match.
  // kMixed encodes an item but decodes a bundle.
  EXPECT_EQ(count_rule(r, "wire.asym"), 1u)
      << wirecheck::to_json(r, "frame_reader");
  bool mixed = false;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.rule != "wire.asym") continue;
    mixed = d.message.find("kMixed") != std::string::npos &&
            d.message.find("[call:item]") != std::string::npos &&
            d.message.find("[call:bundle]") != std::string::npos;
  }
  EXPECT_TRUE(mixed) << wirecheck::to_json(r, "frame_reader");
  EXPECT_EQ(r.violations(), 1u);
}

TEST(WirecheckFixtures, DeadAndUnhandledDetected) {
  Report r = run_fixture("deadtags");
  // kSentOnly (tag), kEvOrphan (event), kModGhost (module id). kEvApp is
  // application-facing.
  EXPECT_EQ(count_rule(r, "wire.unhandled"), 3u)
      << wirecheck::to_json(r, "deadtags");
  // kHandledOnly (tag). A bound event nothing raises is lifecheck's
  // flow.unreachable.
  EXPECT_EQ(count_rule(r, "wire.dead"), 1u)
      << wirecheck::to_json(r, "deadtags");
  EXPECT_EQ(r.violations(), 4u);
}

TEST(WirecheckFixtures, HotRulesFireOnlyInHotFiles) {
  Report r = run_fixture("hot");
  EXPECT_EQ(count_rule(r, "hot.alloc"), 2u);     // new + make_shared
  EXPECT_EQ(count_rule(r, "hot.function"), 1u);  // std::function member
  EXPECT_EQ(count_rule(r, "hot.copy"), 1u);      // to_bytes()
  // slow.hpp has identical content but is not manifest-hot.
  for (const Diagnostic& d : r.diagnostics)
    EXPECT_EQ(d.file, "fast.hpp") << d.rule << " fired in " << d.file;
  EXPECT_EQ(r.violations(), 4u) << wirecheck::to_json(r, "hot");
}

TEST(WirecheckFixtures, JustifiedSuppressionsHonored) {
  Report r = run_fixture("suppressed");
  EXPECT_EQ(r.violations(), 0u) << wirecheck::to_json(r, "suppressed");
  EXPECT_EQ(count_rule(r, "wire.asym", /*suppressed=*/true), 1u);
  EXPECT_EQ(count_rule(r, "hot.function", /*suppressed=*/true), 1u);
  for (const Diagnostic& d : r.diagnostics) {
    if (d.suppressed) {
      EXPECT_FALSE(d.justification.empty());
    }
  }
}

TEST(WirecheckFixtures, SuppressionLifecycleEnforced) {
  Report r = run_fixture("bad_suppression");
  // Empty justification + unknown rule are malformed.
  EXPECT_EQ(count_rule(r, "meta.bad-suppression"), 2u);
  // Malformed allows suppress nothing: both `new`s stay flagged.
  EXPECT_EQ(count_rule(r, "hot.alloc"), 2u);
  // The well-formed allow with nothing to match is stale.
  EXPECT_EQ(count_rule(r, "meta.unused-suppression"), 1u);
  EXPECT_EQ(r.violations(), 5u) << wirecheck::to_json(r, "bad_suppression");
}

TEST(WirecheckManifest, ParsesHotAndFormats) {
  std::istringstream in(
      "# comment\n"
      "[hot]\nfiles = a.hpp b.cpp\n"
      "[format f.one]\nfile = c.cpp\nencoder = enc\ndecoder = dec\n");
  wirecheck::Manifest m = wirecheck::parse_manifest(in);
  ASSERT_EQ(m.hot_files.size(), 2u);
  EXPECT_TRUE(m.is_hot("a.hpp"));
  EXPECT_FALSE(m.is_hot("c.cpp"));
  ASSERT_EQ(m.formats.size(), 1u);
  EXPECT_EQ(m.formats[0].name, "f.one");
  EXPECT_EQ(m.formats[0].encoder, "enc");
}

TEST(WirecheckManifest, RejectsIncompleteFormat) {
  std::istringstream in("[format f]\nfile = c.cpp\nencoder = enc\n");
  EXPECT_THROW(wirecheck::parse_manifest(in), std::runtime_error);
}

TEST(WirecheckManifest, RejectsDuplicateFormat) {
  std::istringstream in(
      "[format f]\nfile = c.cpp\nencoder = e\ndecoder = d\n"
      "[format f]\nfile = c.cpp\nencoder = e\ndecoder = d\n");
  EXPECT_THROW(wirecheck::parse_manifest(in), std::runtime_error);
}

TEST(WirecheckManifest, RejectsUnknownSectionAndKey) {
  std::istringstream bad_section("[nope]\nx = y\n");
  EXPECT_THROW(wirecheck::parse_manifest(bad_section), std::runtime_error);
  std::istringstream bad_key("[hot]\npaths = a\n");
  EXPECT_THROW(wirecheck::parse_manifest(bad_key), std::runtime_error);
  // The registry is declared once, in life.toml.
  std::istringstream events("[events]\nregistry = ev.hpp\n");
  EXPECT_THROW(wirecheck::parse_manifest(events), std::runtime_error);
}

TEST(WirecheckReport, JsonNamesToolAndRules) {
  Report r = run_fixture("asym");
  std::string json = wirecheck::to_json(r, "fixture");
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"wirecheck\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\": 2"), std::string::npos);
  EXPECT_NE(json.find("wire.asym"), std::string::npos);
}

// The repo's own wire manifest must stay loadable and the real tree clean;
// this duplicates the abcheck_src CTest entry's wirecheck run at the library
// level so a broken manifest fails unit tests too, with a readable report.
TEST(WirecheckRepo, RealTreeHasNoUnsuppressedViolations) {
  const fs::path repo = fs::path(WIRECHECK_REPO_ROOT);
  const fs::path repo_src = repo / "src";
  const auto m =
      wirecheck::load_manifest(repo / "tools" / "wirecheck" / "wire.toml");
  const auto life =
      lifecheck::load_manifest(repo / "tools" / "lifecheck" / "life.toml");
  const analyzer::SourceTree tree = analyzer::load_tree(repo_src);
  Report r = wirecheck::analyze(
      repo_src, m,
      analyzer::extract_channels(tree, life.events_registry, life.app_events),
      &tree);
  EXPECT_EQ(r.violations(), 0u) << wirecheck::to_json(r, "src");
  EXPECT_GT(r.files_scanned, 50u);
  // The intentional hot-path exceptions stay visible as suppressions.
  EXPECT_GE(r.suppressions(), 7u);
}

}  // namespace

// Unit tests: the modcheck static analyzer (tools/modcheck) against the
// fixture mini-trees under tests/modcheck_fixtures/. Every rule family is
// exercised: violation detected, clean tree passes, suppression honored,
// missing-justification rejected, unused suppression flagged, manifest
// validation (unknown dep, cycle).
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "modcheck.hpp"

namespace {

namespace fs = std::filesystem;
using modcheck::Diagnostic;
using modcheck::Report;

fs::path fixture(const std::string& name) {
  return fs::path(MODCHECK_FIXTURES) / name;
}

Report run_fixture(const std::string& name) {
  auto m = modcheck::load_manifest(fixture(name) / "layers.toml");
  return modcheck::analyze(fixture(name) / "src", m);
}

std::size_t count_rule(const Report& r, const std::string& rule,
                       bool suppressed = false) {
  std::size_t n = 0;
  for (const Diagnostic& d : r.diagnostics)
    if (d.rule == rule && d.suppressed == suppressed) ++n;
  return n;
}

TEST(ModcheckFixtures, CleanTreePasses) {
  Report r = run_fixture("clean");
  EXPECT_EQ(r.files_scanned, 2u);
  EXPECT_EQ(r.violations(), 0u) << modcheck::to_json(r, "clean");
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(ModcheckFixtures, LayerViolationsDetected) {
  Report r = run_fixture("layer_violation");
  // top -> base is not a declared edge.
  EXPECT_EQ(count_rule(r, "layer.forbidden"), 1u);
  // mid -> base is declared, but internal.hpp is not a public header.
  EXPECT_EQ(count_rule(r, "layer.private-header"), 1u);
  // stray/orphan.cpp is under no declared layer.
  EXPECT_EQ(count_rule(r, "layer.unmapped"), 1u);
  EXPECT_EQ(r.violations(), 3u) << modcheck::to_json(r, "layer_violation");
}

TEST(ModcheckFixtures, DeterminismViolationsDetected) {
  Report r = run_fixture("det_violation");
  EXPECT_EQ(count_rule(r, "det.rand"), 1u);
  EXPECT_GE(count_rule(r, "det.wall-clock"), 2u);  // system_clock + time()
  EXPECT_EQ(count_rule(r, "det.unordered-iter"), 2u);  // range-for + .begin()
  EXPECT_EQ(count_rule(r, "det.pointer-order"), 1u);
  EXPECT_GE(count_rule(r, "det.thread"), 2u);  // <thread> + std::thread
  EXPECT_GT(r.violations(), 0u);
}

TEST(ModcheckFixtures, JustifiedSuppressionsHonored) {
  Report r = run_fixture("suppressed");
  EXPECT_EQ(r.violations(), 0u) << modcheck::to_json(r, "suppressed");
  EXPECT_EQ(count_rule(r, "det.rand", /*suppressed=*/true), 1u);
  EXPECT_EQ(count_rule(r, "det.unordered-iter", /*suppressed=*/true), 1u);
  for (const Diagnostic& d : r.diagnostics) {
    if (d.suppressed) {
      EXPECT_FALSE(d.justification.empty());
    }
  }
}

TEST(ModcheckFixtures, MissingJustificationRejected) {
  Report r = run_fixture("bad_suppression");
  // Two malformed allows: missing justification, unknown rule.
  EXPECT_EQ(count_rule(r, "meta.bad-suppression"), 2u);
  // Both rand() calls stay unsuppressed: malformed allows suppress nothing.
  EXPECT_EQ(count_rule(r, "det.rand"), 2u);
  // The well-formed allow with nothing to match is flagged as stale.
  EXPECT_EQ(count_rule(r, "meta.unused-suppression"), 1u);
  EXPECT_EQ(r.violations(), 5u) << modcheck::to_json(r, "bad_suppression");
}

TEST(ModcheckManifest, RejectsUnknownDependency) {
  std::istringstream in(
      "[layer a]\npath = a\ndeps = ghost\n");
  EXPECT_THROW(modcheck::parse_manifest(in), std::runtime_error);
}

TEST(ModcheckManifest, RejectsCycles) {
  std::istringstream in(
      "[layer a]\npath = a\ndeps = b\n"
      "[layer b]\npath = b\ndeps = a\n");
  EXPECT_THROW(modcheck::parse_manifest(in), std::runtime_error);
}

TEST(ModcheckManifest, RejectsDeterminismScopeOnUnknownLayer) {
  std::istringstream in(
      "[layer a]\npath = a\ndeps =\n[determinism]\nlayers = nope\n");
  EXPECT_THROW(modcheck::parse_manifest(in), std::runtime_error);
}

TEST(ModcheckManifest, ParsesLayersDepsAndScope) {
  std::istringstream in(
      "# comment\n"
      "[layer base]\npath = src/base\ndeps =\npublic = api.hpp\n"
      "[layer top]\npath = src/top\ndeps = base\n"
      "[determinism]\nlayers = top\n");
  modcheck::Manifest m = modcheck::parse_manifest(in);
  ASSERT_EQ(m.layers.size(), 2u);
  EXPECT_EQ(m.layers[0].path, "src/base");
  ASSERT_EQ(m.layers[0].public_headers.size(), 1u);
  EXPECT_EQ(m.layers[0].public_headers[0], "api.hpp");
  ASSERT_EQ(m.layers[1].deps.size(), 1u);
  EXPECT_TRUE(m.deterministic("top"));
  EXPECT_FALSE(m.deterministic("base"));
}

TEST(ModcheckReport, JsonContainsSummaryAndDiagnostics) {
  Report r = run_fixture("layer_violation");
  std::string json = modcheck::to_json(r, "fixture");
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": 3"), std::string::npos);
  EXPECT_NE(json.find("layer.forbidden"), std::string::npos);
  EXPECT_NE(json.find("layer.private-header"), std::string::npos);
}

// The repo's own manifest must stay loadable and the real tree clean; this
// duplicates the abcheck_src CTest entry's modcheck run at the library level
// so a broken manifest fails unit tests too, with a readable report.
TEST(ModcheckRepo, RealTreeHasNoUnsuppressedViolations) {
  fs::path repo_src = fs::path(MODCHECK_REPO_ROOT) / "src";
  fs::path manifest =
      fs::path(MODCHECK_REPO_ROOT) / "tools" / "modcheck" / "layers.toml";
  auto m = modcheck::load_manifest(manifest);
  Report r = modcheck::analyze(repo_src, m);
  EXPECT_EQ(r.violations(), 0u) << modcheck::to_json(r, "src");
  EXPECT_GT(r.files_scanned, 50u);
}

}  // namespace

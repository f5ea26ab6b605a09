// costcheck self-tests: fixture mini-trees prove each rule fires (mutation
// smoke), the suppression lifecycle stays strict, the derived polynomials
// are canonical, and the real tree matches the paper's analytical model.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "channels.hpp"
#include "costcheck.hpp"
#include "lifecheck.hpp"
#include "modcheck.hpp"
#include "source.hpp"
#include "wirecheck.hpp"

namespace fs = std::filesystem;

namespace {

fs::path fixture(const std::string& name) {
  return fs::path(COSTCHECK_FIXTURES) / name;
}

/// Extracts a fixture's channel graph. Every fixture declares its registry
/// in events.hpp.
analyzer::ChannelGraph fixture_flow(const fs::path& dir) {
  return analyzer::extract_channels(analyzer::load_tree(dir / "src"),
                                    "events.hpp", {});
}

/// Runs the full pipeline on a fixture: the channel graph is extracted,
/// costcheck consumes it.
costcheck::Report run_fixture(const std::string& name,
                              costcheck::CostReport* cost = nullptr) {
  const fs::path dir = fixture(name);
  costcheck::Manifest manifest = costcheck::load_manifest(dir / "cost.toml");
  return costcheck::analyze(dir / "src", manifest, fixture_flow(dir), cost);
}

int count_rule(const costcheck::Report& r, const std::string& rule,
               bool suppressed = false) {
  int n = 0;
  for (const auto& d : r.diagnostics)
    if (d.rule == rule && d.suppressed == suppressed) ++n;
  return n;
}

bool has_diag_in(const costcheck::Report& r, const std::string& file,
                 const std::string& rule) {
  for (const auto& d : r.diagnostics)
    if (d.file == file && d.rule == rule) return true;
  return false;
}

std::string rule_message(const costcheck::Report& r, const std::string& rule) {
  for (const auto& d : r.diagnostics)
    if (d.rule == rule) return d.message;
  return "";
}

}  // namespace

TEST(Costcheck, CleanTreeMatchesModel) {
  costcheck::CostReport cost;
  costcheck::Report r = run_fixture("clean", &cost);
  EXPECT_EQ(r.files_scanned, 4u);
  EXPECT_EQ(r.violations(), 0u);
  EXPECT_TRUE(r.diagnostics.empty());

  ASSERT_EQ(cost.stacks.size(), 1u);
  const auto& sc = cost.stacks[0];
  EXPECT_EQ(sc.name, "proto");
  EXPECT_TRUE(sc.match);
  // M(n-1) + (n-1) in canonical monomial order.
  EXPECT_EQ(sc.derived, "-1 - M + M*n + n");
  EXPECT_EQ(sc.analytical, sc.derived);
  ASSERT_EQ(sc.phases.size(), 2u);
  EXPECT_EQ(sc.phases[0].name, "diffusion");
  EXPECT_EQ(sc.phases[0].term, "-M + M*n");
  ASSERT_EQ(sc.phases[0].sites.size(), 1u);
  EXPECT_NE(sc.phases[0].sites[0].find("proto.cpp"), std::string::npos);
  EXPECT_NE(sc.phases[0].sites[0].find("kDiffuse x(n - 1)"),
            std::string::npos);
  EXPECT_EQ(sc.phases[1].name, "ack");
  EXPECT_EQ(sc.phases[1].term, "-1 + n");
  ASSERT_EQ(sc.phases[1].sites.size(), 1u);
  EXPECT_NE(sc.phases[1].sites[0].find("kAck x1"), std::string::npos);
}

TEST(Costcheck, ExtraSendBreaksModel) {
  costcheck::CostReport cost;
  costcheck::Report r = run_fixture("extra_send", &cost);
  // The doubled diffusion send shows up as a model mismatch naming the
  // phase; the gossip send (no phase, not cold) as an unbudgeted send.
  EXPECT_EQ(count_rule(r, "cost.model_mismatch"), 1);
  const std::string mm = rule_message(r, "cost.model_mismatch");
  EXPECT_NE(mm.find("diffusion"), std::string::npos);
  EXPECT_NE(mm.find("proto_messages_per_consensus"), std::string::npos);
  EXPECT_EQ(count_rule(r, "cost.unbudgeted_send"), 1);
  EXPECT_NE(rule_message(r, "cost.unbudgeted_send").find("kGossip"),
            std::string::npos);
  EXPECT_EQ(r.violations(), 2u);

  ASSERT_EQ(cost.stacks.size(), 1u);
  EXPECT_FALSE(cost.stacks[0].match);
  EXPECT_EQ(cost.stacks[0].phases[0].term, "-2*M + 2*M*n");
}

TEST(Costcheck, QuorumOffByOneDetected) {
  costcheck::Report r = run_fixture("quorum_offbyone");
  EXPECT_EQ(count_rule(r, "quorum.threshold"), 1);
  EXPECT_TRUE(has_diag_in(r, "proto.cpp", "quorum.threshold"));
  EXPECT_NE(rule_message(r, "quorum.threshold").find("'>'"),
            std::string::npos);
  EXPECT_EQ(r.violations(), 1u);
}

TEST(Costcheck, OverlapViolationDetected) {
  costcheck::Report r = run_fixture("overlap_violation");
  // floor(n/2) agrees with the manifest, so no threshold finding — but it
  // is not a majority, which the overlap rule proves at n = 3.
  EXPECT_EQ(count_rule(r, "quorum.threshold"), 0);
  EXPECT_EQ(count_rule(r, "quorum.overlap"), 1);
  EXPECT_TRUE(has_diag_in(r, "proto.cpp", "quorum.overlap"));
  EXPECT_NE(rule_message(r, "quorum.overlap").find("n = 3"),
            std::string::npos);
  EXPECT_EQ(r.violations(), 1u);
}

TEST(Costcheck, JustifiedSuppressionsHonored) {
  costcheck::Report r = run_fixture("suppressed");
  EXPECT_EQ(r.violations(), 0u);
  EXPECT_EQ(count_rule(r, "quorum.threshold", /*suppressed=*/true), 1);
  EXPECT_EQ(count_rule(r, "cost.unbudgeted_send", /*suppressed=*/true), 1);
  for (const auto& d : r.diagnostics) {
    EXPECT_TRUE(d.suppressed);
    EXPECT_FALSE(d.justification.empty());
  }
}

TEST(Costcheck, SuppressionLifecycleEnforced) {
  costcheck::Report r = run_fixture("bad_suppression");
  // Unknown rule + empty justification.
  EXPECT_EQ(count_rule(r, "meta.bad-suppression"), 2);
  // A valid allow that matches nothing is stale.
  EXPECT_EQ(count_rule(r, "meta.unused-suppression"), 1);
  // The actual finding is far from any allow and stays unsuppressed.
  EXPECT_EQ(count_rule(r, "quorum.threshold"), 1);
  EXPECT_EQ(r.violations(), 4u);
}

TEST(Costcheck, ManifestParses) {
  std::istringstream in(
      "# comment\n"
      "[model]\nfile = m.cpp\n"
      "[stack s]\n"
      "modules = kModA kModB\n"
      "model = f(n, M)\n"
      "symbols = M\n"
      "cold = kCold untagged\n"
      "phase = p | module kModA | tags kT kU | fns g | count n - 1\n"
      "[quorum a/b]\n"
      "counters = acks\n"
      "threshold = majority\n"
      "quorum = n / 2 + 1\n"
      "allow = group_size\n"
      "odd_n = true\n"
      "count = resenders (n - 1) / 2\n");
  costcheck::Manifest m = costcheck::parse_manifest(in);
  EXPECT_EQ(m.model_file, "m.cpp");
  ASSERT_EQ(m.stacks.size(), 1u);
  EXPECT_EQ(m.stacks[0].name, "s");
  EXPECT_EQ(m.stacks[0].modules.size(), 2u);
  EXPECT_EQ(m.stacks[0].model, "f(n, M)");
  ASSERT_EQ(m.stacks[0].phases.size(), 1u);
  EXPECT_EQ(m.stacks[0].phases[0].module, "kModA");
  EXPECT_EQ(m.stacks[0].phases[0].tags.size(), 2u);
  EXPECT_EQ(m.stacks[0].phases[0].functions.size(), 1u);
  EXPECT_EQ(m.stacks[0].phases[0].count, "n - 1");
  ASSERT_EQ(m.quorums.size(), 1u);
  EXPECT_EQ(m.quorums[0].unit, "a/b");
  EXPECT_EQ(m.quorums[0].threshold, "majority");
  EXPECT_TRUE(m.quorums[0].odd_n);
  ASSERT_EQ(m.quorums[0].count_vars.size(), 1u);
  EXPECT_EQ(m.quorums[0].count_vars[0].first, "resenders");
  EXPECT_EQ(m.quorums[0].count_vars[0].second, "(n - 1) / 2");
}

TEST(Costcheck, ManifestRejectsMalformedInput) {
  {
    std::istringstream in("[nope]\n");
    EXPECT_THROW(costcheck::parse_manifest(in), std::runtime_error);
  }
  {
    // The flow graph comes from lifecheck's manifest; a stale cost.toml
    // still carrying a [flow] section is an unknown section, not ignored.
    std::istringstream in(
        "[model]\nfile = m.cpp\n[flow]\nregistry = ev.hpp\n");
    EXPECT_THROW(costcheck::parse_manifest(in), std::runtime_error);
  }
  {
    std::istringstream in("file = x\n");  // key outside a section
    EXPECT_THROW(costcheck::parse_manifest(in), std::runtime_error);
  }
  {
    // A stack without a model is rejected at end-of-parse validation.
    std::istringstream in("[stack s]\nmodules = kModA\n");
    EXPECT_THROW(costcheck::parse_manifest(in), std::runtime_error);
  }
  {
    // A phase without a module is rejected immediately.
    std::istringstream in(
        "[stack s]\nmodules = kModA\nmodel = f(n)\n"
        "phase = p | count 1\n");
    EXPECT_THROW(costcheck::parse_manifest(in), std::runtime_error);
  }
}

TEST(Costcheck, StaleManifestIsHardError) {
  const fs::path dir = fixture("clean");
  costcheck::Manifest manifest = costcheck::load_manifest(dir / "cost.toml");
  const analyzer::ChannelGraph flow = fixture_flow(dir);
  {
    costcheck::Manifest bad = manifest;
    bad.stacks[0].modules.push_back("kModGhost");
    EXPECT_THROW(costcheck::analyze(dir / "src", bad, flow),
                 std::runtime_error);
  }
  {
    costcheck::Manifest bad = manifest;
    bad.stacks[0].phases[0].tags = {"kGhostTag"};
    EXPECT_THROW(costcheck::analyze(dir / "src", bad, flow),
                 std::runtime_error);
  }
  {
    costcheck::Manifest bad = manifest;
    bad.model_file = "nope.cpp";
    EXPECT_THROW(costcheck::analyze(dir / "src", bad, flow),
                 std::runtime_error);
  }
  {
    costcheck::Manifest bad = manifest;
    bad.quorums[0].unit = "ghost";
    EXPECT_THROW(costcheck::analyze(dir / "src", bad, flow),
                 std::runtime_error);
  }
}

TEST(Costcheck, JsonNamesToolAndRules) {
  costcheck::Report r = run_fixture("extra_send");
  const std::string json = costcheck::to_json(r, "src");
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"costcheck\""), std::string::npos);
  EXPECT_NE(json.find("cost.model_mismatch"), std::string::npos);
  EXPECT_NE(json.find("cost.unbudgeted_send"), std::string::npos);
}

TEST(Costcheck, CostJsonIsStableAndKeySorted) {
  costcheck::CostReport cost;
  run_fixture("clean", &cost);
  const std::string json = costcheck::cost_to_json(cost);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"costcheck\""), std::string::npos);
  EXPECT_NE(json.find("\"match\": true"), std::string::npos);
  // Keys are emitted sorted so tools/benchdiff can gate the committed
  // report byte-for-byte.
  EXPECT_LT(json.find("\"analytical\""), json.find("\"derived\""));
  EXPECT_LT(json.find("\"derived\""), json.find("\"match\""));
  EXPECT_LT(json.find("\"match\""), json.find("\"model_call\""));
  EXPECT_EQ(json, costcheck::cost_to_json(cost));
}

TEST(Costcheck, RealTreeMatchesAnalyticalModel) {
  const fs::path repo = fs::path(COSTCHECK_REPO_ROOT);
  costcheck::Manifest manifest =
      costcheck::load_manifest(repo / "tools" / "costcheck" / "cost.toml");
  const lifecheck::Manifest life =
      lifecheck::load_manifest(repo / "tools" / "lifecheck" / "life.toml");
  const analyzer::ChannelGraph flow = analyzer::extract_channels(
      analyzer::load_tree(repo / "src"), life.events_registry,
      life.app_events);
  costcheck::CostReport cost;
  costcheck::Report r =
      costcheck::analyze(repo / "src", manifest, flow, &cost);
  EXPECT_EQ(r.violations(), 0u)
      << "src/ must satisfy its own cost manifest";
  EXPECT_GT(r.files_scanned, 50u);

  ASSERT_EQ(cost.stacks.size(), 2u);
  const auto& modular = cost.stacks[0];
  EXPECT_EQ(modular.name, "modular");
  EXPECT_TRUE(modular.match)
      << "derived " << modular.derived << " vs " << modular.analytical;
  // (n-1)(M + 2 + floor((n+1)/2)) expanded canonically.
  EXPECT_EQ(modular.derived,
            "-2 + floor(n/2) - floor(n/2)*n - M + M*n + n + n^2");
  const auto& monolithic = cost.stacks[1];
  EXPECT_EQ(monolithic.name, "monolithic");
  EXPECT_TRUE(monolithic.match)
      << "derived " << monolithic.derived << " vs " << monolithic.analytical;
  // One instance costs 2(n-1); D standalone decision tags add D(n-1).
  EXPECT_EQ(monolithic.derived, "-2 - D + D*n + 2*n");

  // The match is not vacuous: every phase with a nonzero count is backed
  // by at least one real send site.
  for (const auto& sc : cost.stacks) {
    for (const auto& pc : sc.phases) {
      if (pc.count != "0") {
        EXPECT_FALSE(pc.sites.empty()) << sc.name << "/" << pc.name;
      }
    }
  }
}

TEST(Costcheck, SharedTreeMatchesIndependentRuns) {
  // The abcheck driver parses the tree once and hands it to all four
  // analyzers, with the channel graph lifecheck extracts from it; that
  // cached path must produce byte-identical reports to each analyzer
  // reading the tree (and lifecheck extracting the graph) on its own.
  const fs::path repo = fs::path(COSTCHECK_REPO_ROOT);
  const fs::path root = repo / "src";
  const std::string rs = root.string();
  const analyzer::SourceTree tree = analyzer::load_tree(root);

  modcheck::Manifest mod =
      modcheck::load_manifest(repo / "tools" / "modcheck" / "layers.toml");
  EXPECT_EQ(modcheck::to_json(modcheck::analyze(root, mod, &tree), rs),
            modcheck::to_json(modcheck::analyze(root, mod), rs));

  lifecheck::Manifest life =
      lifecheck::load_manifest(repo / "tools" / "lifecheck" / "life.toml");
  analyzer::ChannelGraph flow_cached, flow_fresh;
  EXPECT_EQ(
      lifecheck::to_json(lifecheck::analyze(root, life, &flow_cached, &tree),
                         rs),
      lifecheck::to_json(lifecheck::analyze(root, life, &flow_fresh), rs));
  EXPECT_EQ(analyzer::flow_to_json(flow_cached),
            analyzer::flow_to_json(flow_fresh));

  wirecheck::Manifest wire =
      wirecheck::load_manifest(repo / "tools" / "wirecheck" / "wire.toml");
  EXPECT_EQ(
      wirecheck::to_json(wirecheck::analyze(root, wire, flow_cached, &tree),
                         rs),
      wirecheck::to_json(wirecheck::analyze(root, wire, flow_fresh), rs));

  costcheck::Manifest cost =
      costcheck::load_manifest(repo / "tools" / "costcheck" / "cost.toml");
  costcheck::CostReport model_cached, model_fresh;
  EXPECT_EQ(
      costcheck::to_json(
          costcheck::analyze(root, cost, flow_cached, &model_cached, &tree),
          rs),
      costcheck::to_json(
          costcheck::analyze(root, cost, flow_fresh, &model_fresh), rs));
  EXPECT_EQ(costcheck::cost_to_json(model_cached),
            costcheck::cost_to_json(model_fresh));
}

// abcheck — one driver for all four of the repo's static analyzers.
//
//   abcheck --root src --manifest tools/abcheck/abcheck.toml
//       [--json report.json] [--sarif report.sarif]
//       [--flow-json flow.json] [--flow-dot flow.dot]
//       [--cost-json costmodel.json] [--quiet]
//
// Runs modcheck (layer/determinism), wirecheck (wire contracts/hot path),
// lifecheck (timer/instance lifecycle), and costcheck (message cost /
// quorum safety) over the same root, prints every diagnostic prefixed with
// the producing tool, and writes one combined JSON report ({version, tool:
// "abcheck", root, summary, timings_ms, runs}) and/or one SARIF 2.1.0 log
// with one run per analyzer. The tree is read and lexed exactly once and
// shared by every analyzer; `timings_ms` records each analyzer's wall time
// over that shared tree. lifecheck runs first and extracts the module×event
// channel graph from the registry its manifest declares; wirecheck and
// costcheck read that same graph. The graph (--flow-json/--flow-dot) and
// the costcheck derived-polynomial report (--cost-json) are exposed so CI
// can diff the protocol topology and the cost model. Exits 0 when every
// analyzer is clean, 1 on any unsuppressed violation, 2 on usage/manifest
// errors.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "costcheck.hpp"
#include "lifecheck.hpp"
#include "modcheck.hpp"
#include "sarif.hpp"
#include "wirecheck.hpp"

namespace fs = std::filesystem;

namespace {

struct DriverManifest {
  std::string modcheck_manifest;
  std::string wirecheck_manifest;
  std::string lifecheck_manifest;
  std::string costcheck_manifest;
};

/// Parses abcheck.toml: one [<tool>] section per analyzer, each with a
/// `manifest` key resolved relative to the abcheck manifest's directory.
DriverManifest load_driver_manifest(const fs::path& file) {
  std::ifstream in(file);
  if (!in)
    throw std::runtime_error("cannot open manifest " + file.string());
  DriverManifest m;
  std::string* target = nullptr;
  std::string raw;
  int lineno = 0;
  auto fail = [&](const std::string& msg) {
    throw std::runtime_error(file.string() + ":" + std::to_string(lineno) +
                             ": " + msg);
  };
  while (std::getline(in, raw)) {
    ++lineno;
    std::string line = raw;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Trim.
    const std::size_t b = line.find_first_not_of(" \t\r\n");
    if (b == std::string::npos) continue;
    const std::size_t e = line.find_last_not_of(" \t\r\n");
    line = line.substr(b, e - b + 1);
    if (line.front() == '[') {
      if (line.back() != ']') fail("unterminated section header");
      const std::string name = line.substr(1, line.size() - 2);
      if (name == "modcheck") target = &m.modcheck_manifest;
      else if (name == "wirecheck") target = &m.wirecheck_manifest;
      else if (name == "lifecheck") target = &m.lifecheck_manifest;
      else if (name == "costcheck") target = &m.costcheck_manifest;
      else fail("unknown section [" + name + "]");
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) fail("expected key = value");
    if (!target) fail("key outside any section");
    std::string key = line.substr(0, eq);
    key.erase(key.find_last_not_of(" \t") + 1);
    std::string value = line.substr(eq + 1);
    value.erase(0, value.find_first_not_of(" \t"));
    if (key != "manifest") fail("unknown key '" + key + "'");
    *target = (file.parent_path() / value).lexically_normal().string();
  }
  if (m.modcheck_manifest.empty() || m.wirecheck_manifest.empty() ||
      m.lifecheck_manifest.empty() || m.costcheck_manifest.empty())
    throw std::runtime_error(
        file.string() +
        ": every analyzer section needs a manifest ([modcheck], "
        "[wirecheck], [lifecheck], [costcheck])");
  return m;
}

void print_report(const std::string& tool, const analyzer::Report& report,
                  bool quiet) {
  for (const analyzer::Diagnostic& d : report.diagnostics) {
    if (d.suppressed) {
      if (!quiet)
        std::cout << tool << ": " << d.file << ":" << d.line << ": " << d.rule
                  << " — suppressed: " << d.justification << "\n";
      continue;
    }
    std::cout << tool << ": " << d.file << ":" << d.line << ": " << d.rule
              << " — " << d.message << "\n";
  }
}

/// Indents an embedded per-tool JSON document two levels for the combined
/// report's `runs` array.
std::string indent_json(const std::string& doc) {
  std::istringstream in(doc);
  std::string out, line;
  while (std::getline(in, line)) {
    if (!out.empty()) out += "\n";
    out += "    " + line;
  }
  return out;
}

/// Fixed-point milliseconds with microsecond resolution ("1.234").
std::string ms_str(std::chrono::steady_clock::duration d) {
  const long long us =
      std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  return std::to_string(us / 1000) + "." + std::to_string(us % 1000 / 100) +
         std::to_string(us % 100 / 10) + std::to_string(us % 10);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root, manifest_path, json_path, sarif_path;
  std::string flow_json_path, flow_dot_path, cost_json_path;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "abcheck: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = value("--root");
    } else if (arg == "--manifest") {
      manifest_path = value("--manifest");
    } else if (arg == "--json") {
      json_path = value("--json");
    } else if (arg == "--sarif") {
      sarif_path = value("--sarif");
    } else if (arg == "--flow-json") {
      flow_json_path = value("--flow-json");
    } else if (arg == "--flow-dot") {
      flow_dot_path = value("--flow-dot");
    } else if (arg == "--cost-json") {
      cost_json_path = value("--cost-json");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: abcheck --root <dir> --manifest <abcheck.toml> "
                   "[--json <out>] [--sarif <out>] [--flow-json <out>] "
                   "[--flow-dot <out>] [--cost-json <out>] [--quiet]\n";
      return 0;
    } else {
      std::cerr << "abcheck: unknown argument " << arg << "\n";
      return 2;
    }
  }
  if (root.empty() || manifest_path.empty()) {
    std::cerr << "abcheck: --root and --manifest are required (see --help)\n";
    return 2;
  }

  DriverManifest driver;
  modcheck::Manifest mod_manifest;
  wirecheck::Manifest wire_manifest;
  lifecheck::Manifest life_manifest;
  costcheck::Manifest cost_manifest;
  try {
    driver = load_driver_manifest(manifest_path);
    mod_manifest = modcheck::load_manifest(driver.modcheck_manifest);
    wire_manifest = wirecheck::load_manifest(driver.wirecheck_manifest);
    life_manifest = lifecheck::load_manifest(driver.lifecheck_manifest);
    cost_manifest = costcheck::load_manifest(driver.costcheck_manifest);
  } catch (const std::exception& e) {
    std::cerr << "abcheck: bad manifest: " << e.what() << "\n";
    return 2;
  }

  analyzer::Report mod_report, wire_report, life_report, cost_report;
  analyzer::SourceTree tree;
  analyzer::ChannelGraph flow;
  costcheck::CostReport cost_model;
  using clock = std::chrono::steady_clock;
  clock::duration t_load{}, t_mod{}, t_wire{}, t_life{}, t_cost{};
  try {
    // One read+lex of the tree, shared by every analyzer.
    const clock::time_point t0 = clock::now();
    tree = analyzer::load_tree(root);
    const clock::time_point t1 = clock::now();
    mod_report = modcheck::analyze(root, mod_manifest, &tree);
    const clock::time_point t2 = clock::now();
    life_report = lifecheck::analyze(root, life_manifest, &flow, &tree);
    const clock::time_point t3 = clock::now();
    wire_report = wirecheck::analyze(root, wire_manifest, flow, &tree);
    const clock::time_point t4 = clock::now();
    cost_report =
        costcheck::analyze(root, cost_manifest, flow, &cost_model, &tree);
    const clock::time_point t5 = clock::now();
    t_load = t1 - t0;
    t_mod = t2 - t1;
    t_life = t3 - t2;
    t_wire = t4 - t3;
    t_cost = t5 - t4;
  } catch (const std::exception& e) {
    std::cerr << "abcheck: " << e.what() << "\n";
    return 2;
  }

  print_report("modcheck", mod_report, quiet);
  print_report("wirecheck", wire_report, quiet);
  print_report("lifecheck", life_report, quiet);
  print_report("costcheck", cost_report, quiet);

  const std::size_t violations =
      mod_report.violations() + wire_report.violations() +
      life_report.violations() + cost_report.violations();
  const std::size_t suppressed =
      mod_report.suppressions() + wire_report.suppressions() +
      life_report.suppressions() + cost_report.suppressions();

  auto write_file = [](const std::string& path,
                       const std::string& content) -> bool {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "abcheck: cannot write " << path << "\n";
      return false;
    }
    out << content;
    return true;
  };

  if (!json_path.empty()) {
    std::string doc = "{\n  \"version\": 1,\n  \"tool\": \"abcheck\",\n";
    doc += "  \"root\": \"" + analyzer::json_escape(root) + "\",\n";
    doc += "  \"summary\": {\n";
    doc += "    \"files_scanned\": " +
           std::to_string(life_report.files_scanned) + ",\n";
    doc += "    \"violations\": " + std::to_string(violations) + ",\n";
    doc += "    \"suppressed\": " + std::to_string(suppressed) + "\n  },\n";
    doc += "  \"timings_ms\": {\n";
    doc += "    \"load\": " + ms_str(t_load) + ",\n";
    doc += "    \"modcheck\": " + ms_str(t_mod) + ",\n";
    doc += "    \"wirecheck\": " + ms_str(t_wire) + ",\n";
    doc += "    \"lifecheck\": " + ms_str(t_life) + ",\n";
    doc += "    \"costcheck\": " + ms_str(t_cost) + "\n  },\n";
    doc += "  \"runs\": [\n";
    doc += indent_json(modcheck::to_json(mod_report, root)) + ",\n";
    doc += indent_json(wirecheck::to_json(wire_report, root)) + ",\n";
    doc += indent_json(lifecheck::to_json(life_report, root)) + ",\n";
    doc += indent_json(costcheck::to_json(cost_report, root)) + "\n";
    doc += "  ]\n}\n";
    if (!write_file(json_path, doc)) return 2;
  }
  if (!sarif_path.empty()) {
    const std::string sarif =
        analyzer::to_sarif({{"modcheck", root, &mod_report, &tree},
                            {"wirecheck", root, &wire_report, &tree},
                            {"lifecheck", root, &life_report, &tree},
                            {"costcheck", root, &cost_report, &tree}});
    if (!write_file(sarif_path, sarif)) return 2;
  }
  if (!flow_json_path.empty() &&
      !write_file(flow_json_path, analyzer::flow_to_json(flow)))
    return 2;
  if (!flow_dot_path.empty() &&
      !write_file(flow_dot_path, analyzer::flow_to_dot(flow)))
    return 2;
  if (!cost_json_path.empty() &&
      !write_file(cost_json_path, costcheck::cost_to_json(cost_model)))
    return 2;

  std::cout << "abcheck: modcheck " << mod_report.violations()
            << " / wirecheck " << wire_report.violations() << " / lifecheck "
            << life_report.violations() << " / costcheck "
            << cost_report.violations() << " violation(s), " << suppressed
            << " suppressed, " << life_report.files_scanned
            << " files scanned\n";
  return violations == 0 ? 0 : 1;
}

// Chaos inventory parity: the failpoint sites compiled into the library
// (fault::AllSites()), the AQUA_FAILPOINT macro invocations actually
// present under src/, and the literal inventory below must all agree.
//
// The literal list is not redundant: the `naked-failpoint` lint rule
// requires every macro site to appear as a quoted literal in a file under
// tests/, and this file is where they appear. Adding a failpoint to the
// source without extending AllSites() and this list fails this test (and
// the linter); registering a site nobody wired in fails it from the other
// direction. Either way the chaos runner's --all sweep stays honest.

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "aqua/common/failpoint.h"
#include "lint_support.h"

namespace aqua {
namespace {

// Every failpoint site, by hand. Keep sorted.
const std::set<std::string> kExpectedSites = {
    "common/exec_context/check",
    "core/engine/degrade",
    "core/engine/exact",
    "core/sampler/run",
    "exec/parallel/chunk",
    "exec/pool/run",
    "exec/pool/spawn",
    "mapping/serialize/parse",
    "mapping/serialize/read-file",
    "mapping/serialize/write-file",
    "server/accept",
    "server/admission",
    "server/read-request",
    "server/write-response",
    "shard/merge",
    "shard/run",
    "storage/csv/parse",
    "storage/csv/read-file",
    "storage/csv/write-file",
};

std::set<std::string> RegisteredSites() {
  std::set<std::string> names;
  for (const fault::SiteInfo& site : fault::AllSites()) {
    names.insert(std::string(site.name));
  }
  return names;
}

/// Scans every .cc/.h under <repo>/src for AQUA_FAILPOINT("...") call
/// sites, using the same extractor the linter uses.
std::set<std::string> MacroSitesInSource() {
  namespace fs = std::filesystem;
  std::set<std::string> sites;
  const fs::path root = fs::path(AQUA_SOURCE_DIR) / "src";
  EXPECT_TRUE(fs::is_directory(root)) << root;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    // The extractor keys its scope check on "src/" in the path, so hand it
    // the repo-relative spelling.
    const std::string rel =
        "src/" + fs::relative(entry.path(), root).generic_string();
    for (const lint::FailpointSiteRef& ref :
         lint::ExtractFailpointSites(rel, buf.str())) {
      sites.insert(ref.site);
    }
  }
  return sites;
}

TEST(ChaosInventoryTest, RegistryMatchesExpectedInventory) {
  EXPECT_EQ(RegisteredSites(), kExpectedSites);
}

TEST(ChaosInventoryTest, SourceMacroSitesMatchRegistry) {
  const std::set<std::string> in_source = MacroSitesInSource();
  const std::set<std::string> registered = RegisteredSites();
  for (const std::string& site : in_source) {
    EXPECT_TRUE(registered.count(site))
        << "AQUA_FAILPOINT(\"" << site
        << "\") in source but missing from fault::AllSites()";
  }
  for (const std::string& site : registered) {
    EXPECT_TRUE(in_source.count(site))
        << "fault::AllSites() lists \"" << site
        << "\" but no AQUA_FAILPOINT in src/ uses it";
  }
}

TEST(ChaosInventoryTest, EverySiteIsArmable) {
  for (const fault::SiteInfo& site : fault::AllSites()) {
    EXPECT_TRUE(fault::Enable(site.name, "off").ok()) << site.name;
  }
  fault::DisableAll();
}

}  // namespace
}  // namespace aqua

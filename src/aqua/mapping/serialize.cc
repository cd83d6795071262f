#include "aqua/mapping/serialize.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <utility>

#include "aqua/common/failpoint.h"
#include "aqua/common/string_util.h"

namespace aqua {
namespace {

std::string FormatCandidate(const RelationMapping& m, double prob) {
  std::string out = "candidate " + FormatDoubleRoundTrip(prob) + ":";
  bool first = true;
  for (const Correspondence& c : m.correspondences()) {
    out += first ? " " : ", ";
    out += c.source + " -> " + c.target;
    first = false;
  }
  out += "\n";
  return out;
}

struct Block {
  std::string source;
  std::string target;
  std::vector<PMapping::Alternative> alternatives;
};

Result<double> ParseProbability(std::string_view text) {
  try {
    size_t used = 0;
    const double v = std::stod(std::string(text), &used);
    if (used != text.size()) {
      return Status::InvalidArgument("bad probability '" + std::string(text) +
                                     "'");
    }
    return v;
  } catch (...) {
    return Status::InvalidArgument("bad probability '" + std::string(text) +
                                   "'");
  }
}

Result<std::vector<Block>> ParseBlocks(std::string_view text) {
  AQUA_FAILPOINT("mapping/serialize/parse");
  std::vector<Block> blocks;
  size_t line_no = 0;
  for (std::string_view raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = Trim(line.substr(0, hash));
    if (line.empty()) continue;

    auto err = [&](const std::string& message) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": " + message);
    };

    if (StartsWith(std::string(ToLower(line)), "pmapping")) {
      std::string_view rest = Trim(line.substr(8));
      const size_t arrow = rest.find("=>");
      if (arrow == std::string_view::npos) {
        return err("expected 'pmapping <source> => <target>'");
      }
      Block block;
      block.source = std::string(Trim(rest.substr(0, arrow)));
      block.target = std::string(Trim(rest.substr(arrow + 2)));
      if (block.source.empty() || block.target.empty()) {
        return err("empty relation name in pmapping header");
      }
      blocks.push_back(std::move(block));
      continue;
    }

    if (StartsWith(std::string(ToLower(line)), "candidate")) {
      if (blocks.empty()) {
        return err("'candidate' before any 'pmapping' header");
      }
      std::string_view rest = Trim(line.substr(9));
      const size_t colon = rest.find(':');
      if (colon == std::string_view::npos) {
        return err("expected 'candidate <prob>: s -> t, ...'");
      }
      AQUA_ASSIGN_OR_RETURN(double prob,
                            ParseProbability(Trim(rest.substr(0, colon))));
      std::vector<Correspondence> corr;
      const std::string_view list = Trim(rest.substr(colon + 1));
      if (!list.empty()) {
        for (std::string_view item : Split(list, ',')) {
          const size_t arrow = item.find("->");
          if (arrow == std::string_view::npos) {
            return err("expected 'source -> target' in correspondence list");
          }
          Correspondence c;
          c.source = std::string(Trim(item.substr(0, arrow)));
          c.target = std::string(Trim(item.substr(arrow + 2)));
          if (c.source.empty() || c.target.empty()) {
            return err("empty attribute name in correspondence");
          }
          corr.push_back(std::move(c));
        }
      }
      Block& block = blocks.back();
      auto mapping =
          RelationMapping::Make(block.source, block.target, std::move(corr));
      if (!mapping.ok()) return err(mapping.status().message());
      block.alternatives.push_back(
          PMapping::Alternative{std::move(mapping).value(), prob});
      continue;
    }

    return err("unrecognised statement '" + std::string(line) + "'");
  }
  if (blocks.empty()) {
    return Status::InvalidArgument("no pmapping block found");
  }
  return blocks;
}

Result<PMapping> BlockToPMapping(Block block) {
  if (block.alternatives.empty()) {
    return Status::InvalidArgument("pmapping " + block.source + " => " +
                                   block.target + " has no candidates");
  }
  return PMapping::Make(std::move(block.alternatives));
}

}  // namespace

std::string PMappingText::Format(const PMapping& pmapping) {
  std::string out = "pmapping " + pmapping.source_relation() + " => " +
                    pmapping.target_relation() + "\n";
  for (const PMapping::Alternative& alt : pmapping.alternatives()) {
    out += FormatCandidate(alt.mapping, alt.probability);
  }
  return out;
}

std::string PMappingText::FormatSchema(const SchemaPMapping& mapping) {
  std::string out;
  for (size_t i = 0; i < mapping.size(); ++i) {
    out += Format(mapping.mapping(i));
  }
  return out;
}

Result<PMapping> PMappingText::Parse(std::string_view text) {
  AQUA_ASSIGN_OR_RETURN(std::vector<Block> blocks, ParseBlocks(text));
  if (blocks.size() != 1) {
    return Status::InvalidArgument("expected exactly one pmapping block, got " +
                                   std::to_string(blocks.size()));
  }
  return BlockToPMapping(std::move(blocks[0]));
}

Result<SchemaPMapping> PMappingText::ParseSchema(std::string_view text) {
  AQUA_ASSIGN_OR_RETURN(std::vector<Block> blocks, ParseBlocks(text));
  std::vector<PMapping> mappings;
  mappings.reserve(blocks.size());
  for (Block& block : blocks) {
    AQUA_ASSIGN_OR_RETURN(PMapping pm, BlockToPMapping(std::move(block)));
    mappings.push_back(std::move(pm));
  }
  return SchemaPMapping::Make(std::move(mappings));
}

Result<SchemaPMapping> PMappingText::ReadSchemaFile(const std::string& path) {
  AQUA_FAILPOINT("mapping/serialize/read-file");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = std::move(buf).str();  // see Csv::ReadFile
  return ParseSchema(text);
}

Status PMappingText::WriteSchemaFile(const SchemaPMapping& mapping,
                                     const std::string& path) {
  AQUA_FAILPOINT("mapping/serialize/write-file");
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument("cannot open '" + path +
                                           "' for writing");
  out << FormatSchema(mapping);
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace aqua

#include "aqua/mapping/p_mapping.h"

#include <cmath>

#include "aqua/common/string_util.h"

namespace aqua {

Result<PMapping> PMapping::Make(std::vector<Alternative> alternatives,
                                double eps) {
  if (alternatives.empty()) {
    return Status::InvalidArgument(
        "a p-mapping needs at least one candidate mapping");
  }
  const std::string& src = alternatives.front().mapping.source_relation();
  const std::string& tgt = alternatives.front().mapping.target_relation();
  double total = 0.0;
  for (size_t i = 0; i < alternatives.size(); ++i) {
    const Alternative& alt = alternatives[i];
    if (!EqualsIgnoreCase(alt.mapping.source_relation(), src) ||
        !EqualsIgnoreCase(alt.mapping.target_relation(), tgt)) {
      return Status::InvalidArgument(
          "all candidate mappings must relate the same pair of relations");
    }
    if (alt.probability < 0.0 || alt.probability > 1.0) {
      return Status::InvalidArgument(
          "probability " + FormatDouble(alt.probability) +
          " of candidate " + std::to_string(i) + " is outside [0, 1]");
    }
    total += alt.probability;
    for (size_t j = 0; j < i; ++j) {
      if (alternatives[j].mapping == alt.mapping) {
        return Status::InvalidArgument("candidate mappings " +
                                       std::to_string(j) + " and " +
                                       std::to_string(i) + " are identical");
      }
    }
  }
  if (std::fabs(total - 1.0) > eps) {
    return Status::InvalidArgument("mapping probabilities sum to " +
                                   FormatDoubleRoundTrip(total) +
                                   ", expected 1");
  }
  PMapping pm;
  pm.alternatives_ = std::move(alternatives);
  return pm;
}

std::vector<double> PMapping::probabilities() const {
  std::vector<double> out;
  out.reserve(alternatives_.size());
  for (const Alternative& alt : alternatives_) {
    out.push_back(alt.probability);
  }
  return out;
}

void PMapping::CheckInvariants() const {
  AQUA_CHECK(!alternatives_.empty()) << "p-mapping with no candidates";
  double total = 0.0;
  for (size_t i = 0; i < alternatives_.size(); ++i) {
    AQUA_CHECK_PROB(alternatives_[i].probability)
        << "(candidate " << i << " of p-mapping " << source_relation()
        << " => " << target_relation() << ")";
    total += alternatives_[i].probability;
  }
  AQUA_CHECK(std::fabs(total - 1.0) <= 1e-6)
      << "mapping probabilities sum to " << total << ", expected 1 (p-mapping "
      << source_relation() << " => " << target_relation() << ")";
}

bool PMapping::IsCertainTarget(std::string_view target) const {
  Result<std::string> first = alternatives_.front().mapping.SourceFor(target);
  for (size_t i = 1; i < alternatives_.size(); ++i) {
    Result<std::string> cur = alternatives_[i].mapping.SourceFor(target);
    if (cur.ok() != first.ok()) return false;
    if (cur.ok() && !EqualsIgnoreCase(*cur, *first)) return false;
  }
  return true;
}

std::string PMapping::ToString() const {
  std::string out = "pM(" + source_relation() + " => " + target_relation() +
                    "):\n";
  for (const Alternative& alt : alternatives_) {
    out += "  " + alt.mapping.ToString() + "  Pr=" +
           FormatDouble(alt.probability) + "\n";
  }
  return out;
}

Result<SchemaPMapping> SchemaPMapping::Make(std::vector<PMapping> mappings) {
  for (size_t i = 0; i < mappings.size(); ++i) {
    if (mappings[i].size() == 0) {
      return Status::InvalidArgument("empty p-mapping at index " +
                                     std::to_string(i));
    }
    for (size_t j = 0; j < i; ++j) {
      if (EqualsIgnoreCase(mappings[i].source_relation(),
                           mappings[j].source_relation())) {
        return Status::InvalidArgument("source relation '" +
                                       mappings[i].source_relation() +
                                       "' appears in two p-mappings");
      }
      if (EqualsIgnoreCase(mappings[i].target_relation(),
                           mappings[j].target_relation())) {
        return Status::InvalidArgument("target relation '" +
                                       mappings[i].target_relation() +
                                       "' appears in two p-mappings");
      }
    }
  }
  SchemaPMapping spm;
  spm.mappings_ = std::move(mappings);
  return spm;
}

Result<const PMapping*> SchemaPMapping::ForTargetRelation(
    std::string_view relation) const {
  for (const PMapping& pm : mappings_) {
    if (EqualsIgnoreCase(pm.target_relation(), relation)) return &pm;
  }
  return Status::NotFound("no p-mapping targets relation '" +
                          std::string(relation) + "'");
}

Result<const PMapping*> SchemaPMapping::ForSourceRelation(
    std::string_view relation) const {
  for (const PMapping& pm : mappings_) {
    if (EqualsIgnoreCase(pm.source_relation(), relation)) return &pm;
  }
  return Status::NotFound("no p-mapping sources relation '" +
                          std::string(relation) + "'");
}

}  // namespace aqua

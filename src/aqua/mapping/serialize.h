#ifndef AQUA_MAPPING_SERIALIZE_H_
#define AQUA_MAPPING_SERIALIZE_H_

#include <string>
#include <string_view>

#include "aqua/common/result.h"
#include "aqua/mapping/p_mapping.h"

namespace aqua {

/// Human-editable text format for (schema) p-mappings, so matcher output
/// can be stored in files and reviewed. Grammar (one statement per line,
/// `#` comments, blank lines ignored):
///
///   pmapping S1 => T1
///   candidate 0.6: ID -> propertyID, postedDate -> date
///   candidate 0.4: ID -> propertyID, reducedDate -> date
///   pmapping S2 => T2
///   ...
///
/// A `candidate` line belongs to the most recent `pmapping` header.
/// Probabilities of each block must sum to 1 (validated by
/// `PMapping::Make`).
class PMappingText {
 public:
  /// Serialises one p-mapping (one header + one candidate line each).
  static std::string Format(const PMapping& pmapping);

  /// Serialises a schema p-mapping (blocks concatenated).
  static std::string FormatSchema(const SchemaPMapping& mapping);

  /// Parses text containing exactly one `pmapping` block.
  static Result<PMapping> Parse(std::string_view text);

  /// Parses text containing one or more blocks.
  static Result<SchemaPMapping> ParseSchema(std::string_view text);

  /// Reads and parses the file at `path` (one or more blocks; failpoint
  /// `mapping/serialize/read-file`).
  static Result<SchemaPMapping> ReadSchemaFile(const std::string& path);

  /// Writes `FormatSchema(mapping)` to `path` (failpoint
  /// `mapping/serialize/write-file`).
  static Status WriteSchemaFile(const SchemaPMapping& mapping,
                                const std::string& path);
};

}  // namespace aqua

#endif  // AQUA_MAPPING_SERIALIZE_H_

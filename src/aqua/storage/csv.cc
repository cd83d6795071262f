#include "aqua/storage/csv.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "aqua/common/failpoint.h"
#include "aqua/common/string_util.h"

namespace aqua {
namespace {

struct Field {
  std::string text;
  bool quoted = false;
};

// Splits one CSV record into fields, honouring double-quote quoting. The
// quoted flag is carried on the field itself (an earlier version smuggled
// it through a '\1' prefix on the text, which mis-read data that really
// starts with byte 0x01 — fuzzing territory). Returns false on an
// unterminated quoted field; note multi-line quoted fields are not
// supported (records are split on newlines first), so they surface as
// unterminated quotes too.
bool SplitRecord(std::string_view line, std::vector<Field>* fields) {
  fields->clear();
  Field cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.text += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.text += c;
      }
    } else if (c == '"' && cur.text.empty() && !cur.quoted) {
      in_quotes = true;
      cur.quoted = true;
    } else if (c == ',') {
      fields->push_back(std::move(cur));
      cur = Field{};
    } else {
      cur.text += c;
    }
  }
  if (in_quotes) return false;
  fields->push_back(std::move(cur));
  return true;
}

Result<Value> ParseTyped(const Field& f, ValueType type) {
  if (!f.quoted && f.text.empty()) return Value::Null();
  switch (type) {
    case ValueType::kInt64: {
      int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(f.text.data(), f.text.data() + f.text.size(), v);
      if (ec != std::errc() || ptr != f.text.data() + f.text.size()) {
        return Status::InvalidArgument("bad int64 field '" + f.text + "'");
      }
      return Value::Int64(v);
    }
    case ValueType::kDouble: {
      try {
        size_t pos = 0;
        const double v = std::stod(f.text, &pos);
        if (pos != f.text.size()) {
          return Status::InvalidArgument("bad double field '" + f.text + "'");
        }
        // std::stod accepts "nan" and "inf"; no aggregate over them is
        // meaningful, and NaN breaks every ordered sweep downstream.
        if (!std::isfinite(v)) {
          return Status::InvalidArgument("non-finite double field '" +
                                         f.text + "'");
        }
        return Value::Double(v);
      } catch (...) {
        return Status::InvalidArgument("bad double field '" + f.text + "'");
      }
    }
    case ValueType::kString:
      return Value::String(f.text);
    case ValueType::kDate: {
      AQUA_ASSIGN_OR_RETURN(Date d, Date::Parse(f.text));
      return Value::FromDate(d);
    }
    case ValueType::kNull:
      return Status::Internal("null-typed attribute");
  }
  return Status::Internal("corrupt type");
}

std::string EncodeField(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return std::to_string(v.int64());
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.dbl());
      return buf;
    }
    case ValueType::kDate:
      return v.date().ToString();
    case ValueType::kString: {
      const std::string& s = v.str();
      if (s.empty() || s.find_first_of(",\"\n\r") != std::string::npos) {
        std::string out = "\"";
        for (char c : s) {
          if (c == '"') out += '"';
          out += c;
        }
        out += '"';
        return out;
      }
      return s;
    }
  }
  return "";
}

}  // namespace

Result<Table> Csv::Parse(std::string_view text, const Schema& schema) {
  AQUA_FAILPOINT("storage/csv/parse");
  // Tolerate a UTF-8 byte-order mark: editors on some platforms prepend
  // one, and without this the first header column would be misnamed
  // "\xEF\xBB\xBFname" and fail schema lookup.
  if (text.substr(0, 3) == "\xEF\xBB\xBF") text.remove_prefix(3);
  std::vector<std::string_view> lines;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      std::string_view line = text.substr(start, i - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      lines.push_back(line);
      start = i + 1;
    }
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return Status::InvalidArgument("CSV has no header");

  std::vector<Field> raw;
  if (!SplitRecord(lines[0], &raw)) {
    return Status::InvalidArgument(
        "malformed CSV header: unterminated quoted field");
  }
  // Map header position -> schema column index.
  std::vector<size_t> target(raw.size());
  std::vector<bool> seen(schema.num_attributes(), false);
  for (size_t i = 0; i < raw.size(); ++i) {
    const Field& f = raw[i];
    AQUA_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(Trim(f.text)));
    if (seen[idx]) {
      return Status::InvalidArgument("duplicate CSV column '" + f.text + "'");
    }
    seen[idx] = true;
    target[i] = idx;
  }
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (!seen[i]) {
      return Status::InvalidArgument("CSV is missing attribute '" +
                                     schema.attribute(i).name + "'");
    }
  }

  std::vector<Column> columns;
  for (const Attribute& attr : schema.attributes()) {
    columns.emplace_back(attr.type);
  }
  for (size_t li = 1; li < lines.size(); ++li) {
    if (lines[li].empty()) continue;
    if (!SplitRecord(lines[li], &raw)) {
      return Status::InvalidArgument(
          "malformed CSV record on line " + std::to_string(li + 1) +
          ": unterminated quoted field");
    }
    if (raw.size() != target.size()) {
      return Status::InvalidArgument(
          "line " + std::to_string(li + 1) + " has " +
          std::to_string(raw.size()) + " fields, expected " +
          std::to_string(target.size()));
    }
    for (size_t i = 0; i < raw.size(); ++i) {
      const size_t col = target[i];
      Result<Value> v = ParseTyped(raw[i], schema.attribute(col).type);
      if (!v.ok()) {
        // Every cell error names its row and column; "bad double field"
        // alone is useless against a million-line file.
        return Status::InvalidArgument(
            "line " + std::to_string(li + 1) + ", column '" +
            schema.attribute(col).name + "': " + v.status().message());
      }
      AQUA_RETURN_NOT_OK(columns[col].Append(*v));
    }
  }
  return Table::Make(schema, std::move(columns));
}

Result<Table> Csv::ReadFile(const std::string& path, const Schema& schema) {
  AQUA_FAILPOINT("storage/csv/read-file");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  // Moved out, not copied: a copy would keep the stream's buffer, a second
  // image of the file, alive through the parse and raise peak memory.
  const std::string text = std::move(buf).str();
  return Parse(text, schema);
}

std::string Csv::Format(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out += ',';
    out += schema.attribute(i).name;
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      out += EncodeField(table.GetValue(r, c));
    }
    out += '\n';
  }
  return out;
}

Status Csv::WriteFile(const Table& table, const std::string& path) {
  AQUA_FAILPOINT("storage/csv/write-file");
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::InvalidArgument("cannot open '" + path +
                                           "' for writing");
  out << Format(table);
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace aqua

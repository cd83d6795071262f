#include "answer_check.h"

#include <algorithm>
#include <cmath>

#include "json_scan.h"

namespace loadbench {
namespace {

using Kind = JsonValue::Kind;

Checked Fail(Verdict verdict, std::string detail) {
  Checked c;
  c.verdict = verdict;
  c.detail = std::move(detail);
  return c;
}

bool Inside(const aqua::Interval& range, double v) {
  const double tol =
      1e-9 * std::max({1.0, std::fabs(range.low), std::fabs(range.high)});
  return std::isfinite(v) && v >= range.low - tol && v <= range.high + tol;
}

const JsonValue* Member(const JsonValue& object, std::string_view key,
                        Kind kind) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->kind == kind ? v : nullptr;
}

/// Checks that every value of an approximate answer lies inside `range`.
/// Returns an empty string when it does, else what is wrong.
std::string ApproximateViolation(const JsonValue& answer,
                                 const aqua::Interval& range) {
  const JsonValue* semantics = Member(answer, "semantics", Kind::kString);
  if (semantics == nullptr) return "answer has no semantics";
  if (semantics->str == "range") {
    const JsonValue* r = Member(answer, "range", Kind::kObject);
    const JsonValue* low = r ? Member(*r, "low", Kind::kNumber) : nullptr;
    const JsonValue* high = r ? Member(*r, "high", Kind::kNumber) : nullptr;
    if (low == nullptr || high == nullptr) return "range is not two numbers";
    if (low->number > high->number || !Inside(range, low->number) ||
        !Inside(range, high->number)) {
      return "approximate range lies outside the exact range";
    }
    return "";
  }
  if (semantics->str == "expected") {
    const JsonValue* e = Member(answer, "expected", Kind::kNumber);
    if (e == nullptr) return "expected value is not a number";
    if (!Inside(range, e->number)) {
      return "approximate expected value lies outside the exact range";
    }
    return "";
  }
  if (semantics->str == "distribution") {
    const JsonValue* d = Member(answer, "distribution", Kind::kArray);
    if (d == nullptr || d->items.empty()) return "distribution is empty";
    for (const JsonValue& entry : d->items) {
      if (entry.kind != Kind::kArray || entry.items.size() != 2 ||
          entry.items[0].kind != Kind::kNumber ||
          entry.items[1].kind != Kind::kNumber) {
        return "distribution entry is not [outcome, probability]";
      }
      const double p = entry.items[1].number;
      if (!(p >= 0.0 && p <= 1.0)) return "probability outside [0, 1]";
      if (!Inside(range, entry.items[0].number)) {
        return "approximate outcome lies outside the exact range";
      }
    }
    return "";
  }
  return "unknown semantics '" + semantics->str + "'";
}

}  // namespace

bool Succeeded(Verdict v) {
  return v == Verdict::kExact || v == Verdict::kApproximate;
}

Checked CheckResponse(int http_status, std::string_view body,
                      const Reference& ref) {
  if (http_status != 200) {
    return Fail(Verdict::kRefused, "HTTP " + std::to_string(http_status) +
                                       ": " + std::string(body.substr(0, 200)));
  }
  const std::optional<JsonValue> doc = ParseJson(body);
  if (!doc.has_value() || doc->kind != Kind::kObject) {
    return Fail(Verdict::kMalformed, "body is not a JSON object");
  }
  const JsonValue* ok = Member(*doc, "ok", Kind::kBool);
  const JsonValue* decision = Member(*doc, "decision", Kind::kString);
  if (ok == nullptr || !ok->boolean || decision == nullptr) {
    return Fail(Verdict::kMalformed, "body lacks ok:true and a decision");
  }

  Checked c;
  c.decision = decision->str;
  if (const JsonValue* groups = doc->Find("groups"); groups != nullptr) {
    c.grouped = true;
    if (groups->kind != Kind::kArray) {
      return Fail(Verdict::kMalformed, "groups is not an array");
    }
    if (!ref.exact_groups.has_value()) {
      return Fail(Verdict::kWrong, "grouped answer to an ungrouped query");
    }
    const auto& expected = *ref.exact_groups;
    if (groups->items.size() != expected.size()) {
      return Fail(Verdict::kWrong,
                  std::to_string(groups->items.size()) + " groups, expected " +
                      std::to_string(expected.size()));
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      const JsonValue& g = groups->items[i];
      const JsonValue* name =
          g.kind == Kind::kObject ? Member(g, "group", Kind::kString) : nullptr;
      const JsonValue* answer =
          name ? Member(g, "answer", Kind::kObject) : nullptr;
      const JsonValue* stats =
          answer ? Member(g, "stats", Kind::kObject) : nullptr;
      const JsonValue* steps =
          stats ? Member(*stats, "steps", Kind::kNumber) : nullptr;
      if (steps == nullptr) {
        return Fail(Verdict::kMalformed, "group entry is incomplete");
      }
      if (name->str != expected[i].first || answer->raw != expected[i].second) {
        return Fail(Verdict::kWrong, "group '" + name->str + "' differs");
      }
      c.steps += static_cast<uint64_t>(steps->number);
    }
    c.verdict = Verdict::kExact;
    return c;
  }

  const JsonValue* answer = Member(*doc, "answer", Kind::kObject);
  const JsonValue* stats = Member(*doc, "stats", Kind::kObject);
  const JsonValue* approximate =
      answer ? Member(*answer, "approximate", Kind::kBool) : nullptr;
  const JsonValue* wall =
      stats ? Member(*stats, "wall_time_us", Kind::kNumber) : nullptr;
  const JsonValue* steps = stats ? Member(*stats, "steps", Kind::kNumber)
                                 : nullptr;
  const JsonValue* samples =
      stats ? Member(*stats, "samples", Kind::kNumber) : nullptr;
  if (approximate == nullptr || wall == nullptr || steps == nullptr ||
      samples == nullptr) {
    return Fail(Verdict::kMalformed, "body lacks answer or stats fields");
  }
  c.wall_time_us = static_cast<int64_t>(wall->number);
  c.steps = static_cast<uint64_t>(steps->number);
  c.samples = static_cast<uint64_t>(samples->number);
  if (!approximate->boolean) {
    if (!ref.exact_answer.has_value()) {
      return Fail(Verdict::kWrong, "exact answer to a query with none");
    }
    if (answer->raw != *ref.exact_answer) {
      return Fail(Verdict::kWrong, "answer differs from the reference: " +
                                       std::string(answer->raw.substr(0, 200)));
    }
    c.verdict = Verdict::kExact;
    return c;
  }
  if (!ref.range.has_value()) {
    return Fail(Verdict::kWrong, "approximate answer to an exact-only query");
  }
  if (std::string why = ApproximateViolation(*answer, *ref.range);
      !why.empty()) {
    return Fail(Verdict::kWrong, why);
  }
  c.verdict = Verdict::kApproximate;
  return c;
}

}  // namespace loadbench

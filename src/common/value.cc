#include "common/value.h"

#include <cmath>
#include <cstdio>

namespace whyq {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kGt:
      return ">";
  }
  return "?";
}

bool IsUpperBound(CompareOp op) {
  return op == CompareOp::kLt || op == CompareOp::kLe;
}

bool IsLowerBound(CompareOp op) {
  return op == CompareOp::kGt || op == CompareOp::kGe;
}

std::optional<int> Value::Compare(const Value& other) const {
  if (is_string() != other.is_string()) return std::nullopt;
  if (is_string()) {
    int c = as_string().compare(other.as_string());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (is_int() && other.is_int()) {
    return CompareNumeric(as_int(), other.as_int());
  }
  return CompareNumeric(numeric(), other.numeric());
}

bool Value::Satisfies(CompareOp op, const Value& constant) const {
  std::optional<int> cmp = Compare(constant);
  return cmp.has_value() && CompareHolds(op, *cmp);
}

bool Value::operator==(const Value& other) const {
  if (is_double() && other.is_double()) {
    double a = as_double();
    double b = other.as_double();
    return a == b || (std::isnan(a) && std::isnan(b));
  }
  return data_ == other.data_;
}

bool Value::operator<(const Value& other) const {
  if (data_.index() != other.data_.index()) {
    return data_.index() < other.data_.index();
  }
  if (is_double()) {
    double a = as_double();
    double b = other.as_double();
    if (std::isnan(a) || std::isnan(b)) return !std::isnan(a) && std::isnan(b);
    return a < b;
  }
  return data_ < other.data_;
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(as_int());
  if (is_string()) return as_string();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", as_double());
  return buf;
}

std::optional<double> AbsoluteDifference(const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) return std::nullopt;
  return std::fabs(a.numeric() - b.numeric());
}

}  // namespace whyq

#ifndef WHYQ_COMMON_VALUE_H_
#define WHYQ_COMMON_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

namespace whyq {

/// Comparison operator of a literal `u.A op c` (Section II of the paper).
enum class CompareOp : uint8_t {
  kLt,  // <
  kLe,  // <=
  kEq,  // =
  kGe,  // >=
  kGt,  // >
};

/// Returns the printable form of `op` ("<", "<=", "=", ">=", ">").
const char* CompareOpName(CompareOp op);

/// True for `<` and `<=`: the literal imposes an upper bar on the attribute.
bool IsUpperBound(CompareOp op);
/// True for `>` and `>=`: the literal imposes a lower bar on the attribute.
bool IsLowerBound(CompareOp op);

/// A typed attribute value. Multi-attributed graphs carry heterogeneous
/// attribute tuples per node; a value is an integer, a double, or a string.
/// Numeric kinds compare with each other; strings compare lexicographically
/// with strings only. Cross-kind (numeric vs. string) comparisons are
/// undefined and reported as std::nullopt.
class Value {
 public:
  Value() : data_(int64_t{0}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(int v) : data_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_numeric() const { return is_int() || is_double(); }

  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Numeric view (int promoted to double). Only valid if is_numeric().
  double numeric() const {
    return is_int() ? static_cast<double>(as_int()) : as_double();
  }

  /// Three-way comparison: negative / zero / positive, or std::nullopt when
  /// the kinds are incomparable (numeric vs. string).
  std::optional<int> Compare(const Value& other) const;

  /// Evaluates `*this op constant`; incomparable kinds never satisfy.
  bool Satisfies(CompareOp op, const Value& constant) const;

  /// Exact same kind and content (string "5" != int 5, but int 5 == double 5.0
  /// is still false here; use Compare for numeric equality). Doubles compare
  /// numerically (0.0 == -0.0), and every NaN equals every other NaN, so
  /// equality is an equivalence usable for container keys.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Arbitrary-but-total order usable as a container key (kind first, then
  /// value; NaN after every other double). Its equivalence is operator==.
  /// Distinct from Compare, which is the semantic order.
  bool operator<(const Value& other) const;

  std::string ToString() const;

 private:
  std::variant<int64_t, double, std::string> data_;
};

/// |a - b| on the semantic (numeric) axis; nullopt for non-numeric operands.
/// Used by the weighted edit-cost model w(o) = 1 + |c'-c|/range(D(A)).
std::optional<double> AbsoluteDifference(const Value& a, const Value& b);

}  // namespace whyq

#endif  // WHYQ_COMMON_VALUE_H_

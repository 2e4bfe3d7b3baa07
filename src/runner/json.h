// A minimal JSON document model for the experiment pipeline: the sweep
// runner serializes aggregated results as BENCH_*.json, and tests parse
// them back to assert well-formedness and bit-for-bit determinism.
//
// Design constraints that rule out an off-the-shelf library: object keys
// must keep insertion order (so two runs of the same grid produce
// byte-identical files), integers must print without a decimal point (so
// counts diff cleanly), and doubles must round-trip exactly (shortest
// representation via std::to_chars).

#ifndef AC3_RUNNER_JSON_H_
#define AC3_RUNNER_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace ac3::runner {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}         // NOLINT
  /// Any non-bool integral type (counts, seeds, TimePoints).
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Json(T value)                                                  // NOLINT
      : type_(Type::kInt), int_(static_cast<int64_t>(value)) {}
  Json(double value) : type_(Type::kDouble), double_(value) {}   // NOLINT
  Json(const char* value) : type_(Type::kString), string_(value) {}  // NOLINT
  Json(std::string value)                                        // NOLINT
      : type_(Type::kString), string_(std::move(value)) {}

  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }

  // Typed accessors; the caller is expected to have checked type().
  bool AsBool() const { return bool_; }
  int64_t AsInt() const {
    return type_ == Type::kDouble ? static_cast<int64_t>(double_) : int_;
  }
  double AsDouble() const {
    return type_ == Type::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& AsString() const { return string_; }

  // ---- array interface ----------------------------------------------------
  size_t size() const {
    return type_ == Type::kObject ? members_.size() : items_.size();
  }
  void Push(Json value) { items_.push_back(std::move(value)); }
  const Json& at(size_t i) const { return items_.at(i); }
  const std::vector<Json>& items() const { return items_; }

  // ---- object interface (insertion-ordered) -------------------------------
  /// Inserts or overwrites `key`.
  void Set(std::string_view key, Json value);
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
  /// Null pointer when absent.
  const Json* Find(std::string_view key) const;
  /// Crashing accessor for keys known to exist.
  const Json& at(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Deep structural equality (object key order is significant, matching
  /// the determinism contract of the sweep pipeline).
  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

  /// Pretty-prints with 2-space indentation and a trailing newline at the
  /// top level — stable output for golden diffs.
  std::string Serialize() const;

  static Result<Json> Parse(std::string_view text);

 private:
  void SerializeTo(std::string* out, int depth) const;

  Type type_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Escapes `s` as a JSON string literal body (no surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace ac3::runner

#endif  // AC3_RUNNER_JSON_H_

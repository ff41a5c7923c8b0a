// JSON encoding for every machine-readable artifact this repository
// emits: metrics snapshots, Chrome trace_event files, span and
// time-series exports, perf and chaos reports, BENCH_*.json records.
//
// There is one encoder, JsonWriter, so the encoding rules live in one
// place: members keep the order they are written in (byte-stable output
// for a given build sequence), integers are emitted exactly, doubles use
// the shortest round-trip representation and non-finite doubles become
// null. Small documents are built as a Json value and serialized with
// Json::Dump, which walks the value into a JsonWriter. The recorders'
// exports, which run to tens of megabytes, stream into a JsonWriter
// directly, so their cost grows with the document and not with a tree of
// it. A small parser is included so tests can validate emitted documents
// without external dependencies.

#ifndef LIGHTRW_OBS_JSON_H_
#define LIGHTRW_OBS_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace lightrw::obs {

// A JSON document: null, bool, integer, double, string, array, or object.
// Integers are kept separate from doubles so counters round-trip exactly.
class Json {
 public:
  enum class Kind {
    kNull,
    kBool,
    kInt,     // signed 64-bit
    kUint,    // unsigned 64-bit (counters)
    kDouble,
    kString,
    kArray,
    kObject,
  };

  using Array = std::vector<Json>;
  // Insertion-ordered key/value list. Lookups are linear, which is fine
  // for the document sizes involved (metric snapshots, bench records).
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : kind_(Kind::kNull) {}
  Json(bool value) : kind_(Kind::kBool), bool_(value) {}          // NOLINT
  Json(int value) : kind_(Kind::kInt), int_(value) {}             // NOLINT
  Json(int64_t value) : kind_(Kind::kInt), int_(value) {}         // NOLINT
  Json(uint64_t value) : kind_(Kind::kUint), uint_(value) {}      // NOLINT
  Json(double value) : kind_(Kind::kDouble), double_(value) {}    // NOLINT
  Json(std::string value)                                         // NOLINT
      : kind_(Kind::kString), string_(std::move(value)) {}
  Json(const char* value) : kind_(Kind::kString), string_(value) {}  // NOLINT

  static Json MakeArray() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json MakeObject() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint ||
           kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; the value must hold the matching kind (numbers
  // convert between the three numeric kinds).
  bool bool_value() const;
  int64_t int_value() const;
  uint64_t uint_value() const;
  double double_value() const;
  const std::string& string_value() const;
  const Array& array() const;
  const Object& object() const;

  // Object editing: appends, or replaces an existing key in place.
  // Returns *this so builders can chain.
  Json& Set(std::string key, Json value);
  // Null if the key is absent (object-kind values only).
  const Json* Find(std::string_view key) const;

  // Array editing.
  Json& Append(Json value);

  // Elements / members count; 0 for scalars.
  size_t size() const;

  // Serializes the document. indent < 0 emits the compact single-line
  // form; indent >= 0 pretty-prints with that many spaces per level.
  std::string Dump(int indent = -1) const;

  // Parses a complete JSON document (trailing garbage is an error).
  static StatusOr<Json> Parse(std::string_view text);

 private:
  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

// Appends the JSON escaping of `text` (without surrounding quotes).
void AppendJsonEscaped(std::string* out, std::string_view text);

// Appends `value` in the encoder's number form: the shortest round-trip
// representation, or null when it is not finite. The Prometheus and
// OpenMetrics exporters format their samples with it too.
void AppendJsonDouble(std::string* out, double value);

// Streams one JSON document into a string, byte for byte as Json::Dump
// serializes the same tree. indent < 0 emits the compact single-line
// form; indent >= 0 starts every element on its own line, indented that
// many spaces per level, and writes ": " after keys. An empty container
// is "{}" or "[]".
//
// Misuse is a CHECK failure: a key outside an object, an object member
// without a key, a key left without a value, a second top-level value,
// an End with no open container, or Take before the document is
// complete.
class JsonWriter {
 public:
  explicit JsonWriter(int indent = -1) : indent_(indent) {}

  void BeginObject();
  void BeginArray();
  // Closes the innermost open object or array.
  void End();
  // Starts an object member; its value follows with Value, BeginObject
  // or BeginArray.
  void Key(std::string_view key);

  void Value(std::nullptr_t);
  void Value(bool value);
  void Value(int value) { Value(static_cast<int64_t>(value)); }
  void Value(int64_t value);
  void Value(uint64_t value);
  void Value(double value);
  void Value(std::string_view value);
  void Value(const char* value) { Value(std::string_view(value)); }
  void Value(const std::string& value) { Value(std::string_view(value)); }
  // Embeds a section built as a Json value.
  void Value(const Json& value);

  template <typename T>
  void Member(std::string_view key, const T& value) {
    Key(key);
    Value(value);
  }

  // Returns the finished document and leaves the writer empty.
  std::string Take();

 private:
  struct Frame {
    bool object = false;
    bool empty = true;
  };

  // Writes what precedes an array element or the top-level value (the
  // comma, newline and indent), or consumes the pending object key.
  void BeforeValue();
  // Writes the comma, newline and indent before the innermost open
  // container's next element.
  void BeforeElement();
  // When indenting: a newline and the indent of the current depth.
  void NewLine();
  void Open(bool object);

  int indent_;
  std::string out_;
  std::vector<Frame> stack_;
  bool key_pending_ = false;
  bool started_ = false;  // the top-level value has begun
};

}  // namespace lightrw::obs

#endif  // LIGHTRW_OBS_JSON_H_

//===- support/Json.h - Minimal JSON value parser ---------------*- C++ -*-===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser for the serving protocol
/// (docs/SERVING.md).  The design target is hostile input: a resident
/// daemon parses every request line with this, so the parser enforces
/// hard limits (input bytes, nesting depth, string length) and turns every
/// malformed input into an error message instead of a crash, an unbounded
/// allocation, or a stack overflow.
///
/// Deliberately minimal: values parse into a tagged tree (\c json::Value);
/// numbers are doubles with an exact-uint64 accessor for ids and budgets;
/// object keys keep insertion order (duplicate keys: last wins, matching
/// common parser behaviour).  Writing JSON stays with the hand-built
/// renderers (trace, SARIF, serve responses) — deterministic key order is
/// part of their contract.
///
//===----------------------------------------------------------------------===//

#ifndef HYBRIDPT_SUPPORT_JSON_H
#define HYBRIDPT_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pt::json {

/// Hard limits applied while parsing.  Exceeding any of them is a parse
/// error, never an unbounded allocation.
struct ParseLimits {
  /// Maximum input size in bytes.
  size_t MaxBytes = 1 << 20;
  /// Maximum container nesting depth.
  size_t MaxDepth = 32;
  /// Maximum decoded length of any single string value or key.
  size_t MaxStringBytes = 1 << 16;
  /// Maximum total number of values in the tree.
  size_t MaxValues = 1 << 16;
};

/// One parsed JSON value.
struct Value {
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  double Num = 0.0;
  std::string Str;
  std::vector<Value> Arr;
  /// Members in insertion order (duplicate keys: last one wins on lookup).
  std::vector<std::pair<std::string, Value>> Obj;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Member lookup on an object; nullptr when absent or not an object.
  /// Last duplicate wins.
  const Value *find(std::string_view Key) const;

  /// The number as a non-negative exact integer; false when the value is
  /// not a number, is negative, has a fraction, or exceeds 2^53 (beyond
  /// which doubles silently lose integers).
  bool asU64(uint64_t &Out) const;

  /// "null" / "bool" / "number" / "string" / "array" / "object".
  const char *kindName() const;
};

/// Parses \p Text into \p Out.  On failure returns false and fills
/// \p Error with a byte-offset-tagged message.  Trailing non-whitespace
/// after the top-level value is an error (one request per line).
bool parse(std::string_view Text, Value &Out, std::string &Error,
           const ParseLimits &Limits = {});

/// Escapes \p S for embedding inside a JSON string literal: `"`, `\`,
/// `\n`, `\r` and `\t` get their two-character escapes, every other byte
/// below 0x20 becomes `\u00XX`, and all other bytes (UTF-8 included) pass
/// through verbatim.
std::string escape(std::string_view S);

/// \c escape appending to \p Out, for writers that build output in a
/// buffer of their own.
void appendEscaped(std::string &Out, std::string_view S);

} // namespace pt::json

#endif // HYBRIDPT_SUPPORT_JSON_H

//===- support/Json.cpp --------------------------------------------------------===//
//
// Part of the hybridpt project (PLDI 2013 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace pt;
using namespace pt::json;

const Value *Value::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  const Value *Found = nullptr;
  for (const auto &[Name, Member] : Obj)
    if (Name == Key)
      Found = &Member; // Last duplicate wins.
  return Found;
}

bool Value::asU64(uint64_t &Out) const {
  if (K != Kind::Number)
    return false;
  if (Num < 0.0 || Num > 9007199254740992.0 /* 2^53 */)
    return false;
  if (Num != std::floor(Num))
    return false;
  Out = static_cast<uint64_t>(Num);
  return true;
}

const char *Value::kindName() const {
  switch (K) {
  case Kind::Null:
    return "null";
  case Kind::Bool:
    return "bool";
  case Kind::Number:
    return "number";
  case Kind::String:
    return "string";
  case Kind::Array:
    return "array";
  case Kind::Object:
    return "object";
  }
  return "null";
}

namespace {

/// The recursive-descent parser.  Depth and value-count limits bound both
/// stack and heap; every failure path records a byte offset so a protocol
/// error reply can point at the exact spot.
class Parser {
public:
  Parser(std::string_view Text, const ParseLimits &Limits)
      : Text(Text), Limits(Limits) {}

  bool run(Value &Out, std::string &Error) {
    if (Text.size() > Limits.MaxBytes) {
      Error = "input exceeds " + std::to_string(Limits.MaxBytes) +
              " bytes (got " + std::to_string(Text.size()) + ")";
      return false;
    }
    skipSpace();
    if (!parseValue(Out, 0))
      goto fail;
    skipSpace();
    if (Pos != Text.size()) {
      Err = "trailing content after top-level value";
      goto fail;
    }
    return true;
  fail:
    Error = Err + " at byte " + std::to_string(Pos);
    return false;
  }

private:
  std::string_view Text;
  const ParseLimits &Limits;
  size_t Pos = 0;
  size_t Values = 0;
  std::string Err;

  bool eof() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  void skipSpace() {
    while (!eof()) {
      char C = peek();
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool countValue() {
    if (++Values > Limits.MaxValues) {
      Err = "value count exceeds " + std::to_string(Limits.MaxValues);
      return false;
    }
    return true;
  }

  bool parseValue(Value &Out, size_t Depth) {
    if (!countValue())
      return false;
    if (eof()) {
      Err = "unexpected end of input";
      return false;
    }
    char C = peek();
    switch (C) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"':
      Out.K = Value::Kind::String;
      return parseString(Out.Str);
    case 't':
      return parseLiteral("true", [&Out] {
        Out.K = Value::Kind::Bool;
        Out.B = true;
      });
    case 'f':
      return parseLiteral("false", [&Out] {
        Out.K = Value::Kind::Bool;
        Out.B = false;
      });
    case 'n':
      return parseLiteral("null", [&Out] { Out.K = Value::Kind::Null; });
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(Out);
      Err = std::string("unexpected character '") + C + "'";
      return false;
    }
  }

  template <typename SetFn> bool parseLiteral(std::string_view Word, SetFn Set) {
    if (Text.substr(Pos, Word.size()) != Word) {
      Err = "invalid literal";
      return false;
    }
    Pos += Word.size();
    Set();
    return true;
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (!eof() && peek() == '-')
      ++Pos;
    auto digits = [this] {
      size_t N = 0;
      while (!eof() && peek() >= '0' && peek() <= '9') {
        ++Pos;
        ++N;
      }
      return N;
    };
    size_t IntDigits = digits();
    if (IntDigits == 0) {
      Err = "number wants digits";
      return false;
    }
    // JSON forbids leading zeros ("01"); tolerate them — a daemon should
    // not refuse a request over pedantry that cannot change the value.
    if (!eof() && peek() == '.') {
      ++Pos;
      if (digits() == 0) {
        Err = "number wants digits after '.'";
        return false;
      }
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++Pos;
      if (!eof() && (peek() == '+' || peek() == '-'))
        ++Pos;
      if (digits() == 0) {
        Err = "number wants digits in exponent";
        return false;
      }
    }
    std::string Slice(Text.substr(Start, Pos - Start));
    char *EndPtr = nullptr;
    double Parsed = std::strtod(Slice.c_str(), &EndPtr);
    if (EndPtr != Slice.c_str() + Slice.size() || !std::isfinite(Parsed)) {
      Err = "number out of range";
      return false;
    }
    Out.K = Value::Kind::Number;
    Out.Num = Parsed;
    return true;
  }

  bool parseHex4(uint32_t &Out) {
    if (Pos + 4 > Text.size()) {
      Err = "truncated \\u escape";
      return false;
    }
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos + static_cast<size_t>(I)];
      V <<= 4;
      if (C >= '0' && C <= '9')
        V |= static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        V |= static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        V |= static_cast<uint32_t>(C - 'A' + 10);
      else {
        Err = "bad hex digit in \\u escape";
        return false;
      }
    }
    Pos += 4;
    Out = V;
    return true;
  }

  static void appendUtf8(std::string &Out, uint32_t Cp) {
    if (Cp < 0x80) {
      Out += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      Out += static_cast<char>(0xC0 | (Cp >> 6));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      Out += static_cast<char>(0xE0 | (Cp >> 12));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Cp >> 18));
      Out += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (true) {
      if (eof()) {
        Err = "unterminated string";
        return false;
      }
      if (Out.size() > Limits.MaxStringBytes) {
        Err = "string exceeds " + std::to_string(Limits.MaxStringBytes) +
              " bytes";
        return false;
      }
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20) {
        Err = "unescaped control character in string";
        return false;
      }
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (eof()) {
        Err = "unterminated escape";
        return false;
      }
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        uint32_t Cp = 0;
        if (!parseHex4(Cp))
          return false;
        if (Cp >= 0xD800 && Cp <= 0xDBFF) {
          // High surrogate: require the low half.
          if (Pos + 2 > Text.size() || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u') {
            Err = "unpaired surrogate in \\u escape";
            return false;
          }
          Pos += 2;
          uint32_t Lo = 0;
          if (!parseHex4(Lo))
            return false;
          if (Lo < 0xDC00 || Lo > 0xDFFF) {
            Err = "unpaired surrogate in \\u escape";
            return false;
          }
          Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Lo - 0xDC00);
        } else if (Cp >= 0xDC00 && Cp <= 0xDFFF) {
          Err = "unpaired surrogate in \\u escape";
          return false;
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        Err = std::string("bad escape '\\") + E + "'";
        return false;
      }
    }
  }

  bool parseArray(Value &Out, size_t Depth) {
    if (Depth + 1 > Limits.MaxDepth) {
      Err = "nesting exceeds depth " + std::to_string(Limits.MaxDepth);
      return false;
    }
    ++Pos; // '['
    Out.K = Value::Kind::Array;
    skipSpace();
    if (!eof() && peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      Value Element;
      skipSpace();
      if (!parseValue(Element, Depth + 1))
        return false;
      Out.Arr.push_back(std::move(Element));
      skipSpace();
      if (eof()) {
        Err = "unterminated array";
        return false;
      }
      char C = Text[Pos++];
      if (C == ']')
        return true;
      if (C != ',') {
        --Pos;
        Err = "expected ',' or ']' in array";
        return false;
      }
    }
  }

  bool parseObject(Value &Out, size_t Depth) {
    if (Depth + 1 > Limits.MaxDepth) {
      Err = "nesting exceeds depth " + std::to_string(Limits.MaxDepth);
      return false;
    }
    ++Pos; // '{'
    Out.K = Value::Kind::Object;
    skipSpace();
    if (!eof() && peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      if (eof() || peek() != '"') {
        Err = "expected string key in object";
        return false;
      }
      std::string Key;
      if (!parseString(Key))
        return false;
      skipSpace();
      if (eof() || Text[Pos] != ':') {
        Err = "expected ':' after object key";
        return false;
      }
      ++Pos;
      Value Member;
      skipSpace();
      if (!parseValue(Member, Depth + 1))
        return false;
      Out.Obj.emplace_back(std::move(Key), std::move(Member));
      skipSpace();
      if (eof()) {
        Err = "unterminated object";
        return false;
      }
      char C = Text[Pos++];
      if (C == '}')
        return true;
      if (C != ',') {
        --Pos;
        Err = "expected ',' or '}' in object";
        return false;
      }
    }
  }
};

} // namespace

bool pt::json::parse(std::string_view Text, Value &Out, std::string &Error,
                     const ParseLimits &Limits) {
  Out = Value{};
  return Parser(Text, Limits).run(Out, Error);
}

void pt::json::appendEscaped(std::string &Out, std::string_view S) {
  // Copy runs of plain characters in one append; only the (rare) characters
  // that need an escape go one at a time.
  size_t Run = 0;
  for (size_t I = 0; I != S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    }
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
}

std::string pt::json::escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  appendEscaped(Out, S);
  return Out;
}

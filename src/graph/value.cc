#include "graph/value.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace pghive {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt:
      return "Int";
    case DataType::kDouble:
      return "Double";
    case DataType::kBool:
      return "Bool";
    case DataType::kDate:
      return "Date";
    case DataType::kTimestamp:
      return "Timestamp";
    case DataType::kString:
      return "String";
  }
  return "?";
}

const char* DataTypeGqlName(DataType t) {
  switch (t) {
    case DataType::kInt:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kBool:
      return "BOOLEAN";
    case DataType::kDate:
      return "DATE";
    case DataType::kTimestamp:
      return "TIMESTAMP";
    case DataType::kString:
      return "STRING";
  }
  return "?";
}

const char* DataTypeXsdName(DataType t) {
  switch (t) {
    case DataType::kInt:
      return "xs:integer";
    case DataType::kDouble:
      return "xs:double";
    case DataType::kBool:
      return "xs:boolean";
    case DataType::kDate:
      return "xs:date";
    case DataType::kTimestamp:
      return "xs:dateTime";
    case DataType::kString:
      return "xs:string";
  }
  return "?";
}

DataType GeneralizeDataType(DataType a, DataType b) {
  if (a == b) return a;
  // Int widens to Double.
  if ((a == DataType::kInt && b == DataType::kDouble) ||
      (a == DataType::kDouble && b == DataType::kInt)) {
    return DataType::kDouble;
  }
  // Date widens to Timestamp (a date is a truncated timestamp lexically).
  if ((a == DataType::kDate && b == DataType::kTimestamp) ||
      (a == DataType::kTimestamp && b == DataType::kDate)) {
    return DataType::kTimestamp;
  }
  return DataType::kString;
}

DataType Value::type() const {
  if (std::holds_alternative<int64_t>(data_)) return DataType::kInt;
  if (std::holds_alternative<double>(data_)) return DataType::kDouble;
  if (std::holds_alternative<bool>(data_)) return DataType::kBool;
  if (std::holds_alternative<Str>(data_)) return std::get<Str>(data_).tag;
  return DataType::kString;
}

std::string Value::ToText() const {
  if (std::holds_alternative<int64_t>(data_)) {
    return std::to_string(std::get<int64_t>(data_));
  }
  if (std::holds_alternative<double>(data_)) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", std::get<double>(data_));
    return buf;
  }
  if (std::holds_alternative<bool>(data_)) {
    return std::get<bool>(data_) ? "true" : "false";
  }
  if (std::holds_alternative<Str>(data_)) return std::get<Str>(data_).text;
  return "";
}

bool Value::operator==(const Value& other) const { return data_ == other.data_; }

namespace {

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// YYYY-MM-DD
bool LooksLikeIsoDate(std::string_view s) {
  return s.size() == 10 && AllDigits(s.substr(0, 4)) && s[4] == '-' &&
         AllDigits(s.substr(5, 2)) && s[7] == '-' && AllDigits(s.substr(8, 2));
}

// YYYY-MM-DDTHH:MM:SS with optional fraction / zone suffix.
bool LooksLikeIsoTimestamp(std::string_view s) {
  if (s.size() < 19) return false;
  if (!LooksLikeIsoDate(s.substr(0, 10))) return false;
  if (s[10] != 'T' && s[10] != ' ') return false;
  return AllDigits(s.substr(11, 2)) && s[13] == ':' &&
         AllDigits(s.substr(14, 2)) && s[16] == ':' &&
         AllDigits(s.substr(17, 2));
}

// The priority rules, shared by InferDataTypeFromText and ParseValue. The
// number parsed on the way is left in *i (kInt) or *d (kDouble), so a
// value is parsed once.
DataType Classify(std::string_view text, int64_t* i, double* d) {
  if (text.empty()) return DataType::kString;
  // Integer?
  {
    auto [ptr, ec] = std::from_chars(text.begin(), text.end(), *i);
    if (ec == std::errc() && ptr == text.end()) return DataType::kInt;
  }
  // Float? (from_chars for double: GCC 11+ supports it)
  {
    auto [ptr, ec] = std::from_chars(text.begin(), text.end(), *d);
    if (ec == std::errc() && ptr == text.end()) return DataType::kDouble;
  }
  if (text == "true" || text == "false" || text == "TRUE" || text == "FALSE") {
    return DataType::kBool;
  }
  if (LooksLikeIsoTimestamp(text)) return DataType::kTimestamp;
  if (LooksLikeIsoDate(text)) return DataType::kDate;
  return DataType::kString;
}

}  // namespace

DataType InferDataTypeFromText(std::string_view text) {
  int64_t i = 0;
  double d = 0;
  return Classify(text, &i, &d);
}

Value ParseValue(std::string_view text) {
  int64_t i = 0;
  double d = 0;
  switch (Classify(text, &i, &d)) {
    case DataType::kInt:
      return Value::Int(i);
    case DataType::kDouble:
      return Value::Double(d);
    case DataType::kBool:
      return Value::Bool(text == "true" || text == "TRUE");
    case DataType::kDate:
      return Value::Date(std::string(text));
    case DataType::kTimestamp:
      return Value::Timestamp(std::string(text));
    case DataType::kString:
      break;
  }
  return Value::String(std::string(text));
}

}  // namespace pghive

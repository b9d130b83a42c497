#include "common/csv.h"

#include <array>
#include <fstream>

namespace pghive {

namespace {

// The bytes that end an unquoted run: separator, quote and line breaks.
constexpr std::array<bool, 256> kSpecial = [] {
  std::array<bool, 256> special{};
  special[static_cast<unsigned char>(',')] = true;
  special[static_cast<unsigned char>('"')] = true;
  special[static_cast<unsigned char>('\n')] = true;
  special[static_cast<unsigned char>('\r')] = true;
  return special;
}();

}  // namespace

Result<bool> CsvCursor::Next() {
  fields_.clear();
  unescaped_used_ = 0;
  if (pos_ >= text_.size()) return false;
  const char* const begin = text_.data();
  const char* const end = begin + text_.size();
  const char* p = begin + pos_;
  while (true) {
    // Fast path: a field without quotes is a view of its bytes.
    const char* start = p;
    while (p < end && !kSpecial[static_cast<unsigned char>(*p)]) ++p;
    if (p < end && *p == '"') {
      // Slow path: unescape the field into cursor-owned storage.
      if (unescaped_used_ == unescaped_.size()) unescaped_.emplace_back();
      std::string& field = unescaped_[unescaped_used_++];
      field.assign(start, p);
      bool in_quotes = false;
      for (; p < end; ++p) {
        const char c = *p;
        if (c == '"') {
          if (in_quotes && p + 1 < end && p[1] == '"') {
            field += '"';
            ++p;
          } else {
            in_quotes = !in_quotes;
          }
        } else if (!in_quotes && (c == ',' || c == '\n' || c == '\r')) {
          break;
        } else {
          field += c;
        }
      }
      if (in_quotes) return Status::ParseError("unterminated quoted CSV field");
      fields_.emplace_back(field);
    } else {
      fields_.emplace_back(start, static_cast<size_t>(p - start));
    }
    if (p == end) break;
    if (*p == ',') {
      ++p;
      continue;
    }
    // LF, CRLF or a bare CR ends the record.
    if (*p == '\r' && p + 1 < end && p[1] == '\n') ++p;
    ++p;
    break;
  }
  pos_ = static_cast<size_t>(p - begin);
  return true;
}

Result<std::vector<std::string>> ParseCsvLine(std::string_view line) {
  CsvCursor cursor(line);
  PGHIVE_ASSIGN_OR_RETURN(bool any, cursor.Next());
  // An empty line is one empty field.
  if (!any) return std::vector<std::string>{""};
  if (cursor.offset() < line.size()) {
    return Status::ParseError("unexpected newline inside CSV line");
  }
  return std::vector<std::string>(cursor.fields().begin(),
                                  cursor.fields().end());
}

Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text) {
  std::vector<std::vector<std::string>> rows;
  CsvCursor cursor(text);
  while (true) {
    PGHIVE_ASSIGN_OR_RETURN(bool more, cursor.Next());
    if (!more) break;
    rows.emplace_back(cursor.fields().begin(), cursor.fields().end());
  }
  return rows;
}

std::string CsvQuote(std::string_view field) {
  bool needs_quote = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string FormatCsvRow(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    out += CsvQuote(fields[i]);
  }
  out += '\n';
  return out;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open file: " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IoError("cannot size file: " + path);
  std::string content(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(content.data(), size)) {
    return Status::IoError("read failed: " + path);
  }
  return content;
}

Status WriteFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open file for writing: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace pghive

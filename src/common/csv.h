// Minimal RFC-4180-ish CSV reading and writing.
//
// Supports quoted fields with embedded commas, quotes ("" escaping) and
// newlines. CsvCursor is the one CSV tokenizer: graph/csv_io streams its
// records straight into the graph, and ParseCsv / ParseCsvLine are thin
// owning wrappers over it.

#ifndef PGHIVE_COMMON_CSV_H_
#define PGHIVE_COMMON_CSV_H_

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace pghive {

/// Zero-copy cursor over the records of a CSV document. Each Next() yields
/// the fields of one record as string_views into the text; only a field
/// that contains a quote is copied (unescaped into storage the cursor
/// owns). The views stay valid until the next call to Next().
///
/// Dialect: `,` separates fields; an unquoted LF, CRLF or bare CR ends a
/// record; a quote may open anywhere in a field and runs to the next lone
/// quote, with `""` inside quotes standing for one quote; inside quotes,
/// commas and line breaks are literal. A line break at the very end of the
/// text does not start another record, but an empty line in the middle is
/// a record with one empty field.
class CsvCursor {
 public:
  explicit CsvCursor(std::string_view text) : text_(text) {}

  /// Reads the next record into fields(). Returns false at the end of the
  /// text; fails with ParseError on an unterminated quoted field.
  Result<bool> Next();

  const std::vector<std::string_view>& fields() const { return fields_; }

  /// Byte offset just past the last record read (past its line break).
  size_t offset() const { return pos_; }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  std::vector<std::string_view> fields_;
  // Unescaped copies of the current record's quoted fields. A deque keeps
  // every string, and so its small-string buffer, at a stable address while
  // fields_ points into it; the strings are reused across records.
  std::deque<std::string> unescaped_;
  size_t unescaped_used_ = 0;
};

/// Parses one CSV record (no trailing newline) into fields.
/// Fails with ParseError on an unterminated quoted field.
Result<std::vector<std::string>> ParseCsvLine(std::string_view line);

/// Parses a whole CSV document; handles quoted fields spanning lines.
Result<std::vector<std::vector<std::string>>> ParseCsv(std::string_view text);

/// Quotes a field if it contains a comma, quote, or newline.
std::string CsvQuote(std::string_view field);

/// Serializes one row (with trailing newline).
std::string FormatCsvRow(const std::vector<std::string>& fields);

/// Reads an entire file into a string.
Result<std::string> ReadFile(const std::string& path);

/// Writes a string to a file (overwrite).
Status WriteFile(const std::string& path, std::string_view content);

}  // namespace pghive

#endif  // PGHIVE_COMMON_CSV_H_

// Copyright 2026 The WWT Authors
//
// WebTable: one data table harvested from a web page, with the metadata
// the column mapper consumes — title rows, header rows, body cells, and
// scored context snippets (§2.1).

#ifndef WWT_TABLE_WEB_TABLE_H_
#define WWT_TABLE_WEB_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace wwt {

/// Identifier of a table within a TableStore / index.
using TableId = uint32_t;

/// A context snippet extracted from around the table in the parent page,
/// with the §2.1.2 salience score (higher = more likely to describe the
/// table).
struct ContextSnippet {
  std::string text;
  double score = 1.0;
};

/// A harvested table. `header_rows` and `body` are rectangular with
/// exactly `num_cols` entries per row (the extractor pads/truncates).
struct WebTable {
  TableId id = 0;

  /// Source page URL and the table's ordinal position on that page (among
  /// extracted data tables). Together these identify a table for
  /// ground-truth joins.
  std::string url;
  int ordinal = 0;

  int num_cols = 0;
  /// Title rows detected above the headers (full-row text).
  std::vector<std::string> title_rows;
  /// Header rows, one vector of cell strings per row (may be empty: 18%
  /// of the paper's corpus had no header).
  std::vector<std::vector<std::string>> header_rows;
  /// Body cells.
  std::vector<std::vector<std::string>> body;
  /// Context snippets, highest score first.
  std::vector<ContextSnippet> context;

  int num_body_rows() const { return static_cast<int>(body.size()); }
  int num_header_rows() const {
    return static_cast<int>(header_rows.size());
  }

  /// All context text joined (scores ignored).
  std::string ContextText() const;
  /// Column cells (body only).
  std::vector<std::string> ColumnValues(int col) const;
};

/// Line-oriented serialization used by TableStore. The format is
/// versioned and self-delimiting; fields are length-prefixed so cell text
/// may contain any byte but '\n' is escaped.
std::string SerializeTable(const WebTable& table);

/// Parses a table serialized by SerializeTable. Takes a view so records
/// served in place from a memory-mapped snapshot deserialize without an
/// intermediate copy.
StatusOr<WebTable> DeserializeTable(std::string_view data);

}  // namespace wwt

#endif  // WWT_TABLE_WEB_TABLE_H_

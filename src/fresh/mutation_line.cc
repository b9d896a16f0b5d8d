#include "fresh/mutation_line.h"

#include <limits>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace wwt {
namespace fresh {

namespace {

/// Each op and the fields after it.
struct OpSpec {
  const char* op;
  size_t min_fields;  // including the op itself
  const char* usage;
};

constexpr OpSpec kOps[] = {
    {"add", 4, "TITLE | HEADER | BODY [| CONTEXT]"},
    {"update", 5, "ID | TITLE | HEADER | BODY [| CONTEXT]"},
    {"override-title", 3, "ID | TEXT"},
    {"override-context", 3, "ID | TEXT"},
    {"override-header", 5, "ID | ROW | COL | TEXT"},
    {"override-cell", 5, "ID | ROW | COL | TEXT"},
    {"tombstone", 2, "ID"},
};

/// An ID/ROW/COL field: digits only, within 32 bits.
bool ParseIndex(const std::string& s, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseUint(s, 0, std::numeric_limits<uint32_t>::max(), &v)) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

Status BadIndex(const std::string& op, const char* field,
                const std::string& got) {
  return Status::InvalidArgument("'", op, "' wants ", field,
                                 " of 0-4294967295, got '", got, "'");
}

/// The table of an add/update from its TITLE | HEADER | BODY [| CONTEXT]
/// fields, starting at f[first].
WebTable TableFromFields(const std::vector<std::string>& f, size_t first) {
  WebTable t;
  t.title_rows.push_back(f[first]);
  t.header_rows.push_back(SplitTrimmed(f[first + 1], ','));
  t.num_cols = static_cast<int>(t.header_rows[0].size());
  for (const std::string& row : SplitTrimmed(f[first + 2], ';')) {
    t.body.push_back(SplitTrimmed(row, ','));
  }
  t.url = "fresh://mutation/" + f[first];
  if (f.size() > first + 3 && !f[first + 3].empty()) {
    t.context.push_back({f[first + 3], 1.0});
  }
  return t;
}

}  // namespace

StatusOr<bool> ApplyMutationLine(DeltaShard* delta, std::string_view line) {
  line = StripWhitespace(line);
  if (line.empty() || line[0] == '#') return false;
  const std::vector<std::string> f = SplitTrimmed(line, '|');
  const std::string& op = f[0];
  const OpSpec* spec = nullptr;
  for (const OpSpec& candidate : kOps) {
    if (op == candidate.op) spec = &candidate;
  }
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown mutation op '", op, "'");
  }
  if (f.size() < spec->min_fields) {
    return Status::InvalidArgument("'", op, "' wants ", spec->usage);
  }
  if (op == "add") {
    WWT_RETURN_NOT_OK(delta->AddTable(TableFromFields(f, 1)).status());
    return true;
  }
  // Every other op names a table id next.
  TableId id = 0;
  if (!ParseIndex(f[1], &id)) return BadIndex(op, "a table id", f[1]);
  if (op == "update") {
    WebTable t = TableFromFields(f, 2);
    t.id = id;
    WWT_RETURN_NOT_OK(delta->UpdateTable(std::move(t)));
  } else if (op == "tombstone") {
    WWT_RETURN_NOT_OK(delta->TombstoneTable(id));
  } else {
    SummaryOverride patch;
    if (op == "override-title") {
      patch.title = f[2];
    } else if (op == "override-context") {
      patch.context = f[2];
    } else {
      SummaryOverride::CellEdit edit;
      if (!ParseIndex(f[2], &edit.row)) return BadIndex(op, "ROW", f[2]);
      if (!ParseIndex(f[3], &edit.col)) return BadIndex(op, "COL", f[3]);
      edit.text = f[4];
      (op == "override-header" ? patch.header_cells : patch.body_cells)
          .push_back(std::move(edit));
    }
    WWT_RETURN_NOT_OK(delta->OverrideSummary(id, patch));
  }
  return true;
}

}  // namespace fresh
}  // namespace wwt

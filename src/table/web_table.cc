#include "table/web_table.h"

#include <charconv>
#include <system_error>

#include "util/string_util.h"

namespace wwt {

namespace {

void AppendField(std::string* out, const std::string& value) {
  *out += std::to_string(value.size());
  *out += ':';
  *out += value;
  *out += '\n';
}

/// Reads one "<len>:<bytes>\n" field starting at *pos, as a view into
/// `data`.
Status ReadField(std::string_view data, size_t* pos, std::string_view* out) {
  const size_t colon = data.find(':', *pos);
  if (colon == std::string_view::npos) {
    return Status::Corruption("missing length prefix at offset ", *pos);
  }
  const size_t avail = data.size() - (colon + 1);
  size_t len = 0;
  for (size_t i = *pos; i < colon; ++i) {
    if (data[i] < '0' || data[i] > '9') {
      return Status::Corruption("bad length digit at offset ", i);
    }
    len = len * 10 + static_cast<size_t>(data[i] - '0');
    if (len > avail) {
      return Status::Corruption("field overruns buffer at offset ", *pos);
    }
  }
  *out = data.substr(colon + 1, len);
  *pos = colon + 1 + len;
  if (*pos < data.size() && data[*pos] == '\n') ++*pos;
  return Status::OK();
}

Status ReadField(std::string_view data, size_t* pos, std::string* out) {
  std::string_view field;
  WWT_RETURN_NOT_OK(ReadField(data, pos, &field));
  out->assign(field);
  return Status::OK();
}

/// Parses the whole of `field` as a T with std::from_chars: no sign but
/// '-', no surrounding space, no trailing bytes.
template <typename T>
bool ParseWhole(std::string_view field, T* out) {
  const char* end = field.data() + field.size();
  const std::from_chars_result r = std::from_chars(field.data(), end, *out);
  return r.ec == std::errc() && r.ptr == end;
}

Status ReadInt(std::string_view data, size_t* pos, int64_t* out) {
  std::string_view field;
  WWT_RETURN_NOT_OK(ReadField(data, pos, &field));
  if (!ParseWhole(field, out)) {
    return Status::Corruption("expected integer, got '", std::string(field),
                              "'");
  }
  return Status::OK();
}

/// Reads a row count and checks that `count` rows of `width` fields can
/// fit in the rest of `data` (a field takes at least the two bytes
/// "0:"), so a tampered count can neither reserve nor loop past it.
Status ReadRowCount(std::string_view data, size_t* pos, int width,
                    int64_t* count) {
  WWT_RETURN_NOT_OK(ReadInt(data, pos, count));
  const uint64_t min_row_bytes = 2 * static_cast<uint64_t>(width);
  if (*count < 0 ||
      (min_row_bytes > 0 &&
       static_cast<uint64_t>(*count) > (data.size() - *pos) / min_row_bytes)) {
    return Status::Corruption("implausible row count ", *count, " at offset ",
                              *pos);
  }
  return Status::OK();
}

/// Reads `count` rows of `width` fields each. A zero-width row takes no
/// bytes, so only a bounded (width > 0) count is reserved.
Status ReadRows(std::string_view data, size_t* pos, int width, int64_t count,
                std::vector<std::vector<std::string>>* rows) {
  if (width > 0) rows->reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    std::vector<std::string>& row = rows->emplace_back(width);
    for (int c = 0; c < width; ++c) {
      WWT_RETURN_NOT_OK(ReadField(data, pos, &row[c]));
    }
  }
  return Status::OK();
}

}  // namespace

std::string WebTable::ContextText() const {
  std::string out;
  for (const auto& snip : context) {
    if (!out.empty()) out += ' ';
    out += snip.text;
  }
  return out;
}

std::vector<std::string> WebTable::ColumnValues(int col) const {
  std::vector<std::string> out;
  out.reserve(body.size());
  for (const auto& row : body) {
    out.push_back(col < static_cast<int>(row.size()) ? row[col] : "");
  }
  return out;
}

std::string SerializeTable(const WebTable& table) {
  std::string out;
  AppendField(&out, "wwt1");  // format version
  AppendField(&out, std::to_string(table.id));
  AppendField(&out, table.url);
  AppendField(&out, std::to_string(table.ordinal));
  AppendField(&out, std::to_string(table.num_cols));
  AppendField(&out, std::to_string(table.title_rows.size()));
  for (const auto& t : table.title_rows) AppendField(&out, t);
  AppendField(&out, std::to_string(table.header_rows.size()));
  for (const auto& row : table.header_rows) {
    for (const auto& cell : row) AppendField(&out, cell);
  }
  AppendField(&out, std::to_string(table.body.size()));
  for (const auto& row : table.body) {
    for (const auto& cell : row) AppendField(&out, cell);
  }
  AppendField(&out, std::to_string(table.context.size()));
  for (const auto& snip : table.context) {
    AppendField(&out, snip.text);
    AppendField(&out, StringPrintf("%.17g", snip.score));
  }
  return out;
}

StatusOr<WebTable> DeserializeTable(std::string_view data) {
  size_t pos = 0;
  std::string_view version;
  WWT_RETURN_NOT_OK(ReadField(data, &pos, &version));
  if (version != "wwt1") {
    return Status::Corruption("unknown table format '", std::string(version),
                              "'");
  }
  WebTable t;
  int64_t v = 0;
  WWT_RETURN_NOT_OK(ReadInt(data, &pos, &v));
  t.id = static_cast<TableId>(v);
  WWT_RETURN_NOT_OK(ReadField(data, &pos, &t.url));
  WWT_RETURN_NOT_OK(ReadInt(data, &pos, &v));
  t.ordinal = static_cast<int>(v);
  WWT_RETURN_NOT_OK(ReadInt(data, &pos, &v));
  t.num_cols = static_cast<int>(v);
  if (v < 0 || v > 10000) {
    return Status::Corruption("implausible column count ", v);
  }

  int64_t n_titles = 0;
  WWT_RETURN_NOT_OK(ReadRowCount(data, &pos, 1, &n_titles));
  t.title_rows.resize(static_cast<size_t>(n_titles));
  for (std::string& title : t.title_rows) {
    WWT_RETURN_NOT_OK(ReadField(data, &pos, &title));
  }

  int64_t n_rows = 0;
  WWT_RETURN_NOT_OK(ReadRowCount(data, &pos, t.num_cols, &n_rows));
  WWT_RETURN_NOT_OK(ReadRows(data, &pos, t.num_cols, n_rows, &t.header_rows));
  WWT_RETURN_NOT_OK(ReadRowCount(data, &pos, t.num_cols, &n_rows));
  WWT_RETURN_NOT_OK(ReadRows(data, &pos, t.num_cols, n_rows, &t.body));

  int64_t n_ctx = 0;
  WWT_RETURN_NOT_OK(ReadRowCount(data, &pos, 2, &n_ctx));
  t.context.resize(static_cast<size_t>(n_ctx));
  for (ContextSnippet& snip : t.context) {
    WWT_RETURN_NOT_OK(ReadField(data, &pos, &snip.text));
    std::string_view score;
    WWT_RETURN_NOT_OK(ReadField(data, &pos, &score));
    if (!ParseWhole(score, &snip.score)) {
      return Status::Corruption("bad snippet score '", std::string(score),
                                "'");
    }
  }
  return t;
}

}  // namespace wwt

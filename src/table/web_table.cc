#include "table/web_table.h"

#include <sstream>

#include "util/string_util.h"

namespace wwt {

namespace {

void AppendField(std::string* out, const std::string& value) {
  *out += std::to_string(value.size());
  *out += ':';
  *out += value;
  *out += '\n';
}

/// Reads one "<len>:<bytes>\n" field starting at *pos.
Status ReadField(std::string_view data, size_t* pos, std::string* out) {
  size_t colon = data.find(':', *pos);
  if (colon == std::string::npos) {
    return Status::Corruption("missing length prefix at offset ", *pos);
  }
  size_t len = 0;
  for (size_t i = *pos; i < colon; ++i) {
    if (data[i] < '0' || data[i] > '9') {
      return Status::Corruption("bad length digit at offset ", i);
    }
    len = len * 10 + static_cast<size_t>(data[i] - '0');
  }
  if (colon + 1 + len + 1 > data.size() + 1) {
    return Status::Corruption("field overruns buffer at offset ", *pos);
  }
  if (colon + 1 + len > data.size()) {
    return Status::Corruption("field overruns buffer at offset ", *pos);
  }
  out->assign(data.substr(colon + 1, len));
  *pos = colon + 1 + len;
  if (*pos < data.size() && data[*pos] == '\n') ++*pos;
  return Status::OK();
}

Status ReadInt(std::string_view data, size_t* pos, int64_t* out) {
  std::string field;
  WWT_RETURN_NOT_OK(ReadField(data, pos, &field));
  try {
    *out = std::stoll(field);
  } catch (...) {
    return Status::Corruption("expected integer, got '", field, "'");
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
  std::string version;
  WWT_RETURN_NOT_OK(ReadField(data, &pos, &version));
  if (version != "wwt1") {
    return Status::Corruption("unknown table format '", version, "'");
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
  if (t.num_cols < 0 || t.num_cols > 10000) {
    return Status::Corruption("implausible column count ", t.num_cols);
  }

  int64_t n_titles = 0;
  WWT_RETURN_NOT_OK(ReadInt(data, &pos, &n_titles));
  for (int64_t i = 0; i < n_titles; ++i) {
    std::string s;
    WWT_RETURN_NOT_OK(ReadField(data, &pos, &s));
    t.title_rows.push_back(std::move(s));
  }

  int64_t n_headers = 0;
  WWT_RETURN_NOT_OK(ReadInt(data, &pos, &n_headers));
  for (int64_t i = 0; i < n_headers; ++i) {
    std::vector<std::string> row(t.num_cols);
    for (int c = 0; c < t.num_cols; ++c) {
      WWT_RETURN_NOT_OK(ReadField(data, &pos, &row[c]));
    }
    t.header_rows.push_back(std::move(row));
  }

  int64_t n_body = 0;
  WWT_RETURN_NOT_OK(ReadInt(data, &pos, &n_body));
  for (int64_t i = 0; i < n_body; ++i) {
    std::vector<std::string> row(t.num_cols);
    for (int c = 0; c < t.num_cols; ++c) {
      WWT_RETURN_NOT_OK(ReadField(data, &pos, &row[c]));
    }
    t.body.push_back(std::move(row));
  }

  int64_t n_ctx = 0;
  WWT_RETURN_NOT_OK(ReadInt(data, &pos, &n_ctx));
  for (int64_t i = 0; i < n_ctx; ++i) {
    ContextSnippet snip;
    WWT_RETURN_NOT_OK(ReadField(data, &pos, &snip.text));
    std::string score;
    WWT_RETURN_NOT_OK(ReadField(data, &pos, &score));
    try {
      snip.score = std::stod(score);
    } catch (...) {
      return Status::Corruption("bad snippet score '", score, "'");
    }
    t.context.push_back(std::move(snip));
  }
  return t;
}

}  // namespace wwt

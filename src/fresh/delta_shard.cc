// Copyright 2026 The WWT Authors

#include "fresh/delta_shard.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"
#include "util/serde.h"

namespace wwt {
namespace fresh {

struct DeltaRecord {
  uint64_t seq = 0;
  DeltaOpKind kind = DeltaOpKind::kAdd;
  TableId id = 0;
  /// Set for kAdd/kUpdate.
  WebTable table;
  /// Set for kOverride.
  SummaryOverride patch;
};

namespace {

/// Fixed journal header: magic + version + flags + base hash + base end.
constexpr size_t kJournalHeaderBytes = 8 + 4 + 4 + 8 + 8;

std::string EncodeJournalHeader(uint64_t base_hash, uint64_t base_end_id) {
  serde::Writer w;
  w.WriteBytes(kDeltaJournalMagic, sizeof(kDeltaJournalMagic));
  w.WriteU32(kDeltaJournalFormatVersion);
  w.WriteU32(0);  // flags, reserved
  w.WriteU64(base_hash);
  w.WriteU64(base_end_id);
  return w.TakeBuffer();
}

/// `[u64 body size][body][u64 FNV-1a(body)]` — self-checksummed framing
/// so a torn append is detected and dropped at replay.
std::string EncodeRecord(const std::string& body) {
  serde::Writer w;
  w.WriteU64(body.size());
  w.WriteBytes(body.data(), body.size());
  w.WriteU64(serde::Checksum(body));
  return w.TakeBuffer();
}

void EncodeOverride(const SummaryOverride& patch, serde::Writer* w) {
  w->WriteU8(patch.title.has_value() ? 1 : 0);
  if (patch.title.has_value()) w->WriteString(*patch.title);
  w->WriteU32(static_cast<uint32_t>(patch.header_cells.size()));
  for (const SummaryOverride::CellEdit& e : patch.header_cells) {
    w->WriteU32(e.row);
    w->WriteU32(e.col);
    w->WriteString(e.text);
  }
  w->WriteU32(static_cast<uint32_t>(patch.body_cells.size()));
  for (const SummaryOverride::CellEdit& e : patch.body_cells) {
    w->WriteU32(e.row);
    w->WriteU32(e.col);
    w->WriteString(e.text);
  }
  w->WriteU8(patch.context.has_value() ? 1 : 0);
  if (patch.context.has_value()) w->WriteString(*patch.context);
}

Status DecodeCellEdits(serde::Reader* r,
                       std::vector<SummaryOverride::CellEdit>* out) {
  uint32_t count;
  WWT_RETURN_NOT_OK(r->ReadU32(&count));
  WWT_RETURN_NOT_OK(r->CheckCount(count, 2 * sizeof(uint32_t)));
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    WWT_RETURN_NOT_OK(r->ReadU32(&(*out)[i].row));
    WWT_RETURN_NOT_OK(r->ReadU32(&(*out)[i].col));
    WWT_RETURN_NOT_OK(r->ReadString(&(*out)[i].text));
  }
  return Status::OK();
}

Status DecodeOverride(serde::Reader* r, SummaryOverride* patch) {
  uint8_t has;
  WWT_RETURN_NOT_OK(r->ReadU8(&has));
  if (has != 0) {
    std::string title;
    WWT_RETURN_NOT_OK(r->ReadString(&title));
    patch->title = std::move(title);
  }
  WWT_RETURN_NOT_OK(DecodeCellEdits(r, &patch->header_cells));
  WWT_RETURN_NOT_OK(DecodeCellEdits(r, &patch->body_cells));
  WWT_RETURN_NOT_OK(r->ReadU8(&has));
  if (has != 0) {
    std::string context;
    WWT_RETURN_NOT_OK(r->ReadString(&context));
    patch->context = std::move(context);
  }
  return Status::OK();
}

/// A journal file split into header facts + intact record bodies. A
/// torn tail (truncated frame or checksum mismatch at the end) sets
/// `truncated` instead of failing — crash-mid-append is an expected
/// state, not corruption.
struct ParsedJournal {
  uint32_t version = 0;
  uint64_t base_hash = 0;
  uint64_t base_end_id = 0;
  uint64_t file_bytes = 0;
  bool truncated = false;
  std::vector<std::string> bodies;
};

StatusOr<ParsedJournal> ParseJournalFile(const std::string& path) {
  WWT_ASSIGN_OR_RETURN(serde::InputFile file, serde::InputFile::Open(path));
  const std::string_view data = file.data();
  if (data.size() < kJournalHeaderBytes) {
    return Status::Corruption("'", path, "' is not a delta journal: ",
                              data.size(), " bytes, header needs ",
                              kJournalHeaderBytes);
  }
  if (std::memcmp(data.data(), kDeltaJournalMagic,
                  sizeof(kDeltaJournalMagic)) != 0) {
    return Status::Corruption("'", path,
                              "' is not a delta journal (bad magic)");
  }
  serde::Reader r(data.substr(sizeof(kDeltaJournalMagic)));
  ParsedJournal out;
  uint32_t flags;
  WWT_RETURN_NOT_OK(r.ReadU32(&out.version));
  WWT_RETURN_NOT_OK(r.ReadU32(&flags));
  WWT_RETURN_NOT_OK(r.ReadU64(&out.base_hash));
  WWT_RETURN_NOT_OK(r.ReadU64(&out.base_end_id));
  if (out.version != kDeltaJournalFormatVersion) {
    return Status::InvalidArgument("delta journal '", path, "' is format v",
                                   out.version, "; this build reads v",
                                   kDeltaJournalFormatVersion);
  }
  out.file_bytes = data.size();
  while (!r.exhausted()) {
    uint64_t len = 0;
    if (r.remaining() < sizeof(uint64_t)) {
      out.truncated = true;
      break;
    }
    WWT_CHECK_OK(r.ReadU64(&len));
    if (len > r.remaining() || r.remaining() - len < sizeof(uint64_t)) {
      out.truncated = true;
      break;
    }
    std::string_view body;
    WWT_CHECK_OK(r.ReadSpan(len, &body));
    uint64_t checksum = 0;
    WWT_CHECK_OK(r.ReadU64(&checksum));
    if (checksum != serde::Checksum(body)) {
      out.truncated = true;
      break;
    }
    out.bodies.emplace_back(body);
  }
  return out;
}

Status DecodeRecordBody(std::string_view body, DeltaRecord* rec) {
  serde::Reader r(body);
  WWT_RETURN_NOT_OK(r.ReadU64(&rec->seq));
  uint8_t kind;
  WWT_RETURN_NOT_OK(r.ReadU8(&kind));
  if (kind < static_cast<uint8_t>(DeltaOpKind::kAdd) ||
      kind > static_cast<uint8_t>(DeltaOpKind::kTombstone)) {
    return Status::Corruption("delta record ", rec->seq,
                              " has unknown op kind ",
                              static_cast<int>(kind));
  }
  rec->kind = static_cast<DeltaOpKind>(kind);
  uint64_t id;
  WWT_RETURN_NOT_OK(r.ReadU64(&id));
  if (id > std::numeric_limits<TableId>::max()) {
    return Status::Corruption("delta record ", rec->seq, " names table id ",
                              id, ", above the largest table id ",
                              std::numeric_limits<TableId>::max());
  }
  rec->id = static_cast<TableId>(id);
  switch (rec->kind) {
    case DeltaOpKind::kAdd:
    case DeltaOpKind::kUpdate: {
      std::string blob;
      WWT_RETURN_NOT_OK(r.ReadString(&blob));
      WWT_ASSIGN_OR_RETURN(rec->table, DeserializeTable(blob));
      rec->table.id = rec->id;
      break;
    }
    case DeltaOpKind::kOverride:
      WWT_RETURN_NOT_OK(DecodeOverride(&r, &rec->patch));
      break;
    case DeltaOpKind::kTombstone:
      break;
  }
  if (!r.exhausted()) {
    return Status::Corruption("delta record ", rec->seq, " has ",
                              r.remaining(), " trailing bytes");
  }
  return Status::OK();
}

std::string EncodeRecordBody(const DeltaRecord& rec) {
  serde::Writer w;
  w.WriteU64(rec.seq);
  w.WriteU8(static_cast<uint8_t>(rec.kind));
  w.WriteU64(rec.id);
  switch (rec.kind) {
    case DeltaOpKind::kAdd:
    case DeltaOpKind::kUpdate:
      w.WriteString(SerializeTable(rec.table));
      break;
    case DeltaOpKind::kOverride:
      EncodeOverride(rec.patch, &w);
      break;
    case DeltaOpKind::kTombstone:
      break;
  }
  return w.TakeBuffer();
}

/// Pads/truncates every row to num_cols (deriving num_cols from the
/// widest row when 0) — the WebTable rectangularity invariant.
Status NormalizeTable(WebTable* table) {
  size_t cols = table->num_cols > 0
                    ? static_cast<size_t>(table->num_cols)
                    : 0;
  if (cols == 0) {
    for (const auto& row : table->header_rows) {
      cols = std::max(cols, row.size());
    }
    for (const auto& row : table->body) cols = std::max(cols, row.size());
  }
  if (cols == 0) {
    return Status::InvalidArgument("table has no columns");
  }
  table->num_cols = static_cast<int>(cols);
  for (auto& row : table->header_rows) row.resize(cols);
  for (auto& row : table->body) row.resize(cols);
  return Status::OK();
}

}  // namespace

Status ApplySummaryOverride(const SummaryOverride& patch, WebTable* table) {
  if (patch.empty()) {
    return Status::InvalidArgument("empty summary override for table ",
                                   table->id);
  }
  WebTable patched = *table;
  if (patch.title.has_value()) {
    patched.title_rows.assign(1, *patch.title);
  }
  for (const SummaryOverride::CellEdit& e : patch.header_cells) {
    if (e.row >= patched.header_rows.size() ||
        e.col >= patched.header_rows[e.row].size()) {
      return Status::InvalidArgument("header cell (", e.row, ",", e.col,
                                     ") out of range for table ",
                                     table->id);
    }
    patched.header_rows[e.row][e.col] = e.text;
  }
  for (const SummaryOverride::CellEdit& e : patch.body_cells) {
    if (e.row >= patched.body.size() ||
        e.col >= patched.body[e.row].size()) {
      return Status::InvalidArgument("body cell (", e.row, ",", e.col,
                                     ") out of range for table ",
                                     table->id);
    }
    patched.body[e.row][e.col] = e.text;
  }
  if (patch.context.has_value()) {
    patched.context.assign(1, ContextSnippet{*patch.context, 1.0});
  }
  *table = std::move(patched);
  return Status::OK();
}

TableId BaseEndId(const CorpusSet& base) {
  return base.shard(base.num_shards() - 1).store().end_id();
}

StatusOr<WebTable> ReadFrozenTable(const CorpusSet& base, TableId id) {
  for (size_t s = 0; s < base.num_shards(); ++s) {
    const TableStore& store = base.shard(s).store();
    if (id >= store.first_id() && id < store.end_id()) {
      return store.Get(id);
    }
  }
  return Status::NotFound("table ", id, " is outside the frozen set");
}

StatusOr<WebTable> DeltaView::Read(TableId id) const {
  auto it = content_.tables.find(id);
  if (it == content_.tables.end()) {
    return Status::NotFound("table ", id, " is not in the delta");
  }
  return it->second;
}

bool IsDeltaJournal(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[sizeof(kDeltaJournalMagic)];
  const size_t n = std::fread(magic, 1, sizeof(magic), f);
  std::fclose(f);
  return n == sizeof(magic) &&
         std::memcmp(magic, kDeltaJournalMagic, sizeof(magic)) == 0;
}

StatusOr<DeltaJournalInfo> InspectDeltaJournal(const std::string& path) {
  WWT_ASSIGN_OR_RETURN(ParsedJournal parsed, ParseJournalFile(path));
  DeltaJournalInfo info;
  info.format_version = parsed.version;
  info.base_hash = parsed.base_hash;
  info.base_end_id = parsed.base_end_id;
  info.file_bytes = parsed.file_bytes;
  info.truncated = parsed.truncated;
  std::set<TableId> live;
  std::set<TableId> tombstoned;
  for (const std::string& body : parsed.bodies) {
    DeltaRecord rec;
    WWT_RETURN_NOT_OK(DecodeRecordBody(body, &rec));
    info.generation = rec.seq;
    ++info.num_records;
    switch (rec.kind) {
      case DeltaOpKind::kOverride:
        ++info.num_overrides;
        [[fallthrough]];
      case DeltaOpKind::kAdd:
      case DeltaOpKind::kUpdate:
        live.insert(rec.id);
        tombstoned.erase(rec.id);
        break;
      case DeltaOpKind::kTombstone:
        live.erase(rec.id);
        tombstoned.insert(rec.id);
        break;
    }
  }
  info.pending_tables = live.size();
  info.num_tombstones = tombstoned.size();
  return info;
}

StatusOr<std::unique_ptr<DeltaShard>> DeltaShard::Open(
    std::shared_ptr<const CorpusSet> base, DeltaOptions options) {
  WWT_CHECK(base != nullptr) << "DeltaShard needs a base set";
  std::unique_ptr<DeltaShard> shard(new DeltaShard());
  DeltaShard* d = shard.get();
  MutexLock lock(d->mu_);
  d->base_ = std::move(base);
  d->journal_path_ = std::move(options.journal_path);
  const TableId base_end = BaseEndId(*d->base_);

  std::vector<Entry> log;
  bool torn = false;
  if (!d->journal_path_.empty()) {
    std::FILE* existing = std::fopen(d->journal_path_.c_str(), "rb");
    if (existing != nullptr) {
      std::fclose(existing);
      WWT_ASSIGN_OR_RETURN(ParsedJournal parsed,
                           ParseJournalFile(d->journal_path_));
      if (parsed.base_hash != d->base_->content_hash()) {
        return Status::InvalidArgument(
            "delta journal '", d->journal_path_,
            "' was written against corpus hash ", parsed.base_hash,
            " but the base set's hash is ", d->base_->content_hash(),
            " — merge or discard the journal before swapping the base");
      }
      if (parsed.base_end_id != base_end) {
        return Status::InvalidArgument(
            "delta journal '", d->journal_path_, "' expects ",
            parsed.base_end_id, " frozen tables, base set has ", base_end);
      }
      const auto now = std::chrono::steady_clock::now();
      for (std::string& body : parsed.bodies) {
        log.push_back({0, std::move(body), now});
      }
      torn = parsed.truncated;
    } else {
      WWT_RETURN_NOT_OK(serde::EnsureParentDir(d->journal_path_));
      WWT_RETURN_NOT_OK(serde::WriteFileAtomic(
          d->journal_path_,
          EncodeJournalHeader(d->base_->content_hash(), base_end)));
    }
  }
  WWT_RETURN_NOT_OK(d->ReplayLocked(std::move(log), /*drop_failed=*/false));
  if (torn) {
    WWT_LOG(Warning) << "delta journal '" << d->journal_path_
                     << "' has a torn tail after seq " << d->next_seq_ - 1
                     << " (crash mid-append?); dropping it";
    WWT_RETURN_NOT_OK(d->RewriteJournalLocked());
  }
  return shard;
}

std::shared_ptr<const DeltaView> DeltaShard::view() const {
  MutexLock lock(mu_);
  return view_;
}

double DeltaShard::pending_age_seconds() const {
  MutexLock lock(mu_);
  if (entries_.empty()) return 0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       entries_.front().time)
      .count();
}

Status DeltaShard::ApplyLocked(DeltaRecord* record,
                               DeltaView::Content* content) const {
  DeltaView::Content& c = *content;
  const TableId id = record->id;
  switch (record->kind) {
    case DeltaOpKind::kAdd:
      WWT_RETURN_NOT_OK(NormalizeTable(&record->table));
      if (id != c.next_table_id) {
        return Status::FailedPrecondition("cannot add table ", id,
                                          ": the next table id is ",
                                          c.next_table_id);
      }
      if (id == std::numeric_limits<TableId>::max()) {
        return Status::OutOfRange("cannot add table ", id,
                                  ": no table id is left to allocate");
      }
      ++c.next_table_id;
      break;
    case DeltaOpKind::kUpdate:
      WWT_RETURN_NOT_OK(NormalizeTable(&record->table));
      if (id >= c.next_table_id) {
        return Status::NotFound("cannot update table ", id, ": only ",
                                c.next_table_id, " table ids are allocated");
      }
      break;
    case DeltaOpKind::kOverride: {
      if (id >= c.next_table_id) {
        return Status::NotFound("cannot override table ", id, ": only ",
                                c.next_table_id, " table ids are allocated");
      }
      if (c.tombstoned.count(id) != 0) {
        return Status::FailedPrecondition("cannot override table ", id,
                                          ": it is tombstoned");
      }
      WebTable patched;
      auto it = c.tables.find(id);
      if (it != c.tables.end()) {
        patched = it->second;
      } else if (id < c.base_end_id) {
        WWT_ASSIGN_OR_RETURN(patched, ReadFrozenTable(*base_, id));
      } else {
        return Status::NotFound("cannot override table ", id,
                                ": it was tombstoned before ever merging");
      }
      WWT_RETURN_NOT_OK(ApplySummaryOverride(record->patch, &patched));
      c.tables[id] = std::move(patched);
      ++c.num_overrides;
      break;
    }
    case DeltaOpKind::kTombstone:
      if (id >= c.next_table_id) {
        return Status::NotFound("cannot tombstone table ", id, ": only ",
                                c.next_table_id, " table ids are allocated");
      }
      if (c.tombstoned.count(id) != 0) {
        return Status::FailedPrecondition("table ", id,
                                          " is already tombstoned");
      }
      c.tables.erase(id);
      c.tombstoned.insert(id);
      break;
  }
  if (record->kind == DeltaOpKind::kAdd ||
      record->kind == DeltaOpKind::kUpdate) {
    record->table.id = id;
    c.tables[id] = record->table;
    c.tombstoned.erase(id);
  }
  if (id < c.base_end_id) c.hidden.insert(id);
  return Status::OK();
}

void DeltaShard::LogLocked(Entry entry, DeltaView::Content* content) {
  uint64_t h = content->num_entries == 0 ? Fnv1a("wwt-delta-view-v1")
                                         : content->freshness_hash;
  h = HashCombine(h, entry.seq);
  content->freshness_hash = HashCombine(h, serde::Checksum(entry.body));
  content->generation = entry.seq;
  ++content->num_entries;
  entries_.push_back(std::move(entry));
}

Status DeltaShard::ReplayLocked(std::vector<Entry> log, bool drop_failed) {
  DeltaView::Content content;
  content.base_end_id = BaseEndId(*base_);
  content.next_table_id = content.base_end_id;
  entries_.clear();
  size_t dropped = 0;
  for (Entry& entry : log) {
    DeltaRecord record;
    Status applied = DecodeRecordBody(entry.body, &record);
    if (applied.ok() && !entries_.empty() &&
        record.seq <= entries_.back().seq) {
      applied = Status::Corruption("it follows seq ", entries_.back().seq);
    }
    if (applied.ok()) applied = ApplyLocked(&record, &content);
    if (applied.ok()) {
      entry.seq = record.seq;
      LogLocked(std::move(entry), &content);
    } else if (drop_failed) {
      ++dropped;
      WWT_LOG(Warning) << "delta seq " << record.seq << " (op "
                       << static_cast<int>(record.kind) << ", table "
                       << record.id
                       << ") no longer applies after rebase; dropped: "
                       << applied.ToString();
    } else {
      return Status::Corruption("delta journal '", journal_path_,
                                "' record seq ", record.seq,
                                " does not replay: ", applied.ToString());
    }
  }
  if (dropped > 0) {
    WWT_LOG(Warning) << "rebase dropped " << dropped
                     << " delta entries that no longer apply";
  }
  if (!entries_.empty()) {
    next_seq_ = std::max(next_seq_, entries_.back().seq + 1);
  }
  PublishLocked(std::move(content));
  return Status::OK();
}

void DeltaShard::PublishLocked(DeltaView::Content content) {
  std::shared_ptr<DeltaView> view(new DeltaView());
  view->base_ = base_;
  view->content_ = std::move(content);
  const DeltaView::Content& c = view->content_;
  if (!c.tables.empty()) {
    view->index_ = TableIndex::BuildPinned(
        base_->shard(0).index(), base_->stats().vocab(), base_->stats().idf(),
        [&c](const auto& add) {
          for (const auto& entry : c.tables) add(entry.second);
        });
  }
  view->stats_ = std::make_unique<FreshStats>(
      &base_->stats(), view->index_.get(), &c.hidden,
      c.next_table_id - c.base_end_id);
  view_ = std::move(view);
}

Status DeltaShard::CommitLocked(DeltaRecord record) {
  record.seq = next_seq_;
  DeltaView::Content next = view_->content_;
  WWT_RETURN_NOT_OK(ApplyLocked(&record, &next));
  Entry entry{record.seq, EncodeRecordBody(record),
              std::chrono::steady_clock::now()};
  // Write-ahead: journal first, then publish — an append failure leaves
  // both sides exactly as they were.
  WWT_RETURN_NOT_OK(AppendJournalLocked(entry.body));
  next_seq_ = record.seq + 1;
  LogLocked(std::move(entry), &next);
  PublishLocked(std::move(next));
  return Status::OK();
}

Status DeltaShard::AppendJournalLocked(const std::string& body) {
  if (journal_path_.empty()) return Status::OK();
  std::ofstream out(journal_path_,
                    std::ios::binary | std::ios::app | std::ios::out);
  const std::string record = EncodeRecord(body);
  out.write(record.data(), static_cast<std::streamsize>(record.size()));
  out.flush();
  if (!out) {
    return Status::IOError("cannot append to delta journal '",
                           journal_path_, "'");
  }
  return Status::OK();
}

Status DeltaShard::RewriteJournalLocked() {
  if (journal_path_.empty()) return Status::OK();
  std::string payload =
      EncodeJournalHeader(base_->content_hash(), BaseEndId(*base_));
  for (const Entry& entry : entries_) {
    payload += EncodeRecord(entry.body);
  }
  WWT_RETURN_NOT_OK(serde::EnsureParentDir(journal_path_));
  return serde::WriteFileAtomic(journal_path_, payload);
}

StatusOr<TableId> DeltaShard::AddTable(WebTable table) {
  MutexLock lock(mu_);
  DeltaRecord record;
  record.kind = DeltaOpKind::kAdd;
  record.id = view_->next_table_id();
  record.table = std::move(table);
  const TableId id = record.id;
  WWT_RETURN_NOT_OK(CommitLocked(std::move(record)));
  return id;
}

Status DeltaShard::UpdateTable(WebTable table) {
  MutexLock lock(mu_);
  DeltaRecord record;
  record.kind = DeltaOpKind::kUpdate;
  record.id = table.id;
  record.table = std::move(table);
  return CommitLocked(std::move(record));
}

Status DeltaShard::OverrideSummary(TableId id,
                                   const SummaryOverride& patch) {
  MutexLock lock(mu_);
  DeltaRecord record;
  record.kind = DeltaOpKind::kOverride;
  record.id = id;
  record.patch = patch;
  return CommitLocked(std::move(record));
}

Status DeltaShard::TombstoneTable(TableId id) {
  MutexLock lock(mu_);
  DeltaRecord record;
  record.kind = DeltaOpKind::kTombstone;
  record.id = id;
  return CommitLocked(std::move(record));
}

Status DeltaShard::Rebase(std::shared_ptr<const CorpusSet> new_base,
                          uint64_t merged_generation) {
  WWT_CHECK(new_base != nullptr) << "cannot rebase onto a null set";
  MutexLock lock(mu_);
  base_ = std::move(new_base);
  // After a merge every survivor applies cleanly (the merged set ends
  // exactly where the folded delta ended); after an unrelated operator
  // swap, entries that no longer fit are dropped loudly.
  std::vector<Entry> survivors;
  for (Entry& entry : entries_) {
    if (entry.seq > merged_generation) survivors.push_back(std::move(entry));
  }
  // View first: even if the journal rewrite fails (IO), the published
  // view is consistent with the new base — the stale on-disk journal is
  // caught at the next Open by its base-hash check.
  WWT_RETURN_NOT_OK(ReplayLocked(std::move(survivors), /*drop_failed=*/true));
  return RewriteJournalLocked();
}

}  // namespace fresh
}  // namespace wwt

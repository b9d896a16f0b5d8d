#include "index/table_store.h"

namespace wwt {

TableId TableStore::Put(WebTable table) {
  const TableId id = end_id();
  table.id = id;
  MutableRecords().push_back(SerializeTable(table));
  return id;
}

StatusOr<WebTable> TableStore::Get(TableId id) const {
  if (id < first_id_ || id >= end_id()) {
    return Status::NotFound("table id ", id, " out of range [", first_id_,
                            ", ", end_id(), ")");
  }
  return DeserializeTable(source_->record(id - first_id_));
}

size_t TableStore::RecordSize(TableId id) const {
  return id >= first_id_ && id < end_id()
             ? source_->record(id - first_id_).size()
             : 0;
}

}  // namespace wwt

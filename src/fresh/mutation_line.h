// Copyright 2026 The WWT Authors
//
// The text form of a freshness mutation (docs/FRESHNESS.md), one per
// line — the grammar `wwt_serve --mutations FILE` reads:
//
//   add | TITLE | HEADER | BODY [| CONTEXT]
//   update | ID | TITLE | HEADER | BODY [| CONTEXT]
//   override-title | ID | TEXT
//   override-context | ID | TEXT
//   override-header | ID | ROW | COL | TEXT
//   override-cell | ID | ROW | COL | TEXT
//   tombstone | ID
//
// Fields are separated by '|' and trimmed. HEADER is ','-separated
// cells ("H1 , H2"); BODY is ';'-separated rows of ','-separated cells
// ("r1c1 , r1c2 ; r2c1 , r2c2"); empty cells are kept. ID, ROW and COL
// are decimal digits only, from 0 to 4294967295 (the 32-bit TableId
// range): a sign, a space inside the number or a larger value is
// malformed. A blank line or one starting with '#' is no mutation.

#ifndef WWT_FRESH_MUTATION_LINE_H_
#define WWT_FRESH_MUTATION_LINE_H_

#include <string_view>

#include "fresh/delta_shard.h"
#include "util/statusor.h"

namespace wwt {
namespace fresh {

/// Applies one mutation line to `delta`. Returns true when the line
/// applied a mutation and false for a blank or '#' line.
/// InvalidArgument for a malformed line (unknown op, missing fields, a
/// bad ID/ROW/COL), which leaves the delta untouched; otherwise the
/// DeltaShard's own error (NotFound for an unallocated id, ...).
[[nodiscard]] StatusOr<bool> ApplyMutationLine(DeltaShard* delta,
                                               std::string_view line);

}  // namespace fresh
}  // namespace wwt

#endif  // WWT_FRESH_MUTATION_LINE_H_

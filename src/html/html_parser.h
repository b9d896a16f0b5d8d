// Copyright 2026 The WWT Authors
//
// Permissive HTML parser producing a Document. Handles the constructs
// that matter for web-table extraction: attributes, entities, comments,
// void elements, raw-text elements (<script>, <style>), and the implicit
// tag-closing rules that real table markup relies on (<tr> closing a
// previous <tr>, unclosed <td>, <li>, <p>, ...).
//
// It is not a full HTML5 tree builder; it is the pragmatic subset a table
// harvester needs, and it never fails: any input produces some tree.

#ifndef WWT_HTML_HTML_PARSER_H_
#define WWT_HTML_HTML_PARSER_H_

#include <cstddef>
#include <string_view>

#include "html/dom.h"

namespace wwt {

/// The most elements ParseHtml keeps open at once. An element opened at
/// this depth still attaches to the innermost open element but is not
/// opened itself: what follows it lands beside it. That bounds the tree's
/// depth, so every recursive walk of a Document (and its destructor)
/// stays shallow, and it bounds the parser's own open-element scans.
/// Browsers cap nesting too; Blink's limit is also 512.
inline constexpr size_t kMaxOpenElements = 512;

/// Parses `html` into a Document. Never fails; malformed markup degrades
/// to text or gets auto-closed.
Document ParseHtml(std::string_view html);

/// Decodes the named and numeric entities we care about (&amp; &lt; &gt;
/// &quot; &apos; &nbsp; &#NN; &#xNN;). Unknown entities pass through
/// verbatim. Exposed for testing.
std::string DecodeEntities(std::string_view text);

/// Escapes &, <, >, " for embedding text in generated HTML.
std::string EscapeHtml(std::string_view text);

}  // namespace wwt

#endif  // WWT_HTML_HTML_PARSER_H_

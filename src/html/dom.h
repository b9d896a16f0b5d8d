// Copyright 2026 The WWT Authors
//
// A small DOM: the table extractor walks it to find <table> elements and
// the context extractor scores text nodes by their tree position (§2.1.2).

#ifndef WWT_HTML_DOM_H_
#define WWT_HTML_DOM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace wwt {

enum class NodeType { kDocument, kElement, kText, kComment };

/// One DOM node. Nodes are owned by their parent via unique_ptr; the
/// Document owns the root. Raw parent pointers are stable for the life of
/// the document.
class DomNode {
 public:
  DomNode(NodeType type, std::string value)
      : type_(type), value_(std::move(value)) {}

  NodeType type() const { return type_; }

  /// Tag name (lowercase) for elements; text content for text/comment
  /// nodes; empty for the document node.
  const std::string& value() const { return value_; }

  /// Attribute accessors (elements only). Names are lowercased by the
  /// parser. Returns "" when absent.
  std::string_view attr(std::string_view name) const;
  bool has_attr(std::string_view name) const;
  void AddAttr(std::string name, std::string value);
  const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }

  DomNode* parent() const { return parent_; }
  const std::vector<std::unique_ptr<DomNode>>& children() const {
    return children_;
  }

  /// Appends a child and returns a raw pointer to it.
  DomNode* AddChild(std::unique_ptr<DomNode> child);

  /// True if this is an element with the given (lowercase) tag.
  bool IsTag(std::string_view tag) const {
    return type_ == NodeType::kElement && value_ == tag;
  }

  /// Concatenated text of all descendant text nodes, whitespace-normalized
  /// (single spaces, trimmed).
  std::string TextContent() const;

  /// Collects descendant elements with the given tag, in document order.
  /// If `skip_nested` is true, does not descend into matches (used to get
  /// top-level tables; nested tables are handled recursively by the
  /// extractor).
  std::vector<const DomNode*> FindAll(std::string_view tag,
                                      bool skip_nested = false) const;

  /// Path from this node up to (and including) the root.
  std::vector<const DomNode*> PathToRoot() const;

 private:
  void AppendText(std::string* out) const;

  NodeType type_;
  std::string value_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  DomNode* parent_ = nullptr;
  std::vector<std::unique_ptr<DomNode>> children_;
};

/// A parsed HTML document: owns the node tree.
class Document {
 public:
  Document() : root_(std::make_unique<DomNode>(NodeType::kDocument, "")) {}

  DomNode* root() { return root_.get(); }
  const DomNode* root() const { return root_.get(); }

 private:
  std::unique_ptr<DomNode> root_;
};

/// True for tags whose presence signals emphasis/heading formatting; the
/// context scorer (§2.1.2) uses the relative frequency of these.
bool IsFormatTag(std::string_view tag);

/// True for heading tags h1..h6.
bool IsHeadingTag(std::string_view tag);

}  // namespace wwt

#endif  // WWT_HTML_DOM_H_

#include "html/dom.h"

#include <cctype>

namespace wwt {

std::string_view DomNode::attr(std::string_view name) const {
  for (const auto& [k, v] : attrs_) {
    if (k == name) return v;
  }
  return {};
}

bool DomNode::has_attr(std::string_view name) const {
  for (const auto& [k, _] : attrs_) {
    if (k == name) return true;
  }
  return false;
}

void DomNode::AddAttr(std::string name, std::string value) {
  attrs_.emplace_back(std::move(name), std::move(value));
}

DomNode* DomNode::AddChild(std::unique_ptr<DomNode> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

void DomNode::AppendText(std::string* out) const {
  if (type_ == NodeType::kText) {
    for (char c : value_) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!out->empty() && out->back() != ' ') out->push_back(' ');
      } else {
        out->push_back(c);
      }
    }
    if (!out->empty() && out->back() != ' ') out->push_back(' ');
    return;
  }
  for (const auto& c : children_) c->AppendText(out);
}

std::string DomNode::TextContent() const {
  std::string out;
  AppendText(&out);
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::vector<const DomNode*> DomNode::FindAll(std::string_view tag,
                                             bool skip_nested) const {
  std::vector<const DomNode*> out;
  for (const auto& c : children_) {
    if (c->IsTag(tag)) {
      out.push_back(c.get());
      if (skip_nested) continue;
    }
    auto sub = c->FindAll(tag, skip_nested);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::vector<const DomNode*> DomNode::PathToRoot() const {
  std::vector<const DomNode*> path;
  for (const DomNode* n = this; n != nullptr; n = n->parent()) {
    path.push_back(n);
  }
  return path;
}

bool IsFormatTag(std::string_view tag) {
  return tag == "b" || tag == "strong" || tag == "i" || tag == "em" ||
         tag == "u" || tag == "code" || IsHeadingTag(tag);
}

bool IsHeadingTag(std::string_view tag) {
  return tag.size() == 2 && tag[0] == 'h' && tag[1] >= '1' && tag[1] <= '6';
}

}  // namespace wwt

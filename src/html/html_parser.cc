#include "html/html_parser.h"

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace wwt {

namespace {

bool IsVoidTag(std::string_view tag) {
  return tag == "br" || tag == "hr" || tag == "img" || tag == "input" ||
         tag == "meta" || tag == "link" || tag == "area" || tag == "base" ||
         tag == "col" || tag == "embed" || tag == "source" ||
         tag == "track" || tag == "wbr";
}

bool IsRawTextTag(std::string_view tag) {
  return tag == "script" || tag == "style";
}

/// Tags through which an implicit close may NOT propagate: a new <td>
/// closes an open <td> only within the current <tr>, etc.
struct CloseRule {
  const char* opening;          // tag being opened
  const char* closes;           // open tag it implicitly closes
  const char* barrier;          // stop searching at this ancestor
};

constexpr CloseRule kCloseRules[] = {
    {"tr", "tr", "table"},   {"tr", "td", "table"},  {"tr", "th", "table"},
    {"td", "td", "tr"},      {"td", "th", "tr"},     {"th", "td", "tr"},
    {"th", "th", "tr"},      {"li", "li", "ul"},     {"li", "li", "ol"},
    {"p", "p", "div"},       {"option", "option", "select"},
    {"thead", "tr", "table"}, {"tbody", "tr", "table"},
    {"tbody", "thead", "table"}, {"tfoot", "tbody", "table"},
};

class Parser {
 public:
  explicit Parser(std::string_view html) : html_(html) {}

  Document Run() {
    Document doc;
    stack_.push_back(doc.root());
    while (pos_ < html_.size()) {
      if (html_[pos_] == '<') {
        ParseMarkup();
      } else {
        ParseText();
      }
    }
    return doc;
  }

 private:
  DomNode* top() { return stack_.back(); }

  void ParseText() {
    size_t start = pos_;
    while (pos_ < html_.size() && html_[pos_] != '<') ++pos_;
    std::string_view raw = html_.substr(start, pos_ - start);
    std::string decoded = DecodeEntities(raw);
    // Keep whitespace-only text nodes out of the tree; they carry no
    // signal and bloat context extraction.
    if (StripWhitespace(decoded).empty()) return;
    top()->AddChild(
        std::make_unique<DomNode>(NodeType::kText, std::move(decoded)));
  }

  void ParseMarkup() {
    // pos_ points at '<'.
    if (StartsAt("<!--")) {
      ParseComment();
      return;
    }
    if (pos_ + 1 < html_.size() &&
        (html_[pos_ + 1] == '!' || html_[pos_ + 1] == '?')) {
      // DOCTYPE / processing instruction: skip to '>'.
      SkipTo('>');
      return;
    }
    if (pos_ + 1 < html_.size() && html_[pos_ + 1] == '/') {
      ParseCloseTag();
      return;
    }
    if (pos_ + 1 >= html_.size() ||
        !std::isalpha(static_cast<unsigned char>(html_[pos_ + 1]))) {
      // Stray '<': treat as text.
      top()->AddChild(std::make_unique<DomNode>(NodeType::kText, "<"));
      ++pos_;
      return;
    }
    ParseOpenTag();
  }

  void ParseComment() {
    size_t end = html_.find("-->", pos_ + 4);
    std::string body;
    if (end == std::string_view::npos) {
      body = std::string(html_.substr(pos_ + 4));
      pos_ = html_.size();
    } else {
      body = std::string(html_.substr(pos_ + 4, end - pos_ - 4));
      pos_ = end + 3;
    }
    top()->AddChild(
        std::make_unique<DomNode>(NodeType::kComment, std::move(body)));
  }

  void ParseCloseTag() {
    pos_ += 2;  // "</"
    std::string tag = ReadTagName();
    SkipTo('>');
    if (tag.empty()) return;
    // Pop until the matching open tag; if absent, ignore the close tag.
    for (size_t i = stack_.size(); i-- > 1;) {
      if (stack_[i]->IsTag(tag)) {
        stack_.resize(i);
        return;
      }
    }
  }

  void ParseOpenTag() {
    ++pos_;  // '<'
    std::string tag = ReadTagName();
    auto node = std::make_unique<DomNode>(NodeType::kElement, tag);
    bool self_closed = ParseAttributes(node.get());

    ApplyImplicitCloses(tag);

    DomNode* added = top()->AddChild(std::move(node));
    if (self_closed || IsVoidTag(tag)) return;

    if (IsRawTextTag(tag)) {
      ConsumeRawText(added, tag);
      return;
    }
    // stack_[0] is the document, not an open element.
    if (stack_.size() > kMaxOpenElements) return;
    stack_.push_back(added);
  }

  void ApplyImplicitCloses(const std::string& tag) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const CloseRule& rule : kCloseRules) {
        if (tag != rule.opening) continue;
        // Search from the top of the stack down to the barrier.
        for (size_t i = stack_.size(); i-- > 1;) {
          if (stack_[i]->IsTag(rule.barrier)) break;
          if (stack_[i]->IsTag(rule.closes)) {
            stack_.resize(i);
            changed = true;
            break;
          }
        }
        if (changed) break;
      }
    }
  }

  /// Returns true if the tag was self-closing ("/>").
  bool ParseAttributes(DomNode* node) {
    while (pos_ < html_.size()) {
      SkipSpaces();
      if (pos_ >= html_.size()) return false;
      if (html_[pos_] == '>') {
        ++pos_;
        return false;
      }
      if (html_[pos_] == '/') {
        ++pos_;
        if (pos_ < html_.size() && html_[pos_] == '>') {
          ++pos_;
          return true;
        }
        continue;
      }
      // Attribute name.
      size_t start = pos_;
      while (pos_ < html_.size() && html_[pos_] != '=' &&
             html_[pos_] != '>' && html_[pos_] != '/' &&
             !std::isspace(static_cast<unsigned char>(html_[pos_]))) {
        ++pos_;
      }
      std::string name = ToLower(html_.substr(start, pos_ - start));
      std::string value;
      SkipSpaces();
      if (pos_ < html_.size() && html_[pos_] == '=') {
        ++pos_;
        SkipSpaces();
        if (pos_ < html_.size() &&
            (html_[pos_] == '"' || html_[pos_] == '\'')) {
          char quote = html_[pos_++];
          size_t vstart = pos_;
          while (pos_ < html_.size() && html_[pos_] != quote) ++pos_;
          value = DecodeEntities(html_.substr(vstart, pos_ - vstart));
          if (pos_ < html_.size()) ++pos_;  // closing quote
        } else {
          size_t vstart = pos_;
          while (pos_ < html_.size() && html_[pos_] != '>' &&
                 !std::isspace(static_cast<unsigned char>(html_[pos_]))) {
            ++pos_;
          }
          value = DecodeEntities(html_.substr(vstart, pos_ - vstart));
        }
      }
      if (!name.empty()) node->AddAttr(std::move(name), std::move(value));
    }
    return false;
  }

  void ConsumeRawText(DomNode* node, const std::string& tag) {
    std::string close = "</" + tag;
    size_t end = pos_;
    while (true) {
      end = html_.find(close, end);
      if (end == std::string_view::npos) {
        end = html_.size();
        break;
      }
      size_t after = end + close.size();
      if (after >= html_.size() || html_[after] == '>' ||
          std::isspace(static_cast<unsigned char>(html_[after]))) {
        break;
      }
      ++end;
    }
    if (end > pos_) {
      node->AddChild(std::make_unique<DomNode>(
          NodeType::kText, std::string(html_.substr(pos_, end - pos_))));
    }
    pos_ = end;
    if (pos_ < html_.size()) SkipTo('>');
  }

  std::string ReadTagName() {
    size_t start = pos_;
    while (pos_ < html_.size() &&
           (std::isalnum(static_cast<unsigned char>(html_[pos_])) ||
            html_[pos_] == '-' || html_[pos_] == ':')) {
      ++pos_;
    }
    return ToLower(html_.substr(start, pos_ - start));
  }

  bool StartsAt(std::string_view prefix) const {
    return html_.substr(pos_, prefix.size()) == prefix;
  }

  void SkipSpaces() {
    while (pos_ < html_.size() &&
           std::isspace(static_cast<unsigned char>(html_[pos_]))) {
      ++pos_;
    }
  }

  void SkipTo(char c) {
    while (pos_ < html_.size() && html_[pos_] != c) ++pos_;
    if (pos_ < html_.size()) ++pos_;
  }

  std::string_view html_;
  size_t pos_ = 0;
  std::vector<DomNode*> stack_;
};

}  // namespace

Document ParseHtml(std::string_view html) { return Parser(html).Run(); }

std::string DecodeEntities(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out += text[i++];
      continue;
    }
    size_t semi = text.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out += text[i++];
      continue;
    }
    std::string_view name = text.substr(i + 1, semi - i - 1);
    if (name == "amp") {
      out += '&';
    } else if (name == "lt") {
      out += '<';
    } else if (name == "gt") {
      out += '>';
    } else if (name == "quot") {
      out += '"';
    } else if (name == "apos") {
      out += '\'';
    } else if (name == "nbsp") {
      out += ' ';
    } else if (name == "mdash" || name == "ndash") {
      out += '-';
    } else if (!name.empty() && name[0] == '#') {
      long code = 0;
      bool ok = false;
      if (name.size() > 1 && (name[1] == 'x' || name[1] == 'X')) {
        char* endp = nullptr;
        std::string digits(name.substr(2));
        code = std::strtol(digits.c_str(), &endp, 16);
        ok = endp && *endp == '\0' && !digits.empty();
      } else {
        char* endp = nullptr;
        std::string digits(name.substr(1));
        code = std::strtol(digits.c_str(), &endp, 10);
        ok = endp && *endp == '\0' && !digits.empty();
      }
      if (ok && code > 0 && code < 128) {
        out += static_cast<char>(code);
      } else if (ok) {
        out += ' ';  // non-ASCII: neutral placeholder
      } else {
        out += std::string(text.substr(i, semi - i + 1));
      }
    } else {
      out += std::string(text.substr(i, semi - i + 1));
    }
    i = semi + 1;
  }
  return out;
}

std::string EscapeHtml(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace wwt

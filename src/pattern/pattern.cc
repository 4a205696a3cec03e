#include "pattern/pattern.h"

#include "common/str_util.h"

namespace qtf {

PatternNodePtr PatternNode::Any() {
  // Pattern nodes are immutable, and every placeholder is structurally
  // identical — hash-cons them into one process-wide leaf instead of
  // allocating per call (pattern enumeration and composition create
  // thousands of placeholders).
  static const PatternNodePtr kAnyNode = std::make_shared<PatternNode>(
      Type::kAny, LogicalOpKind::kGet, std::nullopt,
      std::vector<PatternNodePtr>{});
  return kAnyNode;
}

PatternNodePtr PatternNode::Op(LogicalOpKind kind,
                               std::vector<PatternNodePtr> children) {
  return std::make_shared<PatternNode>(Type::kOperator, kind, std::nullopt,
                                       std::move(children));
}

PatternNodePtr PatternNode::Join(JoinKind join_kind, PatternNodePtr left,
                                 PatternNodePtr right) {
  return std::make_shared<PatternNode>(
      Type::kOperator, LogicalOpKind::kJoin, join_kind,
      std::vector<PatternNodePtr>{std::move(left), std::move(right)});
}

int PatternNode::Size() const {
  int n = 1;
  for (const PatternNodePtr& child : children_) n += child->Size();
  return n;
}

int PatternNode::PlaceholderCount() const {
  if (type_ == Type::kAny) return 1;
  int n = 0;
  for (const PatternNodePtr& child : children_) n += child->PlaceholderCount();
  return n;
}

std::string PatternNode::ToString() const {
  if (type_ == Type::kAny) return "Any";
  std::string name = LogicalOpKindToString(op_kind_);
  if (join_kind_.has_value()) {
    name += std::string("[") + JoinKindToString(*join_kind_) + "]";
  }
  if (children_.empty()) return name;
  std::vector<std::string> parts;
  for (const PatternNodePtr& child : children_) {
    parts.push_back(child->ToString());
  }
  return name + "(" + ::qtf::Join(parts, ", ") + ")";
}

bool MatchesPatternRoot(const LogicalOp& op, const PatternNode& pattern) {
  if (pattern.type() == PatternNode::Type::kAny) return true;
  if (op.kind() != pattern.op_kind()) return false;
  if (pattern.join_kind().has_value() &&
      static_cast<const JoinOp&>(op).join_kind() != *pattern.join_kind()) {
    return false;
  }
  return op.children().size() == pattern.children().size();
}

bool MatchesPattern(const LogicalOp& op, const PatternNode& pattern) {
  if (!MatchesPatternRoot(op, pattern)) return false;
  for (size_t i = 0; i < pattern.children().size(); ++i) {
    if (!MatchesPattern(*op.children()[i], *pattern.children()[i])) {
      return false;
    }
  }
  return true;
}

bool ContainsPattern(const LogicalOp& op, const PatternNode& pattern) {
  if (MatchesPattern(op, pattern)) return true;
  for (const LogicalOpPtr& child : op.children()) {
    if (ContainsPattern(*child, pattern)) return true;
  }
  return false;
}

// ---- XML serialization ----

namespace {

void AppendXml(const PatternNode& node, int depth, std::string* out) {
  if (node.type() == PatternNode::Type::kAny) {
    *out += Indent(depth) + "<any/>\n";
    return;
  }
  std::string tag = Indent(depth) + "<op kind=\"" +
                    LogicalOpKindToString(node.op_kind()) + "\"";
  if (node.join_kind().has_value()) {
    tag += std::string(" join=\"") + JoinKindToString(*node.join_kind()) +
           "\"";
  }
  if (node.children().empty()) {
    *out += tag + "/>\n";
    return;
  }
  *out += tag + ">\n";
  for (const PatternNodePtr& child : node.children()) {
    AppendXml(*child, depth + 1, out);
  }
  *out += Indent(depth) + "</op>\n";
}

/// Minimal recursive-descent parser over the XML subset emitted by
/// PatternToXml. Not a general XML parser.
class XmlParser {
 public:
  explicit XmlParser(const std::string& input) : input_(input) {}

  Result<PatternNodePtr> ParseRoot(std::string* rule_name) {
    SkipWhitespace();
    QTF_RETURN_NOT_OK(Expect("<rulepattern"));
    QTF_ASSIGN_OR_RETURN(std::string name_attr, ParseAttribute("name"));
    if (rule_name != nullptr) *rule_name = name_attr;
    QTF_RETURN_NOT_OK(Expect(">"));
    QTF_ASSIGN_OR_RETURN(PatternNodePtr node, ParseNode());
    SkipWhitespace();
    QTF_RETURN_NOT_OK(Expect("</rulepattern>"));
    return node;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < input_.size() &&
           (input_[pos_] == ' ' || input_[pos_] == '\n' ||
            input_[pos_] == '\t' || input_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status Expect(const std::string& token) {
    SkipWhitespace();
    if (input_.compare(pos_, token.size(), token) != 0) {
      return Status::InvalidArgument("expected '" + token + "' at offset " +
                                     std::to_string(pos_));
    }
    pos_ += token.size();
    return Status::OK();
  }

  Result<std::string> ParseAttribute(const std::string& name) {
    SkipWhitespace();
    QTF_RETURN_NOT_OK(Expect(name + "=\""));
    size_t end = input_.find('"', pos_);
    if (end == std::string::npos) {
      return Status::InvalidArgument("unterminated attribute " + name);
    }
    std::string value = input_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return value;
  }

  Result<LogicalOpKind> KindFromString(const std::string& s) {
    for (int k = 0; k <= static_cast<int>(LogicalOpKind::kGroupRef); ++k) {
      auto kind = static_cast<LogicalOpKind>(k);
      if (s == LogicalOpKindToString(kind)) return kind;
    }
    return Status::InvalidArgument("unknown operator kind: " + s);
  }

  Result<JoinKind> JoinFromString(const std::string& s) {
    for (int k = 0; k <= static_cast<int>(JoinKind::kLeftAnti); ++k) {
      auto kind = static_cast<JoinKind>(k);
      if (s == JoinKindToString(kind)) return kind;
    }
    return Status::InvalidArgument("unknown join kind: " + s);
  }

  Result<PatternNodePtr> ParseNode() {
    SkipWhitespace();
    if (input_.compare(pos_, 6, "<any/>") == 0) {
      pos_ += 6;
      return PatternNode::Any();
    }
    QTF_RETURN_NOT_OK(Expect("<op"));
    QTF_ASSIGN_OR_RETURN(std::string kind_attr, ParseAttribute("kind"));
    QTF_ASSIGN_OR_RETURN(LogicalOpKind kind, KindFromString(kind_attr));
    std::optional<JoinKind> join_kind;
    SkipWhitespace();
    if (input_.compare(pos_, 5, "join=") == 0) {
      QTF_ASSIGN_OR_RETURN(std::string join_attr, ParseAttribute("join"));
      QTF_ASSIGN_OR_RETURN(JoinKind jk, JoinFromString(join_attr));
      join_kind = jk;
    }
    SkipWhitespace();
    if (input_.compare(pos_, 2, "/>") == 0) {
      pos_ += 2;
      return PatternNodePtr(std::make_shared<PatternNode>(
          PatternNode::Type::kOperator, kind, join_kind,
          std::vector<PatternNodePtr>{}));
    }
    QTF_RETURN_NOT_OK(Expect(">"));
    std::vector<PatternNodePtr> children;
    while (true) {
      SkipWhitespace();
      if (input_.compare(pos_, 5, "</op>") == 0) {
        pos_ += 5;
        break;
      }
      QTF_ASSIGN_OR_RETURN(PatternNodePtr child, ParseNode());
      children.push_back(std::move(child));
    }
    return PatternNodePtr(std::make_shared<PatternNode>(
        PatternNode::Type::kOperator, kind, join_kind, std::move(children)));
  }

  const std::string& input_;
  size_t pos_ = 0;
};

/// All trees obtained by replacing exactly one placeholder of `node` with
/// `replacement`.
void SubstitutePlaceholders(const PatternNodePtr& node,
                            const PatternNodePtr& replacement,
                            std::vector<PatternNodePtr>* out) {
  if (node->type() == PatternNode::Type::kAny) {
    out->push_back(replacement);
    return;
  }
  for (size_t i = 0; i < node->children().size(); ++i) {
    std::vector<PatternNodePtr> child_variants;
    SubstitutePlaceholders(node->children()[i], replacement, &child_variants);
    for (const PatternNodePtr& variant : child_variants) {
      std::vector<PatternNodePtr> children = node->children();
      children[i] = variant;
      out->push_back(std::make_shared<PatternNode>(
          node->type(), node->op_kind(), node->join_kind(),
          std::move(children)));
    }
  }
}

}  // namespace

std::string PatternToXml(const PatternNode& pattern,
                         const std::string& rule_name) {
  std::string out = "<rulepattern name=\"" + rule_name + "\">\n";
  AppendXml(pattern, 1, &out);
  out += "</rulepattern>\n";
  return out;
}

Result<PatternNodePtr> PatternFromXml(const std::string& xml,
                                      std::string* rule_name) {
  XmlParser parser(xml);
  return parser.ParseRoot(rule_name);
}

std::vector<PatternNodePtr> ComposePatterns(const PatternNodePtr& a,
                                            const PatternNodePtr& b) {
  std::vector<PatternNodePtr> out;
  // (1) New root combining both patterns.
  out.push_back(PatternNode::Join(JoinKind::kInner, a, b));
  out.push_back(PatternNode::Op(LogicalOpKind::kUnionAll, {a, b}));
  // (2) Substitute a placeholder of one pattern with the other pattern.
  SubstitutePlaceholders(a, b, &out);
  SubstitutePlaceholders(b, a, &out);
  return out;
}

}  // namespace qtf

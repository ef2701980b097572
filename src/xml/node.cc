#include "xml/node.h"

#include <utility>

#include "common/logging.h"

namespace kadop::xml {

std::string StructuralId::ToString() const {
  // Built by appending: `"(" + std::to_string(...)` trips g++ 12's
  // -Wrestrict false positive at -O3.
  std::string out = "(";
  out += std::to_string(start);
  out += ':';
  out += std::to_string(end);
  out += ':';
  out += std::to_string(level);
  out += ')';
  return out;
}

std::unique_ptr<Node> Node::Element(std::string label) {
  auto n = std::unique_ptr<Node>(new Node(NodeType::kElement));
  n->label_ = std::move(label);
  return n;
}

std::unique_ptr<Node> Node::Text(std::string text) {
  auto n = std::unique_ptr<Node>(new Node(NodeType::kText));
  n->text_ = std::move(text);
  return n;
}

std::unique_ptr<Node> Node::EntityRef(std::string name) {
  auto n = std::unique_ptr<Node>(new Node(NodeType::kEntityRef));
  n->label_ = std::move(name);
  return n;
}

Node* Node::AddChild(std::unique_ptr<Node> child) {
  KADOP_CHECK(IsElement(), "only elements may have children");
  KADOP_CHECK(child != nullptr, "null child");
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Node* Node::AddElement(std::string label) {
  return AddChild(Element(std::move(label)));
}

Node* Node::AddText(std::string text) {
  return AddChild(Text(std::move(text)));
}

Node* Node::AddEntityRef(std::string name) {
  return AddChild(EntityRef(std::move(name)));
}

std::unique_ptr<Node> Node::DetachLastChild() {
  KADOP_CHECK(!children_.empty(), "no children to detach");
  std::unique_ptr<Node> child = std::move(children_.back());
  children_.pop_back();
  child->parent_ = nullptr;
  return child;
}

size_t Node::CountElements() const {
  size_t n = IsElement() ? 1 : 0;
  for (const auto& c : children_) n += c->CountElements();
  return n;
}

const Node* Node::FindChild(const std::string& label) const {
  for (const auto& c : children_) {
    if (c->IsElement() && c->label() == label) return c.get();
  }
  return nullptr;
}

namespace {

uint32_t AnnotateRecursive(Node* node, uint32_t counter, uint16_t level) {
  if (!node->IsElement()) return counter;
  StructuralId sid;
  sid.start = ++counter;
  sid.level = level;
  for (const auto& child : node->children()) {
    if (child->IsElement()) {
      counter = AnnotateRecursive(child.get(), counter, level + 1);
    }
  }
  sid.end = ++counter;
  node->set_sid(sid);
  // Non-element children inherit the enclosing interval, one level deeper.
  for (const auto& child : node->children()) {
    if (!child->IsElement()) {
      StructuralId tsid = sid;
      tsid.level = level + 1;
      child->set_sid(tsid);
    }
  }
  return counter;
}

}  // namespace

uint32_t AnnotateSids(Document& doc) {
  if (!doc.root) return 0;
  return AnnotateRecursive(doc.root.get(), 0, 1);
}

}  // namespace kadop::xml

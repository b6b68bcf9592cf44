#include "rewrite/explanation.h"

#include <sstream>

namespace whyq {

namespace {

std::string NodeName(const Graph& g, const Query& q, QNodeId u) {
  std::ostringstream os;
  os << "the " << g.NodeLabelName(q.node(u).label) << " node (u" << u << ")";
  return os.str();
}

bool HasOppositeBound(const Query& q, QNodeId u, const Literal& l) {
  for (const Literal& other : q.node(u).literals) {
    if (other.attr != l.attr) continue;
    if (IsUpperBound(l.op) && IsLowerBound(other.op)) return true;
    if (IsLowerBound(l.op) && IsUpperBound(other.op)) return true;
  }
  return false;
}

bool HasAnyLiteralOn(const Query& q, QNodeId u, SymbolId attr) {
  for (const Literal& other : q.node(u).literals) {
    if (other.attr == attr) return true;
  }
  return false;
}

}  // namespace

const char* ExplainedChangeKindName(ExplainedChange::Kind k) {
  switch (k) {
    case ExplainedChange::Kind::kTightenedBound:
      return "tightened-bound";
    case ExplainedChange::Kind::kAddedCondition:
      return "added-condition";
    case ExplainedChange::Kind::kAddedStructure:
      return "added-structure";
    case ExplainedChange::Kind::kLoosenedBound:
      return "loosened-bound";
    case ExplainedChange::Kind::kDroppedCondition:
      return "dropped-condition";
    case ExplainedChange::Kind::kDroppedStructure:
      return "dropped-structure";
  }
  return "?";
}

std::string Explanation::ToString() const {
  std::ostringstream os;
  for (const ExplainedChange& c : changes) {
    os << "  * " << c.sentence << '\n';
  }
  return os.str();
}

Explanation ExplainRewrite(const Graph& g, const Query& q,
                           const OperatorSet& ops) {
  Explanation out;
  for (const EditOp& op : ops) {
    ExplainedChange c;
    c.node = op.u;
    std::ostringstream os;
    switch (op.kind) {
      case OpKind::kRfL:
        c.kind = ExplainedChange::Kind::kTightenedBound;
        os << "the " << g.AttrName(op.before.attr) << " condition on "
           << NodeName(g, q, op.u) << " was tightened from "
           << CompareOpName(op.before.op) << ' '
           << op.before.constant.ToString() << " to "
           << CompareOpName(op.after.op) << ' '
           << op.after.constant.ToString();
        break;
      case OpKind::kRxL:
        c.kind = ExplainedChange::Kind::kLoosenedBound;
        os << "the " << g.AttrName(op.before.attr) << " condition on "
           << NodeName(g, q, op.u) << " was relaxed from "
           << CompareOpName(op.before.op) << ' '
           << op.before.constant.ToString() << " to "
           << CompareOpName(op.after.op) << ' '
           << op.after.constant.ToString();
        break;
      case OpKind::kAddL: {
        bool pairing = HasOppositeBound(q, op.u, op.after);
        c.kind = pairing || HasAnyLiteralOn(q, op.u, op.after.attr)
                     ? ExplainedChange::Kind::kTightenedBound
                     : ExplainedChange::Kind::kAddedCondition;
        os << "a new condition " << g.AttrName(op.after.attr) << ' '
           << CompareOpName(op.after.op) << ' '
           << op.after.constant.ToString() << " was required on "
           << NodeName(g, q, op.u);
        if (pairing) {
          os << " (pairing the existing "
             << g.AttrName(op.after.attr) << " bound)";
        }
        break;
      }
      case OpKind::kRmL:
        c.kind = ExplainedChange::Kind::kDroppedCondition;
        os << "the condition " << g.AttrName(op.before.attr) << ' '
           << CompareOpName(op.before.op) << ' '
           << op.before.constant.ToString() << " on "
           << NodeName(g, q, op.u) << " was dropped";
        break;
      case OpKind::kAddE:
        c.kind = ExplainedChange::Kind::kAddedStructure;
        if (op.new_node.has_value()) {
          os << NodeName(g, q, op.u) << " must now "
             << (op.edge_forward ? "have" : "be referenced by") << " a "
             << g.EdgeLabelName(op.edge_label) << " connection "
             << (op.edge_forward ? "to" : "from") << " a "
             << g.NodeLabelName(op.new_node->label) << " entity";
          for (const Literal& l : op.new_node->literals) {
            os << " with " << g.AttrName(l.attr) << ' '
               << CompareOpName(l.op) << ' ' << l.constant.ToString();
          }
        } else {
          os << "a " << g.EdgeLabelName(op.edge_label)
             << " connection is now required from " << NodeName(g, q, op.u)
             << " to " << NodeName(g, q, op.v);
        }
        break;
      case OpKind::kRmE:
        c.kind = ExplainedChange::Kind::kDroppedStructure;
        os << "the " << g.EdgeLabelName(op.edge_label)
           << " connection from " << NodeName(g, q, op.u) << " to "
           << NodeName(g, q, op.v) << " is no longer required";
        break;
    }
    c.sentence = os.str();
    out.changes.push_back(std::move(c));
  }
  return out;
}

}  // namespace whyq

#include "db/ast.h"

#include <cmath>
#include <cstdio>

#include "db/aggregate.h"
#include "db/schema.h"

namespace seaweed::db {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

PredicatePtr Predicate::True() {
  static const PredicatePtr kTrueNode = std::make_shared<Predicate>();
  return kTrueNode;
}

PredicatePtr Predicate::Compare(std::string column, CompareOp op,
                                Value literal) {
  auto p = std::make_shared<Predicate>();
  p->kind = Kind::kCompare;
  p->column = std::move(column);
  p->op = op;
  p->literal = std::move(literal);
  return p;
}

PredicatePtr Predicate::And(PredicatePtr l, PredicatePtr r) {
  auto p = std::make_shared<Predicate>();
  p->kind = Kind::kAnd;
  p->left = std::move(l);
  p->right = std::move(r);
  return p;
}

PredicatePtr Predicate::Or(PredicatePtr l, PredicatePtr r) {
  auto p = std::make_shared<Predicate>();
  p->kind = Kind::kOr;
  p->left = std::move(l);
  p->right = std::move(r);
  return p;
}

namespace {

// Renders a number so that re-parsing ToString() output yields the same
// value (ToString doubles as the plan-cache fingerprint).
std::string FormatNumber(double p) {
  if (p == std::floor(p) && std::abs(p) < 1e15) {
    return std::to_string(static_cast<int64_t>(p));
  }
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", p);
  return buf;
}

// Renders a predicate literal so that it re-parses to the same value:
// numbers through FormatNumber, strings quoted with '' escaping.
std::string FormatLiteral(const Value& v) {
  if (v.is_int64()) return std::to_string(v.AsInt64());
  if (v.is_double()) return FormatNumber(v.AsDouble());
  std::string out = "'";
  for (char c : v.AsString()) {
    out += c;
    if (c == '\'') out += c;
  }
  return out + "'";
}

}  // namespace

std::string Predicate::ToString() const {
  switch (kind) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCompare:
      return column + " " + CompareOpName(op) + " " + FormatLiteral(literal);
    case Kind::kAnd:
      return "(" + left->ToString() + " AND " + right->ToString() + ")";
    case Kind::kOr:
      return "(" + left->ToString() + " OR " + right->ToString() + ")";
  }
  return "?";
}

double SelectItem::EffectiveParam() const {
  if (has_param) return param;
  return func != nullptr ? func->descriptor().default_param : 0;
}

bool SelectQuery::IsAggregateOnly() const {
  bool any_aggregate = false;
  for (const auto& item : items) {
    if (item.is_aggregate) {
      any_aggregate = true;
      continue;
    }
    // A bare column is permitted only when it names the GROUP BY column.
    if (group_by.empty() || !EqualsIgnoreCase(item.column, group_by)) {
      return false;
    }
  }
  return any_aggregate;
}

std::string SelectQuery::ToString() const {
  std::string out = "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    const auto& item = items[i];
    if (item.is_aggregate) {
      out += item.func->name();
      out += "(";
      out += item.column.empty() ? "*" : item.column;
      if (item.has_param) {
        out += ", ";
        out += FormatNumber(item.param);
      }
      out += ")";
    } else {
      out += item.column.empty() ? "*" : item.column;
    }
  }
  out += " FROM " + table;
  if (where && where->kind != Predicate::Kind::kTrue) {
    out += " WHERE " + where->ToString();
  }
  if (!group_by.empty()) {
    out += " GROUP BY " + group_by;
  }
  return out;
}

}  // namespace seaweed::db

#include "db/query_exec.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace seaweed::db {

namespace {

// GROUP BY on a dictionary column uses dense array-indexed accumulators
// sized by dict_size(); above this cardinality the executor falls back to
// the Value-keyed path to bound memory (dict_size * arity * sizeof(AggState)
// at 64k is a few MiB worst case).
constexpr size_t kDenseGroupMaxDict = size_t{1} << 16;

// Compact exact-quad encoding (AggState::Encode). The flag byte holds two
// bits per double field, in the order sum, min, max: "present" (the field
// differs bit for bit from its default) and "raw" (written as 8 raw bytes
// rather than a zigzag varint).
constexpr uint8_t kQuadFieldMask = 3;
constexpr uint8_t kFieldPresent = 1;
constexpr uint8_t kFieldRaw = 2;

uint64_t Zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t Unzigzag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// True when `v` round-trips exactly through int64: false for -0.0, NaN,
// ±inf, non-integral values and integers outside [-2^63, 2^63).
bool IsExactInt64(double v) {
  // In this range the cast to int64 truncates without UB.
  if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0)) {
    return false;
  }
  return static_cast<double>(static_cast<int64_t>(v)) == v &&
         !(v == 0 && std::signbit(v));
}

// Flag bits of quad field `index` holding `v`: none when `v` equals `def`
// bit for bit (the field is omitted), else present, plus raw unless `v`
// round-trips through a zigzag varint.
uint8_t QuadFieldFlags(int index, double v, double def) {
  if (std::bit_cast<uint64_t>(v) == std::bit_cast<uint64_t>(def)) return 0;
  const uint8_t f =
      IsExactInt64(v) ? kFieldPresent : (kFieldPresent | kFieldRaw);
  return static_cast<uint8_t>(f << (2 * index));
}

void PutQuadField(Writer& w, uint8_t flags, int index, double v) {
  const uint8_t f = (flags >> (2 * index)) & kQuadFieldMask;
  if (f == 0) return;
  if (f & kFieldRaw) {
    w.PutDouble(v);
  } else {
    w.PutVarint(Zigzag(static_cast<int64_t>(v)));
  }
}

Result<double> GetQuadField(Reader& r, uint8_t flags, int index,
                            double def) {
  const uint8_t f = (flags >> (2 * index)) & kQuadFieldMask;
  if (f == 0) return def;
  if (f == kFieldRaw) return Status::ParseError("raw bit on absent field");
  if (f & kFieldRaw) return r.GetDouble();
  SEAWEED_ASSIGN_OR_RETURN(uint64_t z, r.GetVarint());
  return static_cast<double>(Unzigzag(z));
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar reference predicate
// ---------------------------------------------------------------------------

Result<int> CompiledPredicate::BindNode(const PredicatePtr& pred,
                                        const Table& table,
                                        std::vector<Node>* nodes) {
  Node node;
  node.kind = pred->kind;
  switch (pred->kind) {
    case Predicate::Kind::kTrue:
      break;
    case Predicate::Kind::kCompare: {
      SEAWEED_ASSIGN_OR_RETURN(int col,
                               table.schema().RequireColumn(pred->column));
      node.column_index = col;
      node.column_type = table.schema().column(static_cast<size_t>(col)).type;
      node.op = pred->op;
      const Value& lit = pred->literal;
      if (node.column_type == ColumnType::kString) {
        if (!lit.is_string()) {
          return Status::InvalidArgument(
              "numeric literal compared against string column " +
              pred->column);
        }
        if (pred->op != CompareOp::kEq && pred->op != CompareOp::kNe) {
          // Range comparison on strings: fall back to lexicographic compare
          // through the dictionary (slow path flagged by code -2).
          node.string_code = -2;
        } else {
          node.string_code =
              table.column(static_cast<size_t>(col)).DictCode(lit.AsString());
        }
        node.literal_is_int = false;
        node.int_literal = 0;
      } else {
        if (lit.is_string()) {
          return Status::InvalidArgument(
              "string literal compared against numeric column " +
              pred->column);
        }
        if (lit.is_int64()) {
          node.int_literal = lit.AsInt64();
          node.double_literal = static_cast<double>(lit.AsInt64());
          node.literal_is_int = true;
        } else {
          node.double_literal = lit.AsDouble();
          node.literal_is_int = false;
        }
      }
      break;
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      SEAWEED_ASSIGN_OR_RETURN(int l, BindNode(pred->left, table, nodes));
      SEAWEED_ASSIGN_OR_RETURN(int r, BindNode(pred->right, table, nodes));
      node.left = l;
      node.right = r;
      break;
    }
  }
  nodes->push_back(node);
  return static_cast<int>(nodes->size()) - 1;
}

Result<CompiledPredicate> CompiledPredicate::Bind(const PredicatePtr& pred,
                                                  const Table& table) {
  CompiledPredicate cp;
  // String range comparisons need the literal text; to keep Node POD-small
  // we disallow the rare string-range case instead (Anemone queries never
  // use it).
  std::vector<Node> nodes;
  SEAWEED_ASSIGN_OR_RETURN(int root, BindNode(pred, table, &nodes));
  for (const Node& n : nodes) {
    if (n.kind == Predicate::Kind::kCompare && n.string_code == -2) {
      return Status::NotImplemented(
          "range comparison on string column is not supported");
    }
  }
  cp.nodes_ = std::move(nodes);
  cp.root_ = root;
  return cp;
}

bool CompiledPredicate::EvalNode(int idx, const Table& table,
                                 size_t row) const {
  const Node& n = nodes_[static_cast<size_t>(idx)];
  switch (n.kind) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kAnd:
      return EvalNode(n.left, table, row) && EvalNode(n.right, table, row);
    case Predicate::Kind::kOr:
      return EvalNode(n.left, table, row) || EvalNode(n.right, table, row);
    case Predicate::Kind::kCompare: {
      const Column& col = table.column(static_cast<size_t>(n.column_index));
      switch (n.column_type) {
        case ColumnType::kInt64: {
          int64_t v = col.Int64At(row);
          if (n.literal_is_int) {
            int cmp = (v < n.int_literal) ? -1 : (v > n.int_literal ? 1 : 0);
            return EvalCompare(n.op, cmp);
          }
          double d = static_cast<double>(v);
          int cmp =
              (d < n.double_literal) ? -1 : (d > n.double_literal ? 1 : 0);
          return EvalCompare(n.op, cmp);
        }
        case ColumnType::kDouble: {
          double v = col.DoubleAt(row);
          int cmp =
              (v < n.double_literal) ? -1 : (v > n.double_literal ? 1 : 0);
          return EvalCompare(n.op, cmp);
        }
        case ColumnType::kString: {
          // Equality/inequality against a pre-resolved dictionary code.
          bool eq = n.string_code >= 0 &&
                    col.StringCodeAt(row) ==
                        static_cast<uint32_t>(n.string_code);
          return n.op == CompareOp::kEq ? eq : !eq;
        }
      }
      return false;
    }
  }
  return false;
}

bool CompiledPredicate::Matches(const Table& table, size_t row) const {
  return EvalNode(root_, table, row);
}

// ---------------------------------------------------------------------------
// Batch predicate
// ---------------------------------------------------------------------------

Result<int> BatchPredicate::BindNode(const PredicatePtr& pred,
                                     const Table& table,
                                     std::vector<Node>* nodes) {
  Node node;
  node.kind = pred->kind;
  switch (pred->kind) {
    case Predicate::Kind::kTrue:
      break;
    case Predicate::Kind::kCompare: {
      SEAWEED_ASSIGN_OR_RETURN(int col,
                               table.schema().RequireColumn(pred->column));
      node.column_index = col;
      node.column_type = table.schema().column(static_cast<size_t>(col)).type;
      node.op = pred->op;
      const Value& lit = pred->literal;
      if (node.column_type == ColumnType::kString) {
        if (!lit.is_string()) {
          return Status::InvalidArgument(
              "numeric literal compared against string column " +
              pred->column);
        }
        if (pred->op != CompareOp::kEq && pred->op != CompareOp::kNe) {
          return Status::NotImplemented(
              "range comparison on string column is not supported");
        }
        node.string_literal = lit.AsString();
        node.string_code =
            table.column(static_cast<size_t>(col)).DictCode(node.string_literal);
        node.literal_is_int = false;
      } else {
        if (lit.is_string()) {
          return Status::InvalidArgument(
              "string literal compared against numeric column " +
              pred->column);
        }
        if (lit.is_int64()) {
          node.int_literal = lit.AsInt64();
          node.double_literal = static_cast<double>(lit.AsInt64());
          node.literal_is_int = true;
        } else {
          node.double_literal = lit.AsDouble();
          node.literal_is_int = false;
        }
      }
      break;
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      SEAWEED_ASSIGN_OR_RETURN(int l, BindNode(pred->left, table, nodes));
      SEAWEED_ASSIGN_OR_RETURN(int r, BindNode(pred->right, table, nodes));
      node.left = l;
      node.right = r;
      break;
    }
  }
  nodes->push_back(node);
  return static_cast<int>(nodes->size()) - 1;
}

Result<BatchPredicate> BatchPredicate::Bind(const PredicatePtr& pred,
                                            const Table& table) {
  BatchPredicate bp;
  std::vector<Node> nodes;
  SEAWEED_ASSIGN_OR_RETURN(int root, BindNode(pred, table, &nodes));
  bp.nodes_ = std::move(nodes);
  bp.root_ = root;
  return bp;
}

void BatchPredicate::EvalNode(int idx, const Table& table, uint32_t start,
                              uint32_t len, const SelVector* in,
                              SelVector* out) const {
  out->Clear();
  const Node& n = nodes_[static_cast<size_t>(idx)];
  switch (n.kind) {
    case Predicate::Kind::kTrue: {
      if (in == nullptr) {
        SelAll(start, len, out);
      } else {
        *out = *in;
      }
      return;
    }
    case Predicate::Kind::kAnd: {
      // Conjunction = kernel composition: the right side only ever touches
      // rows the left side selected.
      SelVector tmp;
      EvalNode(n.left, table, start, len, in, &tmp);
      EvalNode(n.right, table, start, len, &tmp, out);
      return;
    }
    case Predicate::Kind::kOr: {
      SelVector a, b;
      EvalNode(n.left, table, start, len, in, &a);
      EvalNode(n.right, table, start, len, in, &b);
      SelUnion(a, b, out);
      return;
    }
    case Predicate::Kind::kCompare: {
      const Column& col = table.column(static_cast<size_t>(n.column_index));
      switch (n.column_type) {
        case ColumnType::kInt64: {
          const int64_t* p = col.ints().data();
          if (n.literal_is_int) {
            if (in == nullptr) {
              FilterDenseOp(p, start, len, n.int_literal, n.op, out);
            } else {
              FilterSelOp(p, *in, n.int_literal, n.op, out);
            }
          } else {
            if (in == nullptr) {
              FilterDenseOp(p, start, len, n.double_literal, n.op, out);
            } else {
              FilterSelOp(p, *in, n.double_literal, n.op, out);
            }
          }
          return;
        }
        case ColumnType::kDouble: {
          const double* p = col.doubles().data();
          if (in == nullptr) {
            FilterDenseOp(p, start, len, n.double_literal, n.op, out);
          } else {
            FilterSelOp(p, *in, n.double_literal, n.op, out);
          }
          return;
        }
        case ColumnType::kString: {
          // Dictionary-coded equality: a uint32_t compare. A literal absent
          // from the dictionary matches nothing (=) or everything (!=).
          if (n.string_code < 0) {
            if (n.op == CompareOp::kNe) {
              if (in == nullptr) {
                SelAll(start, len, out);
              } else {
                *out = *in;
              }
            }
            return;  // kEq: empty selection
          }
          const uint32_t* p = col.codes().data();
          const uint32_t code = static_cast<uint32_t>(n.string_code);
          if (in == nullptr) {
            FilterDenseOp(p, start, len, code, n.op, out);
          } else {
            FilterSelOp(p, *in, code, n.op, out);
          }
          return;
        }
      }
      return;
    }
  }
}

void BatchPredicate::FilterBatch(const Table& table, uint32_t start,
                                 uint32_t len, SelVector* out) const {
  SEAWEED_DCHECK(len <= kBatchSize);
  EvalNode(root_, table, start, len, nullptr, out);
}

bool BatchPredicate::CompatibleWith(const Table& table) const {
  for (const Node& n : nodes_) {
    if (n.kind != Predicate::Kind::kCompare) continue;
    const size_t ci = static_cast<size_t>(n.column_index);
    if (ci >= table.num_columns()) return false;
    if (table.schema().column(ci).type != n.column_type) return false;
    if (n.column_type == ColumnType::kString &&
        table.column(ci).DictCode(n.string_literal) != n.string_code) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Aggregate states and results
// ---------------------------------------------------------------------------

void AggState::Merge(const AggState& other) {
  sum += other.sum;
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  if (other.sketch) {
    if (sketch == nullptr) {
      // Group states created by AggregateResult::Merge start sketchless;
      // adopt the incoming sketch so merge stays closed over states.
      sketch = other.sketch->Clone();
    } else {
      sketch->Merge(*other.sketch);
    }
  }
}

bool AggState::operator==(const AggState& other) const {
  if (sum != other.sum || count != other.count || min != other.min ||
      max != other.max) {
    return false;
  }
  if ((sketch == nullptr) != (other.sketch == nullptr)) return false;
  return sketch == nullptr || sketch->Equals(*other.sketch);
}

void AggState::Encode(Writer& w) const {
  // Tag byte first: 0 = exact quad only, nonzero = a sketch payload of
  // that type follows the quad (see db/sketch.h for the tag registry).
  // Then the flag byte, count as a zigzag varint, and whichever of sum,
  // min and max differ from their defaults (see QuadFieldFlags).
  w.PutU8(sketch ? sketch->tag() : kStateTagExact);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const uint8_t flags = QuadFieldFlags(0, sum, 0.0) |
                        QuadFieldFlags(1, min, kInf) |
                        QuadFieldFlags(2, max, -kInf);
  w.PutU8(flags);
  w.PutVarint(Zigzag(count));
  PutQuadField(w, flags, 0, sum);
  PutQuadField(w, flags, 1, min);
  PutQuadField(w, flags, 2, max);
  if (sketch) sketch->Encode(w);
}

Result<AggState> AggState::Decode(Reader& r) {
  AggState s;
  SEAWEED_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  SEAWEED_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
  if (flags >> 6) return Status::ParseError("bad aggregate state flags");
  SEAWEED_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
  s.count = Unzigzag(count);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SEAWEED_ASSIGN_OR_RETURN(s.sum, GetQuadField(r, flags, 0, 0.0));
  SEAWEED_ASSIGN_OR_RETURN(s.min, GetQuadField(r, flags, 1, kInf));
  SEAWEED_ASSIGN_OR_RETURN(s.max, GetQuadField(r, flags, 2, -kInf));
  if (tag != kStateTagExact) {
    SEAWEED_ASSIGN_OR_RETURN(s.sketch, DecodeSketchState(tag, r));
  }
  return s;
}

void AggregateResult::Merge(const AggregateResult& other) {
  if (states.empty()) {
    states = other.states;
  } else if (!other.states.empty()) {
    SEAWEED_CHECK_MSG(states.size() == other.states.size(),
                      "merging results of different arity");
    for (size_t i = 0; i < states.size(); ++i) {
      states[i].Merge(other.states[i]);
    }
  }
  for (const auto& [key, other_states] : other.groups) {
    auto& mine = GroupStates(key, other_states.size());
    SEAWEED_CHECK_MSG(mine.size() == other_states.size(),
                      "merging groups of different arity");
    for (size_t i = 0; i < mine.size(); ++i) {
      mine[i].Merge(other_states[i]);
    }
  }
  rows_matched += other.rows_matched;
  endsystems += other.endsystems;
}

std::vector<AggState>& AggregateResult::GroupStates(const Value& key,
                                                    size_t arity) {
  auto it = std::lower_bound(
      groups.begin(), groups.end(), key,
      [](const auto& entry, const Value& k) { return entry.first < k; });
  if (it == groups.end() || !(it->first == key)) {
    it = groups.insert(it, {key, std::vector<AggState>(arity)});
  }
  return it->second;
}

const std::vector<AggState>* AggregateResult::FindGroup(
    const Value& key) const {
  auto it = std::lower_bound(
      groups.begin(), groups.end(), key,
      [](const auto& entry, const Value& k) { return entry.first < k; });
  if (it == groups.end() || !(it->first == key)) return nullptr;
  return &it->second;
}

void AggregateResult::Encode(Writer& w) const {
  w.PutVarint(states.size());
  for (const auto& s : states) s.Encode(w);
  w.PutVarint(groups.size());
  for (const auto& [key, group_states] : groups) {
    key.Encode(w);
    w.PutVarint(group_states.size());
    for (const auto& s : group_states) s.Encode(w);
  }
  w.PutI64(rows_matched);
  w.PutI64(endsystems);
}

Result<AggregateResult> AggregateResult::Decode(Reader& r) {
  AggregateResult out;
  SEAWEED_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 1024) return Status::ParseError("implausible aggregate arity");
  out.states.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SEAWEED_ASSIGN_OR_RETURN(AggState s, AggState::Decode(r));
    out.states.push_back(std::move(s));
  }
  SEAWEED_ASSIGN_OR_RETURN(uint64_t ng, r.GetVarint());
  if (ng > 1000000) return Status::ParseError("implausible group count");
  for (uint64_t g = 0; g < ng; ++g) {
    SEAWEED_ASSIGN_OR_RETURN(Value key, Value::Decode(r));
    SEAWEED_ASSIGN_OR_RETURN(uint64_t arity, r.GetVarint());
    if (arity > 1024) return Status::ParseError("implausible group arity");
    std::vector<AggState> group_states;
    group_states.reserve(arity);
    for (uint64_t i = 0; i < arity; ++i) {
      SEAWEED_ASSIGN_OR_RETURN(AggState s, AggState::Decode(r));
      group_states.push_back(std::move(s));
    }
    out.groups.emplace_back(std::move(key), std::move(group_states));
  }
  SEAWEED_ASSIGN_OR_RETURN(out.rows_matched, r.GetI64());
  SEAWEED_ASSIGN_OR_RETURN(out.endsystems, r.GetI64());
  return out;
}

size_t AggregateResult::EncodedBytes() const {
  Writer w;
  Encode(w);
  return w.size();
}

bool AggregateResult::HasSketchStates() const {
  for (const auto& s : states) {
    if (s.sketch) return true;
  }
  for (const auto& [key, group_states] : groups) {
    for (const auto& s : group_states) {
      if (s.sketch) return true;
    }
  }
  return false;
}

size_t AggregateResult::SketchStateBytes() const {
  size_t total = 0;
  for (const auto& s : states) {
    if (s.sketch) total += s.sketch->EncodedBytes();
  }
  for (const auto& [key, group_states] : groups) {
    for (const auto& s : group_states) {
      if (s.sketch) total += s.sketch->EncodedBytes();
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Compiled query (batch engine)
// ---------------------------------------------------------------------------

Result<CompiledQuery> CompiledQuery::Bind(const Table& table,
                                          const SelectQuery& query) {
  if (!query.IsAggregateOnly()) {
    return Status::InvalidArgument(
        "distributed execution requires aggregate-only select list");
  }
  CompiledQuery cq;
  SEAWEED_ASSIGN_OR_RETURN(cq.pred_, BatchPredicate::Bind(query.where, table));

  cq.inputs_.reserve(query.items.size());
  for (const auto& item : query.items) {
    AggInput in;
    in.func = item.func;
    in.param = item.EffectiveParam();
    if (!item.is_aggregate) {
      // IsAggregateOnly() guarantees this is the GROUP BY column.
      in.is_group_column = true;
      cq.inputs_.push_back(in);
      continue;
    }
    const AggDescriptor& desc = item.func->descriptor();
    if (!item.column.empty()) {
      SEAWEED_ASSIGN_OR_RETURN(in.column,
                               table.schema().RequireColumn(item.column));
      in.type = table.schema().column(static_cast<size_t>(in.column)).type;
      if (in.type == ColumnType::kString && !desc.allows_string) {
        return Status::InvalidArgument("cannot " + item.func->name() +
                                       " a string column");
      }
    } else if (!desc.allows_star) {
      return Status::InvalidArgument("only COUNT may take '*'");
    }
    SEAWEED_RETURN_NOT_OK(item.func->ValidateParam(in.param));
    cq.any_sketch_ = cq.any_sketch_ || item.func->IsSketch();
    cq.inputs_.push_back(in);
  }

  if (!query.group_by.empty()) {
    SEAWEED_ASSIGN_OR_RETURN(cq.group_column_,
                             table.schema().RequireColumn(query.group_by));
    cq.group_type_ =
        table.schema().column(static_cast<size_t>(cq.group_column_)).type;
  }
  cq.num_columns_ = table.num_columns();
  return cq;
}

bool CompiledQuery::CompatibleWith(const Table& table) const {
  if (table.num_columns() != num_columns_) return false;
  if (!pred_.CompatibleWith(table)) return false;
  for (const AggInput& in : inputs_) {
    if (in.column < 0) continue;
    const size_t ci = static_cast<size_t>(in.column);
    if (ci >= table.num_columns()) return false;
    if (table.schema().column(ci).type != in.type) return false;
  }
  if (group_column_ >= 0) {
    const size_t gi = static_cast<size_t>(group_column_);
    if (gi >= table.num_columns()) return false;
    if (table.schema().column(gi).type != group_type_) return false;
  }
  return true;
}

void CompiledQuery::AccumulateUngrouped(const Table& table,
                                        const SelVector& sel,
                                        AggregateResult* result) const {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const AggInput& in = inputs_[i];
    in.func->AccumulateBatch(table, in.column, sel, result->states[i]);
  }
}

void CompiledQuery::AccumulateUngroupedDense(const Table& table,
                                             uint32_t start, uint32_t len,
                                             AggregateResult* result) const {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const AggInput& in = inputs_[i];
    in.func->AccumulateDense(table, in.column, start, len, result->states[i]);
  }
}

void CompiledQuery::AccumulateDenseGroups(const Table& table,
                                          const SelVector& sel,
                                          const uint32_t* group_codes,
                                          AggState* dense_states,
                                          int64_t* dense_rows,
                                          AggregateResult* result) const {
  const size_t arity = inputs_.size();
  // Each selected row's accumulator offset, gathered once per batch and
  // shared by every select item.
  uint32_t slot[kBatchSize];
  for (uint32_t i = 0; i < sel.count; ++i) {
    const uint32_t code = group_codes[sel.rows[i]];
    ++dense_rows[code];
    slot[i] = static_cast<uint32_t>(code * arity);
  }
  for (size_t item = 0; item < arity; ++item) {
    const AggInput& in = inputs_[item];
    if (in.is_group_column) continue;  // rendered from the group key
    AggState* states = dense_states + item;
    if (in.column < 0 || in.type == ColumnType::kString) {
      for (uint32_t i = 0; i < sel.count; ++i) states[slot[i]].AddCountOnly();
      result->states[item].count += sel.count;
      continue;
    }
    const Column& col = table.column(static_cast<size_t>(in.column));
    AggState* global = &result->states[item];
    if (in.type == ColumnType::kInt64) {
      const int64_t* p = col.ints().data();
      for (uint32_t i = 0; i < sel.count; ++i) {
        const double v = static_cast<double>(p[sel.rows[i]]);
        states[slot[i]].Add(v);
        global->Add(v);
      }
    } else {
      const double* p = col.doubles().data();
      for (uint32_t i = 0; i < sel.count; ++i) {
        const double v = p[sel.rows[i]];
        states[slot[i]].Add(v);
        global->Add(v);
      }
    }
  }
}

// Fallback grouping (numeric, very-high-cardinality, or sketch-carrying
// group keys): Value-keyed sorted groups over the selection vector.
void CompiledQuery::AccumulateGroups(const Table& table,
                                     const Column& group_col,
                                     const SelVector& sel,
                                     AggregateResult* result) const {
  const size_t arity = inputs_.size();
  for (uint32_t i = 0; i < sel.count; ++i) {
    const uint32_t row = sel.rows[i];
    Value key = group_col.ValueAt(row);
    std::vector<AggState>& gstates = result->GroupStates(key, arity);
    for (size_t item = 0; item < arity; ++item) {
      const AggInput& in = inputs_[item];
      if (in.is_group_column) continue;
      AggState& gs = gstates[item];
      if (in.func->IsSketch() && gs.sketch == nullptr) {
        in.func->InitState(gs, in.param);
      }
      if (in.column < 0 || in.type == ColumnType::kString) {
        if (in.func->IsSketch() && in.column >= 0) {
          const Column& col = table.column(static_cast<size_t>(in.column));
          const std::string& s = col.DictEntry(col.StringCodeAt(row));
          gs.AddString(s);
          result->states[item].AddString(s);
        } else {
          gs.AddCountOnly();
          result->states[item].AddCountOnly();
        }
        continue;
      }
      const Column& col = table.column(static_cast<size_t>(in.column));
      const double v = in.type == ColumnType::kInt64
                           ? static_cast<double>(col.Int64At(row))
                           : col.DoubleAt(row);
      gs.Add(v);
      result->states[item].Add(v);
    }
  }
}

Result<AggregateResult> CompiledQuery::Execute(const Table& table) const {
  const size_t arity = inputs_.size();
  AggregateResult result;
  result.states.resize(arity);
  result.endsystems = 1;
  for (size_t i = 0; i < arity; ++i) {
    const AggInput& in = inputs_[i];
    if (in.func != nullptr) in.func->InitState(result.states[i], in.param);
  }

  const Column* group_col =
      group_column_ >= 0 ? &table.column(static_cast<size_t>(group_column_))
                         : nullptr;
  // Sketch states don't fit the flat dense-accumulator array (per-code
  // sketches would be allocated for absent groups); sketch queries take
  // the Value-keyed path, exact queries keep the fast path unchanged.
  const bool dense_group = group_col != nullptr &&
                           group_type_ == ColumnType::kString &&
                           group_col->dict_size() <= kDenseGroupMaxDict &&
                           !any_sketch_;
  // Dense GROUP BY accumulators: one AggState per (dict code, select item)
  // plus a per-code matched-row count deciding which groups exist.
  std::vector<AggState> dense_states;
  std::vector<int64_t> dense_rows;
  const uint32_t* group_codes = nullptr;
  if (dense_group) {
    dense_states.resize(group_col->dict_size() * arity);
    dense_rows.resize(group_col->dict_size(), 0);
    group_codes = group_col->codes().data();
  }
  const bool no_filter = pred_.always_true();

  const size_t total_rows = table.num_rows();
  SelVector sel;
  for (size_t next_row = 0; next_row < total_rows;) {
    const uint32_t start = static_cast<uint32_t>(next_row);
    const uint32_t len = static_cast<uint32_t>(
        std::min<size_t>(kBatchSize, total_rows - next_row));
    next_row += len;
    if (no_filter && group_col == nullptr) {
      result.rows_matched += len;
      AccumulateUngroupedDense(table, start, len, &result);
      continue;
    }
    if (no_filter) {
      SelAll(start, len, &sel);
    } else {
      pred_.FilterBatch(table, start, len, &sel);
    }
    result.rows_matched += sel.count;
    if (sel.count == 0) continue;

    if (group_col == nullptr) {
      AccumulateUngrouped(table, sel, &result);
      continue;
    }

    if (dense_group) {
      AccumulateDenseGroups(table, sel, group_codes, dense_states.data(),
                            dense_rows.data(), &result);
    } else {
      AccumulateGroups(table, *group_col, sel, &result);
    }
  }

  if (dense_group) {
    // Emit only codes with matching rows, sorted by key (dictionary order
    // is insertion order, not value order).
    std::vector<uint32_t> present;
    for (uint32_t code = 0; code < dense_rows.size(); ++code) {
      if (dense_rows[code] > 0) present.push_back(code);
    }
    std::sort(present.begin(), present.end(),
              [group_col](uint32_t a, uint32_t b) {
                return group_col->DictEntry(a) < group_col->DictEntry(b);
              });
    result.groups.reserve(present.size());
    for (uint32_t code : present) {
      result.groups.emplace_back(
          Value(group_col->DictEntry(code)),
          std::vector<AggState>(
              dense_states.begin() + static_cast<ptrdiff_t>(code * arity),
              dense_states.begin() +
                  static_cast<ptrdiff_t>((code + 1) * arity)));
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

void PlanCache::AttachMetrics(obs::MetricsRegistry* registry) {
  hits_metric_ = registry->GetCounter("db.plan_cache.hits");
  binds_metric_ = registry->GetCounter("db.plan_cache.binds");
  rows_scanned_ = registry->GetHistogram("db.rows_scanned");
  rows_selected_ = registry->GetHistogram("db.rows_selected");
}

void PlanCache::RecordExecution(uint64_t rows_scanned,
                                uint64_t rows_selected) {
  if (rows_scanned_ == nullptr) return;
  rows_scanned_->Record(rows_scanned);
  rows_selected_->Record(rows_selected);
}

Result<const CompiledQuery*> PlanCache::GetOrBind(const std::string& key,
                                                  const Table& table,
                                                  const SelectQuery& query) {
  std::string fingerprint = query.ToString();
  auto it = plans_.find(key);
  if (it != plans_.end() && it->second.fingerprint == fingerprint &&
      it->second.plan.CompatibleWith(table)) {
    ++hits_;
    if (hits_metric_ != nullptr) hits_metric_->Add();
    return &it->second.plan;
  }
  SEAWEED_ASSIGN_OR_RETURN(CompiledQuery plan, CompiledQuery::Bind(table, query));
  ++binds_;
  if (binds_metric_ != nullptr) binds_metric_->Add();
  Entry& entry = plans_[key];
  entry.fingerprint = std::move(fingerprint);
  entry.plan = std::move(plan);
  return &entry.plan;
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

Result<AggregateResult> ExecuteAggregate(const Table& table,
                                         const SelectQuery& query) {
  SEAWEED_ASSIGN_OR_RETURN(CompiledQuery plan, CompiledQuery::Bind(table, query));
  return plan.Execute(table);
}

Result<AggregateResult> ExecuteAggregateScalar(const Table& table,
                                               const SelectQuery& query) {
  if (!query.IsAggregateOnly()) {
    return Status::InvalidArgument(
        "distributed execution requires aggregate-only select list");
  }
  SEAWEED_ASSIGN_OR_RETURN(CompiledPredicate pred,
                           CompiledPredicate::Bind(query.where, table));

  // Resolve aggregate input columns.
  struct AggInput {
    const AggregateFunction* func = nullptr;
    double param = 0;
    int column = -1;  // -1 for COUNT(*) or the bare group-by column
    bool is_group_column = false;
    ColumnType type = ColumnType::kInt64;
  };
  std::vector<AggInput> inputs;
  inputs.reserve(query.items.size());
  for (const auto& item : query.items) {
    AggInput in;
    in.func = item.func;
    in.param = item.EffectiveParam();
    if (!item.is_aggregate) {
      // IsAggregateOnly() guarantees this is the GROUP BY column.
      in.is_group_column = true;
      inputs.push_back(in);
      continue;
    }
    const AggDescriptor& desc = item.func->descriptor();
    if (!item.column.empty()) {
      SEAWEED_ASSIGN_OR_RETURN(in.column,
                               table.schema().RequireColumn(item.column));
      in.type = table.schema().column(static_cast<size_t>(in.column)).type;
      if (in.type == ColumnType::kString && !desc.allows_string) {
        return Status::InvalidArgument("cannot " + item.func->name() +
                                       " a string column");
      }
    } else if (!desc.allows_star) {
      return Status::InvalidArgument("only COUNT may take '*'");
    }
    SEAWEED_RETURN_NOT_OK(item.func->ValidateParam(in.param));
    inputs.push_back(in);
  }

  int group_column = -1;
  if (!query.group_by.empty()) {
    SEAWEED_ASSIGN_OR_RETURN(group_column,
                             table.schema().RequireColumn(query.group_by));
  }

  AggregateResult result;
  result.states.resize(query.items.size());
  result.endsystems = 1;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const AggInput& in = inputs[i];
    if (in.func != nullptr) in.func->InitState(result.states[i], in.param);
  }
  const size_t n = table.num_rows();
  const size_t arity = query.items.size();
  for (size_t row = 0; row < n; ++row) {
    if (!pred.Matches(table, row)) continue;
    ++result.rows_matched;
    std::vector<AggState>* group = nullptr;
    if (group_column >= 0) {
      Value key =
          table.column(static_cast<size_t>(group_column)).ValueAt(row);
      group = &result.GroupStates(key, arity);
    }
    for (size_t i = 0; i < inputs.size(); ++i) {
      const AggInput& in = inputs[i];
      if (in.is_group_column) continue;  // rendered from the group key
      AggState& state = group ? (*group)[i] : result.states[i];
      if (group && in.func->IsSketch() && state.sketch == nullptr) {
        in.func->InitState(state, in.param);
      }
      if (in.column < 0 || in.type == ColumnType::kString) {
        if (in.func->IsSketch() && in.column >= 0) {
          const Column& col = table.column(static_cast<size_t>(in.column));
          const std::string& s = col.DictEntry(col.StringCodeAt(row));
          state.AddString(s);
          if (group) result.states[i].AddString(s);
        } else {
          state.AddCountOnly();
          if (group) result.states[i].AddCountOnly();
        }
        continue;
      }
      const Column& col = table.column(static_cast<size_t>(in.column));
      double v = in.type == ColumnType::kInt64
                     ? static_cast<double>(col.Int64At(row))
                     : col.DoubleAt(row);
      state.Add(v);
      if (group) result.states[i].Add(v);
    }
  }
  return result;
}

Result<int64_t> CountMatching(const Table& table, const SelectQuery& query) {
  SEAWEED_ASSIGN_OR_RETURN(BatchPredicate pred,
                           BatchPredicate::Bind(query.where, table));
  const size_t n = table.num_rows();
  if (pred.always_true()) return static_cast<int64_t>(n);
  int64_t matched = 0;
  SelVector sel;
  for (size_t batch = 0; batch < n; batch += kBatchSize) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<size_t>(kBatchSize, n - batch));
    pred.FilterBatch(table, static_cast<uint32_t>(batch), len, &sel);
    matched += sel.count;
  }
  return matched;
}

Result<RowSet> ExecuteSelect(const Table& table, const SelectQuery& query,
                             size_t limit) {
  SEAWEED_ASSIGN_OR_RETURN(BatchPredicate pred,
                           BatchPredicate::Bind(query.where, table));
  RowSet out;
  std::vector<int> cols;
  bool star = false;
  for (const auto& item : query.items) {
    if (item.is_aggregate) {
      return Status::InvalidArgument(
          "mixed aggregate/projection select list is not supported");
    }
    if (item.column.empty()) {
      star = true;
    } else {
      SEAWEED_ASSIGN_OR_RETURN(int c,
                               table.schema().RequireColumn(item.column));
      cols.push_back(c);
    }
  }
  if (star) {
    cols.clear();
    for (size_t i = 0; i < table.num_columns(); ++i) {
      cols.push_back(static_cast<int>(i));
    }
  }
  for (int c : cols) {
    out.column_names.push_back(table.schema().column(static_cast<size_t>(c)).name);
  }
  const size_t n = table.num_rows();
  SelVector sel;
  for (size_t batch = 0; batch < n && out.rows.size() < limit;
       batch += kBatchSize) {
    const uint32_t start = static_cast<uint32_t>(batch);
    const uint32_t len =
        static_cast<uint32_t>(std::min<size_t>(kBatchSize, n - batch));
    pred.FilterBatch(table, start, len, &sel);
    for (uint32_t i = 0; i < sel.count && out.rows.size() < limit; ++i) {
      const size_t row = sel.rows[i];
      std::vector<Value> vals;
      vals.reserve(cols.size());
      for (int c : cols) {
        vals.push_back(table.column(static_cast<size_t>(c)).ValueAt(row));
      }
      out.rows.push_back(std::move(vals));
    }
  }
  return out;
}

}  // namespace seaweed::db

#include "d4m/assoc.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
#include <set>

#include "common/error.hpp"

namespace obscorr::d4m {

AssocArray::AssocArray() { row_ptr_.push_back(0); }

namespace {

bool triple_key_less(const Triple& a, const Triple& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

std::uint32_t key_index(const std::vector<std::string>& keys, std::string_view key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  OBSCORR_INVARIANT(it != keys.end() && *it == key);
  return static_cast<std::uint32_t>(it - keys.begin());
}

}  // namespace

AssocArray AssocArray::from_triples(std::vector<Triple> triples) {
  std::sort(triples.begin(), triples.end(), triple_key_less);
  // Accumulate duplicates (plus semiring).
  std::size_t out = 0;
  for (std::size_t i = 1; i < triples.size(); ++i) {
    if (triples[out].row == triples[i].row && triples[out].col == triples[i].col) {
      triples[out].val += triples[i].val;
    } else if (++out != i) {  // guard against self-move when nothing was combined
      triples[out] = std::move(triples[i]);
    }
  }
  if (!triples.empty()) triples.resize(out + 1);

  AssocArray a;
  if (triples.empty()) return a;

  for (const Triple& t : triples) {
    if (a.row_keys_.empty() || a.row_keys_.back() != t.row) a.row_keys_.push_back(t.row);
  }
  std::set<std::string> cols;
  for (const Triple& t : triples) cols.insert(t.col);
  a.col_keys_.assign(cols.begin(), cols.end());

  a.row_ptr_.clear();
  a.col_idx_.reserve(triples.size());
  a.val_.reserve(triples.size());
  for (std::size_t i = 0; i < triples.size(); ++i) {
    const Triple& t = triples[i];
    if (i == 0 || triples[i - 1].row != t.row) {
      a.row_ptr_.push_back(static_cast<std::uint64_t>(i));
    }
    a.col_idx_.push_back(key_index(a.col_keys_, t.col));
    a.val_.push_back(t.val);
  }
  a.row_ptr_.push_back(static_cast<std::uint64_t>(triples.size()));
  OBSCORR_INVARIANT(a.row_ptr_.size() == a.row_keys_.size() + 1);
  return a;
}

AssocArray AssocArray::from_csr(std::vector<std::string> row_keys,
                                std::vector<std::string> col_keys,
                                std::vector<std::uint64_t> row_ptr,
                                std::vector<std::uint32_t> col_idx, std::vector<double> val) {
  AssocArray a;
  a.row_keys_ = std::move(row_keys);
  a.col_keys_ = std::move(col_keys);
  a.row_ptr_ = std::move(row_ptr);
  a.col_idx_ = std::move(col_idx);
  a.val_ = std::move(val);
  a.check_canonical("from_csr");
  return a;
}

void AssocArray::check_canonical(std::string_view who) const {
  const auto fail_unless = [who](bool ok, const char* what) {
    OBSCORR_REQUIRE(ok, std::string(who) + ": " + what);
  };
  fail_unless(row_ptr_.size() == row_keys_.size() + 1,
              "row offsets must number one more than the row keys");
  fail_unless(val_.size() == col_idx_.size(), "values and column indices differ in length");
  for (std::size_t i = 1; i < row_keys_.size(); ++i) {
    fail_unless(row_keys_[i - 1] < row_keys_[i], "row keys must be strictly increasing");
  }
  for (std::size_t i = 1; i < col_keys_.size(); ++i) {
    fail_unless(col_keys_[i - 1] < col_keys_[i], "col keys must be strictly increasing");
  }
  // Offsets cover [0, nnz] with no empty rows, column indices sorted
  // unique within each row, and every column key referenced at least
  // once. Each offset is bounded by nnz before the row's scan reads
  // col_idx_ through it.
  const std::uint64_t nnz = col_idx_.size();
  fail_unless(row_ptr_.front() == 0 && row_ptr_.back() == nnz, "inconsistent row offsets");
  std::vector<bool> col_used(col_keys_.size(), false);
  for (std::size_t r = 0; r < row_keys_.size(); ++r) {
    fail_unless(row_ptr_[r] < row_ptr_[r + 1], "row offsets must be strictly increasing");
    fail_unless(row_ptr_[r + 1] <= nnz, "row offset exceeds the entry count");
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      fail_unless(col_idx_[k] < col_keys_.size(), "column index out of range");
      fail_unless(k == row_ptr_[r] || col_idx_[k - 1] < col_idx_[k],
                  "column indices must be strictly increasing within a row");
      col_used[col_idx_[k]] = true;
    }
  }
  for (std::size_t c = 0; c < col_used.size(); ++c) {
    fail_unless(col_used[c], "unused column key");
  }
}

AssocArray AssocArray::from_column(std::span<const std::string> row_keys,
                                   std::span<const double> values, std::string col_key) {
  OBSCORR_REQUIRE(row_keys.size() == values.size(),
                  "from_column: key/value arrays must have equal length");
  std::vector<Triple> triples;
  triples.reserve(row_keys.size());
  for (std::size_t i = 0; i < row_keys.size(); ++i) {
    triples.push_back({row_keys[i], col_key, values[i]});
  }
  return from_triples(std::move(triples));
}

double AssocArray::at(std::string_view row, std::string_view col) const {
  const auto rit = std::lower_bound(row_keys_.begin(), row_keys_.end(), row);
  if (rit == row_keys_.end() || *rit != row) return 0.0;
  const auto cit = std::lower_bound(col_keys_.begin(), col_keys_.end(), col);
  if (cit == col_keys_.end() || *cit != col) return 0.0;
  const std::size_t r = static_cast<std::size_t>(rit - row_keys_.begin());
  const auto c = static_cast<std::uint32_t>(cit - col_keys_.begin());
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return val_[static_cast<std::size_t>(it - col_idx_.begin())];
}

bool AssocArray::has_row(std::string_view row) const {
  return std::binary_search(row_keys_.begin(), row_keys_.end(), row);
}

AssocArray AssocArray::merge(const AssocArray& a, const AssocArray& b, MergeOp op) {
  const bool intersect = op == MergeOp::kMult;
  const auto combine = [op](double x, double y) {
    switch (op) {
      case MergeOp::kAdd:
        return x + y;
      case MergeOp::kMult:
        return x * y;
      case MergeOp::kMax:
        return std::max(x, y);
    }
    OBSCORR_INVARIANT(false);
  };

  // Union column keys, with each operand's indices remapped into them.
  AssocArray out;
  std::vector<std::uint32_t> a_col(a.col_keys_.size());
  std::vector<std::uint32_t> b_col(b.col_keys_.size());
  {
    std::size_t i = 0, j = 0;
    while (i < a.col_keys_.size() || j < b.col_keys_.size()) {
      const auto next = static_cast<std::uint32_t>(out.col_keys_.size());
      if (j == b.col_keys_.size() ||
          (i < a.col_keys_.size() && a.col_keys_[i] < b.col_keys_[j])) {
        a_col[i] = next;
        out.col_keys_.push_back(a.col_keys_[i++]);
      } else if (i == a.col_keys_.size() || b.col_keys_[j] < a.col_keys_[i]) {
        b_col[j] = next;
        out.col_keys_.push_back(b.col_keys_[j++]);
      } else {
        a_col[i] = next;
        b_col[j++] = next;
        out.col_keys_.push_back(a.col_keys_[i++]);
      }
    }
  }

  // Rows in key order; a row only one operand holds is copied (union ops)
  // or skipped (kMult).
  const auto copy_row = [&out](const AssocArray& x, const std::vector<std::uint32_t>& remap,
                               std::size_t r) {
    for (std::uint64_t k = x.row_ptr_[r]; k < x.row_ptr_[r + 1]; ++k) {
      out.col_idx_.push_back(remap[x.col_idx_[k]]);
      out.val_.push_back(x.val_[k]);
    }
    out.row_keys_.push_back(x.row_keys_[r]);
    out.row_ptr_.push_back(out.col_idx_.size());
  };
  std::size_t i = 0, j = 0;
  while (i < a.row_keys_.size() || j < b.row_keys_.size()) {
    if (j == b.row_keys_.size() || (i < a.row_keys_.size() && a.row_keys_[i] < b.row_keys_[j])) {
      if (!intersect) copy_row(a, a_col, i);
      ++i;
      continue;
    }
    if (i == a.row_keys_.size() || b.row_keys_[j] < a.row_keys_[i]) {
      if (!intersect) copy_row(b, b_col, j);
      ++j;
      continue;
    }
    std::uint64_t x = a.row_ptr_[i];
    std::uint64_t y = b.row_ptr_[j];
    const std::uint64_t x_end = a.row_ptr_[i + 1];
    const std::uint64_t y_end = b.row_ptr_[j + 1];
    const std::size_t before = out.col_idx_.size();
    while (x < x_end || y < y_end) {
      const std::uint32_t cx = x < x_end ? a_col[a.col_idx_[x]] : UINT32_MAX;
      const std::uint32_t cy = y < y_end ? b_col[b.col_idx_[y]] : UINT32_MAX;
      if (x < x_end && y < y_end && cx == cy) {
        out.col_idx_.push_back(cx);
        out.val_.push_back(combine(a.val_[x++], b.val_[y++]));
      } else if (y == y_end || (x < x_end && cx < cy)) {
        if (!intersect) {
          out.col_idx_.push_back(cx);
          out.val_.push_back(a.val_[x]);
        }
        ++x;
      } else {
        if (!intersect) {
          out.col_idx_.push_back(cy);
          out.val_.push_back(b.val_[y]);
        }
        ++y;
      }
    }
    if (out.col_idx_.size() != before) {
      out.row_keys_.push_back(a.row_keys_[i]);
      out.row_ptr_.push_back(out.col_idx_.size());
    }
    ++i;
    ++j;
  }

  if (intersect) {
    // Keep only the column keys a shared cell uses, renumbered in order.
    std::vector<std::uint32_t> renumber(out.col_keys_.size(), 0);
    for (const std::uint32_t c : out.col_idx_) renumber[c] = 1;
    std::vector<std::string> used;
    for (std::size_t c = 0; c < renumber.size(); ++c) {
      if (renumber[c] == 0) continue;
      renumber[c] = static_cast<std::uint32_t>(used.size());
      used.push_back(std::move(out.col_keys_[c]));
    }
    for (std::uint32_t& c : out.col_idx_) c = renumber[c];
    out.col_keys_ = std::move(used);
  }
  return out;
}

AssocArray AssocArray::ewise_add(const AssocArray& a, const AssocArray& b) {
  return merge(a, b, MergeOp::kAdd);
}

AssocArray AssocArray::ewise_mult(const AssocArray& a, const AssocArray& b) {
  return merge(a, b, MergeOp::kMult);
}

AssocArray AssocArray::ewise_max(const AssocArray& a, const AssocArray& b) {
  return merge(a, b, MergeOp::kMax);
}

AssocArray AssocArray::logical() const {
  AssocArray a = *this;
  std::fill(a.val_.begin(), a.val_.end(), 1.0);
  return a;
}

AssocArray AssocArray::transpose() const {
  auto triples = to_triples();
  for (Triple& t : triples) std::swap(t.row, t.col);
  return from_triples(std::move(triples));
}

AssocArray AssocArray::select_rows(std::span<const std::string> keys) const {
  std::vector<std::string> wanted(keys.begin(), keys.end());
  std::sort(wanted.begin(), wanted.end());
  return select_rows_if([&](std::string_view key) {
    return std::binary_search(wanted.begin(), wanted.end(), key);
  });
}

AssocArray AssocArray::select_rows_if(const std::function<bool(std::string_view)>& pred) const {
  std::vector<Triple> kept;
  for (std::size_t r = 0; r < row_keys_.size(); ++r) {
    if (!pred(row_keys_[r])) continue;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      kept.push_back({row_keys_[r], col_keys_[col_idx_[k]], val_[k]});
    }
  }
  return from_triples(std::move(kept));
}

AssocArray AssocArray::select_rows_prefix(std::string_view prefix) const {
  return select_rows_if([&](std::string_view key) { return key.starts_with(prefix); });
}

AssocArray AssocArray::select_cols(std::span<const std::string> keys) const {
  std::vector<std::string> wanted(keys.begin(), keys.end());
  std::sort(wanted.begin(), wanted.end());
  std::vector<Triple> kept;
  for (std::size_t r = 0; r < row_keys_.size(); ++r) {
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::string& col = col_keys_[col_idx_[k]];
      if (std::binary_search(wanted.begin(), wanted.end(), col)) {
        kept.push_back({row_keys_[r], col, val_[k]});
      }
    }
  }
  return from_triples(std::move(kept));
}

AssocArray AssocArray::select_cols_prefix(std::string_view prefix) const {
  std::vector<Triple> kept;
  for (std::size_t r = 0; r < row_keys_.size(); ++r) {
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::string& col = col_keys_[col_idx_[k]];
      if (col.size() >= prefix.size() && std::string_view(col).substr(0, prefix.size()) == prefix) {
        kept.push_back({row_keys_[r], col, val_[k]});
      }
    }
  }
  return from_triples(std::move(kept));
}

AssocArray AssocArray::row_sum() const {
  std::vector<Triple> sums;
  sums.reserve(row_keys_.size());
  for (std::size_t r = 0; r < row_keys_.size(); ++r) {
    double total = 0.0;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) total += val_[k];
    sums.push_back({row_keys_[r], "sum", total});
  }
  return from_triples(std::move(sums));
}

AssocArray AssocArray::col_sum() const { return transpose().row_sum(); }

double AssocArray::reduce_sum() const {
  double total = 0.0;
  for (double v : val_) total += v;
  return total;
}

std::vector<Triple> AssocArray::to_triples() const {
  std::vector<Triple> triples;
  triples.reserve(nnz());
  for (std::size_t r = 0; r < row_keys_.size(); ++r) {
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      triples.push_back({row_keys_[r], col_keys_[col_idx_[k]], val_[k]});
    }
  }
  return triples;
}

void AssocArray::write_tsv(std::ostream& os) const {
  char buf[64];
  for (const Triple& t : to_triples()) {
    std::snprintf(buf, sizeof buf, "%.17g", t.val);
    os << t.row << '\t' << t.col << '\t' << buf << '\n';
  }
}

AssocArray AssocArray::read_tsv(std::istream& is) {
  std::vector<Triple> triples;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto tab1 = line.find('\t');
    const auto tab2 = tab1 == std::string::npos ? std::string::npos : line.find('\t', tab1 + 1);
    OBSCORR_REQUIRE(tab2 != std::string::npos, "read_tsv: malformed line: " + line);
    double val = 0.0;
    const char* begin = line.data() + tab2 + 1;
    const char* end = line.data() + line.size();
    auto [p, ec] = std::from_chars(begin, end, val);
    OBSCORR_REQUIRE(ec == std::errc{} && p == end, "read_tsv: malformed value: " + line);
    triples.push_back({line.substr(0, tab1), line.substr(tab1 + 1, tab2 - tab1 - 1), val});
  }
  return from_triples(std::move(triples));
}

namespace {

constexpr char kBinaryMagic[8] = {'O', 'B', 'S', 'D', '4', 'M', 'A', '1'};

std::size_t keys_binary_size(const std::vector<std::string>& keys) {
  std::size_t bytes = sizeof(std::uint64_t) + keys.size() * sizeof(std::uint32_t);
  for (const std::string& key : keys) bytes += key.size();
  return bytes;
}

/// Copy `bytes` bytes to `at` and return the position after them.
char* put_bytes(char* at, const void* bytes, std::size_t n) {
  if (n != 0) std::memcpy(at, bytes, n);
  return at + n;
}

template <typename T>
char* put_pod(char* at, const T& value) {
  return put_bytes(at, &value, sizeof value);
}

char* put_keys(char* at, const std::vector<std::string>& keys) {
  at = put_pod<std::uint64_t>(at, keys.size());
  for (const std::string& key : keys) {
    at = put_pod<std::uint32_t>(at, static_cast<std::uint32_t>(key.size()));
    at = put_bytes(at, key.data(), key.size());
  }
  return at;
}

/// Bounds-checked cursor over an in-memory serialized array; every read
/// validates against the remaining bytes before touching them, so hostile
/// counts fail before any allocation.
struct SpanCursor {
  std::span<const std::byte> bytes;
  std::size_t pos = 0;

  std::size_t remaining() const { return bytes.size() - pos; }

  const char* take(std::size_t n) {
    OBSCORR_REQUIRE(n <= remaining(), "read_binary: truncated stream");
    const char* p = reinterpret_cast<const char*>(bytes.data()) + pos;
    pos += n;
    return p;
  }

  template <typename T>
  T pod() {
    T value{};
    std::memcpy(&value, take(sizeof value), sizeof value);
    return value;
  }
};

std::vector<std::string> read_keys(SpanCursor& c, const char* what) {
  const auto count = c.pod<std::uint64_t>();
  // Each key costs at least its 4-byte length prefix, so the remaining
  // buffer bounds the plausible count — reject before reserving.
  OBSCORR_REQUIRE(count <= (1ULL << 32) && count <= c.remaining() / sizeof(std::uint32_t),
                  std::string("read_binary: implausible ") + what + " key count");
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto len = c.pod<std::uint32_t>();
    OBSCORR_REQUIRE(len <= (1u << 20), "read_binary: implausible key length");
    keys.emplace_back(c.take(len), len);
  }
  return keys;
}

template <typename T>
std::vector<T> read_pod_array(SpanCursor& c, std::size_t n) {
  const char* p = c.take(n * sizeof(T));
  std::vector<T> values(n);
  if (n != 0) std::memcpy(values.data(), p, n * sizeof(T));
  return values;
}

}  // namespace

std::size_t AssocArray::binary_size() const {
  return sizeof kBinaryMagic + keys_binary_size(row_keys_) + keys_binary_size(col_keys_) +
         sizeof(std::uint64_t) + row_ptr_.size() * sizeof(std::uint64_t) +
         col_idx_.size() * sizeof(std::uint32_t) + val_.size() * sizeof(double);
}

void AssocArray::append_binary(std::string& out) const {
  const std::size_t start = out.size();
  out.resize(start + binary_size());
  char* at = out.data() + start;
  at = put_bytes(at, kBinaryMagic, sizeof kBinaryMagic);
  at = put_keys(at, row_keys_);
  at = put_keys(at, col_keys_);
  at = put_pod<std::uint64_t>(at, static_cast<std::uint64_t>(col_idx_.size()));
  at = put_bytes(at, row_ptr_.data(), row_ptr_.size() * sizeof(std::uint64_t));
  at = put_bytes(at, col_idx_.data(), col_idx_.size() * sizeof(std::uint32_t));
  at = put_bytes(at, val_.data(), val_.size() * sizeof(double));
  OBSCORR_INVARIANT(at == out.data() + out.size());
}

void AssocArray::write_binary(std::ostream& os) const {
  std::string bytes;
  append_binary(bytes);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  OBSCORR_REQUIRE(os.good(), "write_binary: stream failure");
}

AssocArray AssocArray::read_binary(std::istream& is) {
  // The istream form exists for symmetry with write_binary / read_tsv;
  // the span overload is the validated parser.
  const std::string buffer(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>{});
  return read_binary(std::as_bytes(std::span<const char>(buffer.data(), buffer.size())));
}

AssocArray AssocArray::read_binary(std::span<const std::byte> bytes) {
  SpanCursor c{bytes};
  OBSCORR_REQUIRE(std::memcmp(c.take(sizeof kBinaryMagic), kBinaryMagic,
                              sizeof kBinaryMagic) == 0,
                  "read_binary: bad magic");
  AssocArray a;
  a.row_keys_ = read_keys(c, "row");
  a.col_keys_ = read_keys(c, "col");
  const auto nnz = c.pod<std::uint64_t>();
  OBSCORR_REQUIRE(nnz <= (1ULL << 40), "read_binary: implausible entry count");
  OBSCORR_REQUIRE(a.row_keys_.size() <= nnz, "read_binary: more row keys than entries");
  a.row_ptr_ = read_pod_array<std::uint64_t>(c, a.row_keys_.size() + 1);
  a.col_idx_ = read_pod_array<std::uint32_t>(c, static_cast<std::size_t>(nnz));
  a.val_ = read_pod_array<double>(c, static_cast<std::size_t>(nnz));
  OBSCORR_REQUIRE(c.remaining() == 0, "read_binary: trailing bytes after array");
  a.check_canonical("read_binary");
  return a;
}

std::vector<std::string> intersect_keys(std::span<const std::string> a,
                                        std::span<const std::string> b) {
  std::vector<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

std::vector<std::string> union_keys(std::span<const std::string> a,
                                    std::span<const std::string> b) {
  std::vector<std::string> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

}  // namespace obscorr::d4m

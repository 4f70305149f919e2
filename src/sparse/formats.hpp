#pragma once

/// @file formats.hpp
/// CUSP-style host sparse formats — COO, CSR, CSC — with conversions and
/// host reference SpMV. The index type and CSR layout are shared with the
/// selectors and the bit format; the GraphBLAS backends keep their own
/// device-resident CSR/CSC, as the paper's CUDA backend does.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace sparse {

using Index = std::uint64_t;

/// Coordinate format: parallel (row, col, value) arrays, row-major sorted.
template <typename T>
struct Coo {
  Index nrows = 0;
  Index ncols = 0;
  std::vector<Index> row;
  std::vector<Index> col;
  std::vector<T> val;

  Index nnz() const { return static_cast<Index>(val.size()); }
};

/// Compressed sparse row.
template <typename T>
struct Csr {
  Index nrows = 0;
  Index ncols = 0;
  std::vector<Index> row_offsets;  // size nrows + 1
  std::vector<Index> col_indices;
  std::vector<T> values;

  Index nnz() const { return static_cast<Index>(values.size()); }
};

/// Compressed sparse column.
template <typename T>
struct Csc {
  Index nrows = 0;
  Index ncols = 0;
  std::vector<Index> col_offsets;  // size ncols + 1
  std::vector<Index> row_indices;
  std::vector<T> values;

  Index nnz() const { return static_cast<Index>(values.size()); }
};

// --------------------------------------------------------------------------
// Construction & conversion
// --------------------------------------------------------------------------

/// Sort + combine duplicates (by addition) into canonical row-major COO.
template <typename T>
Coo<T> canonicalize(Coo<T> a);

template <typename T>
Csr<T> coo_to_csr(const Coo<T>& a);

template <typename T>
Coo<T> csr_to_coo(const Csr<T>& a);

template <typename T>
Csc<T> csr_to_csc(const Csr<T>& a);

template <typename T>
Csr<T> csc_to_csr(const Csc<T>& a);

// --------------------------------------------------------------------------
// SpMV: y = A * x  (host reference kernels)
// --------------------------------------------------------------------------

template <typename T>
std::vector<T> spmv(const Coo<T>& a, const std::vector<T>& x);
template <typename T>
std::vector<T> spmv(const Csr<T>& a, const std::vector<T>& x);
template <typename T>
std::vector<T> spmv(const Csc<T>& a, const std::vector<T>& x);

// ===========================================================================
// Implementation
// ===========================================================================

namespace detail {

inline void require(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(msg);
}

}  // namespace detail

template <typename T>
Coo<T> canonicalize(Coo<T> a) {
  detail::require(a.row.size() == a.val.size() &&
                      a.col.size() == a.val.size(),
                  "coo: ragged arrays");
  std::vector<Index> perm(a.nnz());
  for (Index i = 0; i < a.nnz(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](Index p, Index q) {
    if (a.row[p] != a.row[q]) return a.row[p] < a.row[q];
    return a.col[p] < a.col[q];
  });
  Coo<T> out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  for (Index k = 0; k < a.nnz(); ++k) {
    const Index p = perm[k];
    detail::require(a.row[p] < a.nrows && a.col[p] < a.ncols,
                    "coo: entry out of bounds");
    if (!out.row.empty() && out.row.back() == a.row[p] &&
        out.col.back() == a.col[p]) {
      out.val.back() += a.val[p];
    } else {
      out.row.push_back(a.row[p]);
      out.col.push_back(a.col[p]);
      out.val.push_back(a.val[p]);
    }
  }
  return out;
}

template <typename T>
Csr<T> coo_to_csr(const Coo<T>& a) {
  Csr<T> out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.row_offsets.assign(a.nrows + 1, 0);
  for (Index r : a.row) ++out.row_offsets[r + 1];
  for (Index i = 0; i < a.nrows; ++i)
    out.row_offsets[i + 1] += out.row_offsets[i];
  out.col_indices = a.col;
  out.values = a.val;
  return out;
}

template <typename T>
Coo<T> csr_to_coo(const Csr<T>& a) {
  Coo<T> out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.col = a.col_indices;
  out.val = a.values;
  out.row.reserve(a.nnz());
  for (Index i = 0; i < a.nrows; ++i)
    for (Index k = a.row_offsets[i]; k < a.row_offsets[i + 1]; ++k)
      out.row.push_back(i);
  return out;
}

template <typename T>
Csc<T> csr_to_csc(const Csr<T>& a) {
  Csc<T> out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.col_offsets.assign(a.ncols + 1, 0);
  for (Index c : a.col_indices) ++out.col_offsets[c + 1];
  for (Index j = 0; j < a.ncols; ++j)
    out.col_offsets[j + 1] += out.col_offsets[j];
  out.row_indices.resize(a.nnz());
  out.values.resize(a.nnz());
  std::vector<Index> cursor(out.col_offsets.begin(),
                            out.col_offsets.end() - 1);
  for (Index i = 0; i < a.nrows; ++i) {
    for (Index k = a.row_offsets[i]; k < a.row_offsets[i + 1]; ++k) {
      const Index j = a.col_indices[k];
      out.row_indices[cursor[j]] = i;
      out.values[cursor[j]] = a.values[k];
      ++cursor[j];
    }
  }
  return out;
}

template <typename T>
Csr<T> csc_to_csr(const Csc<T>& a) {
  // Transpose twice via the same bucket pass.
  Csr<T> out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.row_offsets.assign(a.nrows + 1, 0);
  for (Index r : a.row_indices) ++out.row_offsets[r + 1];
  for (Index i = 0; i < a.nrows; ++i)
    out.row_offsets[i + 1] += out.row_offsets[i];
  out.col_indices.resize(a.nnz());
  out.values.resize(a.nnz());
  std::vector<Index> cursor(out.row_offsets.begin(),
                            out.row_offsets.end() - 1);
  for (Index j = 0; j < a.ncols; ++j) {
    for (Index k = a.col_offsets[j]; k < a.col_offsets[j + 1]; ++k) {
      const Index i = a.row_indices[k];
      out.col_indices[cursor[i]] = j;
      out.values[cursor[i]] = a.values[k];
      ++cursor[i];
    }
  }
  return out;
}

template <typename T>
std::vector<T> spmv(const Coo<T>& a, const std::vector<T>& x) {
  detail::require(x.size() == a.ncols, "spmv: x size mismatch");
  std::vector<T> y(a.nrows, T{});
  for (Index k = 0; k < a.nnz(); ++k) y[a.row[k]] += a.val[k] * x[a.col[k]];
  return y;
}

template <typename T>
std::vector<T> spmv(const Csr<T>& a, const std::vector<T>& x) {
  detail::require(x.size() == a.ncols, "spmv: x size mismatch");
  std::vector<T> y(a.nrows, T{});
  for (Index i = 0; i < a.nrows; ++i) {
    T acc{};
    for (Index k = a.row_offsets[i]; k < a.row_offsets[i + 1]; ++k)
      acc += a.values[k] * x[a.col_indices[k]];
    y[i] = acc;
  }
  return y;
}

template <typename T>
std::vector<T> spmv(const Csc<T>& a, const std::vector<T>& x) {
  detail::require(x.size() == a.ncols, "spmv: x size mismatch");
  std::vector<T> y(a.nrows, T{});
  for (Index j = 0; j < a.ncols; ++j) {
    const T xj = x[j];
    for (Index k = a.col_offsets[j]; k < a.col_offsets[j + 1]; ++k)
      y[a.row_indices[k]] += a.values[k] * xj;
  }
  return y;
}

}  // namespace sparse

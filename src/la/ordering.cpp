#include "la/ordering.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <stdexcept>

namespace ms::la {

Permutation Permutation::identity(idx_t n) {
  Permutation p;
  p.perm.resize(n);
  p.inv_perm.resize(n);
  for (idx_t i = 0; i < n; ++i) {
    p.perm[i] = i;
    p.inv_perm[i] = i;
  }
  return p;
}

bool Permutation::is_valid() const {
  const idx_t n = size();
  if (static_cast<idx_t>(inv_perm.size()) != n) return false;
  for (idx_t i = 0; i < n; ++i) {
    if (perm[i] < 0 || perm[i] >= n || inv_perm[perm[i]] != i) return false;
  }
  return true;
}

Permutation Permutation::then(const Permutation& second) const {
  assert(size() == second.size());
  const idx_t n = size();
  Permutation out;
  out.perm.resize(n);
  out.inv_perm.resize(n);
  for (idx_t i = 0; i < n; ++i) out.perm[i] = perm[second.perm[i]];
  for (idx_t i = 0; i < n; ++i) out.inv_perm[out.perm[i]] = i;
  return out;
}

namespace {

/// Quotient-graph state of the AMD elimination. One flat workspace `iw`
/// holds every adjacency list; lists are compacted in place as elements
/// absorb variables and garbage-collected when the free tail runs out.
///
/// Node states (i in 0..n-1):
///  - live variable:   elen[i] >= 0, nv[i] > 0. List = elen[i] element ids
///                     followed by len[i]-elen[i] variable ids.
///  - live element:    elen[i] == -1. List = the len[i] variables of its
///                     pattern Le (dead entries pruned lazily).
///  - dead:            elen[i] == -2 (absorbed element, merged or
///                     mass-eliminated variable; variables also have nv == 0).
/// nv[i] < 0 temporarily flags membership of the current pivot pattern Lp.
struct AmdState {
  idx_t n = 0;
  std::vector<idx_t> iw;
  std::vector<offset_t> pe;  // list start per node
  std::vector<idx_t> len, elen, nv, degree;
  std::vector<idx_t> head, next, last;  // degree lists (ties: lowest index)

  void remove_from_degree_list(idx_t i) {
    if (last[i] != -1) {
      next[last[i]] = next[i];
    } else {
      head[degree[i]] = next[i];
    }
    if (next[i] != -1) last[next[i]] = last[i];
  }

  void push_degree_list(idx_t i) {
    const idx_t d = degree[i];
    last[i] = -1;
    next[i] = head[d];
    if (head[d] != -1) last[head[d]] = i;
    head[d] = i;
  }

  /// Compact all live lists to the front of iw (pruning entries that are
  /// dead forever) and return the new free offset.
  offset_t collect_garbage() {
    std::vector<idx_t> live;
    live.reserve(n);
    for (idx_t i = 0; i < n; ++i) {
      if (elen[i] == -2 || len[i] == 0) continue;
      if (elen[i] >= 0 && nv[i] == 0) continue;
      live.push_back(i);
    }
    std::sort(live.begin(), live.end(), [&](idx_t x, idx_t y) { return pe[x] < pe[y]; });
    offset_t free_ptr = 0;
    for (idx_t i : live) {
      const offset_t src = pe[i];
      pe[i] = free_ptr;
      if (elen[i] == -1) {
        // Element list: variables only; drop dead ones.
        idx_t kept = 0;
        for (idx_t k = 0; k < len[i]; ++k) {
          const idx_t j = iw[src + k];
          if (nv[j] != 0) iw[free_ptr + kept++] = j;
        }
        len[i] = kept;
      } else {
        // Variable list: elements first (drop absorbed), then variables
        // (drop dead).
        idx_t kept = 0;
        for (idx_t k = 0; k < elen[i]; ++k) {
          const idx_t e = iw[src + k];
          if (elen[e] == -1) iw[free_ptr + kept++] = e;
        }
        const idx_t kept_elems = kept;
        for (idx_t k = elen[i]; k < len[i]; ++k) {
          const idx_t j = iw[src + k];
          if (nv[j] != 0) iw[free_ptr + kept++] = j;
        }
        elen[i] = kept_elems;
        len[i] = kept;
      }
      free_ptr += len[i];
    }
    return free_ptr;
  }
};

}  // namespace

Permutation amd_ordering(const CsrMatrix& a) {
  assert(a.rows() == a.cols());
  const idx_t n = a.rows();
  if (n == 0) return Permutation::identity(0);

  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();

  AmdState s;
  s.n = n;
  s.pe.assign(n, 0);
  s.len.assign(n, 0);
  s.elen.assign(n, 0);
  s.nv.assign(n, 1);
  s.degree.assign(n, 0);
  s.head.assign(static_cast<std::size_t>(n) + 1, -1);
  s.next.assign(n, -1);
  s.last.assign(n, -1);

  // Strict (off-diagonal) adjacency; the diagonal never influences fill.
  offset_t nnz_strict = 0;
  for (idx_t i = 0; i < n; ++i) {
    idx_t d = 0;
    for (offset_t k = rp[i]; k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      if (ci[k] != i) ++d;
    }
    s.len[i] = d;
    s.degree[i] = d;
    nnz_strict += d;
  }
  s.iw.resize(static_cast<std::size_t>(nnz_strict + nnz_strict / 5 +
                                       4 * static_cast<offset_t>(n) + 16));
  offset_t pfree = 0;
  for (idx_t i = 0; i < n; ++i) {
    s.pe[i] = pfree;
    for (offset_t k = rp[i]; k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      if (ci[k] != i) s.iw[pfree++] = ci[k];
    }
  }
  for (idx_t i = n - 1; i >= 0; --i) s.push_degree_list(i);

  // Hash buckets for indistinguishable-node detection; stamps in w never
  // wrap (int64 with increments bounded by n+1 per pivot).
  std::vector<idx_t> hhead(n, -1), hnext(n, -1), hash_of(n, 0);
  std::vector<std::int64_t> w(n, 0);
  std::int64_t wflg = 1;

  std::vector<idx_t> parent(n, -1);  // absorption target (order extraction)
  std::vector<char> is_pivot(n, 0);
  std::vector<idx_t> pivot_order;
  pivot_order.reserve(n);

  idx_t nel = 0;
  idx_t mindeg = 0;

  while (nel < n) {
    // --- pivot selection: lowest-index node of minimum external degree ----
    while (s.head[mindeg] == -1) ++mindeg;
    const idx_t p = s.head[mindeg];
    s.remove_from_degree_list(p);
    is_pivot[p] = 1;
    pivot_order.push_back(p);
    idx_t nvpiv = s.nv[p];
    nel += nvpiv;

    // --- make room for the pivot pattern Lp ------------------------------
    offset_t needed = s.len[p] - s.elen[p];
    for (idx_t k = 0; k < s.elen[p]; ++k) {
      const idx_t e = s.iw[s.pe[p] + k];
      if (s.elen[e] == -1) needed += s.len[e];
    }
    if (pfree + needed > static_cast<offset_t>(s.iw.size())) {
      pfree = s.collect_garbage();
      if (pfree + needed > static_cast<offset_t>(s.iw.size())) {
        s.iw.resize(static_cast<std::size_t>(pfree + needed + n));
      }
    }

    // --- scan 1: gather Lp, absorbing the pivot's elements ---------------
    s.nv[p] = -nvpiv;
    const offset_t lp_begin = pfree;
    idx_t dk = 0;  // weighted |Lp|
    const offset_t p_start = s.pe[p];
    for (idx_t k = s.elen[p]; k < s.len[p]; ++k) {
      const idx_t j = s.iw[p_start + k];
      if (s.nv[j] <= 0) continue;  // dead or already gathered
      dk += s.nv[j];
      s.nv[j] = -s.nv[j];
      s.iw[pfree++] = j;
      s.remove_from_degree_list(j);
    }
    for (idx_t k = 0; k < s.elen[p]; ++k) {
      const idx_t e = s.iw[p_start + k];
      if (s.elen[e] != -2) {
        for (idx_t t = 0; t < s.len[e]; ++t) {
          const idx_t j = s.iw[s.pe[e] + t];
          if (s.nv[j] <= 0) continue;
          dk += s.nv[j];
          s.nv[j] = -s.nv[j];
          s.iw[pfree++] = j;
          s.remove_from_degree_list(j);
        }
        s.elen[e] = -2;  // e absorbed into p
      }
    }
    const offset_t lp_end = pfree;
    s.pe[p] = lp_begin;
    s.len[p] = static_cast<idx_t>(lp_end - lp_begin);
    s.elen[p] = -1;  // p is an element now
    s.degree[p] = dk;

    // --- scan 2a: set differences w[e] - mark = |Le \ Lp| ----------------
    const std::int64_t mark = wflg;
    for (offset_t q = lp_begin; q < lp_end; ++q) {
      const idx_t i = s.iw[q];
      const idx_t nvi = -s.nv[i];
      const std::int64_t wnvi = mark - nvi;
      for (idx_t k = 0; k < s.elen[i]; ++k) {
        const idx_t e = s.iw[s.pe[i] + k];
        if (s.elen[e] != -1) continue;
        if (w[e] >= mark) {
          w[e] -= nvi;
        } else {
          w[e] = static_cast<std::int64_t>(s.degree[e]) + wnvi;
        }
      }
    }
    wflg = mark + n + 1;

    // --- scan 2b: approximate degrees, list compaction, absorption -------
    for (offset_t q = lp_begin; q < lp_end; ++q) {
      const idx_t i = s.iw[q];
      const idx_t nvi = -s.nv[i];
      const offset_t p1 = s.pe[i];
      offset_t pn = p1;
      std::uint64_t h = 0;
      idx_t d = 0;
      const idx_t eln = s.elen[i];
      for (idx_t k = 0; k < eln; ++k) {
        const idx_t e = s.iw[p1 + k];
        if (s.elen[e] != -1) continue;
        const std::int64_t dext = w[e] - mark;
        if (dext > 0) {
          d += static_cast<idx_t>(dext);
          s.iw[pn++] = e;
          h += static_cast<std::uint64_t>(e);
        } else {
          s.elen[e] = -2;  // aggressive absorption: Le ⊆ Lp
        }
      }
      const offset_t p3 = pn;
      for (idx_t k = eln; k < s.len[i]; ++k) {
        const idx_t j = s.iw[p1 + k];
        if (s.nv[j] <= 0) continue;  // dead or in Lp
        d += s.nv[j];
        s.iw[pn++] = j;
        h += static_cast<std::uint64_t>(j);
      }
      if (d == 0) {
        // Mass elimination: pattern(i) ⊆ Lp ∪ {p} — eliminate i with p.
        parent[i] = p;
        nel += nvi;
        dk -= nvi;
        nvpiv += nvi;
        s.nv[i] = 0;
        s.elen[i] = -2;
        s.len[i] = 0;
      } else {
        s.degree[i] = std::min(s.degree[i], d);
        // Rebuild the list as [p, surviving elements, surviving variables].
        // i lost at least one entry (p or an absorbed element), so the slot
        // at pn is free.
        s.iw[pn] = s.iw[p3];
        s.iw[p3] = s.iw[p1];
        s.iw[p1] = p;
        s.elen[i] = static_cast<idx_t>(p3 - p1) + 1;
        s.len[i] = static_cast<idx_t>(pn - p1) + 1;
        const idx_t bucket = static_cast<idx_t>(h % static_cast<std::uint64_t>(n));
        hash_of[i] = bucket;
        hnext[i] = hhead[bucket];
        hhead[bucket] = i;
      }
    }
    s.degree[p] = dk;

    // --- scan 3: merge indistinguishable variables (equal lists) ---------
    for (offset_t q = lp_begin; q < lp_end; ++q) {
      const idx_t i = s.iw[q];
      if (s.nv[i] >= 0) continue;  // mass-eliminated
      const idx_t bucket = hash_of[i];
      idx_t b = hhead[bucket];
      if (b == -1) continue;  // bucket already processed
      hhead[bucket] = -1;
      for (; b != -1 && hnext[b] != -1; b = hnext[b]) {
        if (s.nv[b] >= 0) continue;  // merged away meanwhile
        const idx_t blen = s.len[b];
        const idx_t belen = s.elen[b];
        const std::int64_t stamp = wflg++;
        // Both lists start with p; compare the remaining entries as sets.
        for (idx_t k = 1; k < blen; ++k) w[s.iw[s.pe[b] + k]] = stamp;
        idx_t prev = b;
        for (idx_t j = hnext[b]; j != -1; j = hnext[j]) {
          bool same = s.nv[j] < 0 && s.len[j] == blen && s.elen[j] == belen;
          for (idx_t k = 1; same && k < blen; ++k) same = (w[s.iw[s.pe[j] + k]] == stamp);
          if (same) {
            parent[j] = b;
            s.nv[b] += s.nv[j];  // both negative
            s.nv[j] = 0;
            s.elen[j] = -2;
            s.len[j] = 0;
            hnext[prev] = hnext[j];
          } else {
            prev = j;
          }
        }
      }
    }

    // --- finalize: external degrees and degree-list reinsertion ----------
    offset_t lp_live = lp_begin;
    for (offset_t q = lp_begin; q < lp_end; ++q) {
      const idx_t i = s.iw[q];
      if (s.nv[i] >= 0) continue;
      s.nv[i] = -s.nv[i];
      idx_t d = std::min(s.degree[i] + dk - s.nv[i], n - nel - s.nv[i]);
      d = std::max(d, idx_t{0});
      s.degree[i] = d;
      s.push_degree_list(i);
      if (d < mindeg) mindeg = d;
      s.iw[lp_live++] = i;  // prune dead members from element p's list
    }
    s.nv[p] = nvpiv;
    s.len[p] = static_cast<idx_t>(lp_live - lp_begin);
    pfree = lp_live;
    if (s.len[p] == 0) s.elen[p] = -2;  // root element with no pattern
  }

  // --- order extraction: pivots in elimination order, each followed by the
  // variables its supervariable absorbed (chains resolved to the pivot). ---
  for (idx_t i = 0; i < n; ++i) {
    if (is_pivot[i] || parent[i] == -1) continue;
    idx_t root = parent[i];
    while (!is_pivot[root]) root = parent[root];
    // Path-compress so long merge chains resolve once.
    idx_t j = i;
    while (!is_pivot[j]) {
      const idx_t up = parent[j];
      parent[j] = root;
      j = up;
    }
  }
  std::vector<idx_t> member_count(n, 0);
  for (idx_t i = 0; i < n; ++i) {
    if (!is_pivot[i]) ++member_count[parent[i]];
  }
  std::vector<idx_t> member_start(static_cast<std::size_t>(n) + 1, 0);
  for (idx_t i = 0; i < n; ++i) member_start[static_cast<std::size_t>(i) + 1] = member_start[i] + member_count[i];
  std::vector<idx_t> members(static_cast<std::size_t>(member_start[n]));
  std::vector<idx_t> fill_ptr(member_start.begin(), member_start.end() - 1);
  for (idx_t i = 0; i < n; ++i) {
    if (!is_pivot[i]) members[fill_ptr[parent[i]]++] = i;  // ascending per root
  }

  Permutation out;
  out.perm.reserve(n);
  for (idx_t p : pivot_order) {
    out.perm.push_back(p);
    for (idx_t k = member_start[p]; k < member_start[static_cast<std::size_t>(p) + 1]; ++k) {
      out.perm.push_back(members[k]);
    }
  }
  assert(static_cast<idx_t>(out.perm.size()) == n);
  out.inv_perm.assign(n, 0);
  for (idx_t i = 0; i < n; ++i) out.inv_perm[out.perm[i]] = i;
  return out;
}

namespace {

/// A box of grid nodes, [lo, hi) per axis.
struct GridBox {
  std::array<idx_t, 3> lo;
  std::array<idx_t, 3> hi;
};

/// Append the dofs of `box`'s nodes to `perm` in natural order (i fastest)
/// on an nx x ny grid.
void number_naturally(const GridBox& box, idx_t nx, idx_t ny, idx_t dofs_per_node,
                      std::vector<idx_t>& perm) {
  for (idx_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (idx_t j = box.lo[1]; j < box.hi[1]; ++j) {
      for (idx_t i = box.lo[0]; i < box.hi[0]; ++i) {
        const idx_t node = (k * ny + j) * nx + i;
        for (idx_t c = 0; c < dofs_per_node; ++c) perm.push_back(node * dofs_per_node + c);
      }
    }
  }
}

/// Append the dofs of `box`'s nodes to `perm` in nested-dissection order.
void dissect(const GridBox& box, idx_t nx, idx_t ny, idx_t dofs_per_node,
             std::vector<idx_t>& perm) {
  int axis = 0;
  for (int a = 1; a < 3; ++a) {
    if (box.hi[a] - box.lo[a] > box.hi[axis] - box.lo[axis]) axis = a;
  }
  const idx_t length = box.hi[axis] - box.lo[axis];
  if (length < 3) {
    number_naturally(box, nx, ny, dofs_per_node, perm);
    return;
  }
  const idx_t mid = box.lo[axis] + length / 2;
  GridBox lower = box;
  GridBox upper = box;
  GridBox plane = box;
  lower.hi[axis] = mid;
  upper.lo[axis] = mid + 1;
  plane.lo[axis] = mid;
  plane.hi[axis] = mid + 1;
  dissect(lower, nx, ny, dofs_per_node, perm);
  dissect(upper, nx, ny, dofs_per_node, perm);
  number_naturally(plane, nx, ny, dofs_per_node, perm);
}

}  // namespace

Permutation grid_nested_dissection(idx_t nx, idx_t ny, idx_t nz, idx_t dofs_per_node) {
  if (nx < 0 || ny < 0 || nz < 0 || dofs_per_node < 1) {
    throw std::invalid_argument("grid_nested_dissection: need node counts >= 0 and dofs >= 1");
  }
  const idx_t n = nx * ny * nz * dofs_per_node;
  Permutation out;
  out.perm.reserve(static_cast<std::size_t>(n));
  dissect(GridBox{{0, 0, 0}, {nx, ny, nz}}, nx, ny, dofs_per_node, out.perm);
  out.inv_perm.assign(static_cast<std::size_t>(n), 0);
  for (idx_t i = 0; i < n; ++i) out.inv_perm[out.perm[i]] = i;
  return out;
}

Vec permute_vector(const Vec& x, const Permutation& p) {
  Vec y(x.size());
  for (idx_t i = 0; i < p.size(); ++i) y[i] = x[p.perm[i]];
  return y;
}

Vec unpermute_vector(const Vec& x, const Permutation& p) {
  Vec y(x.size());
  for (idx_t i = 0; i < p.size(); ++i) y[p.perm[i]] = x[i];
  return y;
}

}  // namespace ms::la

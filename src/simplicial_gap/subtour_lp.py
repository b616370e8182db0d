"""Subtour elimination LP baseline: one dense simplex tableau and cut separation.

The LP lives on the n(n-1)/2 edge variables of the complete graph: degree
equalities sum each vertex's incident edges to 2, every proper vertex subset
must be crossed with weight at least 2, and edges stay nonnegative.  Subtour
cuts are added lazily.  Each round solves the current LP and separates
subtour cuts: one per connected component when the fractional support is
disconnected, otherwise the global minimum cut from Stoer-Wagner.  It stops
when the support is connected and its minimum cut clears 2 within tolerance.
No x_e <= 1 row is needed: with degree 2 at u and v, the cut on {u, v} reads
4 - 2 x_uv >= 2, so the final point has x_uv <= 1 + 5e-7 (``CUT_THRESHOLD``).

On simplicial instances this baseline attains the tour value g exactly,
which is the contrast the relaxation certificates are measured against: the
cheap polyhedral bound has gap 1 on the very family where the semidefinite
bounds go bad.

The simplex is a dense tableau with Dantzig pricing (most negative reduced
cost, lowest index on ties), falling back to Bland's rule after a run of
degenerate pivots, which guarantees termination.  The degree LP is solved
in two phases from an artificial basis; the same tableau then carries the
whole cut loop, as in Applegate, Bixby, Chvatal & Cook, *The Traveling
Salesman Problem* (2006).  Each round's new rows are appended to it in the
current basis, each with its own surplus column basic in it: the
basis stays dual feasible and is primal infeasible exactly on the rows the
current point violates, so dual pivots restore feasibility and a primal
pass cleans up.  Fine at n <= 60.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .instances import SimplicialInstance

__all__ = [
    "LpEdgeSolution",
    "MAX_LP_VERTICES",
    "min_cut",
    "simplex_solve",
    "solve_subtour",
]

MAX_LP_VERTICES = 60
CUT_THRESHOLD = 2.0 - 1e-6
MAX_PIVOTS = 10_000
MAX_ROUNDS = 500
DEGENERATE_RUN = 50  # degenerate pivots in a row before Bland's rule is used
PHASE1_TOL = 1e-7  # phase-1 artificial sum above this: the LP is infeasible
AGREE_TOL = 1e-6  # LP objective against the analytic tour value
WEIGHT_TOL = 1e-12  # asymmetry and negativity min_cut forgives in its input
_EPS = 1e-9
_TIE = 1e-12


def _weights(n: int, x: np.ndarray) -> np.ndarray:
    """Symmetric n x n matrix with the edge values x (np.triu_indices order) off the diagonal."""
    w = np.zeros((n, n))
    w[np.triu_indices(n, 1)] = x
    return w + w.T


def _components(adj: np.ndarray) -> np.ndarray:
    """Connected-component label of every vertex; vertex 0 is in component 0."""
    adj = adj | adj.T  # an edge in either direction joins its ends
    n = adj.shape[0]
    labels = np.full(n, -1)
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        reached = np.zeros(n, dtype=bool)
        reached[start] = True
        frontier = reached
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~reached
            reached |= frontier
        labels[reached] = count
        count += 1
    return labels


class _Tableau:
    """Dense tableau [B^-1 A | B^-1 b] and its reduced-cost row.

    ``basis[i]`` is the column basic in row i.  ``z`` holds the reduced
    costs of every column followed by minus the objective.  ``pivots``
    counts the pivots spent against ``MAX_PIVOTS``.
    """

    def __init__(self, tab: np.ndarray, basis: np.ndarray):
        self.tab = tab
        self.basis = basis
        self.pivots = 0
        self.z = np.zeros(tab.shape[1])

    def price(self, cost: np.ndarray) -> None:
        """Reduced costs for ``cost``, one entry per column but the rhs."""
        self.z = np.r_[cost, 0.0] - cost[self.basis] @ self.tab

    def pivot(self, r: int, j: int) -> None:
        tab = self.tab
        tab[r] /= tab[r, j]
        col = tab[:, j].copy()
        col[r] = 0.0
        rows = np.flatnonzero(col)
        tab[rows] -= np.outer(col[rows], tab[r])
        self.z -= self.z[j] * tab[r]
        self.basis[r] = j

    def primal(self) -> bool:
        """Primal pivots until no reduced cost is negative; False when out of pivots."""
        degenerate = 0
        while True:
            z = self.z[:-1]
            if degenerate < DEGENERATE_RUN:
                j = int(np.argmin(z))
                if z[j] >= -_EPS:
                    return True
            else:
                eligible = np.flatnonzero(z < -_EPS)
                if eligible.size == 0:
                    return True
                j = int(eligible[0])
            if self.pivots >= MAX_PIVOTS:
                return False
            col = self.tab[:, j]
            rows = np.flatnonzero(col > _EPS)
            if rows.size == 0:
                raise ArithmeticError("LP unbounded, construction is broken")
            ratios = np.maximum(self.tab[rows, -1], 0.0) / col[rows]
            step = ratios.min()
            ties = rows[ratios <= step + _TIE]
            if degenerate < DEGENERATE_RUN:
                r = ties[np.argmax(col[ties])]
            else:
                r = ties[np.argmin(self.basis[ties])]
            degenerate = degenerate + 1 if step <= _TIE else 0
            self.pivot(int(r), j)
            self.pivots += 1

    def dual(self) -> bool:
        """Dual pivots until the rhs column is nonnegative; False when out of pivots."""
        degenerate = 0
        while True:
            rhs = self.tab[:, -1]
            if degenerate < DEGENERATE_RUN:
                r = int(np.argmin(rhs))
                if rhs[r] >= -_EPS:
                    return True
            else:
                infeasible = np.flatnonzero(rhs < -_EPS)
                if infeasible.size == 0:
                    return True
                r = int(infeasible[np.argmin(self.basis[infeasible])])
            if self.pivots >= MAX_PIVOTS:
                return False
            row = self.tab[r, :-1]
            cols = np.flatnonzero(row < -_EPS)
            if cols.size == 0:
                raise ArithmeticError("LP infeasible, construction is broken")
            ratios = np.maximum(self.z[cols], 0.0) / -row[cols]
            step = ratios.min()
            ties = cols[ratios <= step + _TIE]
            j = ties[0] if degenerate >= DEGENERATE_RUN else ties[np.argmin(row[ties])]
            degenerate = degenerate + 1 if step <= _TIE else 0
            self.pivot(r, int(j))
            self.pivots += 1

    def optimize(self) -> bool:
        """Dual pivots to a feasible point, then primal pivots to an optimal one."""
        return self.dual() and self.primal()

    def add_rows(self, rows: np.ndarray) -> None:
        """Append the cut rows ``rows[i] . x - s_i = 2``, s_i a new column.

        ``rows`` covers the leading columns.  Each new row is written in the
        current basis and negated, so that s_i, basic in it, reads +1: the
        basis stays dual feasible, and a cut the current point violates
        shows a negative rhs for the dual pivots to repair.
        """
        m, width = self.tab.shape
        added = len(rows)
        grown = np.zeros((m + added, width + added))
        grown[:m, : width - 1] = self.tab[:, :-1]
        grown[:m, -1] = self.tab[:, -1]
        for i in range(added):
            new = grown[m + i]
            new[: rows.shape[1]] = rows[i]
            new[width - 1 + i] = -1.0
            new[-1] = 2.0
            new -= new[self.basis] @ grown[:m]
            new *= -1.0
        self.tab = grown
        self.basis = np.r_[self.basis, width - 1 + np.arange(added)]
        self.z = np.r_[self.z[:-1], np.zeros(added), self.z[-1]]

    def point(self, k: int) -> np.ndarray:
        """Values of the first k columns at the current basis."""
        x = np.zeros(k)
        structural = self.basis < k
        x[self.basis[structural]] = self.tab[structural, -1]
        return x


def simplex_solve(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
) -> tuple[np.ndarray, float, str, _Tableau | None]:
    """Dense two-phase simplex for min c.x s.t. a x = b, x >= 0, b >= 0.

    Phase 1 drives out an artificial basis and drops the rows it shows
    redundant; phase 2 prices c.  Returns (x, objective, status, tableau):
    status "optimal", or "iteration-limit" when the two phases together
    ran out of ``MAX_PIVOTS``, and the optimal tableau, ready for
    ``add_rows``, or None at the iteration limit.  An infeasible or
    unbounded system raises, as the callers only build LPs with a finite
    optimum.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, k = a.shape
    if b.shape != (m,) or c.shape != (k,):
        raise ValueError("inconsistent LP dimensions")
    if b.min() < 0:
        raise ValueError("rhs must be nonnegative")

    t = _Tableau(np.hstack([a, np.eye(m), b[:, None]]), np.arange(k, k + m))
    t.price(np.r_[np.zeros(k), np.ones(m)])
    if not t.optimize():
        x = t.point(k)
        return x, float(c @ x), "iteration-limit", None
    if -t.z[-1] > PHASE1_TOL:
        raise ArithmeticError("LP infeasible, construction is broken")
    # any artificial still basic sits at zero: pivot it out or drop the row
    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(t.basis >= k):
        sub = np.abs(t.tab[i, :k])
        j = int(sub.argmax())
        if sub[j] > _EPS:
            t.pivot(i, j)
        else:
            keep[i] = False
    t.tab = np.delete(t.tab[keep], np.s_[k : k + m], axis=1)
    t.basis = t.basis[keep]

    t.price(c)
    status = "optimal" if t.optimize() else "iteration-limit"
    x = t.point(k)
    return x, float(c @ x), status, t if status == "optimal" else None


def min_cut(weights: np.ndarray) -> tuple[float, frozenset[int]]:
    """Global minimum cut of a weighted graph by Stoer-Wagner contraction.

    Exact for symmetric nonnegative finite weights; anything else raises
    ValueError.  A disconnected support returns the zero cut that separates
    vertex 0's connected component from the rest.

    Each phase grows a maximum adjacency order from vertex 0 and then
    contracts its last vertex t into the one before it, s, in place: row and
    column t are added into s, and t is marked dead, so its key starts every
    later phase at -inf.  No matrix is copied and no supernode changes its
    index, so the first maximum of the keys is the lowest live index among
    ties.  A key is read only while its vertex is live and not yet added,
    so neither the diagonal nor a dead row or column needs clearing.
    ``best_set`` is the side of the lightest phase cut: the vertices merged
    into that phase's t.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n) or n < 2:
        raise ValueError(f"need a square matrix on >= 2 vertices, got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if np.abs(w - w.T).max() > WEIGHT_TOL:
        raise ValueError("weights must be symmetric")
    if w.min() < -WEIGHT_TOL:
        raise ValueError("weights must be nonnegative")
    wm = np.maximum(w, 0.0)

    labels = _components(wm > 0)
    if labels.max() > 0:
        return 0.0, frozenset(np.flatnonzero(labels == 0).tolist())

    groups = [[i] for i in range(n)]
    dead = np.zeros(n, dtype=bool)
    best_val = np.inf
    best_set: frozenset[int] = frozenset()
    for alive in range(n, 1, -1):
        key = wm[0].copy()
        key[dead] = -np.inf
        key[0] = -np.inf
        s = t = 0
        for _ in range(alive - 2):
            s, t = t, key.argmax()
            key += wm[t]
            key[t] = -np.inf
        # the last vertex added is t; its key is the cut of the phase
        s, t = t, int(key.argmax())
        cut_of_phase = float(key[t])
        if cut_of_phase < best_val:
            best_val = cut_of_phase
            best_set = frozenset(groups[t])
        wm[s] += wm[t]
        wm[:, s] += wm[:, t]
        dead[t] = True
        groups[s].extend(groups[t])
    return best_val, best_set


@dataclass
class LpEdgeSolution:
    """Fractional edge point of the subtour LP with its separation history."""

    n: int
    x: np.ndarray = field(repr=False)
    objective: float
    cuts_added: int
    status: str


def _violated_cuts(n: int, x: np.ndarray) -> list[frozenset[int]]:
    """Subtour cuts the point x violates, each as the side without vertex 0.

    A disconnected support yields one cut per component (one in all when
    there are two, as both sides name the same cut); a connected one yields
    the Stoer-Wagner minimum cut if it falls short of 2.
    """
    w = _weights(n, np.maximum(x, 0.0))
    labels = _components(w > 0)
    everyone = frozenset(range(n))
    if labels.max() > 0:
        sides = [frozenset(np.flatnonzero(labels == c).tolist()) for c in range(labels.max() + 1)]
        sides[0] = everyone - sides[0]
        return list(dict.fromkeys(sides))
    cut_val, cut_set = min_cut(w)
    if cut_val >= CUT_THRESHOLD:
        return []
    if not 1 <= len(cut_set) <= n - 1:
        raise ArithmeticError("separator returned a trivial cut")
    return [everyone - cut_set if 0 in cut_set else cut_set]


def solve_subtour(inst: SimplicialInstance) -> LpEdgeSolution:
    """Optimize the subtour LP by lazy separation, n_total <= 60.

    The degree LP is solved once; each round then adds a cut row for every
    violated subtour cut to the live tableau and re-optimizes it.  Stops
    when no cut is violated, or flags iteration-limit when a solve runs out
    of pivots or the rounds run out.  The cuts imply x_e <= 1: with degree 2
    at u and v, the cut on {u, v} reads 4 - 2 x_uv >= 2, so x_uv <= 1 + 5e-7.
    """
    n = inst.n_total
    if n > MAX_LP_VERTICES:
        raise ValueError(f"LP baseline capped at {MAX_LP_VERTICES} vertices, got {n}")
    if n < 3:
        raise ValueError(f"subtour LP needs at least 3 vertices, got {n}")
    eu, ev = np.triu_indices(n, 1)
    n_edges = eu.size
    edge_cost = inst.cost_matrix()[eu, ev]

    degree = np.zeros((n, n_edges))
    degree[eu, np.arange(n_edges)] = 1.0
    degree[ev, np.arange(n_edges)] = 1.0
    x, _, status, t = simplex_solve(degree, np.full(n, 2.0), edge_cost)
    cuts: set[frozenset[int]] = set()
    for _ in range(MAX_ROUNDS):
        if status != "optimal":
            break
        new_cuts = _violated_cuts(n, x)
        if cuts.intersection(new_cuts):
            raise ArithmeticError("separator repeated a cut, LP is stuck")
        cuts.update(new_cuts)
        if not new_cuts:
            break

        inside = np.zeros((len(new_cuts), n), dtype=bool)
        for i, cut in enumerate(new_cuts):
            inside[i, list(cut)] = True
        t.add_rows(inside[:, eu] != inside[:, ev])
        t.pivots = 0  # every round has MAX_PIVOTS of its own
        status = "optimal" if t.optimize() else "iteration-limit"
        x = t.point(n_edges)
    else:
        status = "iteration-limit"

    return LpEdgeSolution(
        n=n,
        x=x,
        objective=float(edge_cost @ x),
        cuts_added=len(cuts),
        status=status,
    )

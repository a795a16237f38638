"""Per-agent subproblem construction with local variable copies.

Each agent owns a stacked variable holding copies of its own and its
neighbors' state/input trajectories over the horizon. Selector maps tie
every copy to an entry of the global consensus vector z, whose layout is
agent-major: for each agent, states t=0..T then inputs t=0..T-1. A block
whose members are all agents has exactly the layout of z: it is the
centralized problem, condensed by the same routines as the local ones.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools
from scipy.sparse._sputils import get_index_dtype

from .dynamics import prediction_matrices
from .qp import BoxQp, diagonal_blocks


class ZLayout:
    """Index arithmetic for the global consensus vector, or for any vector
    stacking agents' trajectories member by member."""

    def __init__(self, agents, T):
        self.T = T
        self.dims = [(a.n, a.m) for a in agents]
        self.starts = []
        off = 0
        for n, m in self.dims:
            self.starts.append(off)
            off += n * (T + 1) + m * T
        self.dim = off

    def state_offset(self, agent, t, comp=0):
        n, _ = self.dims[agent - 1]
        return self.starts[agent - 1] + t * n + comp

    def input_offset(self, agent, t, comp=0):
        n, m = self.dims[agent - 1]
        return self.starts[agent - 1] + (self.T + 1) * n + t * m + comp

    def decode(self, z):
        """Split z into per-agent state (T+1, n) and input (T, m) arrays."""
        states, inputs = [], []
        for j, (n, m) in enumerate(self.dims, start=1):
            s0 = self.state_offset(j, 0)
            states.append(z[s0:s0 + (self.T + 1) * n].reshape(self.T + 1, n))
            u0 = self.input_offset(j, 0)
            inputs.append(z[u0:u0 + self.T * m].reshape(self.T, m))
        return states, inputs


@dataclass(frozen=True)
class LocalProblem:
    """Agent `owner`'s quadratic subproblem over its copy vector.

    Layout of the local vector: for each member (owner and neighbors, in
    ascending index order) the states t=0..T then the inputs t=0..T-1.
    Cost is 0.5 x'Hx; dynamics and measured initial states enter as
    equality constraints, input boxes as bounds. The centralized problem
    is the block with every agent a member and `owner` None.
    """

    owner: int
    T: int
    members: tuple          # sorted agent indices, owner included
    models: tuple           # LtiAgent per member
    x0: tuple               # measured initial state per member
    H: sparse.csr_array     # symmetric, PSD
    pred: tuple             # per member (Phi, nonzeros of Gam): `_predictions`

    @property
    def dim(self):
        return self.H.shape[0]

    @cached_property
    def member_offsets(self):
        """Start offset of each member's block in the local vector."""
        return tuple(ZLayout(self.models, self.T).starts)

    def state_slice(self, member_pos, t):
        mdl = self.models[member_pos]
        start = self.member_offsets[member_pos] + t * mdl.n
        return slice(start, start + mdl.n)

    def input_slice(self, member_pos, t):
        mdl = self.models[member_pos]
        start = self.member_offsets[member_pos] + (self.T + 1) * mdl.n + t * mdl.m
        return slice(start, start + mdl.m)

    def cost(self, x):
        return 0.5 * x @ (self.H @ x)


def index_dtype(shape, nnz):
    """Index dtype of a sparse array of `shape` with `nnz` stored entries:
    32-bit while the shape and nonzeros fit, else 64-bit."""
    return np.int32 if max(*shape, nnz) < 2**31 else np.int64


def _matvec(A, x, out=None):
    """A @ x for a CSR or CSC array A and a float vector x, bit for bit
    scipy's product without its dispatch: sparsetools' kernel adds each
    product onto a zeroed output, `out` (contiguous) if given."""
    out = np.empty(A.shape[0]) if out is None else out
    out.fill(0.0)
    getattr(_sparsetools, A.format + "_matvec")(*A.shape, A.indptr, A.indices, A.data, x, out)
    return out


def _matmat(A, B):
    """A @ B for CSR arrays A and B, a CSR array bit for bit scipy's product
    without its dispatch: sparsetools' count of the product's nonzeros, then
    its kernel, with scipy's index dtype (32-bit while the operands' indices
    are and the product's nonzeros fit)."""
    arrays = A.indptr, A.indices, B.indptr, B.indices
    shape, idx = (A.shape[0], B.shape[1]), get_index_dtype(arrays)
    nnz = _sparsetools.csr_matmat_maxnnz(*shape, *(a.astype(idx, copy=False) for a in arrays))
    idx = get_index_dtype(arrays, maxval=nnz)
    Ap, Aj, Bp, Bj = (a.astype(idx, copy=False) for a in arrays)
    indptr, indices, data = np.empty(shape[0] + 1, idx), np.empty(nnz, idx), np.empty(nnz)
    _sparsetools.csr_matmat(*shape, Ap, Aj, A.data, Bp, Bj, B.data, indptr, indices, data)
    return sparse.csr_array((data, indices, indptr), shape=shape)


def _hessian(T, models, edges, inputs):
    """Sparse H of a block of `models`, from (row, col, value) triplets.

    Each edge (a, b, w) between the members at positions a and b adds
    (w/2)||x_a(t) - x_b(t)||^2 at every t, each input position its member's
    input energy u'u. A member's states t=0..T are one contiguous range of
    the local vector, so an edge couples two ranges entry by entry: +w on
    both diagonals, -w between them, the diagonal summed in edge order.
    """
    layout = ZLayout(models, T)
    diag = np.zeros(layout.dim)
    rows, cols, vals = [], [], []
    for pa, pb, w in edges:
        n = models[pa].n
        if n != models[pb].n:
            raise ValueError("edge coupling requires matching state dimensions")
        ia = layout.starts[pa] + np.arange(n * (T + 1))
        ib = layout.starts[pb] + np.arange(n * (T + 1))
        diag[ia] += w
        diag[ib] += w
        rows += [ia, ib]
        cols += [ib, ia]
        vals.append(np.full(2 * ia.size, -w))
    for k in inputs:
        u0 = layout.input_offset(k + 1, 0)  # layout members count from 1
        diag[u0:u0 + models[k].m * T] += 2.0  # u'u == 0.5 x'(2I)x
    nz = np.flatnonzero(diag)
    rows.append(nz)
    cols.append(nz)
    vals.append(diag[nz])
    vals = np.concatenate(vals)
    idx = index_dtype((layout.dim, layout.dim), vals.size)
    return sparse.csr_array((vals, (np.concatenate(rows, dtype=idx),
                                    np.concatenate(cols, dtype=idx))),
                            shape=(layout.dim, layout.dim))


def _model_key(mdl):
    """A and B by shape and bytes: members alike in them share one prediction."""
    return mdl.A.shape, mdl.B.shape, mdl.A.tobytes(), mdl.B.tobytes()


def _predictions(models, T):
    """Per model: Phi and the nonzeros of Gam (`_row_nonzeros`); the dense
    Gam is not kept. Computed once per distinct model (`_model_key`), whose
    models share the one pair."""
    by_model = {}
    for mdl in models:
        if (key := _model_key(mdl)) not in by_model:
            Phi, Gam = prediction_matrices(mdl, T)
            by_model[key] = Phi, _row_nonzeros(Gam)
    return tuple(by_model[_model_key(mdl)] for mdl in models)


def check_finite_states(states):
    """Raise ValueError naming the first agent whose measured state is not finite."""
    for j, x in enumerate(states, start=1):
        if not np.isfinite(x).all():
            raise ValueError(f"measured state of agent {j} is not finite")


def check_states(states, widths, what="measured"):
    """ValueError unless there is one state per agent, agent j's of shape
    (widths[j - 1],), and every state is finite."""
    if len(states) != len(widths):
        raise ValueError(f"expected {len(widths)} {what} states, got {len(states)}")
    for j, (x, n) in enumerate(zip(states, widths), start=1):
        if np.shape(x) != (n,):
            raise ValueError(f"{what} state of agent {j} has shape {np.shape(x)}, expected ({n},)")
    check_finite_states(states)


def checked_inputs(g, agents, T, initial_states):
    """The initial states as float arrays; ValueError unless they and the agents fit g, T >= 1."""
    N = g.num_agents
    if len(agents) != N:
        raise ValueError(f"expected {N} agent models, got {len(agents)}")
    if T < 1:
        raise ValueError("horizon must be >= 1")
    initial_states = [np.asarray(x, dtype=float) for x in initial_states]
    check_states(initial_states, [a.n for a in agents], "initial")
    return initial_states


def build_local_problems(g, agents, T, initial_states):
    """Construct every agent's subproblem, its selector map (the z index of
    each entry of its local vector), and dim(z).

    The edge coupling a_ij ||x_i - x_j||^2 is split half to each endpoint's
    subproblem; input energy is charged once, to the owning agent. Agents alike
    in member models and u_max, owner position and edges share one H, built once.
    """
    initial_states = checked_inputs(g, agents, T, initial_states)
    layout = ZLayout(agents, T)
    pred = _predictions(agents, T)
    kinds, hessians = {}, {}
    kind = [kinds.setdefault((_model_key(a), a.u_max), len(kinds)) for a in agents]
    problems, maps = [], []
    for i in range(1, g.num_agents + 1):
        members = tuple(sorted(g.neighbors(i) | {i}))
        models = tuple(agents[j - 1] for j in members)
        pos = {j: k for k, j in enumerate(members)}
        edges = [(pos[i], pos[j], g.weight(i, j)) for j in g.neighbors(i)]
        key = (tuple(kind[j - 1] for j in members), pos[i], tuple(sorted(edges)),
               tuple(w for *_, w in edges))  # in the order the owner's diagonal sums them
        if key not in hessians:
            hessians[key] = _hessian(T, models, edges, [pos[i]])
        problems.append(LocalProblem(owner=i, T=T, members=members, models=models,
                                     x0=tuple(initial_states[j - 1] for j in members),
                                     H=hessians[key], pred=tuple(pred[j - 1] for j in members)))
        # a member's block of the local vector is its block of z
        maps.append(np.concatenate([layout.starts[j - 1] + np.arange(m.n * (T + 1) + m.m * T)
                                    for j, m in zip(members, models)]))
    return problems, maps, layout.dim


def build_centralized_qp(g, agents, T, initial_states):
    """Whole-network problem condensed over all agents' stacked inputs.

    Every agent is a member of the block, so its vector is laid out as z;
    each edge is stamped once at weight 2w, the sum of its two local
    halves. Returns (block, M, qp), qp the box QP `condensed_qps` gives and
    M the CSC view of its M' in CSR, so M.T serves a product with M' as it
    is; the gradient M'H c = G x0 needs G = M'HC (`state_map`) once.
    """
    initial_states = checked_inputs(g, agents, T, initial_states)
    members = tuple(range(1, g.num_agents + 1))
    models = tuple(agents[j - 1] for j in members)
    H = _hessian(T, models, [(i - 1, j - 1, 2.0 * w) for (i, j), w in g.weights.items()],
                 range(len(members)))
    block = LocalProblem(owner=None, T=T, members=members, models=models, H=H,
                         x0=tuple(initial_states[j - 1] for j in members),
                         pred=_predictions(models, T))
    (Mt,), (qp,) = condensed_qps([block], [block.H])
    return block, Mt.T, qp


def copy_counts(maps, z_dim):
    """How many local copies map to each z component."""
    counts = np.bincount(np.concatenate(maps), minlength=z_dim)
    if np.any(counts == 0):
        raise RuntimeError("z component with no mapped copies: construction bug")
    return counts


def _stacked(trajs, what):
    """The agents' trajectories as one (N, ...) array (an array is taken as
    it is); ValueError naming the first agent whose shape is not agent 1's."""
    try:
        return np.asarray(trajs)
    except ValueError:
        first = np.shape(trajs[0])
        for j, x in enumerate(trajs, start=1):
            if np.shape(x) != first:
                raise ValueError(f"{what} trajectory of agent {j} has shape {np.shape(x)}, "
                                 f"agent 1's {first}") from None
        raise


def global_cost(g, state_traj, input_traj):
    """Coupling-plus-energy cost of full trajectories.

    sum_t sum_edges a_ij ||x_i(t)-x_j(t)||^2 + sum_t u(t)'u(t) over (S, n)
    state and (S_u, m) input trajectories, one shape per argument. Edge
    differences come from one gather over `g.edge_index`; the row sums
    are added in edge, then agent order: bit for bit the per-edge sum.
    """
    N = g.num_agents
    if len(state_traj) != N or len(input_traj) != N:
        raise ValueError("one trajectory per agent required")
    X, U = _stacked(state_traj, "state"), _stacked(input_traj, "input")
    i, j = g.edge_index
    D = (X[i] - X[j]).reshape(i.size, X[0].size)  # no -1: a graph may have no edges
    U = U.reshape(N, -1)
    total = 0.0
    for w, s in zip(g.weights.values(), np.add.reduce(D * D, axis=1).tolist()):
        total += w * s
    for s in np.add.reduce(U * U, axis=1).tolist():
        total += s
    return total


def _row_nonzeros(A):
    """The nonzeros of dense A as (count per row, column, value), row by row."""
    rows, cols = np.nonzero(A)
    return np.count_nonzero(A, axis=1), cols, A[rows, cols]


def input_columns(p):
    """Each member's (T, m) columns of the condensed variable, which holds
    input component 0 of every member (t = 0..T-1, member by member), then
    component 1, and so on: the 3-D double integrator's condensed Hessian
    splits into one contiguous block per axis."""
    ms = [mdl.m for mdl in p.models]
    has = np.arange(max(ms))[:, None] < ms  # (component, member)
    slot = (np.cumsum(has) - 1).reshape(has.shape)  # numbered component by component
    return [slot[:m, k] * p.T + np.arange(p.T)[:, None] for k, m in enumerate(ms)]


def _csr_from_rows(shape, counts, indices, data):
    """A CSR array of `shape` from its row counts, column indices and values,
    each a list of arrays in row order, its indices 32-bit while they fit."""
    data = np.concatenate(data)
    idx = index_dtype(shape, data.size)
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))], dtype=idx)
    return sparse.csr_array((data, np.concatenate(indices, dtype=idx), indptr), shape=shape)


def _block_diagonal(blocks):
    """CSR arrays stacked block-diagonally, from their index arrays, which
    stay 32-bit while the stack's shape and nonzeros fit; one is kept as it is."""
    if len(blocks) == 1:
        return blocks[0]
    shape = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)
    idx = index_dtype(shape, sum(b.nnz for b in blocks))
    cols = np.cumsum([0] + [b.shape[1] for b in blocks], dtype=idx)
    nnz = np.cumsum([0] + [b.nnz for b in blocks], dtype=idx)
    return sparse.csr_array(
        (np.concatenate([b.data for b in blocks]),
         np.concatenate([b.indices + c for b, c in zip(blocks, cols)], dtype=idx),
         np.concatenate([nnz[:1]] + [b.indptr[1:] + n for b, n in zip(blocks, nnz)], dtype=idx)),
        shape=shape)


def condensing_matrix(p):
    """M of the affine map local_vector = M @ condensed_inputs + c, the
    inputs in the order of `input_columns`: a CSR array built row by row,
    per member the nonzeros of its Gam (from `p.pred`) on its state rows
    and an identity on its input rows, which follow them."""
    counts, indices, data = [], [], []
    for pred, cols in zip(p.pred, input_columns(p)):
        (count, gcols, vals), cols = pred[1], cols.reshape(-1)
        counts += [count, np.ones(cols.size, int)]
        indices += [cols[gcols], cols]
        data += [vals, np.ones(cols.size)]
    M = _csr_from_rows((p.dim, sum(mdl.m for mdl in p.models) * p.T), counts, indices, data)
    M.sort_indices()
    return M


def state_map(p):
    """C of c = C x0, x0 the members' measured states stacked member by
    member: a CSR array built row by row as `condensing_matrix` builds M,
    per member the nonzeros of its Phi (from `p.pred`) on its state rows
    and none on its input rows, taken once per distinct model.
    `condensed_maps` gives c itself."""
    counts, indices, data, col, nonzeros = [], [], [], 0, {}
    for pred, mdl in zip(p.pred, p.models):
        if id(pred) not in nonzeros:
            nonzeros[id(pred)] = _row_nonzeros(pred[0])
        count, cols, vals = nonzeros[id(pred)]
        counts += [count, np.zeros(mdl.m * p.T, int)]
        indices.append(cols + col)
        data.append(vals)
        col += mdl.n
    return _csr_from_rows((p.dim, col), counts, indices, data)


def condensed_maps(p, states):
    """c of the affine map local_vector = M @ condensed_inputs + c for
    measured states, agent j's at states[j - 1]: each member's Phi x0 on its
    state rows, zero on its input rows."""
    c = np.zeros(p.dim)
    for off, j, (Phi, _) in zip(p.member_offsets, p.members, p.pred):
        c[off:off + Phi.shape[0]] = Phi @ states[j - 1]
    return c


def condensed_qps(problems, H):
    """Each problem's M' (CSR) and its box QP over the condensed inputs with
    P = M'H[k]M, H[k] the Hessian of problems[k], and q = 0. One M stacks
    the problems' maps block-diagonally (`_block_diagonal`), is transposed
    once, and M'(HM) is one sparse product whose diagonal blocks
    (`diagonal_blocks`) are the only ones densified, never a dense P; M and
    the stacked H are dropped before that block search, the product after
    it. No block crosses two problems; problems with a bit-equal block
    share its array and its one inverse.
    """
    boxes = [condensed_bounds(p) for p in problems]
    M = _block_diagonal([condensing_matrix(p) for p in problems])
    Mt = M.T.tocsr()
    blocks = _matmat(Mt, _matmat(_block_diagonal(H), M))  # P, until its blocks are found
    del M
    starts = np.cumsum([0] + [lo.size for lo, _ in boxes])
    P = [[] for _ in problems]
    for idx, b in diagonal_blocks(blocks):
        cuts = np.searchsorted(idx[:, 0], starts)  # the class's blocks, problem by problem
        for r in np.flatnonzero(np.diff(cuts)):
            P[r].append((idx[cuts[r]:cuts[r + 1]] - starts[r], b))
    del blocks
    inverses = {}
    qps = [BoxQp(tuple(sorted(groups, key=lambda g: g[0][0, 0])), np.zeros(lo.size), lo, hi,
                 inverses) for groups, (lo, hi) in zip(P, boxes)]
    if len(problems) == 1:
        return [Mt], qps
    Mts, c = [], 0  # each M_i', the diagonal blocks of Mt
    for p, r, s in zip(problems, starts, starts[1:]):
        lo, hi = Mt.indptr[r], Mt.indptr[s]
        Mts.append(sparse.csr_array((Mt.data[lo:hi], Mt.indices[lo:hi] - c,
                                     Mt.indptr[r:s + 1] - lo), shape=(s - r, p.dim)))
        c += p.dim
    return Mts, qps


def condensed_bounds(p):
    """The input box of the condensed variable, in the order of `input_columns`."""
    lo = np.empty(sum(mdl.m for mdl in p.models) * p.T)
    for mdl, cols in zip(p.models, input_columns(p)):
        lo[cols] = -mdl.u_max
    return lo, -lo

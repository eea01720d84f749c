"""The batched defect checks against their loop forms.

Each reference below is the earlier per-basis loop implementation of a
check, kept as a test oracle.  The loops are copied as they were, except
that they call the per-block helpers defined here (`_norm`, `_residual`,
`_ref_*`) in place of library code that now goes through the blockwise
kernel, so an oracle shares no arithmetic with what it checks.  Every defect
must agree within 1e-12 and every pass/fail verdict must be identical,
also on deliberately broken inputs.  `_ref_solve_antipode`,
`_ref_solve_haar_state`, `_ref_solve_dual_haar` and
`_ref_cancellation_rank_deficits` and `_ref_rank_deficit` are the earlier
library forms of the antipode (the 2·dim² × dim² system of the antipode laws), of the Haar state
and the dual Haar state (the invariance equations, with an SVD uniqueness
test) and of the cancellation rows (numerical ranks of the spans Δ(A)(A⊗1)
and Δ(A)(1⊗A)) and of nondegeneracy (numerical ranks of the stacked
products X·A and A·X); `_ref_mult_tensor` is the multiplication table as a
loop over matrix units; `_ref_extract` and `_ref_map_matrix` are the
per-basis-matrix forms of the Wedderburn eigenspace check and of the split's
transform; `_ref_cesaro_limit` is the doubling-checkpoint
average that cesaro_limit took before its mean-ergodic projection;
`_ref_group_algebra` is C*(G) as group_algebra built it before it read
explicit irreps, by splitting the dual of C(G); `_ref_subgroups`,
`_ref_characters` and `_ref_spread_matrices` are the group-table searches
from before they read one breadth-first walk: the closure that multiplies
all pairs until nothing is new and the lattice built on it, the character
phases spread by their own search, and the irreps by another;
`_ref_is_state` is the chain of Hermitian, positive and trace predicates
that Functional.is_state ran before it compared its state_defects;
`_ref_idempotency_defect` is the dual norm of ω⋆ω − ω through one
convolution, as the idempotency kernel took it before it stacked its trace
norms; `_ref_decompose` is decompose's body with each state check,
idempotency defect and spectrum taken for one functional at a time, and
`_ref_enumerate_function_algebra` the enumeration that validated each
subgroup's own table and wrote each covector entry by entry, and
`_ref_enumerate_group_algebra` the one all-pairs solve over every subgroup's
cosets;
`_ref_tensor_functional` is f⊗g with its Kronecker density, as
TensorSplit.functional built it.
"""

import dataclasses
import itertools
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from quidem import (
    Functional,
    MultiMatrixAlgebra,
    cesaro_limit,
    cyclic,
    dihedral,
    function_algebra,
    group_algebra,
    kac_paljutkin,
    left_conv_operator,
    symmetric,
)
from quidem import groups, qgroup, wedderburn
from quidem.algebra import STATE_TOL, above_cutoff, is_central, polar_decompose, tensor_algebra
from quidem.catalogue import builtin
from quidem.convolution import _idempotency_defects, commutes_with_right_convolutions, convolve, idempotency_defect
from quidem.groups import GroupTable, characters
from quidem.idempotents import (
    _character_defect,
    _fmt_complex,
    _seminorm_sq,
    decompose,
    enumerate_function_algebra,
    enumerate_group_algebra,
    is_contractive_idempotent,
    is_haar_idempotent,
)
from quidem.qgroup import (
    FiniteQuantumGroup,
    _dual_regular_split,
    _star_residual,
    _structure_defects,
    closed_form_antipode,
    dual,
    dual_pair,
    plancherel_state,
    verify_axioms,
)
from quidem.tro import (
    LinkingAlgebra,
    OperatorSubspace,
    SchurExpectation,
    _chunks,
    _commutators,
    _linking_positivity,
    _tro_residuals,
    _worst_residual,
    build_expectation,
    check_tro_expectation,
    expectation_checks,
    image_subspace,
    invariance_defect,
    is_tro,
    linking_algebra,
)

from conftest import random_element, random_functional

AGREE = 1e-12
TOL = 1e-8
CP_FLOOR = -1e-9


# ---------------------------------------------------------------------------
# per-block primitives of the loop forms


def _norm(x):
    """Operator norm as one 2-norm per block."""
    return max(float(np.linalg.norm(b, 2)) for b in x.blocks)


def ref_max_operator_norm(alg, x):
    """Largest operator norm over a stack as one 2-norm per block of every
    vec, NaN propagating.  On 1×1 blocks it is np.abs of the block, as the
    kernel has always taken it (LAPACK's and the scalar abs's moduli can
    differ from it in the last bit)."""
    x = np.asarray(x).reshape(-1, alg.dim)
    return float(np.max([np.abs(b).max() if b.shape == (1, 1) else np.linalg.norm(b, 2)
                         for v in x for b in alg.split(v)], initial=0.0))


def ref_operator_norms_max(alg, x):
    """The kernel's earlier form: every block's singular values from one
    batched SVD per block size, the operator norm of each vec, their max."""
    return float(np.max([s[..., 0].max(axis=-1) for s in alg.singular_values(x)], axis=0).max(initial=0.0))


def _residual(X, x):
    """Hilbert-Schmidt distance from x to its trace-orthogonal projection on X."""
    v = x.vec
    return float(np.linalg.norm(v - X.matrix @ (X.matrix.conj().T @ v)))


def _unit_index(alg, block, row, col):
    """Vec index of the matrix unit e^(block)_{row,col} of alg."""
    return alg.offsets[block] + row * alg.block_dims[block] + col


def _ref_mult_tensor(alg):
    dim = alg.dim
    ms = np.zeros((dim, dim, dim))
    for k, n in enumerate(alg.block_dims):
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    ms[_unit_index(alg, k, i, l), _unit_index(alg, k, i, j), _unit_index(alg, k, j, l)] = 1.0
    return ms


def _ref_numerical_rank(mat, rtol=1e-8):
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def _ref_rank_deficit(X):
    """dim A minus the smaller numerical rank of the stacked products x·e_a
    and e_a·x over the basis of X and the matrix units of A."""
    alg = X.algebra
    ms = _ref_mult_tensor(alg)
    right = np.einsum("oab,ia->ibo", ms, X.matrix.T).reshape(-1, alg.dim)
    left = np.einsum("oab,ib->iao", ms, X.matrix.T).reshape(-1, alg.dim)
    return alg.dim - min(_ref_numerical_rank(right), _ref_numerical_rank(left))


def _ref_transpose_perm(alg):
    perm = np.empty(alg.dim, dtype=np.intp)
    for k, n in enumerate(alg.block_dims):
        for i in range(n):
            for j in range(n):
                perm[_unit_index(alg, k, i, j)] = _unit_index(alg, k, j, i)
    return perm


def _ref_image_subspace(matrix, algebra):
    u, s, _ = np.linalg.svd(matrix)
    keep = int(np.sum(s > 1e-10 * s[0]))
    return OperatorSubspace(algebra, u[:, :keep])


def _ref_left_mult_matrix(a):
    alg = a.algebra
    out = np.zeros((alg.dim, alg.dim), dtype=np.complex128)
    pos = 0
    for block, n in zip(a.blocks, alg.block_dims):
        out[pos: pos + n * n, pos: pos + n * n] = np.kron(block, np.eye(n))
        pos += n * n
    return out


def _ref_right_mult_matrix(a):
    alg = a.algebra
    out = np.zeros((alg.dim, alg.dim), dtype=np.complex128)
    pos = 0
    for block, n in zip(a.blocks, alg.block_dims):
        out[pos: pos + n * n, pos: pos + n * n] = np.kron(np.eye(n), block.T)
        pos += n * n
    return out


def _ref_tensor_functional(ts, f, g):
    """f⊗g on the product algebra of the TensorSplit ts, (f⊗g)(x⊗y) =
    f(x) g(y): its density is the blockwise Kronecker product of theirs."""
    return Functional(ts.algebra, ts.algebra.from_vec(ts.scatter(f.density.vec, g.density.vec)))


def _ref_tensor_element(ts, a, b):
    """a⊗b in the product algebra of the TensorSplit ts, from the Kronecker coordinates."""
    return ts.algebra.from_vec(ts.scatter(a.vec, b.vec))


def _ref_m2(alg):
    """M₂(A) = M₂⊗A: positions[(2i + j)·dim + a] is the vec index of e_ij⊗e_a."""
    return tensor_algebra(MultiMatrixAlgebra((2,)), alg)


def _ref_entry_indices(m2, i, j):
    """Vec indices in M₂(A) of entry (i, j)."""
    dim = m2.right.dim
    return m2.positions[(2 * i + j) * dim + np.arange(dim)]


def _ref_schur_matrix(E):
    """The dense (4·dim)² matrix on M₂(A) of the entrywise map E."""
    m2 = _ref_m2(E.group.algebra)
    out = np.zeros((m2.algebra.dim, m2.algebra.dim), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            idx = _ref_entry_indices(m2, i, j)
            out[np.ix_(idx, idx)] = E.entries[i][j]
    return out


def _ref_embedded_basis(link):
    m2 = _ref_m2(link.tro.algebra)

    def embed(i, j, x):
        out = np.zeros(m2.algebra.dim, dtype=np.complex128)
        out[_ref_entry_indices(m2, i, j)] = x.vec
        return out

    out = [embed(0, 0, x) for x in link.left.basis]
    out += [embed(0, 1, x) for x in link.tro.basis]
    out += [embed(1, 0, x.adjoint()) for x in link.tro.basis]
    out += [embed(1, 1, x) for x in link.right.basis]
    return out


# ---------------------------------------------------------------------------
# loop forms


def ref_verify_axioms(G):
    A, AA, ts = G.algebra, G.ts.algebra, G.ts
    dim = A.dim
    basis = A.basis()
    images = [AA.from_vec(G.comult[:, i]) for i in range(dim)]
    star = _ref_transpose_perm(A)
    defects = {}

    one_tensor_one = _ref_tensor_element(ts, A.identity(), A.identity())
    defects["comult_unital"] = _norm(AA.from_vec(G.comult @ A.identity().vec) - one_tensor_one)

    hom = 0.0
    for i in range(dim):
        for j in range(dim):
            prod_vec = (basis[i] * basis[j]).vec
            lhs = AA.from_vec(G.comult @ prod_vec)
            hom = max(hom, _norm(lhs - images[i] * images[j]))
    defects["comult_homomorphism"] = hom

    star_def = 0.0
    for i in range(dim):
        star_vec = np.zeros(dim, dtype=np.complex128)
        star_vec[star[i]] = 1.0  # vec(e_i*)
        lhs = AA.from_vec(G.comult @ star_vec)
        star_def = max(star_def, _norm(lhs - images[i].adjoint()))
    defects["comult_star"] = star_def

    d3 = G.d3
    left4 = np.einsum("ijm,mkc->ijkc", d3, d3)
    right4 = np.einsum("jkm,imc->ijkc", d3, d3)
    diff = left4 - right4
    t3 = tensor_algebra(AA, A)
    pos3 = t3.positions.reshape(AA.dim, dim)[G.pos_matrix, :]
    coassoc = 0.0
    for c in range(dim):
        vec3 = np.zeros(t3.algebra.dim, dtype=np.complex128)
        vec3[pos3] = diff[:, :, :, c]
        coassoc = max(coassoc, _norm(t3.algebra.from_vec(vec3)))
    defects["coassociativity"] = coassoc

    ce = G.counit.covector
    left_counit = np.einsum("i,ijc->jc", ce, d3)
    right_counit = np.einsum("j,ijc->ic", ce, d3)
    ident = np.eye(dim)
    defects["counit_left"] = max(
        _norm(A.from_vec(left_counit[:, c] - ident[:, c])) for c in range(dim)
    )
    defects["counit_right"] = max(
        _norm(A.from_vec(right_counit[:, c] - ident[:, c])) for c in range(dim)
    )

    ms = _ref_mult_tensor(A)
    s_mat = G.antipode
    lhs_left = np.einsum("ijc,ki,okj->oc", d3, s_mat, ms)
    lhs_right = np.einsum("ijc,kj,oik->oc", d3, s_mat, ms)
    rhs = np.einsum("c,o->oc", ce, G.algebra.identity().vec)
    defects["antipode_left"] = max(
        _norm(A.from_vec(lhs_left[:, c] - rhs[:, c])) for c in range(dim)
    )
    defects["antipode_right"] = max(
        _norm(A.from_vec(lhs_right[:, c] - rhs[:, c])) for c in range(dim)
    )
    defects["antipode_involutive"] = max(
        _norm(A.from_vec((s_mat @ s_mat - ident)[:, c])) for c in range(dim)
    )
    star_mat = np.zeros((dim, dim))
    star_mat[star, np.arange(dim)] = 1.0
    anti_star = s_mat @ star_mat - star_mat @ np.conj(s_mat)
    defects["antipode_star"] = max(
        _norm(A.from_vec(anti_star[:, c])) for c in range(dim)
    )

    d_h = G.haar.density
    herm = _norm(d_h - d_h.adjoint())
    eig_min = min(
        np.linalg.eigvalsh((b + b.conj().T) / 2).min() for b in d_h.blocks
    )
    defects["haar_positive"] = max(herm, max(0.0, -float(eig_min)))
    defects["haar_trace_one"] = abs(d_h.trace - 1.0)
    ch = G.haar.covector
    left_h = np.einsum("i,ijc->jc", ch, d3)
    right_h = np.einsum("j,ijc->ic", ch, d3)
    defects["haar_left_invariant"] = max(
        _norm(A.from_vec(left_h[:, c] - ch[c] * G.algebra.identity().vec)) for c in range(dim)
    )
    defects["haar_right_invariant"] = max(
        _norm(A.from_vec(right_h[:, c] - ch[c] * G.algebra.identity().vec)) for c in range(dim)
    )

    # T₁(x⊗y) = Δ(x)(1⊗y) applied to T₁⁻¹(e_c⊗1) = Σ c₍₁₎⊗S(c₍₂₎), and
    # T₂(x⊗y) = (x⊗1)Δ(y) applied to T₂⁻¹(1⊗e_c) = Σ S(c₍₁₎)⊗c₍₂₎
    one = A.identity()
    antipodes = [A.from_vec(s_mat[:, j]) for j in range(dim)]
    left, right = 0.0, 0.0
    for c in range(dim):
        t1 = -_ref_tensor_element(ts, basis[c], one)
        t2 = -_ref_tensor_element(ts, one, basis[c])
        for i in range(dim):
            for j in range(dim):
                t1 = t1 + d3[i, j, c] * (images[i] * _ref_tensor_element(ts, one, antipodes[j]))
                t2 = t2 + d3[i, j, c] * (_ref_tensor_element(ts, antipodes[i], one) * images[j])
        left, right = max(left, _norm(t1)), max(right, _norm(t2))
    defects["cancellation_left"] = left
    defects["cancellation_right"] = right
    return defects


def _ref_solve_antipode(algebra, comult, counit, tol=1e-9):
    """The antipode as the solution of m(S⊗id)Δ = ε(·)1 = m(id⊗S)Δ, one
    2·dim² × dim² least-squares system."""
    dim = algebra.dim
    ts = tensor_algebra(algebra, algebra)
    d3 = comult[ts.positions.reshape(dim, dim), :]
    ms = _ref_mult_tensor(algebra)
    c1 = np.einsum("ijc,okj->coki", d3, ms).reshape(dim * dim, dim * dim)
    c2 = np.einsum("ijc,oik->cokj", d3, ms).reshape(dim * dim, dim * dim)
    rhs = np.einsum("c,o->co", counit.covector, algebra.identity().vec).reshape(dim * dim)
    a = np.vstack([c1, c2])
    b = np.concatenate([rhs, rhs])
    flat, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.abs(a @ flat - b).max())
    if residual > tol:
        raise ValueError(f"antipode solve failed (residual {residual:.2e})")
    return flat.reshape(dim, dim)


def _ref_solve_invariant(homogeneous, normal, tol, what):
    """The unique x with homogeneous @ x = 0 and normal @ x = 1: the
    homogeneous system must have a one-dimensional kernel (SVD rank test at
    the relative cutoff 1e-8), then the normalized system is solved by least
    squares."""
    svals = np.linalg.svd(homogeneous, compute_uv=False)
    if np.sum(svals > 1e-8 * max(1.0, svals[0])) != homogeneous.shape[1] - 1:
        raise ValueError(f"{what} is not unique; not a quantum group structure")
    a = np.vstack([homogeneous, normal[np.newaxis, :]])
    b = np.zeros(a.shape[0], dtype=np.complex128)
    b[-1] = 1.0
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.abs(a @ x - b).max())
    if residual > tol:
        raise ValueError(f"{what} solve failed (residual {residual:.2e})")
    return x


def _ref_solve_haar_state(algebra, comult, tol=1e-9):
    """The unique state with (ω⊗id)Δ = ω(·)1 = (id⊗ω)Δ, solved as a linear
    system."""
    dim = algebra.dim
    d3 = comult[tensor_algebra(algebra, algebra).positions.reshape(dim, dim), :]
    one = algebra.identity().vec
    units = np.einsum("j,ci->jci", one, np.eye(dim))   # [j, c, i] = 1_j δ_ci, on both sides
    rows_l = (np.transpose(d3, (1, 2, 0)) - units).reshape(dim * dim, dim)
    rows_r = (np.transpose(d3, (0, 2, 1)) - units).reshape(dim * dim, dim)
    cov = _ref_solve_invariant(np.vstack([rows_l, rows_r]), one, tol, "Haar state")
    return Functional.from_covector(algebra, cov)


def _ref_solve_dual_haar(G):
    """Vector eta with dual-Haar(f) = covector(f)·eta, from the invariance
    equations of the dual comultiplication f ↦ f∘m."""
    dim = G.dim
    ms = _ref_mult_tensor(G.algebra)
    ce = G.counit.covector
    counits = np.einsum("j,ik->ijk", ce, np.eye(dim)).reshape(dim * dim, dim)   # ε_j δ_ik, on both sides
    rows_r = ms.reshape(dim * dim, dim) - counits
    rows_l = np.transpose(ms, (0, 2, 1)).reshape(dim * dim, dim) - counits
    return _ref_solve_invariant(np.vstack([rows_r, rows_l]), ce, 1e-9, "dual Haar state")


def _ref_cancellation_rank_deficits(G):
    """dim(A⊗A) minus the numerical rank of the spans Δ(A)(A⊗1) and
    Δ(A)(1⊗A), the earlier cancellation rows."""
    A, AA, ts = G.algebra, G.ts.algebra, G.ts
    dim = A.dim
    images = G.comult.T
    one = A.identity().vec
    legs = ts.positions.reshape(dim, dim)
    deficits = []
    for side in (legs, legs.T):
        factors = np.zeros((dim, AA.dim), dtype=np.complex128)
        factors[:, side] = np.eye(dim)[:, :, None] * one   # e_j ⊗ 1, or 1 ⊗ e_j
        rows = AA.multiply(images[:, None, :], factors[None, :, :]).reshape(dim * dim, AA.dim)
        deficits.append(float(AA.dim - _ref_numerical_rank(rows)))
    return deficits


def ref_is_tro(X, tol):
    basis = X.basis
    for x in basis:
        for y in basis:
            ystar = y.adjoint()
            for z in basis:
                if _residual(X, x * ystar * z) > tol:
                    return False
    return True


def ref_check_tro_expectation(G, omega, tol):
    parts = polar_decompose(omega)
    alg = G.algebra
    lw = G.left_matrix(omega.covector)
    lr = G.left_matrix(parts.abs_r.covector)
    ll = G.left_matrix(parts.abs_l.covector)
    basis = alg.basis()
    p_img = [alg.from_vec(lw[:, i]) for i in range(G.dim)]
    qr_img = [alg.from_vec(lr[:, i]) for i in range(G.dim)]
    ql_img = [alg.from_vec(ll[:, i]) for i in range(G.dim)]

    def lmap(mat, x):
        return alg.from_vec(mat @ x.vec)

    res = {"left_absorb": 0.0, "left_adjoint_absorb": 0.0, "right_absorb": 0.0, "right_adjoint_absorb": 0.0}
    for i in range(G.dim):
        pa = p_img[i]
        pa_star = pa.adjoint()
        for j in range(G.dim):
            b = basis[j]
            res["left_absorb"] = max(
                res["left_absorb"], _norm(lmap(lw, pa * b) - pa * ql_img[j])
            )
            res["left_adjoint_absorb"] = max(
                res["left_adjoint_absorb"], _norm(lmap(ll, pa_star * b) - pa_star * p_img[j])
            )
            res["right_absorb"] = max(
                res["right_absorb"], _norm(lmap(lw, b * p_img[i]) - qr_img[j] * p_img[i])
            )
            res["right_adjoint_absorb"] = max(
                res["right_adjoint_absorb"],
                _norm(lmap(lr, b * pa_star) - p_img[j] * pa_star),
            )

    image = _ref_image_subspace(lw, alg)
    xb = image.basis
    exp_res = {"expect_right_pair": 0.0, "expect_middle": 0.0, "expect_left_pair": 0.0}
    for a in basis:
        pa = lmap(lw, a)
        for x in xb:
            xs = x.adjoint()
            for y in xb:
                exp_res["expect_right_pair"] = max(
                    exp_res["expect_right_pair"],
                    _norm(lmap(lw, a * xs * y) - pa * xs * y),
                )
                exp_res["expect_middle"] = max(
                    exp_res["expect_middle"],
                    _norm(lmap(lw, x * a.adjoint() * y) - x * pa.adjoint() * y),
                )
                exp_res["expect_left_pair"] = max(
                    exp_res["expect_left_pair"],
                    _norm(lmap(lw, x * y.adjoint() * a) - x * y.adjoint() * pa),
                )
    return res, exp_res, ref_is_tro(image, tol)


def ref_triple_product_identities(G, omega):
    alg = G.algebra
    lw = G.left_matrix(omega.covector)
    basis = alg.basis()
    imgs = [alg.from_vec(lw[:, i]) for i in range(G.dim)]

    def lmap(x):
        return alg.from_vec(lw @ x.vec)

    worst = {"first": 0.0, "second": 0.0, "third": 0.0}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            pbs = imgs[j].adjoint()
            for k, c in enumerate(basis):
                direct = imgs[i] * pbs * imgs[k]
                worst["first"] = max(worst["first"], _norm(lmap(imgs[i] * pbs * c) - direct))
                worst["second"] = max(worst["second"], _norm(lmap(imgs[i] * b.adjoint() * imgs[k]) - direct))
                worst["third"] = max(worst["third"], _norm(lmap(a * pbs * imgs[k]) - direct))
    return worst


def ref_identity_residuals(alg, lw, lr, ll, xb=None):
    """The mixed-product residuals of ref_check_tro_expectation for any maps
    P = lw, Q_r = lr and Q_l = ll: x = P(a) runs over the rows of xb, or over
    all P(e_i) when xb is None (the all-pairs form)."""
    basis = alg.basis()
    p_img, qr_img, ql_img = ([alg.from_vec(m[:, i]) for i in range(alg.dim)] for m in (lw, lr, ll))
    xs = p_img if xb is None else [alg.from_vec(v) for v in xb]

    def lmap(mat, x):
        return alg.from_vec(mat @ x.vec)

    res = {"left_absorb": 0.0, "left_adjoint_absorb": 0.0, "right_absorb": 0.0, "right_adjoint_absorb": 0.0}
    for pa in xs:
        pa_star = pa.adjoint()
        for j, b in enumerate(basis):
            for name, value in (
                ("left_absorb", lmap(lw, pa * b) - pa * ql_img[j]),
                ("left_adjoint_absorb", lmap(ll, pa_star * b) - pa_star * p_img[j]),
                ("right_absorb", lmap(lw, b * pa) - qr_img[j] * pa),
                ("right_adjoint_absorb", lmap(lr, b * pa_star) - p_img[j] * pa_star),
            ):
                res[name] = max(res[name], _norm(value))
    return res


def ref_expectation_residuals(alg, lw, xb, left=None, right=None):
    """The TRO-expectation residuals of ref_check_tro_expectation for any
    map P = lw and any image basis, given as the rows of xb.  With left and
    right (rows of bases of ⟨XX*⟩ and ⟨X*X⟩) the outer two run over c in
    those bases, P(c a) = c P(a) and P(a c) = P(a) c; without them, over all
    pairs c = x y* and c = x*y (the all-pairs form)."""
    xs = [alg.from_vec(v) for v in xb]
    if left is None:
        left = [x * y.adjoint() for x in xs for y in xs]
        right = [x.adjoint() * y for x in xs for y in xs]
    else:
        left, right = ([alg.from_vec(v) for v in rows] for rows in (left, right))

    def lmap(x):
        return alg.from_vec(lw @ x.vec)

    res = {"expect_right_pair": 0.0, "expect_middle": 0.0, "expect_left_pair": 0.0}
    for a in alg.basis():
        pa = lmap(a)
        for c in right:
            res["expect_right_pair"] = max(res["expect_right_pair"], _norm(lmap(a * c) - pa * c))
        for x in xs:
            for y in xs:
                res["expect_middle"] = max(res["expect_middle"],
                                           _norm(lmap(x * a.adjoint() * y) - x * pa.adjoint() * y))
        for c in left:
            res["expect_left_pair"] = max(res["expect_left_pair"], _norm(lmap(c * a) - c * pa))
    return res


def ref_triple_residuals(alg, lw, left=None, right=None):
    """ref_triple_product_identities for any map P = lw.  With left and right
    (rows of bases of the spans of P(e_i)P(e_j)* and P(e_i)*P(e_j)) the first
    and third forms run over c in those bases, as P(c e_k) − c P(e_k) and
    P(e_i c) − P(e_i) c."""
    if left is not None:
        res = ref_expectation_residuals(alg, lw, lw.T, left, right)
        return {"first": res["expect_left_pair"], "second": res["expect_middle"], "third": res["expect_right_pair"]}
    basis = alg.basis()
    imgs = [alg.from_vec(lw[:, i]) for i in range(alg.dim)]

    def lmap(x):
        return alg.from_vec(lw @ x.vec)

    worst = {"first": 0.0, "second": 0.0, "third": 0.0}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            pbs = imgs[j].adjoint()
            for k, c in enumerate(basis):
                direct = imgs[i] * pbs * imgs[k]
                for name, lhs in (
                    ("first", imgs[i] * pbs * c),
                    ("second", imgs[i] * b.adjoint() * imgs[k]),
                    ("third", a * pbs * imgs[k]),
                ):
                    worst[name] = max(worst[name], _norm(lmap(lhs) - direct))
    return worst


def _ref_multiplicative_defect(link):
    """Largest residual of a product (or adjoint) of basis elements of the
    2×2 array against its span, corner by corner: in M₂(A) (e_ij⊗x)(e_kl⊗y)
    is e_il⊗xy for j = k and exactly 0 otherwise, and (e_ij⊗x)* = e_ji⊗x*, so
    corner(i,j)·corner(j,l) is checked against the span of corner(i,l) and
    the adjoints of corner(i,j) against that of corner(j,i).  The corner
    bases are orthonormal."""
    A, corners = link.tro.algebra, link.corners()
    spans = {c: OperatorSubspace(A, rows.T) for c, rows in corners.items()}
    worst = max(_worst_residual(spans[j, i], A.adjoint(rows)) for (i, j), rows in corners.items())
    for (i, j), rows in corners.items():
        for l in (0, 1):
            worst = max(worst, _worst_residual(spans[i, l], A.multiply(rows[:, None], corners[j, l])))
    return worst


def ref_bimodule(E, B):
    amb = _ref_m2(B.tro.algebra).algebra
    mat = _ref_schur_matrix(E)
    basis_b = _ref_embedded_basis(B)
    elems_b = [amb.from_vec(v) for v in basis_b]
    lmults = [_ref_left_mult_matrix(b) for b in elems_b]
    rmults = [_ref_right_mult_matrix(b) for b in elems_b]
    bimodule = 0.0
    e_after_l = [mat @ lm for lm in lmults]
    r_after_e = [rm @ mat for rm in rmults]
    for i, lm in enumerate(lmults):
        for j, rm in enumerate(rmults):
            defect = np.linalg.norm(e_after_l[i] @ rm - lm @ r_after_e[j])
            bimodule = max(bimodule, float(defect))
    return bimodule


def ref_module(E, B):
    """Largest Frobenius norm of E L_b − L_b E and of E R_b − R_b E over the
    embedded basis elements b of B, on the dense matrices of M₂(A)."""
    amb = _ref_m2(B.tro.algebra).algebra
    mat = _ref_schur_matrix(E)
    module = 0.0
    for v in _ref_embedded_basis(B):
        b = amb.from_vec(v)
        for mult in (_ref_left_mult_matrix(b), _ref_right_mult_matrix(b)):
            module = max(module, float(np.linalg.norm(mat @ mult - mult @ mat)))
    return module


def ref_expectation_idempotent(E):
    mat = _ref_schur_matrix(E)
    return float(np.linalg.norm(mat @ mat - mat, 2))


def ref_fixes_subalgebra(E, B):
    mat = _ref_schur_matrix(E)
    basis_b = np.array(_ref_embedded_basis(B))
    return float(np.linalg.norm(basis_b @ mat.T - basis_b, axis=-1).max(initial=0.0))


def ref_choi_min_eigenvalue(E):
    amb = _ref_m2(E.group.algebra).algebra
    sizes = amb.block_dims
    n_total = sum(sizes)
    mat = _ref_schur_matrix(E)
    choi = np.zeros((n_total * n_total, n_total * n_total), dtype=np.complex128)
    start = 0
    for k, n in enumerate(sizes):
        for p in range(n):
            for q in range(n):
                unit = np.zeros(amb.dim, dtype=np.complex128)
                unit[_unit_index(amb, k, p, q)] = 1.0
                image = amb.split(mat @ unit)
                out = np.zeros((n_total, n_total), dtype=np.complex128)
                pos = 0
                for kk, nn in enumerate(sizes):
                    out[pos: pos + nn, pos: pos + nn] = image[kk]
                    pos += nn
                row, col = start + p, start + q
                choi[row * n_total:(row + 1) * n_total,
                     col * n_total:(col + 1) * n_total] += out
        start += n
    herm_defect = float(np.linalg.norm(choi - choi.conj().T, 2)) / 2
    eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    return float(eigs.min()) - herm_defect


def ref_character_defect(G, omega, sub, u):
    """max over the basis of |ω(e_i) − h_H(π(e_i)u)|, one product per e_i."""
    H = sub.target
    worst = 0.0
    for x in G.algebra.basis():
        px = H.algebra.from_vec(sub.projection @ x.vec)
        prod = H.algebra.element([a @ b for a, b in zip(px.blocks, u.blocks)])
        worst = max(worst, abs(omega(x) - H.haar(prod)))
    return worst


def ref_right_convolution_defect(G, matrix):
    """max_j ‖T R_j − R_j T‖ over the right convolution operators R_j of
    the dual basis; commutes_with_right_convolutions holds iff it is ≤ tol."""
    d3 = G.d3
    return max(
        float(np.linalg.norm(matrix @ d3[:, j, :] - d3[:, j, :] @ matrix, 2)) for j in range(G.dim)
    )


def ref_star_residual(msharp, lt):
    dim = len(lt)
    return max(
        float(np.linalg.norm(sum(msharp[a, b] * lt[a] for a in range(dim)) - lt[b].conj().T, 2))
        for b in range(dim)
    )


def _ref_map_matrix(split, left_mults):
    """BlockSplit.map_matrix as one column per basis matrix."""
    dim = len(left_mults)
    total = sum(d * d for d in split.block_dims)
    phi = np.empty((total, dim), dtype=np.complex128)
    for b, lb in enumerate(left_mults):
        chunks = [(q.conj().T @ lb @ q).ravel() for q in split.isometries]
        phi[:, b] = np.concatenate(chunks)
    return phi


def _ref_extract(left_mults, v, clusters, n):
    """wedderburn._extract with one 2-norm and one trace per basis matrix."""
    reps = []
    for idx in clusters:
        q = v[:, idx]
        residual = max(
            float(np.linalg.norm(lb @ q - q @ (q.conj().T @ lb @ q), 2)) for lb in left_mults
        )
        if residual > TOL:
            raise wedderburn._SplitFailure(f"cluster is not an invariant subspace (residual {residual:.2e})")
        char = np.array([np.trace(q.conj().T @ lb @ q) for lb in left_mults])
        reps.append((q, char))
    classes: list[list] = []
    for q, char in reps:
        for cls in classes:
            if np.linalg.norm(cls[0][1] - char) <= wedderburn._CLUSTER_GAP * max(1.0, np.linalg.norm(char)):
                cls.append((q, char))
                break
        else:
            classes.append([(q, char)])
    dims = [cls[0][0].shape[1] for cls in classes]
    for cls, d in zip(classes, dims):
        if any(q.shape[1] != d for q, _ in cls):
            raise wedderburn._SplitFailure("inconsistent dimensions inside a character class")
        if len(cls) != d:
            raise wedderburn._SplitFailure("multiplicity does not match dimension (accidental degeneracy)")
    if sum(d * d for d in dims) != n:
        raise wedderburn._SplitFailure(f"block dimensions {dims} do not fill dimension {n}")
    order = sorted(
        range(len(classes)),
        key=lambda i: (
            dims[i],
            tuple(zip(np.round(classes[i][0][1].real, 8), np.round(classes[i][0][1].imag, 8))),
        ),
    )
    return wedderburn.BlockSplit(
        block_dims=tuple(dims[i] for i in order),
        isometries=[classes[i][0][0] for i in order],
    )


# ---------------------------------------------------------------------------
# inputs


def _kp_corner_seed(kp, corner):
    """The state that splits the counit with one corner of the 2×2 block."""
    blocks = [np.zeros((n, n)) for n in kp.algebra.block_dims]
    blocks[0] = np.eye(1) / 2
    blocks[4] = np.diag(corner) / 2
    return Functional(kp.algebra, kp.algebra.element(blocks))


def _kp_block_seeds(kp):
    """The states spread evenly over one block each."""
    out = []
    for block, n in enumerate(kp.algebra.block_dims):
        blocks = [np.zeros((m, m)) for m in kp.algebra.block_dims]
        blocks[block] = np.eye(n) / n
        out.append(Functional(kp.algebra, kp.algebra.element(blocks)))
    return out


def _kp_non_haar_state(kp, corner=(1.0, 0.0)):
    """The Cesàro limit of a corner seed."""
    return cesaro_limit(kp, _kp_corner_seed(kp, corner), tol=1e-9, max_iter=10_000).limit


def _cases(name):
    """(group, contractive idempotents) for each group of the comparison: all
    of C(Z4); on C(S3) and C*(D4) one item per kind of subgroup, Haar and
    non-Haar; on KP the counit, the Haar state and a non-Haar idempotent
    state."""
    if name == "C(Z4)":
        G = function_algebra(cyclic(4))
        return G, [item.functional for item in enumerate_function_algebra(G)]
    if name == "C(S3)":
        G = function_algebra(symmetric(3))
        items = enumerate_function_algebra(G)   # {e}, Z2 sign, Z3, S3 sign
        return G, [items[k].functional for k in (0, 1, 7, 10)]
    if name == "C*(D4)":
        G = group_algebra(dihedral(4))
        items = enumerate_group_algebra(G)      # {e}, centre, reflection (non-Haar), Z4, D4
        return G, [items[k].functional for k in (0, 8, 12, 28, 34)]
    G = kac_paljutkin()
    return G, [G.counit, G.haar, _kp_non_haar_state(G)]


GROUPS = ["C(Z4)", "C(S3)", "C*(D4)", "KP"]


@pytest.fixture(scope="module", params=GROUPS)
def case(request):
    return _cases(request.param)


def _gaussian(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2 * shape[-1])


def _assert_agree(got: dict, want: dict, tol: float):
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= AGREE, (key, got[key], want[key])
        assert (got[key] <= tol) == (want[key] <= tol), key


def _broken(G):
    comult = G.comult.copy()
    comult[:, 1] = 1.01 * comult[:, 1] + 1e-3 * comult[:, 0]
    return FiniteQuantumGroup(
        algebra=G.algebra, comult=comult, counit=G.counit, antipode=G.antipode, haar=G.haar,
    )


def test_verify_axioms_matches_loop_form(case):
    G, _ = case
    for H in (G, _broken(G)):
        report = verify_axioms(H, 1e-9)
        want = ref_verify_axioms(H)
        _assert_agree(report.defects, want, 1e-9)
        assert report.passed == all(v <= 1e-9 for v in want.values())
    assert verify_axioms(G, 1e-9).passed
    assert not verify_axioms(_broken(G), 1e-9).passed


BUILTINS_TO_DIM_24 = (
    [f"czn:{n}" for n in range(1, 25)] + [f"cstar:zn:{n}" for n in range(1, 25)]
    + [f"cstar:dn:{n}" for n in range(1, 13)] + [f"cfun:sn:{n}" for n in range(1, 5)]
    + [f"cstar:sn:{n}" for n in range(1, 5)] + ["kp"]
)


@pytest.mark.parametrize("spec", BUILTINS_TO_DIM_24)
def test_stacked_convolution_is_convolve_cov(spec):
    """The one einsum of _idempotency_defects over a stack of covectors c
    is, byte for byte, the covector of convolve(G, ω, ω) of each, and the
    defects the kernel returns are those of the per-functional route: the
    enumerated items (on KP the counit and the Haar state) and two random
    functionals."""
    G = builtin(spec)
    A, rng = G.algebra, np.random.default_rng(G.dim)
    if G.kind == "kp":
        functionals = [G.counit, G.haar]
    else:
        functionals = [item.functional for item in (enumerate_group_algebra if G.kind == "group"
                                                     else enumerate_function_algebra)(G)]
    functionals += [Functional.from_covector(A, rng.standard_normal(G.dim) + 1j * rng.standard_normal(G.dim))
                    for _ in range(2)]
    c = np.array([f.covector for f in functionals])
    stacked = np.einsum("ki,kj,ijc->kc", c, c, G.d3)
    assert stacked.tobytes() == np.array([convolve(G, f, f).covector for f in functionals]).tobytes()
    assert _idempotency_defects(G, functionals) == [
        A.trace_norms((convolve(G, f, f).density.vec - f.density.vec)[None])[0] for f in functionals]


def _ref_group_algebra(table):
    """C*(G) the way group_algebra built it before it read explicit irreps:
    verify C(G), split its dual's regular representation, and record the
    transform as lambda_basis."""
    gd, phi = dual_pair(function_algebra(table))
    return replace(gd, kind="group", table=table, lambda_basis=phi)


_TABLES = {"zn": cyclic, "dn": dihedral, "sn": symmetric}


def _table(spec):
    family, n = spec.split(":")[1:]
    return _TABLES[family](int(n))


def _block_characters(G):
    """(block size, trace of that block of λ_g over g) for every block."""
    alg, lam = G.algebra, G.lambda_basis
    return [(n, sum(lam[_unit_index(alg, k, i, i)] for i in range(n))) for k, n in enumerate(alg.block_dims)]


def _haar_split(G):
    """(items, Haar items) of the enumeration: an item is Haar when the
    support of |ω|_r is central, the rule of decompose."""
    items = enumerate_group_algebra(G)
    return len(items), sum(is_haar_idempotent(G, item.functional.polar.abs_r) for item in items)


@pytest.mark.parametrize("spec", [spec for spec in BUILTINS_TO_DIM_24 if spec.startswith("cstar:")])
def test_group_algebra_from_irreps_matches_the_dual_split(spec):
    """The group algebra built from explicit irreps and the one split from
    the dual of C(G) have the same block sizes, the same character table up
    to a permutation of equal-size blocks, the same enumeration with the
    same Haar items, and the new build passes every axiom row within 1e-12."""
    table = _table(spec)
    G, ref = builtin(spec), _ref_group_algebra(table)
    assert G.algebra.block_dims == tuple(sorted(ref.algebra.block_dims))
    unmatched = _block_characters(ref)
    for n, chi in _block_characters(G):
        match = next(k for k, (m, psi) in enumerate(unmatched) if m == n and np.abs(chi - psi).max() <= 1e-12)
        unmatched.pop(match)
    assert not unmatched
    assert _haar_split(G) == _haar_split(ref)
    assert verify_axioms(G).max_defect <= 1e-12


def _rotated(table, delta):
    """The irreps of a dihedral table with each rotation angle 2πj/n moved by
    delta: r^n no longer maps to 1."""
    n = table.order // 2
    out = list(table.irreps[:len(table.irreps) - (n - 1) // 2])
    i, flip = np.tile(np.arange(n), 2), np.repeat([1.0, -1.0], n)
    for j in range(1, (n - 1) // 2 + 1):
        angle = 2 * np.pi * (j * i % n) / n + delta * i
        c, s = np.cos(angle), np.sin(angle)
        out.append(np.stack([np.stack([c, -s * flip], axis=-1), np.stack([s, c * flip], axis=-1)], axis=-2))
    return tuple(out)


def test_group_algebra_guard_rejects_a_perturbed_rotation():
    """Rotations by 2πj/5 + 1e-6 on D5 are unitary but not multiplicative,
    and the guard names the failure; at delta 0 they rebuild C*(D5)."""
    table = dihedral(5)
    assert np.array_equal(group_algebra(replace(table, irreps=_rotated(table, 0.0))).comult,
                          group_algebra(table).comult)
    with pytest.raises(ValueError, match="^irreps are not multiplicative"):
        group_algebra(replace(table, irreps=_rotated(table, 1e-6)))


def test_group_algebra_guard_rejects_a_non_unitary_irrep():
    """The rotations of D5 conjugated by a shear stay multiplicative and
    irreducible, but are not unitary, which the guard names."""
    table = dihedral(5)
    shear = np.array([[1.0, 0.5], [0.0, 1.0]])
    irreps = tuple(shear @ rho @ np.linalg.inv(shear) if rho.shape[1] == 2 else rho for rho in table.irreps)
    with pytest.raises(ValueError, match="^irreps are not unitary"):
        group_algebra(replace(table, irreps=irreps))


def test_group_algebra_guard_rejects_a_duplicated_irrep():
    """S3 with its sign character replaced by a second trivial one: each
    irrep is a unitary representation, the degrees still fill |G|, and Λ is
    singular, which the guard names."""
    table = symmetric(3)
    trivial, sign, standard = table.irreps
    with pytest.raises(ValueError, match="^irreps are not irreducible and pairwise inequivalent"):
        group_algebra(replace(table, irreps=(trivial, trivial, standard)))
    with pytest.raises(ValueError, match="^irreps do not fill C\\*\\(G\\)"):
        group_algebra(replace(table, irreps=(trivial, trivial, sign, standard)))


def test_group_algebra_requires_explicit_irreps():
    """A table without irreps, one written out by hand, is refused by name,
    pointing at the dual of C(G)."""
    for table in (_subgroup_table(symmetric(3), frozenset({0, 3, 4})), GroupTable(cyclic(4).mult)):
        assert table.irreps == ()
        with pytest.raises(ValueError, match="^group_algebra requires a table with explicit irreps.*"
                                             "dual\\(function_algebra\\(table\\)\\)"):
            group_algebra(table)


def _ref_closure(table, gens):
    elems = {table.identity, *gens}
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for c in (table.op(a, b), table.op(b, a)):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(elems)


def _ref_element_order(table, g):
    k, x = 1, g
    while x != table.identity:
        x = table.op(x, g)
        k += 1
    return k


def _ref_is_subgroup(table, subset):
    s = set(subset)
    return table.identity in s and all(table.op(a, b) in s for a in s for b in s)


def _ref_subgroups(table):
    cyclics = {_ref_closure(table, [g]) for g in range(table.order)}
    found = {frozenset({table.identity})} | cyclics
    frontier = list(cyclics)
    while frontier:
        joins = {_ref_closure(table, h | c) for h in frontier for c in cyclics if not c <= h}
        frontier = list(joins - found)
        found |= joins
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _ref_spread(table, gens, steps, lcm):
    phase = [None] * table.order
    phase[table.identity] = 0
    queue = [table.identity]
    for g in queue:
        for s, step in zip(gens, steps):
            h, p = table.mult[g][s], (phase[g] + step) % lcm
            if phase[h] is None:
                phase[h] = p
                queue.append(h)
            elif phase[h] != p:
                return None
    return phase


def _ref_characters(table):
    gens, span = [], {table.identity}
    for g in sorted(range(table.order), key=lambda g: _ref_element_order(table, g), reverse=True):
        if g not in span:
            gens.append(g)
            span = _ref_closure(table, gens)
    orders = [_ref_element_order(table, s) for s in gens]
    lcm = math.lcm(*orders)
    phases = []
    for ks in itertools.product(*(range(o) for o in orders)):
        phase = _ref_spread(table, gens, [k * (lcm // o) for k, o in zip(ks, orders)], lcm)
        if phase is not None:
            phases.append(phase)
    denominators = [math.lcm(*(lcm // math.gcd(p[g], lcm) for p in phases)) for g in range(table.order)]
    chars = [
        np.array([complex(np.exp(2j * np.pi * (p[g] * m // lcm) / m)) for g, m in enumerate(denominators)])
        for p in phases
    ]
    chars.sort(key=lambda c: tuple(zip(np.round(c.real, 9), np.round(c.imag, 9))))
    return chars


def _ref_spread_matrices(mult, identity, gens, images):
    out = np.empty((len(mult), *images.shape[1:]))
    out[identity] = np.eye(images.shape[-1])
    seen, frontier = {identity}, [identity]
    while frontier:
        step = []
        for g in frontier:
            for k, s in enumerate(gens):
                h = mult[g][s]
                if h not in seen:
                    seen.add(h)
                    step.append((h, g, k))
        frontier = [h for h, _, _ in step]
        if step:
            _, parents, ks = zip(*step)
            out[frontier] = out[list(parents)] @ images[list(ks)]
    return out


def _search_table(spec):
    """A builtin family's table, "zn:4", or for a tuple of ns Z_n1 × ... × Z_nr
    on the tuples in lexicographic order."""
    if isinstance(spec, str):
        family, n = spec.split(":")
        return _TABLES[family](int(n))
    elems = list(itertools.product(*map(range, spec)))
    pos = {g: i for i, g in enumerate(elems)}
    return GroupTable(tuple(tuple(pos[tuple((a + b) % n for a, b, n in zip(g, h, spec))] for h in elems) for g in elems))


def _subgroup_table(table, subgroup):
    """The group table of a subgroup on sorted(subgroup), with its names,
    built and validated as any GroupTable is."""
    elems = sorted(subgroup)
    pos = {g: i for i, g in enumerate(elems)}
    return GroupTable(tuple(tuple(pos[table.op(a, b)] for b in elems) for a in elems),
                      tuple(table.names[g] for g in elems))


# every table behind BUILTINS_TO_DIM_24, then Z2³, Z2⁴ and the other products of test_groups
_SEARCH_TABLES = (
    [f"zn:{n}" for n in range(1, 25)] + [f"dn:{n}" for n in range(1, 13)] + [f"sn:{n}" for n in range(1, 5)]
    + [(2,) * 3, (2,) * 4, (2, 2), (2, 4), (3, 6), (4, 4), (2, 3, 5)]
)


@pytest.mark.parametrize("spec", _SEARCH_TABLES, ids=str)
def test_group_searches_match_the_all_pairs_references(spec):
    """Subgroup lists in their order, closures of every pair, element orders,
    whether each subgroup and each subset one element off it is its own
    closure, and
    the characters of every subgroup, read in the parent's indices, bit for
    bit against the phase search on the subgroup's own validated table: the
    one walk against the all-pairs closure, its lattice and the separate
    phase search."""
    table = _search_table(spec)
    subs = table.subgroups
    assert subs == _ref_subgroups(table)
    n = table.order
    assert [table.element_order(g) for g in range(n)] == [_ref_element_order(table, g) for g in range(n)]
    for g, h in itertools.combinations_with_replacement(range(n), 2):
        assert table.closure(iter([g, h])) == _ref_closure(table, [g, h])
    near = [s ^ {g} for s in subs for g in (min(set(range(n)) - s, default=table.identity), max(s))]
    for subset in subs + near:
        assert (table.closure(subset) == subset) == _ref_is_subgroup(table, subset)
    for sub in subs:
        got, want = characters(table, sub), _ref_characters(_subgroup_table(table, sub))
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


def _ref_enumerate_function_algebra(G):
    """enumerate_function_algebra's items as (label, covector, character,
    subgroup), by the route it took before it divided each character as one
    array: a validated table per subgroup, the phase search on it and a loop
    over its elements."""
    table, out = G.table, []
    for subgroup in table.subgroups:
        elems = sorted(subgroup)
        for chi in _ref_characters(_subgroup_table(table, subgroup)):
            cov = np.zeros(table.order, dtype=np.complex128)
            for i, g in enumerate(elems):
                cov[g] = chi[i] / len(elems)
            label = "H={%s}, chi=[%s]" % (",".join(table.names[g] for g in elems),
                                          ",".join(_fmt_complex(chi[i]) for i in range(len(elems))))
            out.append((label, cov, {g: chi[i] for i, g in enumerate(elems)}, subgroup))
    return out


@pytest.mark.parametrize("spec", [f"czn:{n}" for n in range(1, 25)] + [f"cfun:sn:{n}" for n in range(1, 5)])
def test_function_enumeration_matches_the_per_element_reference(spec):
    """The enumeration gives the per-element route's items: labels,
    subgroups, covectors and character values, bit for bit."""
    G = builtin(spec)
    want = _ref_enumerate_function_algebra(G)
    for got in (enumerate_function_algebra(G),
                [item for H in G.table.subgroups for item in enumerate_function_algebra(G, [H])]):
        assert len(got) == len(want)
        for item, (label, cov, values, subgroup) in zip(got, want):
            assert item.label == label and item.subgroup == subgroup
            assert item.functional.covector.tobytes() == cov.tobytes()
            assert list(item.character) == list(values)
            assert np.array(list(item.character.values())).tobytes() == np.array(list(values.values())).tobytes()


def _ref_enumerate_group_algebra(G):
    """enumerate_group_algebra's items as (label, covector, coset, subgroup),
    by the all-pairs route it took before it was given subgroups: one
    solve of Λᵀ for the indicators of every coset of every subgroup."""
    table = G.table
    pairs = [(coset, subgroup) for subgroup in table.subgroups for coset in table.left_cosets(subgroup)]
    indicators = np.zeros((table.order, len(pairs)))
    for col, (coset, _) in enumerate(pairs):
        indicators[list(coset), col] = 1.0
    covs = np.linalg.solve(G.lambda_basis.T, indicators)
    return [("C={%s}" % ",".join(table.names[g] for g in sorted(coset)), cov.astype(np.complex128), coset, subgroup)
            for cov, (coset, subgroup) in zip(covs.T, pairs)]


@pytest.mark.parametrize("spec", [f"cstar:zn:{n}" for n in range(1, 17)] + [f"cstar:dn:{n}" for n in range(1, 13)]
                         + [f"cstar:sn:{n}" for n in range(1, 5)])
def test_group_enumeration_matches_the_all_pairs_reference(spec):
    """The enumeration, in full and one subgroup at a time, gives the
    all-pairs route's items: labels, cosets, subgroups and covectors, bit
    for bit."""
    G = builtin(spec)
    want = _ref_enumerate_group_algebra(G)
    for got in (enumerate_group_algebra(G),
                [item for H in G.table.subgroups for item in enumerate_group_algebra(G, [H])]):
        assert len(got) == len(want)
        for item, (label, cov, coset, subgroup) in zip(got, want):
            assert item.label == label and item.coset == coset and item.subgroup == subgroup
            assert item.functional.covector.tobytes() == cov.tobytes()


def test_characters_refuse_sets_that_are_not_subgroups():
    """Only a subgroup has characters: the empty set and a set that is not
    closed under the product are refused by one name, as is a set that
    would be a subgroup were the identity element 0."""
    refused = "^characters requires a subgroup of the table$"
    table = symmetric(3)
    with pytest.raises(ValueError, match=refused):
        characters(table, frozenset())
    with pytest.raises(ValueError, match=refused):
        characters(table, frozenset({table.identity, next(g for g in range(6) if table.element_order(g) == 3)}))
    # Z4 relabelled so that its identity is element 2: the walk starts there,
    # and each character is 1 at 2's place in sorted(H)
    z4 = GroupTable(tuple(tuple((a + b + 2) % 4 for b in range(4)) for a in range(4)))
    assert z4.identity == 2 and [sorted(h) for h in z4.subgroups] == [[2], [0, 2], [0, 1, 2, 3]]
    for h in z4.subgroups:
        assert all(chi[sorted(h).index(2)] == 1 for chi in characters(z4, h))
        assert len(characters(z4, h)) == len(h)
    with pytest.raises(ValueError, match=refused):
        characters(z4, frozenset({0}))


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_irreps_spread_along_the_walk_match_the_reference(n, monkeypatch):
    """Young's orthogonal form spread along the walk is bit for bit the
    spread by the level-by-level search it replaced."""
    want = groups.symmetric(n).irreps
    monkeypatch.setattr(groups, "_spread_matrices", _ref_spread_matrices)
    assert [rho.tobytes() for rho in want] == [rho.tobytes() for rho in groups.symmetric(n).irreps]


@pytest.mark.parametrize("spec", [f"zn:{n}" for n in range(1, 25)] + [f"dn:{n}" for n in range(1, 13)])
def test_cyclic_and_dihedral_irreps_spread_along_the_walk_match_the_reference(spec):
    """Each irrep ρ of Z_n (generator 1) and D_n (generators r, s), made real
    as [[Re ρ, −Im ρ], [Im ρ, Re ρ]], spreads from its generators to the same
    stack along the walk as along the reference search, bit for bit, and
    that stack is ρ's within roundoff."""
    table = _search_table(spec)
    gens = [1 % table.order] if spec.startswith("zn") else [1 % (table.order // 2), table.order // 2]
    for rho in table.irreps:
        real = np.block([[rho.real, -rho.imag], [rho.imag, rho.real]])
        got = groups._spread_matrices(table.mult, table.identity, gens, real[gens])
        assert got.tobytes() == _ref_spread_matrices(table.mult, table.identity, gens, real[gens]).tobytes()
        assert np.abs(got - real).max() <= 1e-12


@pytest.mark.parametrize("block_dims", [(1,) * 6, (1, 1, 2), (1, 1, 2, 2), (1, 1, 1, 1, 2),
                                        (1, 1, 2, 3, 3), (2, 1, 2)])
def test_mult_tensor_matches_loop_form(block_dims):
    """The multiplication table, built once per algebra and read-only, is the
    loop over matrix units bit for bit, on the algebras of C(Z6), C*(S3),
    C*(D5), KP and C*(S4) and on one whose size classes are not contiguous runs."""
    A = MultiMatrixAlgebra(block_dims)
    assert np.array_equal(A.mult_tensor, _ref_mult_tensor(A))
    assert A.mult_tensor is A.mult_tensor and not A.mult_tensor.flags.writeable


@pytest.mark.parametrize("spec", BUILTINS_TO_DIM_24 + ["dual(kp)"])
def test_antipode_and_cancellation_match_the_linear_system_and_ranks(spec):
    """The closed-form antipode read off strong invariance is the solution
    of the 2·dim² × dim² system of the antipode laws, and the cancellation
    rows pass exactly when the spans Δ(A)(A⊗1) and Δ(A)(1⊗A) have full rank."""
    G = dual(builtin("kp")) if spec == "dual(kp)" else builtin(spec)
    want = _ref_solve_antipode(G.algebra, G.comult, G.counit)
    assert np.abs(closed_form_antipode(G.algebra, G.comult, G.counit) - want).max() <= 1e-12
    defects = verify_axioms(G).defects
    for deficit, row in zip(_ref_cancellation_rank_deficits(G), ("cancellation_left", "cancellation_right")):
        assert (deficit == 0) == (defects[row] <= 1e-9)


def test_cancellation_verdicts_on_the_monoid_algebra(cm):
    """On C(M) both forms fail: the spans lose rank and the residuals read 1.
    The system of the antipode laws has no solution, and the closed form
    fails both antipode rows."""
    defects = verify_axioms(cm).defects
    for deficit, row in zip(_ref_cancellation_rank_deficits(cm), ("cancellation_left", "cancellation_right")):
        assert deficit > 0 and defects[row] == 1.0
    with pytest.raises(ValueError, match="^antipode solve failed"):
        _ref_solve_antipode(cm.algebra, cm.comult, cm.counit)
    closed = replace(cm, antipode=closed_form_antipode(cm.algebra, cm.comult, cm.counit))
    assert {"antipode_left", "antipode_right"} <= verify_axioms(closed).failures().keys()


@pytest.mark.parametrize("spec", BUILTINS_TO_DIM_24 + ["dual(kp)"])
def test_haar_states_match_the_invariance_solves(spec):
    """The Plancherel state of the blocks is the Haar state the invariance
    equations determine, and the counit's density Λ is the dual Haar state
    f ↦ f(Λ)."""
    G = dual(builtin("kp")) if spec == "dual(kp)" else builtin(spec)
    want = _ref_solve_haar_state(G.algebra, G.comult).covector
    assert np.abs(plancherel_state(G.algebra).covector - want).max() <= 1e-12
    assert np.abs(G.counit.density.vec - _ref_solve_dual_haar(G)).max() <= 1e-12


@pytest.mark.parametrize("spec", ["cfun:sn:4", "cstar:dn:4"])
def test_corner_haar_states_match_the_invariance_solve(spec):
    """On every corner quotient that decomposing the enumerated idempotents
    builds, the Plancherel state solves the corner's invariance equations."""
    G = builtin(spec)
    items = enumerate_function_algebra(G) if G.kind == "function" else enumerate_group_algebra(G)
    for item in items:
        decompose(G, item.functional)
    assert G.corners
    for corner in G.corners.values():
        want = _ref_solve_haar_state(corner.target.algebra, corner.target.comult).covector
        assert np.abs(plancherel_state(corner.target.algebra).covector - want).max() <= 1e-12


def test_monoid_algebra_has_no_plancherel_haar_state(cm):
    """C(M) has an invariant state, δ₀, but it is not the Plancherel state:
    the Plancherel state fails C(M)'s Haar invariance rows."""
    assert np.allclose(_ref_solve_haar_state(cm.algebra, cm.comult).covector, [0.0, 1.0], rtol=0, atol=1e-15)
    haar_rows = {"haar_positive", "haar_trace_one", "haar_left_invariant", "haar_right_invariant"}
    assert verify_axioms(cm).failures().keys() & haar_rows == set()
    plancherel = replace(cm, haar=plancherel_state(cm.algebra))
    defects = verify_axioms(plancherel).defects
    assert min(defects["haar_left_invariant"], defects["haar_right_invariant"]) > 1e-2


@pytest.mark.parametrize("density", ["zero", "twice", "block 1"])
def test_antipode_solve_rejects_a_wrong_counit(kp, density):
    """The antipode is solved in closed form and then checked by the axiom
    rows: a counit that fails the counit laws (zero, 2ε, or δ on block 1 of
    KP) fails both counit rows of the group built from it and its closed-form
    antipode.  The zero counit has h(Λ) = 0, so the closed form refuses it
    with a ValueError naming h(Λ), and KP's antipode stands in."""
    vec = {"zero": np.zeros(kp.dim), "twice": 2 * kp.counit.density.vec, "block 1": np.eye(kp.dim)[1]}[density]
    counit = Functional(kp.algebra, kp.algebra.from_vec(vec))
    if density == "zero":
        with pytest.raises(ValueError, match=r"^closed-form antipode needs h\(Λ\) finite and nonzero .* "
                                             r"got h\(Λ\) = 0\+0j$"):
            closed_form_antipode(kp.algebra, kp.comult, counit)
        antipode = kp.antipode
    else:
        antipode = closed_form_antipode(kp.algebra, kp.comult, counit)
    failures = verify_axioms(replace(kp, counit=counit, antipode=antipode), 1e-12).failures()
    assert {"counit_left", "counit_right"} <= failures.keys()


@pytest.mark.parametrize("spec", ["cstar:sn:4", "czn:8", "kp"])
def test_optimized_einsums_match_unoptimized(spec, monkeypatch):
    """The antipode, coassociativity and cancellation rows of
    _structure_defects and the dual comultiplication of dual_pair let einsum
    choose a contraction order (optimize=True); the unoptimized einsum, one
    summation in the written order, is their oracle, on the group and, for
    the structure rows, on a broken copy."""
    G = builtin(spec)
    einsum = np.einsum

    def unoptimized(*operands, optimize=False):
        return einsum(*operands)

    for H in (G, _broken(G)):
        got = _structure_defects(H)
        with monkeypatch.context() as patch:
            patch.setattr(np, "einsum", unoptimized)
            want = _structure_defects(H)
        _assert_agree(got, want, 1e-9)
        rows = [got[row] for row in ("antipode_left", "antipode_right", "coassociativity",
                                     "cancellation_left", "cancellation_right")]
        assert (max(rows) > 1e-6) == (H is not G)
    got, phi = dual_pair(G)
    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", unoptimized)
        want, want_phi = dual_pair(G)   # reads the rows G measured above
    assert np.array_equal(phi, want_phi)
    assert np.abs(got.comult - want.comult).max() <= AGREE


def _kernel_residuals(alg, lw, lr, ll, xb, spans):
    """The mixed-product and TRO-expectation residuals that _tro_residuals
    reads off the _commutators of the Schur map [[Q_r, P], [P♭, Q_l]] for any
    maps P = lw, Q_r = lr and Q_l = ll, with x over the rows of xb, c over
    the bases of the subspaces spans = (⟨XX*⟩, ⟨X*X⟩), and P♭(a) = P(a*)*,
    whose matrix is conj(P[perm][:, perm]) for the involution
    perm = transpose_perm, as vec(a*) = conj(vec(a)[perm])."""
    perm = alg.transpose_perm
    corners = LinkingAlgebra(OperatorSubspace(alg, xb.T), *spans).corners()
    return _tro_residuals(alg, _commutators(alg, [[lr, lw], [np.conj(lw[perm][:, perm]), ll]], corners))


def _image_row_residuals(alg, lw):
    """The TRO-expectation residuals with x and y over the image rows P(e_i)
    of P = lw, keyed by the triple-product forms they check: P(x y*c) first,
    P(x b* y) second and P(a x*y) third."""
    res = _kernel_residuals(alg, lw, lw, lw, lw.T, OperatorSubspace.from_spanning(alg, lw.T).product_spans)[1]
    return {"first": res["expect_left_pair"], "second": res["expect_middle"], "third": res["expect_right_pair"]}


def test_tro_checks_match_loop_form(case):
    G, idempotents = case
    for omega in idempotents:
        report = check_tro_expectation(G, omega, TOL)
        res, exp_res, image_is_tro = ref_check_tro_expectation(G, omega, TOL)
        _assert_agree(report.identity_residuals, res, TOL)
        _assert_agree(report.expectation_residuals, exp_res, TOL)
        assert is_tro(report.image, TOL) == image_is_tro
        _assert_agree(_image_row_residuals(G.algebra, G.left_matrix(omega.covector)),
                      ref_triple_product_identities(G, omega), TOL)


def _rescaled(E, s01, s10):
    """The Schur map of E with the off-diagonal functionals Ω_01 and Ω_10 of
    its linking functional multiplied by s01 and s10."""
    (r, w), (wbar, l) = E.linking
    return SchurExpectation(E.group, [[r, s01 * w], [s10 * wbar, l]])


def test_expectation_checks_match_loop_form(case):
    G, idempotents = case
    for omega in idempotents:
        link = linking_algebra(image_subspace(left_conv_operator(G, omega)), TOL)
        assert _ref_multiplicative_defect(link) <= TOL
        # the expectation itself, then Schur maps whose off-diagonal entries
        # are rescaled: no longer completely positive
        for s01, s10 in ((1.0, 1.0), (1.3, 1.0), (1.0, 0.2), (1.3, 0.2)):
            E = _rescaled(build_expectation(G, omega, TOL), s01, s10)
            checks = expectation_checks(E, link)
            assert abs(checks.bimodule - ref_module(E, link)) <= AGREE
            assert (checks.bimodule <= TOL) == (ref_bimodule(E, link) <= TOL)
            choi = ref_choi_min_eigenvalue(E)
            assert (checks.choi_min_eigenvalue >= CP_FLOOR) == (choi >= CP_FLOOR)
            if (s01, s10) == (1.0, 1.0):
                assert choi >= CP_FLOOR
            elif s01 * s10 != 1.0:
                assert choi < CP_FLOOR


def _random_linking(rng, G):
    """Four functionals with random covectors of norm about 1."""
    return [[Functional.from_covector(G.algebra, _gaussian(rng, G.dim)) for _ in range(2)] for _ in range(2)]


def test_module_defect_matches_loop_form(case):
    """The module defect against its dense loop form on M₂(A), with the
    verdict of the pairwise bimodule loop form, the fixed-point residual
    against its loop form, and the idempotent and completely positive
    verdicts against the dense E∘E − E and Choi forms: on the expectation,
    where every residual is roundoff, and on Schur maps of four random
    functionals, where the residuals are O(1)."""
    G, idempotents = case
    rng = np.random.default_rng(11)
    for omega in idempotents:
        link = linking_algebra(image_subspace(left_conv_operator(G, omega)), TOL)
        random = SchurExpectation(G, _random_linking(rng, G))
        for E, small in ((build_expectation(G, omega, TOL), True), (random, False)):
            want = ref_module(E, link)
            assert (want <= TOL) == (ref_bimodule(E, link) <= TOL) == small
            checks = expectation_checks(E, link)
            assert abs(checks.bimodule - want) <= AGREE
            assert (checks.choi_min_eigenvalue >= CP_FLOOR) == (ref_choi_min_eigenvalue(E) >= CP_FLOOR) == small
            assert (checks.idempotent <= TOL) == (ref_expectation_idempotent(E) <= TOL) == small
            ref = ref_fixes_subalgebra(E, link)
            assert abs(checks.fixes_subalgebra - ref) <= AGREE
            assert (ref <= TOL) == small


def ref_linking_idempotent(E):
    """The largest ‖Ω_ij⋆Ω_ij − Ω_ij‖ over the four entries of E's linking
    functional, from one stacked product of their covector pairs against Δ."""
    A = E.group.algebra
    cov = np.array([[f.covector for f in row] for row in E.linking])
    pairs = (cov[..., :, None] * cov[..., None, :]).reshape(2, 2, -1)
    dens = (pairs @ E.group.d3.reshape(A.dim * A.dim, A.dim) - cov)[..., A.transpose_perm]
    return float(sum(s.sum(axis=(-2, -1)) for s in A.singular_values(dens)).max())


def test_expectation_idempotent_is_the_largest_idempotency_defect(case):
    """The idempotent row of expectation_checks is the largest
    idempotency_defect of the four Ω_ij, equal to each one measured afresh
    and to the stacked form within rounding, on the expectation, its rescaled
    Schur maps and a Schur map of four random functionals; the Choi row
    reads the densities of the Ω_ij, the covectors permuted."""
    G, idempotents = case
    rng = np.random.default_rng(12)
    A = G.algebra
    for omega in idempotents:
        link = linking_algebra(image_subspace(left_conv_operator(G, omega)), TOL)
        E = build_expectation(G, omega, TOL)
        for F in (E, *(_rescaled(E, s01, s10) for s01, s10 in OMEGA_SCALINGS),
                  SchurExpectation(G, _random_linking(rng, G))):
            checks = expectation_checks(F, link)
            assert checks.idempotent == max(idempotency_defect(G, f) for row in F.linking for f in row)
            assert checks.idempotent == max(_ref_idempotency_defect(G, f) for row in F.linking for f in row)
            assert abs(checks.idempotent - ref_linking_idempotent(F)) <= AGREE * max(1.0, checks.idempotent)
            cov = np.array([[f.covector for f in row] for row in F.linking])
            assert checks.choi_min_eigenvalue == _linking_positivity(A, cov[..., A.transpose_perm])


def _linking_of_density(alg, blocks):
    """The functionals Ω_ij of the functional on M₂(A) whose density has the
    (2n, 2n) block blocks[k] on block k of A: Tr(D X) pairs the row-j,
    column-i corner of D with x_ij, so that corner is the density of Ω_ij."""
    def corner(i, j):
        return alg.element([b[j * n:(j + 1) * n, i * n:(i + 1) * n] for b, n in zip(blocks, alg.block_dims)])
    return [[Functional(alg, corner(i, j)) for j in (0, 1)] for i in (0, 1)]


def _random_density_blocks(rng, alg, positive):
    """Random Hermitian (2n, 2n) blocks, one per block of A: G G* when
    positive, else G + G*, which has eigenvalues of both signs."""
    out = []
    for n in alg.block_dims:
        g = _gaussian(rng, 2 * n, 2 * n)
        out.append(g @ g.conj().T if positive else g + g.conj().T)
    return out


OMEGA_GROUPS = ["czn:4", "cfun:sn:3", "cstar:dn:4", "kp", "cstar:dn:5"]
# (s01, s10): Ω_01 = s01·ω and Ω_10 = s10·ω̄.  With s10 = conj(s01) the
# Schur product with [[1, s01], [s10, 1]] keeps Ω positive iff |s01| ≤ 1;
# otherwise Ω is not Hermitian.  Only (1, 1) keeps each Ω_ij idempotent.
OMEGA_SCALINGS = [(1.0, 1.0), (0.5, 0.5), (1j, -1j), (1.3, 1.3), (1.3, 1.0), (1.0, 0.2), (1j, 1j)]


@pytest.mark.parametrize("spec", OMEGA_GROUPS)
def test_linking_functional_verdicts_match_dense_forms(spec):
    """The idempotent and completely positive verdicts of expectation_checks,
    taken on the linking functional Ω, against the dense forms on M₂(A):
    ‖E∘E − E‖₂ of the (4·dim)² matrix and the least eigenvalue of the Choi
    matrix.  On idempotents of each group, their off-diagonal rescalings,
    Hermitian and not, and random functionals: positive, Hermitian
    indefinite, and with four unrelated covectors."""
    G = builtin(spec)
    assert G.dim <= 24
    if G.kind == "kp":
        idempotents = [G.counit, G.haar, _kp_non_haar_state(G)]
    else:
        items = (enumerate_group_algebra if G.kind == "group" else enumerate_function_algebra)(G)
        idempotents = [item.functional for item in items[::max(1, len(items) // 6)]]
    rng = np.random.default_rng(17)
    cases = []
    for omega in idempotents:
        E = build_expectation(G, omega, TOL)
        cases += [(_rescaled(E, s01, s10), s01 == s10 == 1.0, s10 == np.conj(s01) and abs(s01) <= 1.0)
                  for s01, s10 in OMEGA_SCALINGS]
    for positive in (True, False):
        linking = _linking_of_density(G.algebra, _random_density_blocks(rng, G.algebra, positive))
        cases.append((SchurExpectation(G, linking), False, positive))
    cases.append((SchurExpectation(G, _random_linking(rng, G)), False, False))
    link = linking_algebra(image_subspace(left_conv_operator(G, G.counit)), TOL)
    for E, idempotent, cp in cases:
        checks = expectation_checks(E, link)
        choi, idem = ref_choi_min_eigenvalue(E), ref_expectation_idempotent(E)
        assert (checks.choi_min_eigenvalue >= CP_FLOOR) == (choi >= CP_FLOOR) == cp, (checks, choi)
        assert (checks.idempotent <= TOL) == (idem <= TOL) == idempotent, (checks, idem)


def _kp_block_limits(kp):
    """Cesàro limits of the block seeds: the counit, the three order-two
    subgroups and the Haar state."""
    return [cesaro_limit(kp, seed, tol=1e-9, max_iter=10_000).limit for seed in _kp_block_seeds(kp)]


@pytest.fixture(scope="module", params=GROUPS)
def haar_reports(request):
    """decompose reports of every Haar idempotent of C(Z4), C(S3) and
    C*(D4), and of the Haar idempotent states of KP above."""
    name = request.param
    if name == "KP":
        G = kac_paljutkin()
        functionals = _kp_block_limits(G)
    else:
        G, _ = _cases(name)
        enumerate_items = enumerate_group_algebra if G.kind == "group" else enumerate_function_algebra
        functionals = [item.functional for item in enumerate_items(G)]
    reports = [decompose(G, omega, TOL) for omega in functionals]
    return G, [rep for rep in reports if rep.haar]


def test_character_check_matches_loop_form(haar_reports):
    G, reports = haar_reports
    assert len(reports) >= 5
    for rep in reports:
        got = rep.character_defect
        assert got == _character_defect(rep.omega, rep.subgroup, rep.character)
        want = ref_character_defect(G, rep.omega, rep.subgroup, rep.character)
        assert abs(got - want) <= AGREE
        assert want <= TOL


def test_flipped_character_phase_is_rejected(haar_reports):
    """Negating the polar isometry on one kept block changes u = π(v) on H,
    so ω = h_H(π(·)u) fails (faithful h_H) unless u fails to be group-like:
    the largest of the two measured defects exceeds tol."""
    G, reports = haar_reports
    for rep in reports:
        block = rep.subgroup.kept_blocks[-1]
        sign = np.where(G.algebra.coordinates[0] == block, -1.0, 1.0)
        u = rep.subgroup.apply(G.algebra.from_vec(sign * rep.v.vec))
        assert max(qgroup.group_like_residual(rep.subgroup.target, u),
                   _character_defect(rep.omega, rep.subgroup, u)) > TOL


def _ref_idempotency_defect(G, omega):
    """‖ω⋆ω − ω‖ in the dual norm, from one convolution."""
    return (convolve(G, omega, omega) - omega).norm


def _ref_decompose(G, omega, tol):
    """decompose's body with each state check, idempotency defect and
    spectrum taken for one functional at a time, on fresh copies of ω and
    its absolute values, so that no number is read from a cache decompose
    filled."""
    omega = Functional(G.algebra, omega.density)
    state_tol = max(tol, STATE_TOL)
    parts = polar_decompose(omega)
    abs_r, abs_l = parts.abs_r, parts.abs_l
    for sigma in (abs_r, abs_l):
        assert sigma.is_state(state_tol)
    v = parts.u
    d = G.ts.algebra.from_vec(G.comult @ v.vec) - _ref_tensor_element(G.ts, v, v)
    defect_r = float(np.sqrt(_seminorm_sq(G, abs_r, d.adjoint() * d)))
    defect_l = float(np.sqrt(_seminorm_sq(G, abs_l, d * d.adjoint())))
    A, dr, dl, dw = G.algebra, abs_r.density.vec, abs_l.density.vec, omega.density.vec
    svals = A.singular_values(np.stack([A.multiply(v.vec, dr) - dw, A.multiply(dl, v.vec) - dw, dr - dl]))
    roundtrip_r, roundtrip_l, gap = (float(sum(s[k].sum() for s in svals)) for k in range(3))
    idempotency_r, idempotency_l = _ref_idempotency_defect(G, abs_r), _ref_idempotency_defect(G, abs_l)
    haar = is_central(abs_r.density.support, tol)
    rep = SimpleNamespace(omega=omega, abs_r=abs_r, abs_l=abs_l, v=v, defect_r=defect_r, defect_l=defect_l,
                          haar=haar, roundtrip_r=roundtrip_r, roundtrip_l=roundtrip_l,
                          idempotency_r=idempotency_r, idempotency_l=idempotency_l, subgroup=None,
                          character=None, haar_gap=gap if haar else None, subgroup_haar=None,
                          character_group_like=None, character_defect=None)
    if haar and max(idempotency_r, idempotency_l) <= state_tol and max(defect_r, defect_l, roundtrip_r,
                                                                       roundtrip_l, gap) <= tol:
        sub = qgroup.quotient_by_support(G, abs_r.density.support, STATE_TOL)
        H, u = sub.target, sub.apply(v)
        rep.subgroup, rep.character = sub, u
        rep.subgroup_haar = (Functional.from_covector(H.algebra, sub.projection @ abs_r.covector) - H.haar).norm
        rep.character_group_like = qgroup.group_like_residual(H, u)
        rep.character_defect = _character_defect(omega, sub, u)
    return rep


def _decompose_cases(name):
    """Every enumerated contractive idempotent of a classical group, or the
    Cesàro limits of KP's block and corner seeds."""
    if name == "KP":
        G = kac_paljutkin()
        return G, _kp_block_limits(G) + [_kp_non_haar_state(G, corner) for corner in ((1.0, 0.0), (0.0, 1.0))]
    G = builtin(name)
    enumerate_items = enumerate_group_algebra if G.kind == "group" else enumerate_function_algebra
    return G, [item.functional for item in enumerate_items(G)]


def _vec(value):
    """The coordinates a report field is compared by: vec or density vec."""
    if isinstance(value, Functional):
        return value.density.vec
    return getattr(value, "vec", None)


@pytest.mark.parametrize("name", ["czn:4", "czn:6", "cfun:sn:3", "cfun:sn:4", "cstar:sn:3", "cstar:dn:4", "KP"])
def test_decompose_matches_the_per_step_reference(name):
    """Every report field of decompose is bit for bit that of the per-step
    body, and the numbers its stacked pass keeps for |ω|_r and |ω|_l (their
    idempotency defects in G.idempotency, their state_defects and the
    spectra of their densities) are those each owner takes alone."""
    G, functionals = _decompose_cases(name)
    haar = 0
    for omega in functionals:
        rep, ref = decompose(G, omega, TOL), _ref_decompose(G, omega, TOL)
        haar += rep.haar
        for field in dataclasses.fields(rep):
            got, want = getattr(rep, field.name), getattr(ref, field.name)
            if _vec(got) is not None:
                assert np.array_equal(_vec(got), _vec(want)), field.name
            elif isinstance(got, qgroup.QuantumSubgroup):
                assert got is want, field.name
            else:
                assert type(got) is type(want) and got == want, field.name
        for sigma, alone in ((rep.abs_r, ref.abs_r), (rep.abs_l, ref.abs_l)):
            assert G.idempotency[sigma] == _ref_idempotency_defect(G, alone)
            assert sigma.state_defects == alone.state_defects
            for (idx, w, v), (ref_idx, ref_w, ref_v) in zip(sigma.density.spectrum, alone.density.spectrum,
                                                             strict=True):
                assert np.array_equal(idx, ref_idx) and np.array_equal(w, ref_w) and np.array_equal(v, ref_v)
    assert len(functionals) >= 5 and haar >= 2


COHORT_GROUPS = ["czn:4", "czn:6", "czn:16", "cfun:sn:3", "cfun:sn:4", "cstar:zn:4", "cstar:dn:4", "cstar:dn:5",
                 "cstar:sn:3", "cstar:sn:4"]


@pytest.mark.parametrize("name", COHORT_GROUPS)
def test_cohort_facts_are_those_of_a_lone_functional(name):
    """The items of an enumeration form a cohort, whose facts are taken in
    stacks on first use.  Checked item by item as quidem enumerate does it,
    each equals byte for byte the fact of a lone functional, a stack of one
    built from a copy of the same density: the norm, the polar parts u,
    |ω|_r and |ω|_l, the state_defects of both absolute values, the
    G.idempotency entries of ω and of both, the contractive verdict and
    every field of decompose."""
    G, functionals = _decompose_cases(name)
    assert abs(functionals[0].norm - 1.0) <= 1e-12 and all("norm" in f.__dict__ for f in functionals)   # one stack
    runs = [(is_contractive_idempotent(G, omega), decompose(G, omega, TOL)) for omega in functionals]
    for omega, (verdict, rep) in zip(functionals, runs):
        lone = Functional(G.algebra, G.algebra.from_vec(omega.density.vec))
        assert lone._cohort is None
        assert is_contractive_idempotent(G, lone) == verdict
        ref = decompose(G, lone, TOL)
        assert type(omega.norm) is type(lone.norm) is float and omega.norm == lone.norm
        assert G.idempotency[omega] == G.idempotency[lone]
        assert omega.polar.u.vec.tobytes() == lone.polar.u.vec.tobytes()
        for sigma, alone in ((rep.abs_r, ref.abs_r), (rep.abs_l, ref.abs_l)):
            assert sigma.density.vec.tobytes() == alone.density.vec.tobytes()
            assert sigma.state_defects == alone.state_defects
            assert G.idempotency[sigma] == G.idempotency[alone]
        for field in dataclasses.fields(rep):
            got, want = getattr(rep, field.name), getattr(ref, field.name)
            if _vec(got) is not None:
                assert _vec(got).tobytes() == _vec(want).tobytes(), field.name
            elif isinstance(got, qgroup.QuantumSubgroup):
                assert got is want, field.name
            else:
                assert type(got) is type(want) and got == want, field.name


def test_flipped_character_fails_the_batched_check():
    """On C(Z4) with H = {0, 2}, flipping the trivial character at 2 gives
    the sign character of H: unitary and group-like, but ω(e_2) = 1/2 while
    h_H(π(e_2)u) = −1/2, in the batched and the loop form alike."""
    G = function_algebra(cyclic(4))
    omega = Functional.from_covector(G.algebra, np.array([0.5, 0.0, 0.5, 0.0]))
    rep = decompose(G, omega, TOL)
    sub = rep.subgroup
    assert rep.character_defect <= TOL
    sign = sub.apply(G.algebra.from_vec(rep.v.vec * np.array([1, 1, -1, 1])))
    assert np.allclose(sign.vec, [1.0, -1.0])
    assert qgroup.group_like_residual(sub.target, sign) <= TOL
    assert _character_defect(omega, sub, sign) == ref_character_defect(G, omega, sub, sign) == 1.0


def _haar_rows_and_defect(sub, sigma):
    """The four Haar rows of verify_axioms on a copy of H whose Haar state is
    π_*σ, and the trace norm ‖π_*σ − h_H‖ that decompose measures as subgroup_haar."""
    H = sub.target
    pushed = Functional.from_covector(H.algebra, sub.projection @ sigma.covector)
    return qgroup._haar_defects(replace(H, haar=pushed)), (pushed - H.haar).norm


@pytest.mark.parametrize("spec", ["czn:16", "cfun:sn:3", "cfun:sn:4", "cstar:dn:4", "cstar:dn:5", "cstar:sn:4", "kp"])
def test_haar_state_defect_matches_the_haar_rows(spec):
    """On every Haar idempotent of the group, |ω|_r pushed to the subgroup
    passes the four Haar rows of verify_axioms and its trace norm distance
    to h_H passes at CHECK_TOL, both within 1e-12."""
    G = builtin(spec)
    if spec == "kp":
        functionals = _kp_block_limits(G)
    else:
        enumerate_items = enumerate_group_algebra if G.kind == "group" else enumerate_function_algebra
        functionals = [item.functional for item in enumerate_items(G)]
    reports = [rep for rep in (decompose(G, omega, TOL) for omega in functionals) if rep.haar]
    assert len(reports) >= 5
    for rep in reports:
        rows, defect = _haar_rows_and_defect(rep.subgroup, rep.abs_r)
        assert defect == rep.subgroup_haar
        assert (max(rows.values()) <= TOL) == (defect <= TOL)
        assert max(*rows.values(), defect) <= AGREE, (rows, defect)


def test_haar_state_defect_fails_with_the_haar_rows():
    """σ = 0.7δ₀ + 0.3δ₂ on C(Z4) is a state on the corner of the subgroup
    {0, 2} but not its Haar state: the Haar rows and the trace norm
    distance 0.4 both fail."""
    G = function_algebra(cyclic(4))
    sigma = Functional.from_covector(G.algebra, np.array([0.7, 0.0, 0.3, 0.0]))
    sub = qgroup.quotient_by_support(G, sigma.density.support)
    rows, defect = _haar_rows_and_defect(sub, sigma)
    assert max(rows.values()) > TOL and abs(defect - 0.4) <= AGREE


def _ref_is_state(f, tol):
    """The state predicate as Functional.is_state took it before
    state_defects: Hermitian within tol in operator norm, least eigenvalue
    of the Hermitian part (eigvalsh) at least −tol, and trace one within tol."""
    d = f.density
    hermitian = (d - d.adjoint()).operator_norm <= tol
    positive = hermitian and bool(f.algebra.min_eigenvalues(d.vec) >= -tol)
    return positive and abs(d.trace - 1.0) <= tol


def _state_cases(alg, rng, tol):
    """(label, density, verdict) on alg: a random state, which is PSD; one
    whose least eigenvalue is −k·tol, Hermitian and of trace one; one with
    ‖d − d*‖ = k·tol, its Hermitian part that state; and that state scaled
    to trace 1 + k·tol; for k = 1/2, which passes, and k = 2, which fails."""
    state = alg.random_state(rng).density
    skew = np.zeros(alg.dim, dtype=np.complex128)   # i·(e_0 − e_1) on two 1×1 blocks: traceless, norm 1
    skew[[_unit_index(alg, 0, 0, 0), _unit_index(alg, 1, 0, 0)]] = 1j, -1j
    out = [("psd", state, True)]
    for k in (0.5, 2.0):
        blocks = []
        for n in alg.block_dims:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            blocks.append((q, rng.uniform(0.1, 1.0, n)))
        blocks[0][1][0] = 0.0
        scale = (1.0 + k * tol) / sum(w.sum() for _, w in blocks)
        blocks[0][1][0] = -k * tol / scale
        indefinite = alg.element((q * w) @ q.conj().T * scale for q, w in blocks)
        out += [(f"indefinite {k}", indefinite, k < 1),
                (f"not hermitian {k}", state + alg.from_vec(k * tol / 2 * skew), k < 1),
                (f"trace {k}", (1.0 + k * tol) * state, k < 1)]
    return out


@pytest.mark.parametrize("tol", [1e-9, 1e-8, 1e-3])
@pytest.mark.parametrize("spec", ["kp", "cstar:dn:4", "czn:6"])
def test_is_state_matches_the_predicate_chain(spec, tol):
    """is_state(tol) compares the two state_defects; the reference chain
    gives the same verdict, on states and on densities that are indefinite,
    not Hermitian or off trace one by tol/2 and by 2·tol."""
    alg = builtin(spec).algebra
    for label, density, verdict in _state_cases(alg, np.random.default_rng(5), tol):
        f = Functional(alg, density)
        assert f.is_state(tol) == _ref_is_state(f, tol) == verdict, (label, f.state_defects)


@pytest.mark.parametrize("spec", ["czn:6", "cstar:dn:4", "kp", "cstar:sn:4"])
def test_seminorm_matches_tensor_functional(spec):
    """_seminorm_sq reads (σ⊗σ)(x) as c·X·c from σ's covector; the reference
    is the tensor functional σ⊗σ with its Kronecker density.  They agree on
    decompose's d*d and dd* (d = Δv − v⊗v) and on random positive x, with σ
    either absolute value of each idempotent."""
    G = builtin(spec)
    AA = G.ts.algebra
    if G.kind == "kp":
        functionals = _kp_block_limits(G) + [_kp_non_haar_state(G)]
    else:
        items = (enumerate_group_algebra if G.kind == "group" else enumerate_function_algebra)(G)
        functionals = [item.functional for item in items[::max(1, len(items) // 12)]]
    rng = np.random.default_rng(5)
    for omega in functionals:
        parts = polar_decompose(omega)
        v = parts.u
        d = AA.from_vec(G.comult @ v.vec) - _ref_tensor_element(G.ts, v, v)
        y = random_element(AA, rng) * (1 / np.sqrt(AA.dim))
        for sigma in (parts.abs_r, parts.abs_l):
            for x in (d.adjoint() * d, d * d.adjoint(), y.adjoint() * y, y * y.adjoint()):
                want = max(0.0, float(_ref_tensor_functional(G.ts, sigma, sigma)(x).real))
                assert abs(_seminorm_sq(G, sigma, x) - want) <= AGREE


def test_right_convolution_commutation_matches_loop_form(case):
    G, idempotents = case
    rng = np.random.default_rng(3)
    matrices = [left_conv_operator(G, omega).matrix for omega in idempotents]
    matrices += [np.diag(rng.standard_normal(G.dim)), G.right_matrix(G.haar.covector)]
    for matrix in matrices:
        want = ref_right_convolution_defect(G, matrix)
        for tol in (1e-9, 1e-6, 0.5 * want, 2.0 * want):
            assert commutes_with_right_convolutions(G, matrix, tol) == (want <= tol)


def _unscreened_commutes(G, matrix, tol):
    """commutes_with_right_convolutions as one spectral norm per commutator."""
    r = np.swapaxes(G.d3, 0, 1)
    return not (np.linalg.norm(matrix @ r - r @ matrix, 2, axis=(-2, -1)) > tol).any()


def test_right_convolution_screen_keeps_the_verdict(cz4):
    """The Frobenius screen of commutes_with_right_convolutions against the
    unscreened form: a projection that passes, the point projection of
    test_recover_rejects_non_invariant, and a perturbed projection at a tol
    between the largest spectral and Frobenius norms of its commutators,
    where the SVD of the screened-in commutators decides."""
    G = cz4
    passing = left_conv_operator(G, enumerate_function_algebra(G)[1].functional).matrix
    point = np.zeros((G.dim, G.dim))
    point[0, 0] = 1.0
    perturbed = passing + 0.05 * _gaussian(np.random.default_rng(9), G.dim, G.dim)
    r = np.swapaxes(G.d3, 0, 1)
    comm = perturbed @ r - r @ perturbed
    spectral = np.linalg.norm(comm, 2, axis=(-2, -1)).max()
    frobenius = np.linalg.norm(comm, axis=(-2, -1)).max()
    assert spectral < frobenius
    for matrix, tol, verdict in ((passing, 1e-9, True), (point, 1e-9, False),
                                 (perturbed, (spectral + frobenius) / 2, True),
                                 (perturbed, 0.99 * spectral, False)):
        assert commutes_with_right_convolutions(G, matrix, tol) == _unscreened_commutes(G, matrix, tol) == verdict


@pytest.mark.parametrize("spec", ["cstar:sn:4", "cstar:dn:5", "dual(kp)"])
def test_dual_split_matches_loop_form(spec, monkeypatch):
    """The batched eigenspace norms and characters of wedderburn._extract
    give dual_pair the phi and block dims of the per-basis-matrix loop, and
    BlockSplit.map_matrix is bit for bit its per-basis loop."""
    G = dual(builtin("kp")) if spec == "dual(kp)" else builtin(spec)
    lt, split = _dual_regular_split(G)
    assert np.array_equal(split.map_matrix(lt), _ref_map_matrix(split, lt))
    got, got_phi = dual_pair(G)
    monkeypatch.setattr(wedderburn, "_extract", _ref_extract)
    want, want_phi = dual_pair(G)
    assert got.algebra.block_dims == want.algebra.block_dims
    assert np.array_equal(got_phi, want_phi)


def test_star_residual_matches_loop_form(case):
    G, _ = case
    lt, _ = _dual_regular_split(G)
    broken = lt.copy()
    broken[1] *= 1 + 0.01j
    for stack in (lt, broken):
        want = ref_star_residual(G.sharp_matrix, stack)
        assert abs(_star_residual(G.sharp_matrix, stack) - want) <= AGREE
    assert ref_star_residual(G.sharp_matrix, lt) <= 1e-7 < ref_star_residual(G.sharp_matrix, broken)


# ---------------------------------------------------------------------------
# the TRO residuals off idempotents, where every residual is O(1)

# (block dims, image dimension k): on dim 8 the chunks of a hold 16, 7, 4,
# 2 and 1 basis elements, so a maximum can fall in a short last chunk
RANDOM_TRO_CASES = [((1, 1, 1, 1, 2), k) for k in (2, 3, 4, 5, 8)] + [((1, 2), k) for k in (1, 2, 5)]


def _projector(X):
    """The orthogonal projection onto the subspace X, as a (dim, dim) matrix."""
    return X.matrix @ X.matrix.conj().T


def _ref_product_spans(alg, xb):
    """Projectors onto the spans of the products x y* and x*y, x, y over the
    rows of xb, from loops over elements."""
    xs = [alg.from_vec(v) for v in xb]
    return [_projector(_ref_image_subspace(np.column_stack([prod(x, y).vec for x in xs for y in xs]), alg))
            for prod in (lambda x, y: x * y.adjoint(), lambda x, y: x.adjoint() * y)]


def _spans(alg, xb):
    """The corner bases ⟨XX*⟩ and ⟨X*X⟩ that _kernel_residuals takes, as
    OperatorSubspaces and as rows for the loop forms."""
    spans = OperatorSubspace(alg, xb.T).product_spans
    return spans, [span.matrix.T for span in spans]


@pytest.mark.parametrize("block_dims, k", RANDOM_TRO_CASES,
                         ids=[f"{'+'.join(map(str, b))}-k{k}" for b, k in RANDOM_TRO_CASES])
def test_tro_residuals_match_loop_form_off_idempotents(block_dims, k):
    """Random maps and orthonormal image bases, with the loop forms given the
    same bases: a chunk left out, or a product paired with the wrong P(a),
    changes some maximum."""
    alg = MultiMatrixAlgebra(block_dims)
    for seed in range(3):
        rng = np.random.default_rng([k, seed])
        lw, lr, ll = (_gaussian(rng, alg.dim, alg.dim) for _ in range(3))
        xb = np.linalg.qr(_gaussian(rng, alg.dim, k))[0].T
        spans, rows = _spans(alg, xb)
        for span, want in zip(spans, _ref_product_spans(alg, xb)):
            assert np.abs(_projector(span) - want).max() <= AGREE
        identity, expectation = _kernel_residuals(alg, lw, lr, ll, xb, spans)
        want = ref_expectation_residuals(alg, lw, xb, *rows)
        assert min(want.values()) > 0.05
        _assert_agree(expectation, want, TOL)
        want = ref_identity_residuals(alg, lw, lr, ll, xb)
        assert min(want.values()) > 0.05
        _assert_agree(identity, want, TOL)
    _, rows = _spans(alg, OperatorSubspace.from_spanning(alg, lw.T).matrix.T)
    want = ref_triple_residuals(alg, lw, *rows)
    assert min(want.values()) > 0.05
    _assert_agree(_image_row_residuals(alg, lw), want, TOL)


def _tro_idempotents(name):
    """Every enumerated idempotent of C*(D4) and C(Z8), and the idempotent
    states of KP that the block and corner seeds reach."""
    if name == "KP":
        G = kac_paljutkin()
        return G, _kp_block_limits(G) + [_kp_non_haar_state(G)]
    G = group_algebra(dihedral(4)) if name == "C*(D4)" else function_algebra(cyclic(8))
    enumerate_items = enumerate_group_algebra if G.kind == "group" else enumerate_function_algebra
    return G, [item.functional for item in enumerate_items(G)]


@pytest.mark.parametrize("name", ["C*(D4)", "C(Z8)", "KP"])
def test_tro_basis_residuals_match_all_pairs_on_idempotents(name):
    """On contractive idempotents the residuals on bases of the spans and
    the all-pairs loop forms are both at round-off, with the same verdicts."""
    G, idempotents = _tro_idempotents(name)
    assert len(idempotents) >= 6
    for omega in idempotents:
        report = check_tro_expectation(G, omega, TOL)
        parts = polar_decompose(omega)
        lw = G.left_matrix(omega.covector)
        lr, ll = (G.left_matrix(f.covector) for f in (parts.abs_r, parts.abs_l))
        xb = report.image.matrix.T
        for got, want in ((report.identity_residuals, ref_identity_residuals(G.algebra, lw, lr, ll)),
                          (report.expectation_residuals, ref_expectation_residuals(G.algebra, lw, xb))):
            assert got.keys() == want.keys()
            assert max(got.values()) <= 1e-12 and max(want.values()) <= 1e-12
        assert report.passed(TOL)


def test_tro_basis_residuals_see_a_perturbed_map():
    """Negative control: P = L_ω of a C*(D4) idempotent with a 4-dimensional
    image, perturbed inside that image.  Every residual, on the bases and in
    the all-pairs loop forms, reads above 0.05."""
    G = group_algebra(dihedral(4))
    omega = next(item.functional for item in enumerate_group_algebra(G) if len(item.subgroup) == 4)
    parts = polar_decompose(omega)
    lw = G.left_matrix(omega.covector)
    lr, ll = (G.left_matrix(f.covector) for f in (parts.abs_r, parts.abs_l))
    image = OperatorSubspace.from_spanning(G.algebra, lw.T)
    assert image.dim == 4
    perturbed = _projector(image) @ (lw + 0.3 * _gaussian(np.random.default_rng(3), G.dim, G.dim))
    xb = OperatorSubspace.from_spanning(G.algebra, perturbed.T).matrix.T
    assert len(xb) == 4
    kernel = _kernel_residuals(G.algebra, perturbed, lr, ll, xb, _spans(G.algebra, xb)[0])
    loops = ref_identity_residuals(G.algebra, perturbed, lr, ll), ref_expectation_residuals(G.algebra, perturbed, xb)
    for got, want in zip(kernel, loops):
        assert min(got.values()) > 0.05 and min(want.values()) > 0.05, (got, want)


def test_expect_left_pair_sees_off_diagonal_pairs():
    """P = Ad(u) on M₂ with u = diag(1, −1) and X = span{e₁₁, e₂₁}: the
    diagonal pairs satisfy P(x x*a) = x x*P(a), but P(e₁₁e₂₁*a) = −e₁₂P(a),
    so the left pair fails at x ≠ y, and on a basis of ⟨XX*⟩ = M₂, which
    the diagonal products e₁₁, e₂₂ do not span."""
    alg = MultiMatrixAlgebra((2,))
    u = np.diag([1.0, -1.0])
    lw = np.kron(u, u).astype(np.complex128)
    xb = np.eye(4, dtype=np.complex128)[[0, 2]]
    spans, rows = _spans(alg, xb)
    assert [span.dim for span in spans] == [4, 1]
    assert ref_expectation_residuals(alg, lw, xb)["expect_left_pair"] == pytest.approx(2.0)
    want = ref_expectation_residuals(alg, lw, xb, *rows)["expect_left_pair"]
    assert want > 1.0
    assert _kernel_residuals(alg, lw, lw, lw, xb, spans)[1]["expect_left_pair"] == pytest.approx(want, abs=AGREE)


@pytest.mark.parametrize("v, tro", [([0, 1, 0, 0], True), (np.array([1, 0, 0, 2]) / np.sqrt(5), False)])
def test_is_tro_sees_a_failing_triple_in_the_last_chunk(v, tro):
    """X = span{e_0, e_1, e_2, e_3, v} in C⁴ ⊕ M₂ with v in M₂: a triple is
    nonzero only if x, y and z all lie in one block, so only v v* v can
    leave X.  The chunks of x are {0, 1}, {2, 3} and {4}: that triple lies
    in the last chunk alone."""
    alg = MultiMatrixAlgebra((1, 1, 1, 1, 2))
    assert [s.start for s in _chunks(5, 25, alg.dim)] == [0, 2, 4]
    rows = np.vstack([np.eye(alg.dim)[:4], np.concatenate([np.zeros(4), v])])
    X = OperatorSubspace(alg, rows.T.astype(np.complex128))
    assert is_tro(X, TOL) == ref_is_tro(X, TOL) == tro


SCREEN_ALG = MultiMatrixAlgebra((1, 3, 2, 1, 3, 4, 2))


def _with_blocks(rng, scale=1.0, **blocks):
    """A stack of two vecs of SCREEN_ALG, so that every size class holds
    several blocks and is screened: the given blocks (keyed b<k>) in the
    first, the other blocks random with operator norm about scale/4."""
    alg = SCREEN_ALG
    first = alg.element(blocks.get(f"b{k}", scale * _gaussian(rng, n, n) / 4)
                        for k, n in enumerate(alg.block_dims)).vec
    return np.stack([first, alg.element(scale * _gaussian(rng, n, n) / 4 for n in alg.block_dims).vec])


def _unitary(rng, n):
    return np.linalg.qr(_gaussian(rng, n, n))[0]


def _rank_one(rng, n, norm):
    u, v = _gaussian(rng, n), _gaussian(rng, n)
    return norm * np.outer(u / np.linalg.norm(u), v.conj() / np.linalg.norm(v))


def _outcome(fn, *args):
    """The value as a hex string (nan and inf included), or the error."""
    try:
        return float(fn(*args)).hex()
    except np.linalg.LinAlgError:
        return "LinAlgError"


def test_max_operator_norm_matches_full_decomposition(monkeypatch):
    """The Frobenius screen decomposes only the blocks that can attain the
    maximum and returns, bit for bit, what a full blockwise SVD returns:
    on random stacks and on the edges of the bound ‖b‖_F/√n ≤ ‖b‖ ≤ ‖b‖_F."""
    alg, rng = SCREEN_ALG, np.random.default_rng(17)
    cases = [_gaussian(rng, *shape, alg.dim) for shape in ((1,), (7,), (3, 4), (40,))]
    cases += [np.zeros((0, alg.dim)), _with_blocks(rng, b0=np.array([[2.0 - 1.0j]]))]
    # the maximum at the upper end of the bound: a rank-one block (σ = ‖b‖_F)
    # beside a scaled unitary of larger Frobenius norm; alone, the vec's 4×4
    # class holds one block, which goes to the SVD unscreened
    edge = _with_blocks(rng, b5=_unitary(rng, 4), b2=_rank_one(rng, 2, 1.5))
    cases += [edge, edge[0]]
    # exact ties between a rank-one block and unitaries (σ = ‖b‖_F/√n): which
    # one attains the maximum is decided by the last bit of each norm, and a
    # screen without a margin drops the attaining block in about 2% of draws
    for _ in range(1000):
        cases.append(_with_blocks(rng, b1=_unitary(rng, 3), b5=_unitary(rng, 4), b6=_rank_one(rng, 2, 1.0)))
    # near-ties: every block's operator norm within 1e-13 of 1
    for _ in range(20):
        x = _gaussian(rng, 5, alg.dim)
        for v in x:
            for b in alg.split(v):
                b *= (1 + rng.integers(10) * 1e-14) / np.linalg.norm(b, 2)
        cases.append(x)
    # tiny and huge entries: squares that underflow, and Frobenius norms that
    # overflow while a rank-one block below them holds the maximum
    cases += [1e-300 * _gaussian(rng, 6, alg.dim), 1e150 * _gaussian(rng, 6, alg.dim),
              1e200 * _gaussian(rng, 6, alg.dim),
              _with_blocks(rng, 1e154, b5=1e154 * _unitary(rng, 4), b2=_rank_one(rng, 2, 1.2e154))]
    for case in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _outcome(alg.max_operator_norm, case)
        assert got == _outcome(ref_operator_norms_max, alg, case) == _outcome(ref_max_operator_norm, alg, case)
    # non-finite entries in a 1×1 and in an n×n block: NaN and inf reach the
    # result, or the SVD raises, as in a full decomposition; never 0.0
    for block, bad in ((0, np.nan), (0, np.inf), (5, np.nan), (5, np.inf), (2, -np.inf)):
        x = _gaussian(rng, 4, alg.dim)
        x[2, _unit_index(alg, block, 0, 0)] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _outcome(alg.max_operator_norm, x)
        assert got in ("nan", "inf", "LinAlgError")
        assert got == _outcome(ref_operator_norms_max, alg, x) == _outcome(ref_max_operator_norm, alg, x)
    # an all-zero stack or vec is 0.0 without an SVD
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert alg.max_operator_norm(np.zeros((5, alg.dim))) == alg.max_operator_norm(np.zeros(alg.dim)) == 0.0
    assert not calls


def test_adjoint_space_has_the_invariance_defect_of_its_space():
    """invariance_defect(G, X*) = invariance_defect(G, X) for every subspace X,
    which is why recovery measures X* no more: R_ν(x)* = R_ν̄(x*) with
    ν̄(a) = conj(ν(a*)), a permutation of the matrix-unit dual basis, and
    a ↦ a* maps X onto X* isometrically in the Hilbert-Schmidt norm, so the
    adjoints of an orthonormal basis of X are one of X*.  Checked
    on the enumerated images of C*(D4) and C(S3), KP's Haar and counit images,
    and random subspaces, which are not invariant."""
    gd4, cs3, kp = group_algebra(dihedral(4)), function_algebra(symmetric(3)), kac_paljutkin()
    images = [(G, item.functional) for G, items in ((gd4, enumerate_group_algebra(gd4)),
                                                   (cs3, enumerate_function_algebra(cs3))) for item in items]
    images += [(kp, kp.haar), (kp, kp.counit)]
    cases = [(G, OperatorSubspace.from_spanning(G.algebra, G.left_matrix(omega.covector).T)) for G, omega in images]
    rng = np.random.default_rng(17)
    randoms = [(G, OperatorSubspace.from_spanning(G.algebra, _gaussian(rng, k, G.dim)))
               for G in (gd4, cs3, kp) for k in (1, 2, 3, 5)]
    for G, X in cases + randoms:
        star = OperatorSubspace(G.algebra, G.algebra.adjoint(X.matrix.T).T)
        assert all(_residual(star, x.adjoint()) <= AGREE for x in X.basis)
        assert abs(invariance_defect(G, star) - invariance_defect(G, X)) <= 1e-14
    assert min(invariance_defect(G, X) for G, X in randoms) > 0.05


# ---------------------------------------------------------------------------
# the Cesàro limit against an eigendecomposition


def _eig_limit(G, mu):
    """The mean-ergodic limit of μ from np.linalg.eig: the spectral projection
    V[:, F]·V⁻¹[F, :] onto the eigenvalue-1 eigenspace of the convolution
    operator on covectors, applied to μ."""
    w, v = np.linalg.eig(G.left_matrix(mu.covector).T)
    fixed = np.abs(w - 1) < 1e-8
    return Functional.from_covector(G.algebra, v[:, fixed] @ np.linalg.inv(v)[fixed, :] @ mu.covector)


def _seeds(G, rng):
    """Random faithful states, random states on a random set of blocks, and
    random functionals scaled to norm in [1/2, 1]."""
    A = G.algebra
    for _ in range(4):
        yield A.random_state(rng)
        keep = rng.random(len(A.block_dims)) < 0.5
        keep[rng.integers(len(keep))] = True
        blocks = [b * k for b, k in zip(A.random_state(rng).density.blocks, keep)]
        total = sum(np.trace(b).real for b in blocks)
        yield Functional(A, A.element(b / total for b in blocks))
        mu = random_functional(A, rng)
        yield Functional.from_covector(A, mu.covector * rng.uniform(0.5, 1) / mu.norm)


CESARO_GROUPS = ["kp", "cstar:dn:4", "czn:6", "cfun:sn:3"]


@pytest.mark.parametrize("name", CESARO_GROUPS)
def test_cesaro_limit_is_the_spectral_projection(name):
    G = builtin(name)
    rng = np.random.default_rng(23)
    for mu in _seeds(G, rng):
        result = cesaro_limit(G, mu, tol=1e-9, max_iter=10_000)
        assert result.converged
        assert (result.limit - _eig_limit(G, mu)).norm <= 1e-10


_REF_MAX_DOUBLINGS = 20


def _ref_cesaro_limit(G, mu, tol, max_iter):
    """The doubling-checkpoint form of cesaro_limit: the averages at N = 2^k
    through s_{2N} = s_N + μ^⋆N ⋆ s_N until the step between checkpoints and
    the idempotency defect fall below tol; once defect·N exceeds tol·2^20,
    where the drift of repeated squaring competes with the O(1/N) error, the
    mean-ergodic projection of μ, checked as cesaro_limit checks it."""
    cov_mu = mu.covector
    power = cov_mu.copy()          # μ^⋆N
    total = cov_mu.copy()          # Σ_{n≤N} μ^⋆n
    checkpoint, ops, increment, finish = 1, 0, 0.0, False
    reach = tol * 2 ** _REF_MAX_DOUBLINGS

    def conv(c1, c2):
        return np.einsum("i,j,ijc->c", c1, c2, G.d3)

    def norm(cov):
        return Functional.from_covector(G.algebra, cov).norm

    def status(cov_avg):
        return norm(conv(cov_avg, cov_avg) - cov_avg)

    def result(limit_cov=None):
        return SimpleNamespace(
            limit=None if limit_cov is None else Functional.from_covector(G.algebra, limit_cov),
            converged=limit_cov is not None, iterations=ops, checkpoint=checkpoint,
            idempotency_defect=defect, increment=float(increment), ergodic_finish=finish,
        )

    prev_avg = total / checkpoint
    defect = status(prev_avg)
    ops += 1
    if defect <= tol:
        return result(prev_avg)
    increment = np.inf
    for _ in range(_REF_MAX_DOUBLINGS):
        if defect * checkpoint > reach or ops + 3 > max_iter:
            break
        shifted = conv(power, total)
        power = conv(power, power)
        total = total + shifted
        checkpoint *= 2
        ops += 2
        avg = total / checkpoint
        increment = norm(avg - prev_avg)
        defect = status(avg)
        ops += 1
        prev_avg = avg
        if increment <= tol and defect <= tol:
            return result(avg)
    if ops + 3 > max_iter:
        return result()
    finish = True
    t_mat = G.left_matrix(cov_mu).T
    a = t_mat - np.eye(G.dim)
    u, s, vh = np.linalg.svd(a)
    rank = int(np.sum(above_cutoff(s, max(1.0, s[0]))))
    kernel = vh[rank:].conj().T
    column_space = u[:, :rank]
    basis = np.hstack([kernel, column_space])
    try:
        coeff = np.linalg.solve(basis, cov_mu)
    except np.linalg.LinAlgError:
        return result()
    limit_cov = kernel @ coeff[: kernel.shape[1]]
    ops += 3
    defect = status(limit_cov)
    absorb_left = norm(conv(cov_mu, limit_cov) - limit_cov)
    absorb_right = norm(conv(limit_cov, cov_mu) - limit_cov)
    increment = norm(prev_avg - limit_cov)
    return result() if max(defect, absorb_left, absorb_right) > tol else result(limit_cov)


def _cesaro_cases():
    """The seeds of the spectral-projection test and the KP block and corner
    seeds."""
    for name in CESARO_GROUPS:
        G = builtin(name)
        yield from ((G, mu) for mu in _seeds(G, np.random.default_rng(23)))
    kp = builtin("kp")
    for mu in _kp_block_seeds(kp) + [_kp_corner_seed(kp, c) for c in ((1.0, 0.0), (0.0, 1.0))]:
        yield kp, mu


@pytest.mark.parametrize("tol", [1e-9, 1e-8])
def test_cesaro_limit_matches_the_doubling_reference(tol):
    """At these tolerances the doubling never runs: every seed is idempotent
    at N = 1 or goes straight to the mean-ergodic projection, so both routes
    spend the same products on the same arithmetic and agree bit for bit."""
    routes = set()
    for G, mu in _cesaro_cases():
        new, ref = cesaro_limit(G, mu, tol=tol, max_iter=10_000), _ref_cesaro_limit(G, mu, tol, 10_000)
        assert new.converged
        assert (new.converged, new.iterations, new.checkpoint, new.ergodic_finish) == (
            ref.converged, ref.iterations, ref.checkpoint, ref.ergodic_finish)
        assert new.idempotency_defect == ref.idempotency_defect
        assert np.array_equal(new.limit.covector, ref.limit.covector)
        routes.add(new.iterations)
    assert routes == {1, 4}


def test_cesaro_limit_within_tol_of_the_doubling_average(cz6):
    """At tol 1e-3 the reference averages a generator of Z6 to a checkpoint
    N > 1, and that average is the plain one over N powers; the projection is
    the spectral one and within tol of it."""
    delta = Functional.from_covector(cz6.algebra, np.eye(6)[1])
    tol = 1e-3
    ref = _ref_cesaro_limit(cz6, delta, tol, 100)
    assert ref.converged and not ref.ergodic_finish and ref.checkpoint > 1
    power, total = delta, delta.covector.copy()
    for _ in range(ref.checkpoint - 1):
        power = convolve(cz6, power, delta)
        total = total + power.covector
    assert (ref.limit - Functional.from_covector(cz6.algebra, total / ref.checkpoint)).norm < 1e-12
    new = cesaro_limit(cz6, delta, tol=tol, max_iter=100)
    assert new.converged and new.ergodic_finish
    assert (new.limit - _eig_limit(cz6, delta)).norm <= 1e-10
    assert (new.limit - ref.limit).norm <= tol


# ---------------------------------------------------------------------------
# nondegeneracy: the supports of Σ xx* and Σ x*x against the stacked products

NONDEGENERACY_GROUPS = ["czn:8", "czn:16", "cfun:sn:3", "cfun:sn:4", "cstar:dn:4", "cstar:dn:5", "cstar:sn:4",
                        "cstar:zn:6"]


def _random_subspaces(alg, rng, count):
    """count random subspaces of each kind, of dimension 1 to 4: generic, with
    one block zeroed in every basis element, and rank one on every block with
    one column space shared by the basis, so that span(X·A) misses the rest of
    each block."""
    out = []
    for kind in ("generic", "zeroed", "rank one"):
        for _ in range(count):
            k, zero = int(rng.integers(1, 5)), int(rng.integers(len(alg.block_dims)))
            columns = [_gaussian(rng, n, 1) for n in alg.block_dims]
            vecs = []
            for _ in range(k):
                blocks = [_gaussian(rng, n, n) for n in alg.block_dims]
                if kind == "zeroed":
                    blocks[zero] = np.zeros_like(blocks[zero])
                elif kind == "rank one":
                    blocks = [u @ _gaussian(rng, 1, n) for u, n in zip(columns, alg.block_dims)]
                vecs.append(alg.element(blocks).vec)
            out.append(OperatorSubspace.from_spanning(alg, vecs))
    return out


def test_rank_deficit_matches_the_stacked_rank():
    """On the images of every enumerated contractive idempotent of eight
    builtins, the seven KP Cesàro limits and 180 random subspaces, the rank
    deficit read off the supports of Σ xx* and Σ x*x equals the numerical
    rank of the stacked products at their own cutoff."""
    subspaces = []
    for spec in NONDEGENERACY_GROUPS:
        G = builtin(spec)
        enumerate_items = enumerate_group_algebra if G.kind == "group" else enumerate_function_algebra
        subspaces += [image_subspace(left_conv_operator(G, item.functional)) for item in enumerate_items(G)]
    kp = builtin("kp")
    limits = _kp_block_limits(kp) + [_kp_non_haar_state(kp, c) for c in ((1.0, 0.0), (0.0, 1.0))]
    subspaces += [image_subspace(left_conv_operator(kp, omega)) for omega in limits]
    assert len(subspaces) == 468
    rng = np.random.default_rng(25)
    for spec in ("kp", "cstar:dn:5", "cstar:sn:4"):
        subspaces += _random_subspaces(builtin(spec).algebra, rng, 20)
    got = [X.rank_deficit for X in subspaces]
    assert got == [_ref_rank_deficit(X) for X in subspaces]
    assert len(got) == 648 and not any(got[:468])
    assert sum(d > 0 for d in got) == 120 and set(got) == {0, 1, 2, 4, 9, 14}

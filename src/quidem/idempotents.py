"""Contractive idempotent functionals: recognition, construction from an
idempotent state and a compatible contraction, polar decomposition into
idempotent states, Haar classification, subgroup/character extraction, and
the exact enumeration oracles for classical function and group algebras."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    CHECK_TOL,
    STATE_TOL,
    AlgebraElement,
    Functional,
    _Cohort,
    act_left,
    act_right,
    is_central,
    polar_decompose,
)
from .convolution import idempotency_defect, idempotency_defects
from .groups import GroupTable, characters
from .qgroup import FiniteQuantumGroup, QuantumSubgroup, _coproduct_defect, group_like_residual, quotient_by_support

_FMT_ZERO = 1e-12   # real or imaginary parts below this print as zero


def is_idempotent(G: FiniteQuantumGroup, omega: Functional, tol: float = STATE_TOL) -> bool:
    """Nonzero and ω⋆ω = ω within tol (in the dual norm)."""
    if omega.norm <= tol:
        return False
    return idempotency_defect(G, omega) <= tol


def contractive_defect(G: FiniteQuantumGroup, omega: Functional) -> float:
    """max(‖ω⋆ω − ω‖, |‖ω‖ − 1|), which vanishes exactly on the contractive idempotents."""
    return max(idempotency_defect(G, omega), abs(omega.norm - 1.0))


def is_contractive_idempotent(G: FiniteQuantumGroup, omega: Functional, tol: float = STATE_TOL) -> bool:
    """Idempotent with |‖ω‖ − 1| ≤ tol: a nonzero contractive idempotent has
    norm one, and at a loose tol an idempotent of smaller norm is rejected."""
    return omega.norm > tol and contractive_defect(G, omega) <= tol


def _require_contractive(G: FiniteQuantumGroup, omega: Functional, tol: float):
    """Raise ValueError unless ω is a contractive idempotent at tol floored at STATE_TOL."""
    if not is_contractive_idempotent(G, omega, max(tol, STATE_TOL)):
        raise ValueError("not a contractive idempotent "
                         f"(idempotency defect {idempotency_defect(G, omega):.3e}, norm {omega.norm:.6f})")


def group_like_defect(G: FiniteQuantumGroup, sigma: Functional, u: AlgebraElement) -> float:
    """(σ⊗σ)((Δu − u⊗u)*(Δu − u⊗u)), the seminorm-squared defect of u being
    group-like relative to σ."""
    d = G.ts.algebra.from_vec(_coproduct_defect(G, u))
    return _seminorm_sq(G, sigma, d.adjoint() * d)


def _seminorm_sq(G: FiniteQuantumGroup, sigma: Functional, x: AlgebraElement) -> float:
    """(σ⊗σ)(x) = c·X·c for a positive x in A⊗A, with c the covector of σ and
    X[I, J] the coefficient of e_I⊗e_J in x; clamped at zero against roundoff."""
    c = sigma.covector
    return max(0.0, float((c @ x.vec[G.pos_matrix] @ c).real))


def construct(
    G: FiniteQuantumGroup,
    sigma: Functional,
    u: AlgebraElement,
    tol: float = CHECK_TOL,
) -> tuple[Functional, Functional, Functional]:
    """From an idempotent state σ and a contraction u whose group-like defect
    vanishes in the σ⊗σ seminorm, produce (u.σ, σ.u*, u.σ.u*).

    The seminorm, the square root of group_like_defect, is compared with tol
    (its square with tol², which needs no square root).  σ(u*u) is then
    forced to be 0 or 1; the zero branch returns zero functionals, the unit
    branch returns two contractive idempotents and an idempotent state."""
    if u.algebra != G.algebra:
        raise ValueError("construct requires u in the algebra of G")
    state_tol = max(tol, STATE_TOL)
    if not is_idempotent(G, sigma, state_tol) or not sigma.is_state(state_tol):
        raise ValueError("construct requires an idempotent state")
    if u.operator_norm > 1 + tol:
        raise ValueError(f"construct requires a contraction, got norm {u.operator_norm:.6f}")
    square = group_like_defect(G, sigma, u)
    if square > tol * tol:
        raise ValueError(f"group-like defect {np.sqrt(square):.3e} exceeds tolerance {tol:g}")
    value = sigma(u.adjoint() * u).real
    if abs(value) > tol and abs(value - 1.0) > tol:
        raise RuntimeError(f"dichotomy violated: σ(u*u) = {value:.6f} is neither 0 nor 1")
    if abs(value) <= tol:
        zero = Functional.zero(G.algebra)
        return zero, zero, zero
    left = act_left(u, sigma)
    right = act_right(sigma, u.adjoint())
    both = act_left(u, right)
    for f, what in ((left, "u.σ"), (right, "σ.u*")):
        if not is_contractive_idempotent(G, f, state_tol):
            raise RuntimeError(f"{what} failed to be a contractive idempotent")
    if not (is_idempotent(G, both, state_tol) and both.is_state(max(tol, CHECK_TOL))):
        raise RuntimeError("u.σ.u* failed to be an idempotent state")
    return left, right, both


def is_haar_idempotent(G: FiniteQuantumGroup, sigma: Functional, tol: float = CHECK_TOL) -> bool:
    """An idempotent state comes from the Haar state of a quantum subgroup
    exactly when its null space is a two-sided ideal, i.e. when the support
    projection of its density is central."""
    state_tol = max(tol, STATE_TOL)
    if not (is_idempotent(G, sigma, state_tol) and sigma.is_state(state_tol)):
        raise ValueError("is_haar_idempotent expects an idempotent state")
    return is_central(sigma.density.support, tol)


@dataclass(eq=False)
class ContractiveIdempotentReport:
    """Measured defects of the polar decomposition of a contractive
    idempotent, for the caller to judge: with the idempotency defects ‖σ⋆σ − σ‖
    of its absolute values, in the Haar case the trace norm haar_gap =
    ‖|ω|_r − |ω|_l‖, and the subgroup, character and Haar-case defects
    once every defect before them passed."""

    omega: Functional
    abs_r: Functional
    abs_l: Functional
    v: AlgebraElement
    defect_r: float
    defect_l: float
    haar: bool
    roundtrip_r: float
    roundtrip_l: float
    idempotency_r: float
    idempotency_l: float
    subgroup: QuantumSubgroup | None = None
    character: AlgebraElement | None = None
    haar_gap: float | None = None
    subgroup_haar: float | None = None
    character_group_like: float | None = None
    character_defect: float | None = None


def decompose(G: FiniteQuantumGroup, omega: Functional, tol: float = CHECK_TOL) -> ContractiveIdempotentReport:
    """Polar-decompose a contractive idempotent and measure, not judge, the
    theorem's defects: idempotency of both absolute values, both
    reconstructions of ω by the partial isometry v, and Δ(v) − v⊗v in the
    induced seminorms; haar is the centrality of supp |ω|_r (s.centrality)
    at tol, and then haar_gap = ‖|ω|_r − |ω|_l‖.  Once every defect is
    within tol, the idempotency ones floored at STATE_TOL, H =
    quotient_by_support(G, s, STATE_TOL) and u = π(v) are extracted, and the
    Haar case measured: subgroup_haar = ‖π_*|ω|_r − h_H‖, character_group_like
    = group_like_residual(H, u) and character_defect = max_i |ω(e_i) −
    h_H(π(e_i)u)|.  Raises ValueError unless ω is a contractive idempotent
    with states as absolute values (else naming their state_defects), and as quotient_by_support does."""
    _require_contractive(G, omega, tol)
    state_tol = max(tol, STATE_TOL)
    parts = polar_decompose(omega)
    abs_r, abs_l = parts.abs_r, parts.abs_l
    for sigma, side in ((abs_r, "right"), (abs_l, "left")):
        if not sigma.is_state(state_tol):
            raise ValueError("{} absolute value is not a state (positivity defect {:.3e}, trace defect {:.3e})"
                             .format(side, *sigma.state_defects))
    v = parts.u
    # group_like_defect's seminorm on both sides, from one d = Δv − v⊗v: the
    # right row takes d*d, the left row d d*
    d = G.ts.algebra.from_vec(_coproduct_defect(G, v))
    defect_r = float(np.sqrt(_seminorm_sq(G, abs_r, d.adjoint() * d)))
    defect_l = float(np.sqrt(_seminorm_sq(G, abs_l, d * d.adjoint())))
    # the trace norms of v.|ω|_r − ω, |ω|_l.v − ω and |ω|_r − |ω|_l in one pass
    A, dr, dl, dw = G.algebra, abs_r.density.vec, abs_l.density.vec, omega.density.vec
    roundtrip_r, roundtrip_l, gap = A.trace_norms(np.stack([A.multiply(v.vec, dr) - dw, A.multiply(dl, v.vec) - dw,
                                                            dr - dl]))
    idempotency_r, idempotency_l = idempotency_defects(G, [abs_r, abs_l])
    # is_haar_idempotent past its entry check: states guarded above, idempotency measured
    haar = is_central(abs_r.density.support, tol)
    rep = ContractiveIdempotentReport(omega, abs_r, abs_l, v, defect_r, defect_l, haar, roundtrip_r, roundtrip_l,
                                      idempotency_r, idempotency_l, haar_gap=gap if haar else None)
    if haar and max(idempotency_r, idempotency_l) <= state_tol and max(defect_r, defect_l, roundtrip_r,
                                                                       roundtrip_l, gap) <= tol:
        sub = quotient_by_support(G, abs_r.density.support, STATE_TOL)
        H, u = sub.target, sub.apply(v)
        rep.subgroup, rep.character = sub, u
        rep.subgroup_haar = (Functional.from_covector(H.algebra, sub.projection @ abs_r.covector) - H.haar).norm
        rep.character_group_like = group_like_residual(H, u)
        rep.character_defect = _character_defect(omega, sub, u)
    return rep


def _character_defect(omega: Functional, sub: QuantumSubgroup, u: AlgebraElement) -> float:
    """max_i |ω(e_i) − h_H(π(e_i)u)| over the matrix-unit basis of G: the
    columns of π are the π(e_i), multiplied by u in one batch."""
    H = sub.target
    values = H.algebra.multiply(sub.projection.T, u.vec) @ H.haar.covector
    return float(np.abs(omega.covector - values).max())


# ---------------------------------------------------------------------------
# exact enumeration oracles for the classical catalogues


@dataclass(eq=False)
class SubgroupCharacterItem:
    """μ(f) = (1/|H|) Σ_{h∈H} χ(h) f(h) for a subgroup H and character χ."""

    functional: Functional
    subgroup: frozenset
    character: dict                # element index -> character value on H
    label: str


@dataclass(eq=False)
class CosetItem:
    """The functional λ_g ↦ [g ∈ C] for a left coset C of a subgroup."""

    functional: Functional
    coset: frozenset
    subgroup: frozenset
    label: str


def _subgroups(table: GroupTable, subgroups) -> list[frozenset]:
    """The subgroups an enumeration lists: every one of the table by default;
    ValueError on a given entry that is not a subgroup of the table (empty,
    out of range or not closed under the product)."""
    if subgroups is None:
        return table.subgroups
    subgroups = list(subgroups)
    for h in subgroups:
        if not (h and all(0 <= g < table.order for g in h) and all(table.mult[a][b] in h for a in h for b in h)):
            raise ValueError(f"enumeration requires a subgroup of the table, got {sorted(h)}")
    return subgroups


def enumerate_function_algebra(G: FiniteQuantumGroup, subgroups=None) -> list[SubgroupCharacterItem]:
    """All contractive idempotents on C(G) for classical G: one per pair of a
    subgroup H and a character χ of H, over the given subgroups of the table,
    by default every one (subgroup-lattice brute force).  The functionals
    form one cohort: each fact of one is taken for all live ones at once."""
    if G.kind != "function" or G.table is None:
        raise ValueError("enumeration requires a function algebra built from a group table")
    table = G.table
    items = []
    for subgroup in _subgroups(table, subgroups):
        elems = sorted(subgroup)
        for chi in characters(table, subgroup):
            cov = np.zeros(table.order, dtype=np.complex128)
            cov[elems] = chi / len(elems)
            label = "H={%s}, chi=[%s]" % (",".join(table.names[g] for g in elems), ",".join(map(_fmt_complex, chi)))
            items.append(
                SubgroupCharacterItem(
                    functional=Functional.from_covector(G.algebra, cov),
                    subgroup=subgroup,
                    character=dict(zip(elems, chi)),
                    label=label,
                )
            )
    _Cohort([item.functional for item in items])
    return items


def enumerate_group_algebra(G: FiniteQuantumGroup, subgroups=None) -> list[CosetItem]:
    """All contractive idempotents on a classical group algebra: the indicator
    functionals of left cosets of the given subgroups, by default of every
    one.  The functionals form one cohort, as in enumerate_function_algebra."""
    if G.kind != "group" or G.table is None or G.lambda_basis is None:
        raise ValueError("enumeration requires a group algebra built from a group table")
    table = G.table
    pairs = [(coset, subgroup) for subgroup in _subgroups(table, subgroups) for coset in table.left_cosets(subgroup)]
    indicators = np.zeros((table.order, len(pairs)))
    for col, (coset, _) in enumerate(pairs):
        indicators[list(coset), col] = 1.0
    covs = np.linalg.solve(G.lambda_basis.T, indicators)   # one solve for every coset's covector
    items = [
        CosetItem(
            functional=Functional.from_covector(G.algebra, cov),
            coset=coset,
            subgroup=subgroup,
            label="C={%s}" % ",".join(table.names[g] for g in sorted(coset)),
        )
        for cov, (coset, subgroup) in zip(covs.T, pairs)
    ]
    _Cohort([item.functional for item in items])
    return items


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if abs(z.imag) < _FMT_ZERO:
        return f"{z.real:+.3g}"
    if abs(z.real) < _FMT_ZERO:
        return f"{z.imag:+.3g}i"
    return f"{z.real:+.3g}{z.imag:+.3g}i"

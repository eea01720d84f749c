"""Builders for concrete finite quantum groups and their on-disk format:
function algebras C(G) and group algebras of classical tables, the
8-dimensional Kac-Paljutkin quantum group, and a JSON document format
(schema "qgspec-1") with bit-exact decimal round trips."""

from __future__ import annotations

import json
import warnings

import numpy as np

from .algebra import CHECK_TOL, COND_LIMIT, STATE_TOL, Functional, MultiMatrixAlgebra, tensor_algebra
from .groups import GroupTable, cyclic, dihedral, symmetric
from .qgroup import FiniteQuantumGroup, closed_form_antipode, verify_axioms

_KP_AXIOM_TOL = 1e-12   # largest Kac-Paljutkin axiom defect


def function_algebra(table: GroupTable) -> FiniteQuantumGroup:
    """C(G) for a classical group: one 1×1 block per element, Δf(s,t) = f(st),
    ε(f) = f(e), S(f)(t) = f(t⁻¹), Haar = uniform average."""
    n = table.order
    alg = MultiMatrixAlgebra((1,) * n)
    ts = tensor_algebra(alg, alg)
    comult = np.zeros((n * n, n))
    comult[ts.positions, np.ravel(table.mult)] = 1.0
    counit = Functional.from_covector(alg, np.eye(n)[table.identity])
    antipode = np.zeros((n, n))
    antipode[table.inverse, np.arange(n)] = 1.0
    return FiniteQuantumGroup(
        algebra=alg,
        comult=comult,
        counit=counit,
        antipode=antipode,
        name=f"C({_table_name(table)})",
        kind="function",
        table=table,
    )


def group_algebra(table: GroupTable) -> FiniteQuantumGroup:
    """C*(G) = ⊕_ρ M_{n_ρ} from the unitary irreps ρ of table.irreps, which
    cyclic, dihedral and symmetric fill.  λ_g = ⊕_ρ ρ(g) is the group-like
    basis, and lambda_basis is Λ, the matrix whose column g is vec λ_g; then
    Δ = [vec(λ_g⊗λ_g)]·Λ⁻¹, S = Λ·P_inv·Λ⁻¹ (S(λ_g) = λ_{g⁻¹}), ε = 1ᵀΛ⁻¹
    and the Haar state is the Plancherel state.

    Guard: λ_gλ_h = λ_{gh} for every pair and λ_{g⁻¹} = λ_g* within
    STATE_TOL, and cond Λ ≤ COND_LIMIT.  An invertible Λ means the λ_g span
    ⊕_ρ M_{n_ρ}, so by Burnside's theorem the ρ are irreducible and pairwise
    inequivalent.  A table without irreps (one built by hand) is refused;
    dual(function_algebra(table)) splits its regular representation
    instead."""
    if not table.irreps:
        raise ValueError("group_algebra requires a table with explicit irreps (cyclic, dihedral or symmetric); "
                         "use dual(function_algebra(table)) for any other group table")
    n = table.order
    alg = MultiMatrixAlgebra(tuple(rho.shape[1] for rho in table.irreps))
    if alg.dim != n:
        raise ValueError(f"irreps do not fill C*(G): their squared degrees sum to {alg.dim}, not the order {n}")
    rows = np.concatenate([rho.reshape(n, -1) for rho in table.irreps], axis=1)   # row g is vec λ_g
    hom = float(np.abs(alg.multiply(rows[:, None, :], rows[None, :, :]) - rows[np.array(table.mult)]).max())
    if not hom <= STATE_TOL:
        raise ValueError(f"irreps are not multiplicative: |λ_gλ_h − λ_gh| reaches {hom:.2e}")
    inverse = list(table.inverse)
    star = float(np.abs(alg.adjoint(rows) - rows[inverse]).max())
    if not star <= STATE_TOL:
        raise ValueError(f"irreps are not unitary: |λ_g* − λ_g⁻¹| reaches {star:.2e}")
    lam = rows.T
    cond = float(np.linalg.cond(lam))
    if not cond <= COND_LIMIT:
        raise ValueError(f"irreps are not irreducible and pairwise inequivalent: Λ is singular (cond {cond:.2e})")
    lam_inv = np.linalg.inv(lam)
    tensors = np.empty((n * n, n), dtype=lam.dtype)   # column g is vec λ_g⊗λ_g
    tensors[tensor_algebra(alg, alg).positions] = (lam[:, None, :] * lam[None, :, :]).reshape(n * n, n)
    lambda_basis = lam.astype(np.complex128)
    lambda_basis.flags.writeable = False
    return FiniteQuantumGroup(
        algebra=alg,
        comult=tensors @ lam_inv,
        counit=Functional.from_covector(alg, lam_inv.sum(axis=0)),
        antipode=lam[:, inverse] @ lam_inv,
        name=f"C*({_table_name(table)})",
        kind="group",
        table=table,
        lambda_basis=lambda_basis,
    )


def _table_name(table: GroupTable) -> str:
    return f"order{table.order}"


def kac_paljutkin() -> FiniteQuantumGroup:
    """The 8-dimensional quantum group with blocks (1,1,1,1,2), neither
    commutative nor cocommutative.

    Presentation: the four characters d_g are labelled by the Klein group
    V = Z2×Z2 (identity = the counit block).  Fix the projective unitary
    family u_1 = 1, u_2 = diag(1,-1), u_3 = [[0,1],[i,0]], u_4 =
    [[0,1],[-i,0]] (u_2 u_3 = u_4 = -u_3 u_2, a nondegenerate commutator
    pairing).  Then

        Δ(d_g) = Σ_h d_h ⊗ d_{hg}  +  |Ω_g⟩⟨Ω_g|,
        Δ(a)   = Σ_g d_g ⊗ u_g a u_g*  +  Σ_g (u_gᵀ a conj(u_g)) ⊗ d_g,

    with Ω_g = (u_g⊗1)·(|00⟩+|11⟩)/√2 the Bell-type entangled vectors in
    the M₂⊗M₂ corner; the right tensor legs carry the transposed
    conjugations (which swap u_3 and u_4), and that asymmetry is exactly
    what makes the structure noncocommutative.  The Haar state is the
    Plancherel state of the blocks, the antipode is read off it and the
    counit in closed form (closed_form_antipode), and the construction is
    rejected unless every axiom holds to _KP_AXIOM_TOL."""
    alg = MultiMatrixAlgebra((1, 1, 1, 1, 2))
    ts = tensor_algebra(alg, alg)
    eye = np.eye(alg.dim)   # eye[g] is the vec of d_g

    def corner(m):
        """Vec of the element that is m on the M₂ block and zero elsewhere."""
        return np.concatenate([np.zeros(4), np.ravel(m)])

    u = [
        np.eye(2),
        np.diag([1.0, -1.0]),
        np.array([[0.0, 1.0], [1.0j, 0.0]]),
        np.array([[0.0, 1.0], [-1.0j, 0.0]]),
    ]
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    comult = np.zeros((ts.algebra.dim, alg.dim), dtype=np.complex128)
    for g in range(4):
        comult[:, g] = sum(ts.scatter(eye[h], eye[h ^ g]) for h in range(4))
        vec = np.kron(u[g], np.eye(2)) @ bell
        # M₂⊗M₂ is the last block, with e_kl ⊗ e_st at row 2k+s, column 2l+t
        comult[-16:, g] = np.outer(vec, vec.conj()).ravel()
    for k in range(2):
        for l in range(2):
            a = np.outer(np.eye(2)[k], np.eye(2)[l])
            comult[:, 4 + 2 * k + l] = sum(
                ts.scatter(eye[g], corner(u[g] @ a @ u[g].conj().T))
                + ts.scatter(corner(u[g].T @ a @ u[g].conj()), eye[g])
                for g in range(4)
            )
    counit = Functional.from_covector(alg, np.eye(alg.dim)[0])
    kp = FiniteQuantumGroup(
        algebra=alg,
        comult=comult,
        counit=counit,
        antipode=closed_form_antipode(alg, comult, counit),
        name="KacPaljutkin",
        kind="kp",
    )
    report = verify_axioms(kp, _KP_AXIOM_TOL)
    if not report.passed:
        raise RuntimeError(f"Kac-Paljutkin construction fails axioms: {report.failures()}")
    return kp


# ---------------------------------------------------------------------------
# serialization: schema "qgspec-1"


class QGSpecError(ValueError):
    """Malformed quantum group document."""


def _pairs(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=np.complex128)]


def _matrix_pairs(mat: np.ndarray) -> list:
    return [_pairs(row) for row in np.asarray(mat, dtype=np.complex128)]


def parse_pairs(data, where: str) -> np.ndarray:
    """The vector of a list of finite [re, im] number pairs, else QGSpecError(where: …); booleans are refused."""
    try:
        if any(isinstance(v, bool) for pair in data for v in pair):   # JSON true is not the number 1
            raise TypeError("boolean entry")
        arr = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise QGSpecError(f"{where}: expected a list of [re, im] pairs ({exc})") from exc
    if not np.isfinite(arr).all():
        raise QGSpecError(f"{where}: non-finite entry")
    return arr


def _from_rows(data, where: str, shape: tuple) -> np.ndarray:
    if not isinstance(data, list):
        raise QGSpecError(f"{where}: expected a list of rows of [re, im] pairs")
    rows = [parse_pairs(row, f"{where} row {i}") for i, row in enumerate(data)]
    if len({row.shape for row in rows}) > 1:
        raise QGSpecError(f"{where}: rows of unequal length")
    out = np.array(rows)
    if out.shape != shape:
        raise QGSpecError(f"{where}: expected shape {shape}, got {out.shape}")
    return out


def to_document(G: FiniteQuantumGroup) -> dict:
    return {
        "schema": "qgspec-1",
        "name": G.name,
        "block_dims": list(G.algebra.block_dims),
        "comult": _matrix_pairs(G.comult),
        "antipode": _matrix_pairs(G.antipode),
        "counit": _pairs(G.counit.density.vec),
        "haar": _pairs(G.haar.density.vec),
    }


def from_document(doc: dict) -> FiniteQuantumGroup:
    """The quantum group of a qgspec-1 document, whose axioms are checked at
    CHECK_TOL: a failing axiom warns, and data on which the check cannot run
    (an SVD that does not converge, or products beyond double precision)
    raise QGSpecError."""
    if not isinstance(doc, dict):
        raise QGSpecError("document root must be an object")
    if doc.get("schema") != "qgspec-1":
        raise QGSpecError(f"unsupported schema {doc.get('schema')!r}; expected 'qgspec-1'")
    for key in ("block_dims", "comult", "antipode", "counit", "haar"):
        if key not in doc:
            raise QGSpecError(f"missing field {key!r}")
    dims = doc["block_dims"]
    if not isinstance(dims, list) or not all(
        (isinstance(n, int) and not isinstance(n, bool)) or (isinstance(n, float) and n.is_integer()) for n in dims
    ):
        raise QGSpecError(f"block_dims: expected a list of integers, got {dims!r}")
    try:
        alg = MultiMatrixAlgebra(tuple(int(n) for n in dims))
    except ValueError as exc:
        raise QGSpecError(f"block_dims: {exc}") from exc
    dim = alg.dim
    comult = _from_rows(doc["comult"], "comult", (dim * dim, dim))
    antipode = _from_rows(doc["antipode"], "antipode", (dim, dim))
    counit_vec = parse_pairs(doc["counit"], "counit")
    haar_vec = parse_pairs(doc["haar"], "haar")
    if counit_vec.shape != (dim,) or haar_vec.shape != (dim,):
        raise QGSpecError(f"counit/haar: expected density vectors of length {dim}")
    G = FiniteQuantumGroup(
        algebra=alg,
        comult=comult,
        counit=Functional(alg, alg.from_vec(counit_vec)),
        antipode=antipode,
        haar=Functional(alg, alg.from_vec(haar_vec)),
        name=str(doc.get("name", "")),
        kind="file",
    )
    try:
        with np.errstate(over="raise", invalid="raise"):
            report = verify_axioms(G, CHECK_TOL)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise QGSpecError(f"the axiom check cannot run on these structure data ({exc})") from exc
    if not report.passed:
        warnings.warn(
            f"loaded quantum group fails axioms: {report.failures()}",
            stacklevel=2,
        )
    return G


def save(G: FiniteQuantumGroup, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_document(G), fh, indent=1)
        fh.write("\n")


def load(path) -> FiniteQuantumGroup:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise QGSpecError(f"{path}: cannot read ({exc.strerror})") from exc
    except (RecursionError, UnicodeDecodeError) as exc:   # nesting too deep for json, or not UTF-8 text
        raise QGSpecError(f"{path}: cannot decode ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise QGSpecError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return from_document(doc)


# ---------------------------------------------------------------------------
# named builtins for the command line and tests


_FAMILIES = {   # spec prefix -> (builder, table constructor, display name at N)
    "czn": (function_algebra, cyclic, "C(Z{})"),
    "cstar:zn": (group_algebra, cyclic, "C*(Z{})"),
    "cstar:dn": (group_algebra, dihedral, "C*(D{})"),
    "cfun:sn": (function_algebra, symmetric, "C(S{})"),
    "cstar:sn": (group_algebra, symmetric, "C*(S{})"),
}
BUILTINS = tuple(f"{prefix}:N" for prefix in _FAMILIES) + ("kp",)


def builtin(spec: str) -> FiniteQuantumGroup:
    """The group of a builtin name: one of BUILTINS, a _FAMILIES prefix
    followed by an integer N, or kp."""
    prefix, _, index = spec.rpartition(":")
    try:
        if spec == "kp":
            return kac_paljutkin()
        if prefix in _FAMILIES:
            build, table, name = _FAMILIES[prefix]
            n = int(index)
            G = build(table(n))
            G.name = name.format(n)
            return G
    except ValueError as exc:
        raise ValueError(f"invalid builtin spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown builtin {spec!r}; expected {', '.join(BUILTINS[:-1])}, or {BUILTINS[-1]}")

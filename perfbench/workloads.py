"""The benchmark's three workloads and their oracles.

Each workload is a closed loop with one client: a round is a fixed mix of
jobs, the seed fixes their order (and, where the workload draws, which
members are drawn), and the next job starts only when the previous one has
returned.  Every job's output is checked against expected values fixed here,
derived beside them from group theory rather than from quidem, so a quidem
bug cannot vouch for itself.

quidem is reached only through module attributes (``quidem.tro.is_tro``),
never through names bound at import, so that tracing.installed can trace
the calls.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from time import perf_counter

import numpy as np

import tracing

import quidem
import quidem.catalogue
import quidem.convolution
import quidem.idempotents
import quidem.tro
from quidem.algebra import Functional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# oracle constants

# the 16 rows of verify_axioms
AXIOMS = frozenset({
    "comult_unital", "comult_homomorphism", "comult_star", "coassociativity",
    "counit_left", "counit_right", "antipode_left", "antipode_right",
    "antipode_involutive", "antipode_star", "haar_positive", "haar_trace_one",
    "haar_left_invariant", "haar_right_invariant", "cancellation_left",
    "cancellation_right",
})

# group -> (block dims, commutative, cocommutative).
# C(G) has one 1×1 block per element, is commutative, and is cocommutative
# iff G is abelian.  C*(G) has one n×n block per irreducible representation
# of dimension n, is cocommutative, and is commutative iff G is abelian.
# D_n (order 2n) has 4 linear characters for even n, 2 for odd n, and
# ⌊(n-1)/2⌋ two-dimensional irreducibles.  Kac-Paljutkin is 8 = 4·1² + 2² dimensional and
# neither commutative nor cocommutative.
VERIFY_EXPECTED = {
    "czn:8": ((1,) * 8, True, True),
    "czn:10": ((1,) * 10, True, True),
    "cfun:sn:3": ((1,) * 6, True, False),
    "cstar:dn:4": ((1, 1, 1, 1, 2), False, True),
    "kp": ((1, 1, 1, 1, 2), False, False),
}

# group -> (contractive idempotents, non-Haar ones).
# On C(G) they are the pairs (H, χ) of a subgroup and a linear character of
# H; all are Haar (C(G) is commutative, so every support is central).  For
# Z_n the subgroups are Z_d, d | n, with d characters each: σ(n) items;
# σ(4) = 7, σ(6) = 12.  S3: {e} 1, three Z2 2 each, Z3 3, S3 2
# linear: 12.
# On C*(G) they are the indicators of left cosets of subgroups: Σ_H [G:H]
# items, non-Haar exactly when H is not normal: Σ_{H not normal} [G:H].
#   D4:  8 + 5 order-2 ·4 + 3 order-4 ·2 + 1 = 35; the 4 reflection
#        subgroups are not normal: 4·4 = 16.
CLASSIFY_EXPECTED = {
    "czn:4": (7, 0),
    "czn:6": (12, 0),
    "cfun:sn:3": (12, 0),
    "cstar:dn:4": (35, 16),
}

TOL = 1e-8            # the CLI's max(--tol, 1e-8) at its default --tol 1e-9
IDEM_TOL = 1e-9       # the CLI's max(--tol, 1e-9)
CP_FLOOR = -1e-9
KP_RANDOM_STATES = 4
KP_MAX_ITER = 10_000


# ---------------------------------------------------------------------------
# independent checks


def _trace_norm(f: Functional) -> float:
    return float(sum(np.linalg.svd(b, compute_uv=False).sum() for b in f.density.blocks))


def _convolve(G, c1, c2):
    """ω⋆μ on covectors, from the comultiplication matrix directly."""
    dim = G.dim
    d3 = G.comult[np.asarray(G.ts.positions).reshape(dim, dim), :]
    return np.einsum("i,j,ijc->c", c1, c2, d3)


def _idempotent_state_failures(G, omega: Functional) -> list[str]:
    out = []
    blocks = omega.density.blocks
    if any(np.abs(b - b.conj().T).max() > TOL for b in blocks):
        out.append("density not Hermitian")
    elif min(np.linalg.eigvalsh((b + b.conj().T) / 2).min() for b in blocks) < -TOL:
        out.append("density not positive")
    if abs(sum(np.trace(b) for b in blocks) - 1.0) > TOL:
        out.append("not normalised")
    cov = omega.covector
    if np.abs(_convolve(G, cov, cov) - cov).max() > 1e-7:
        out.append("not idempotent")
    return out


def _support_central(omega: Functional) -> bool:
    """A support projection is central iff it is 0 or 1 on every block."""
    for b in omega.density.blocks:
        s = np.linalg.svd(b, compute_uv=False)
        rank = int(np.sum(s > 1e-8 * max(1.0, s.max())))
        if rank not in (0, b.shape[0]):
            return False
    return True


def _is_normal(table, subgroup) -> bool:
    return all(table.op(table.op(g, h), table.inverse[g]) in subgroup
               for g in range(table.order) for h in subgroup)


def _left_rank(G, omega: Functional) -> int:
    """Rank of L_ω = (ω⊗id)Δ, from the comultiplication matrix directly."""
    dim = G.dim
    d3 = G.comult[np.asarray(G.ts.positions).reshape(dim, dim), :]
    return int(np.linalg.matrix_rank(np.einsum("i,ijc->jc", omega.covector, d3), tol=1e-8))


# ---------------------------------------------------------------------------
# inputs


def kp_structured_seeds(G) -> list[Functional]:
    """States concentrated on one block, plus the counit block with a
    rank-one piece of the 2×2 block (these reach the non-Haar idempotent
    states)."""
    dims = G.algebra.block_dims
    out = []
    for k, n in enumerate(dims):
        blocks = [np.zeros((m, m)) for m in dims]
        blocks[k] = np.eye(n) / n
        out.append(Functional(G.algebra, G.algebra.element(blocks)))
    for p in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
        blocks = [np.zeros((m, m)) for m in dims]
        blocks[0] = np.eye(1) / 2
        blocks[-1] = p / 2
        out.append(Functional(G.algebra, G.algebra.element(blocks)))
    return out


def random_state(G, rng: np.random.Generator) -> Functional:
    """A faithful random state: density X X* on each block, normalised."""
    blocks = []
    for n in G.algebra.block_dims:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(x @ x.conj().T)
    total = sum(np.trace(b).real for b in blocks)
    return Functional(G.algebra, G.algebra.element([b / total for b in blocks]))


def kp_limits(G, seeds: list[Functional]) -> tuple[list[Functional], list[str]]:
    """Distinct Cesàro limits of the seeds, as the exploration script finds them."""
    found, failures = [], []
    for mu in seeds:
        result = quidem.convolution.cesaro_limit(G, mu, tol=IDEM_TOL, max_iter=KP_MAX_ITER)
        if not result.converged:
            failures.append("cesaro_limit did not converge")
            continue
        if result.limit.norm > 1e-8 and all(_trace_norm(result.limit - old) > 1e-6 for old in found):
            found.append(result.limit)
    return found, failures


def _enumerate(G):
    if G.kind == "function":
        return quidem.idempotents.enumerate_function_algebra(G)
    return quidem.idempotents.enumerate_group_algebra(G)


def _sum_n(G) -> int:
    return int(sum(G.algebra.block_dims))


# ---------------------------------------------------------------------------
# workloads
#
# A round holds jobs of clearly different costs, so the median and the tail
# percentile of a run (see run.tail_percentile) each fall inside one group of
# like-cost jobs rather than on the edge between two.


class Verify:
    """One ``quidem verify --group builtin:G --json`` per job, each in a
    fresh process, as CLI users run it."""

    name = "verify"
    groups = tuple(VERIFY_EXPECTED)
    in_process = False
    min_rounds = 7
    setup_repeats = 7

    def setup(self, groups):
        # the fixed cost every job pays: interpreter, imports, argument parsing
        proc = subprocess.run([sys.executable, "-m", "quidem", "--help"], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"quidem --help failed: {proc.stderr.strip()}")
        return {"groups": list(groups or self.groups)}

    def round(self, ctx, rng):
        return [ctx["groups"][i] for i in rng.permutation(len(ctx["groups"]))]

    def round_size(self, ctx):
        return len(ctx["groups"])

    def kind(self, spec):
        return spec

    def meta(self, ctx, spec):
        return {"sum_n": sum(VERIFY_EXPECTED[spec][0])}

    def run(self, ctx, spec, tracer, job_span):
        argv = ["verify", "--group", f"builtin:{spec}", "--json"]
        if tracer is None:
            cmd = [sys.executable, "-m", "quidem", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), *argv]
        spawn = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=170)
        out = proc.stdout
        if tracer is not None:
            out, _, handed = out.partition(tracing.CHILD_MARKER)
            tracer.add_child_trace(job_span, json.loads(handed), spawn, tracer.job)
        return lambda: self.check(spec, proc.returncode, out, proc.stderr)

    @staticmethod
    def check(spec, returncode, stdout, stderr) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}: {stderr.strip()[-200:]}"]
        report = json.loads(stdout)
        dims, commutative, cocommutative = VERIFY_EXPECTED[spec]
        rows = {c["name"]: c["passed"] for c in report["checks"]}
        out = []
        if set(rows) != {f"axiom:{a}" for a in AXIOMS}:
            out.append(f"axiom rows {sorted(rows)}")
        if not all(rows.values()) or not report["passed"]:
            out.append("an axiom row failed")
        info = report["info"]
        if tuple(sorted(info["block_dims"])) != dims:
            out.append(f"block dims {info['block_dims']} != {dims}")
        if (float(info["commutativity_defect"]) <= 1e-9) != commutative:
            out.append(f"commutativity defect {info['commutativity_defect']}")
        if (float(info["cocommutativity_defect"]) <= 1e-9) != cocommutative:
            out.append(f"cocommutativity defect {info['cocommutativity_defect']}")
        return out

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Classify:
    """One job per group, in one process with the groups built in set-up:
    classify every contractive idempotent of the group, as ``quidem
    enumerate`` does; on Kac-Paljutkin, which has no classical oracle, find
    idempotent states as Cesàro limits and classify those.

    A round holds MIX[g] jobs of group g (each KP job draws its own random
    states).  Sorted by cost, a run's 45 jobs are 9 C(Z4), 9 KP, 9 C(S3),
    15 C(Z6) and 3 C*(D4) ones, so the median is the middle C(S3) job and
    the tail percentile (10 jobs beyond it) the middle C(Z6) one: each is
    taken over many like jobs, not over one job per round."""

    name = "classify"
    groups = (*CLASSIFY_EXPECTED, "kp")
    in_process = True
    min_rounds = 3
    setup_repeats = 7
    MIX = {"czn:4": 3, "czn:6": 5, "cfun:sn:3": 3, "cstar:dn:4": 1, "kp": 3}

    def setup(self, groups):
        return {"groups": {g: quidem.catalogue.builtin(g) for g in (groups or self.groups)}}

    def round(self, ctx, rng):
        names = [name for name in ctx["groups"] for _ in range(self.MIX[name])]
        return [(names[i], int(rng.integers(2**31))) for i in rng.permutation(len(names))]

    def round_size(self, ctx):
        return sum(self.MIX[name] for name in ctx["groups"])

    def kind(self, spec):
        return spec[0]

    def meta(self, ctx, spec):
        return {"sum_n": _sum_n(ctx["groups"][spec[0]])}

    def run(self, ctx, spec, tracer, job_span):
        name, draw = spec
        G = ctx["groups"][name]
        if name == "kp":
            return self._kp(G, np.random.default_rng(draw))
        items = _enumerate(G)
        results = [
            (item,
             quidem.idempotents.is_contractive_idempotent(G, item.functional, IDEM_TOL),
             quidem.idempotents.decompose(G, item.functional, TOL).haar)
            for item in items
        ]

        def check():
            failures = []
            count, non_haar = CLASSIFY_EXPECTED[name]
            if len(items) != count:
                failures.append(f"{len(items)} items, expected {count}")
            if sum(not haar for _, _, haar in results) != non_haar:
                failures.append(f"non-Haar count differs from {non_haar}")
            for item, ok, haar in results:
                expect = G.kind == "function" or _is_normal(G.table, item.subgroup)
                if not ok or haar != expect:
                    failures.append(f"{item.label}: contractive={ok} haar={haar}")
            return failures

        return check

    def _kp(self, G, rng):
        seeds = kp_structured_seeds(G) + [random_state(G, rng) for _ in range(KP_RANDOM_STATES)]
        limits, failures = kp_limits(G, seeds)
        reps = [quidem.idempotents.decompose(G, omega, TOL) for omega in limits]

        def check():
            out = list(failures)
            for omega, rep in zip(limits, reps):
                out += _idempotent_state_failures(G, omega)
                if rep.haar != _support_central(omega):
                    out.append("Haar flag disagrees with support centrality")
            if not any(not _support_central(omega) for omega in limits):
                out.append("no non-Haar idempotent state reached")
            return out

        return check

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tro:
    """One (group, contractive idempotent) pair per job, in one process:
    the body of ``quidem tro`` plus the mixed-product check ``quidem
    decompose`` adds.  Set-up builds the pool: every contractive idempotent
    of C*(D4), the Kac-Paljutkin idempotent states the structured seeds
    reach, the image-dimension-1 and -2 idempotents of C*(D5), and the
    image-dimension-1 idempotents of C(Z16), whose 1024² Choi matrix makes
    them the heaviest jobs.  A round is all of C*(D4), C*(D5) and KP plus
    CZ16_PER_ROUND of C(Z16), in an order the seed draws; C(Z16) members
    are drawn without repetition across rounds.  A round outlasts
    BENCHMARK.json's run_seconds, so a run is one round and no pair repeats
    within it.

    A round's 90 jobs fall in three cost groups: 66 light ones (~0.15 s:
    image dimension 1-2 on C*(D4), C*(D5) and KP), 11 middle ones (0.3-1.2
    s: image dimension 4 and 8 on C*(D4) and KP) and the 13 C(Z16) ones
    (~2 s).  The median falls 21 places below the top of the light group
    and the tail percentile (10 jobs beyond it) on the third fastest C(Z16)
    job, so the tail is a long job, which evens out the machine's
    short-term noise, and sits far from the middle group.  Building C*(D5)
    takes ~1 s, so set-up is repeated fewer times here."""

    name = "tro"
    groups = ("czn:16", "cstar:dn:4", "cstar:dn:5", "kp")
    in_process = True
    min_rounds = 1
    setup_repeats = 3
    CZ16_PER_ROUND = 13
    # Only small image dimensions of the larger groups enter the pool:
    # C(Z16) images of dimension 2-16 cost 3-11 s a job on a 2-core Xeon,
    # and the C*(D5) ones of dimension 5-10 would join the middle group.
    only_dims = {"czn:16": (1,), "cstar:dn:5": (1, 2)}

    def setup(self, groups):
        pool = {}
        built = {}
        for name in groups or self.groups:
            G = built[name] = quidem.catalogue.builtin(name)
            if name == "kp":
                limits, failures = kp_limits(G, kp_structured_seeds(G))
                if failures:
                    raise RuntimeError(f"KP pool: {failures}")
                entries = [(omega, _left_rank(G, omega)) for omega in limits]
            else:
                # image dimension [G:H] on C(G), |H| on C*(G)
                order = G.table.order
                entries = [(item.functional,
                            order // len(item.subgroup) if G.kind == "function"
                            else len(item.subgroup))
                           for item in _enumerate(G)]
            keep = self.only_dims.get(name)
            pool[name] = [(omega, dim) for omega, dim in entries if keep is None or dim in keep]
        return {"groups": built, "pool": pool, "queue": []}

    def round(self, ctx, rng):
        picks = []
        for name, members in ctx["pool"].items():
            if name != "czn:16":
                picks += [(name, i) for i in range(len(members))]
                continue
            for _ in range(min(self.CZ16_PER_ROUND, len(members))):
                if not ctx["queue"]:
                    ctx["queue"] = [int(i) for i in rng.permutation(len(members))]
                picks.append((name, ctx["queue"].pop()))
        return [picks[i] for i in rng.permutation(len(picks))]

    def round_size(self, ctx):
        return sum(len(m) if name != "czn:16" else min(self.CZ16_PER_ROUND, len(m))
                   for name, m in ctx["pool"].items())

    def kind(self, spec):
        name, index = spec
        return name

    def meta(self, ctx, spec):
        return {"sum_n": _sum_n(ctx["groups"][spec[0]])}

    def run(self, ctx, spec, tracer, job_span):
        name, index = spec
        G = ctx["groups"][name]
        omega, dim = ctx["pool"][name][index]
        T = quidem.tro
        mixed = T.check_tro_expectation(G, omega, TOL)
        X = T.image_subspace(quidem.convolution.left_conv_operator(G, omega))
        rows = {
            "image is TRO": T.is_tro(X, TOL),
            "image nondegenerate": T.is_nondegenerate(X, TOL),
            "image right invariant": T.is_right_invariant(G, X, TOL),
        }
        link = T.linking_algebra(X, TOL)
        rows["left corner right invariant"] = T.is_right_invariant(G, link.left, TOL)
        rows["right corner right invariant"] = T.is_right_invariant(G, link.right, TOL)
        E = T.build_expectation(G, omega, TOL)
        checks = T.expectation_checks(E, link)
        rows["expectation preserves haar weight"] = T.preserves_weight(E, TOL)
        recovery = T.recover_idempotent(G, X, TOL)

        def check():
            rows["mixed products and TRO expectation"] = mixed.passed(TOL)
            rows["expectation idempotent"] = checks.idempotent <= TOL
            rows["expectation fixes linking algebra"] = checks.fixes_subalgebra <= TOL
            rows["expectation bimodule"] = checks.bimodule <= TOL
            rows["expectation completely positive"] = checks.choi_min_eigenvalue >= CP_FLOOR
            rows["recovered"] = recovery.ok
            failures = [f"{name} #{index}: {row}" for row, ok in rows.items() if not ok]
            if X.dim != dim:
                failures.append(f"{name} #{index}: image dim {X.dim}, expected {dim}")
            if recovery.ok and _trace_norm(recovery.functional - omega) > TOL:
                failures.append(f"{name} #{index}: recovered functional differs")
            return failures

        return check

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (Verify(), Classify(), Tro())}


def _child_env() -> dict:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


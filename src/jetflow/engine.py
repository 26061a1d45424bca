"""Top-level analyses: symmetry and conservation checks, the Noether
correspondence, recursion-operator verification, and hierarchy generation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (ClosureError, NotASymmetry, NotExact, NotInImage,
                     NotVariational, ResourceLimit)
from .jets import (DiffPoly, EvolutionSystem, Functional, Monomial,
                   _exact, diff_partial, dt_total, euler1, integrate_x,
                   prolong_apply)
from .operators import (PseudoDiffOp, apply_op, commutator, compose,
                        frechet, op_time_derivative, reconstruct_density)

DEFAULT_MAX_JET_ORDER = 12
# The most steps one hierarchy run may take.  Each Gardner step costs about
# 2.7x the one before; ten steps from Kbar1 took 10.6 s of CPU (2-vCPU Xeon).
MAX_HIERARCHY_STEPS = 10
# The most monomials one order tier of the operator-inversion ansatz may
# enumerate.  The built-in Gardner inversions need at most 126 (Qbar5
# through E); inversions that reached tiers of 1001 and 3003 monomials took
# about 2.4 and 14 s of CPU (2-vCPU Xeon).
MAX_ANSATZ_MONOMIALS = 1024


@dataclass
class CheckReport:
    """Outcome of a single verification.

    `residual` is zero exactly when the check passes; certificates carry
    side products such as fluxes, densities or hierarchy members.
    """

    name: str
    passed: bool
    residual: object = None
    certificates: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass
class HierarchyResult:
    """Flows and functionals produced by iterating a recursion operator."""

    flows: List[DiffPoly]
    functionals: List[Functional]
    stopped_at: Optional[Tuple[int, object]] = None
    reports: List[CheckReport] = field(default_factory=list)
    assumptions: Tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)


NONDEGENERACY_ASSUMPTION = ("the first Hamiltonian operator is assumed "
                            "approximately nondegenerate (recorded, not checked)")


# ---------------------------------------------------------------------------
# Symmetries and conservation laws


def check_symmetry(Q: DiffPoly, sys: EvolutionSystem, name: str = "symmetry") -> CheckReport:
    """Approximate-symmetry criterion for the evolution system.

    The residual is dQ/dt + D_Q(K) - D_K(Q); it vanishes modulo eps^(p+1)
    exactly when v_Q is an approximate symmetry.
    """
    residual = _symmetry_residual([Q], [sys.rhs])
    return CheckReport(name, residual.is_zero(), residual)


def _symmetry_residual(q_tower: list, k_tower: list) -> DiffPoly:
    """The check_symmetry residual of Q for u_t = K, from the D_x towers of
    Q and K (lists starting at Q and at K, grown in place as needed)."""
    Q, K = q_tower[0], k_tower[0]
    return (diff_partial(Q, "t") + prolong_apply(k_tower, Q)
            - prolong_apply(q_tower, K))


def check_conservation(T: Functional, sys: EvolutionSystem,
                       name: str = "conservation") -> CheckReport:
    """Approximate conservation of int T dx along the flow.

    Passes when D_t(T) is a total x-derivative; the certificate is the flux
    X with D_t(T) + D_x(X) = 0.  A failure's residual is the Euler
    derivative of D_t(T).
    """
    dens_dot = dt_total(T.density, sys)
    try:
        flux = -integrate_x(dens_dot)
    except NotExact as err:
        return CheckReport(name, False, err.obstruction)
    return CheckReport(name, True, DiffPoly.zero(dens_dot.eps_order),
                       {"flux": flux})


# ---------------------------------------------------------------------------
# Bounded linear ansatz for inverting an operator on a characteristic


def _monomial_basis(variables: Sequence, max_degree: int):
    """All monomials over the given variables with total degree <= bound."""
    basis = [Monomial(0, 0, ())]
    for var in variables:
        extended = []
        for mon in basis:
            extended.append(mon)
            current = mon
            while current.degree() < max_degree:
                if var == "x":
                    current = Monomial(current.x + 1, current.t, current.jets)
                elif var == "t":
                    current = Monomial(current.x, current.t + 1, current.jets)
                else:
                    current = current.with_exponent(var, current.exponent(var) + 1)
                extended.append(current)
        basis = extended
    return basis


def _solve_rational_system(rows):
    """Sparse Gaussian elimination over Fraction.

    `rows` is an iterable of (coeff_map, rhs) with coeff_map: index->rational.
    Returns an index->Fraction solution with free variables at zero, or None
    when the system is inconsistent.  Entries are made Fractions on entry,
    so that the divisions by pivots stay exact.
    """
    pivots: List[Tuple[int, Dict[int, Fraction], Fraction]] = []
    pivot_cols: Dict[int, int] = {}
    for coeffs, rhs in rows:
        coeffs = {c: Fraction(v) for c, v in coeffs.items()}
        rhs = Fraction(rhs)
        for col, position in pivot_cols.items():
            if col in coeffs:
                factor = coeffs.pop(col)
                _, prow, prhs = pivots[position]
                for c2, v2 in prow.items():
                    coeffs[c2] = coeffs.get(c2, Fraction(0)) - factor * v2
                    if coeffs[c2] == 0:
                        del coeffs[c2]
                rhs = rhs - factor * prhs
        if not coeffs:
            if rhs != 0:
                return None
            continue
        col = min(coeffs)
        lead = coeffs.pop(col)
        row = {c: v / lead for c, v in coeffs.items()}
        pivot_cols[col] = len(pivots)
        pivots.append((col, row, rhs / lead))
    solution: Dict[int, Fraction] = {}
    for col, row, rhs in reversed(pivots):
        value = rhs
        for c, v in row.items():
            value -= v * solution.get(c, Fraction(0))
        solution[col] = value
    return solution


def solve_operator_equation(D: PseudoDiffOp, Q: DiffPoly) -> Optional[DiffPoly]:
    """Find g with apply(D, g) == Q by a bounded linear ansatz.

    The candidate space is spanned by eps^e times monomials in x, t and the
    jets up to the order bound.  Basis elements on which a nonlocal D fails
    to act are skipped; any solution found is verified by direct application
    before being returned.  A tier of more than MAX_ANSATZ_MONOMIALS
    monomials raises ResourceLimit before any of them is built.
    """
    p = Q.eps_order
    degree_bound = Q.total_degree() + 1
    order_q = max(Q.max_jet_order(), 0)
    tight = max(0, order_q - max(D.max_local_order(), 0))
    order_tiers = [tight, order_q] if tight < order_q else [order_q]
    for order_bound in order_tiers:
        variables = ["x", "t", *range(order_bound + 1)]
        count = math.comb(len(variables) + degree_bound, degree_bound)
        if count > MAX_ANSATZ_MONOMIALS:
            raise ResourceLimit(f"an ansatz of {count} monomials exceeds the "
                                f"cap {MAX_ANSATZ_MONOMIALS}")
        monomials = _monomial_basis(variables, degree_bound)
        basis: List[Tuple[Monomial, int]] = []
        images: List[DiffPoly] = []
        for e in range(p + 1):
            for mon in monomials:
                b = DiffPoly._from_flat({(mon, e): 1}, p)
                try:
                    img = apply_op(D, b)
                except NotExact:
                    continue
                basis.append((mon, e))
                images.append(img)
        # assemble coordinate equations: one row per (monomial, eps degree)
        rows_map: Dict[Tuple[Monomial, int], Dict[int, Fraction]] = {}
        for i, img in enumerate(images):
            for key, value in img._flat.items():
                rows_map.setdefault(key, {})[i] = value
        keys = sorted(set(rows_map) | set(Q._flat))
        rows = [(rows_map.get(k, {}), Q._flat.get(k, 0)) for k in keys]
        solution = _solve_rational_system(rows)
        if solution is None:
            continue
        g = DiffPoly._from_flat({basis[i]: _exact(v)
                                 for i, v in solution.items() if v}, p)
        try:
            if apply_op(D, g) == Q:
                return g
        except NotExact:
            pass
    return None


def _is_pure_dx(D: PseudoDiffOp) -> bool:
    one = DiffPoly.constant(1, D.eps_order)
    return D.is_local() and D.local_terms == {1: one}


def noether_inverse(Q: DiffPoly, D: PseudoDiffOp) -> Functional:
    """Produce the conserved functional behind a Hamiltonian symmetry.

    Solves apply(D, g) == Q for g (exact integration when D is D_x, a
    bounded linear ansatz otherwise), demands that g be variational, and
    reconstructs a density with Euler derivative g.
    """
    if _is_pure_dx(D):
        try:
            g = integrate_x(Q)
        except NotExact as err:
            raise NotInImage("characteristic is not a total x-derivative",
                             err.obstruction) from err
    else:
        g = solve_operator_equation(D, Q)
        if g is None:
            raise NotInImage("no preimage found within the ansatz bounds", Q)
    try:
        return reconstruct_density(g)
    except NotVariational as err:
        raise NotVariational("preimage is not a variational derivative",
                             g) from err


# ---------------------------------------------------------------------------
# Recursion operators


def check_recursion_operator(R: PseudoDiffOp, sys: EvolutionSystem,
                             mode: str = "operator",
                             seeds: Sequence[DiffPoly] = ()) -> CheckReport:
    """Verify an approximate recursion operator.

    In operator mode the commutator identity R_t = [D_K, R] is tested as an
    operator equation; in action mode each seed characteristic is mapped
    through R and the image is checked to be a symmetry.
    """
    K = sys.rhs
    if mode == "operator":
        DK = frechet(K)
        try:
            residual = op_time_derivative(R, sys) - commutator(DK, R)
        except ClosureError as err:
            raise ClosureError(
                f"{err}; the commutator does not close for this operator, "
                "use mode='action' with seed characteristics instead"
            ) from err
        return CheckReport("recursion(operator)", residual.is_zero(), residual)
    if mode == "action":
        if not seeds:
            raise ValueError("action mode needs at least one seed characteristic")
        images = []
        passed = True
        residual = DiffPoly.zero(R.eps_order)
        for i, seed in enumerate(seeds):
            seed_report = check_symmetry(seed, sys, f"seed[{i}]")
            image = apply_op(R, seed)
            image_report = check_symmetry(image, sys, f"R(seed[{i}])")
            images.append(image)
            if not (seed_report.passed and image_report.passed):
                passed = False
                if residual.is_zero():
                    residual = (image_report.residual if seed_report.passed
                                else seed_report.residual)
        return CheckReport("recursion(action)", passed, residual,
                           {"images": images})
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Hierarchy generation


def generate_hierarchy(R: PseudoDiffOp, seed: DiffPoly, steps: int,
                       D: PseudoDiffOp, sys: EvolutionSystem,
                       max_jet_order: int = DEFAULT_MAX_JET_ORDER) -> HierarchyResult:
    """Iterate K_i = R(K_{i-1}) from the seed, producing functionals along
    the way and verifying the expected structure.

    Each flow is checked to be a symmetry and each functional a conservation
    law; produced functionals are checked to be pairwise in involution under
    both brackets, and the flows to commute pairwise.  A failed inversion or
    a non-exact application stops the iteration and is recorded in
    `stopped_at` together with its obstruction.  A seed that is not a
    symmetry raises NotASymmetry carrying its residual.

    Every derived quantity is computed once.  Per flow, its D_x tower is
    kept (``towers[i]`` belongs to ``flows[i]``, ``rhs_tower`` to the system
    right-hand side) and shared by every symmetry and commutation check
    that uses it.  Per functional, the gradient ``grads[j]`` = delta H_j and
    its image ``d_images[j]`` = D(delta H_j) are kept from the inversion
    step, so {H_i, H_j}_D has density grads[i] * d_images[j].  The second
    bracket's image (R*D)(delta H_j) is built the first time a pair needs
    it; when it is not exact, each pair that needs it fails with the
    obstruction as its residual.  More than MAX_HIERARCHY_STEPS steps raise
    ResourceLimit before any work.
    """
    if steps > MAX_HIERARCHY_STEPS:
        raise ResourceLimit(f"{steps} hierarchy steps exceed the cap "
                            f"{MAX_HIERARCHY_STEPS}")
    rhs_tower = [sys.rhs]
    towers = [[seed]]

    def symmetry(i: int, k_tower: list, name: str) -> CheckReport:
        residual = _symmetry_residual(towers[i], k_tower)
        return CheckReport(name, residual.is_zero(), residual)

    seed_report = symmetry(0, rhs_tower, "seed symmetry")
    if not seed_report.passed:
        raise NotASymmetry("hierarchy seed is not an approximate symmetry",
                           seed_report.residual)
    reports: List[CheckReport] = [seed_report]
    flows = [seed]
    functionals: List[Functional] = []
    grads: List[DiffPoly] = []
    d_images: List[DiffPoly] = []
    stopped_at = None

    second_op = None
    try:
        second_op = compose(R, D)
    except ClosureError:
        pass  # second bracket unavailable; involution runs on D only

    def invert(K: DiffPoly, index: int) -> bool:
        nonlocal stopped_at
        try:
            H = noether_inverse(K, D)
        except (NotInImage, NotVariational) as err:
            stopped_at = (index, err.obstruction)
            return False
        H.name = f"H[{index}]"
        functionals.append(H)
        reports.append(check_conservation(H, sys, f"conservation H[{index}]"))
        grads.append(euler1(H.density))
        regen = apply_op(D, grads[-1])
        d_images.append(regen)
        reports.append(CheckReport(f"D(delta H[{index}]) == K[{index}]",
                                   regen == K, regen - K))
        return True

    if invert(seed, 0):
        for i in range(1, steps + 1):
            try:
                K = apply_op(R, flows[-1])
            except NotExact as err:
                stopped_at = (i, err.obstruction)
                break
            if K.max_jet_order() > max_jet_order:
                raise ResourceLimit(
                    f"jet order {K.max_jet_order()} exceeds the cap {max_jet_order}"
                )
            flows.append(K)
            towers.append([K])
            reports.append(symmetry(i, rhs_tower, f"symmetry K[{i}]"))
            if not invert(K, i):
                break

    e_images: dict = {}  # j -> (R*D)(grads[j]), or the NotExact it raised

    def involution_e(i: int, j: int) -> CheckReport:
        if j not in e_images:
            try:
                e_images[j] = apply_op(second_op, grads[j])
            except NotExact as err:
                e_images[j] = err
        image, name = e_images[j], f"involution_E {{H[{i}],H[{j}]}}"
        if isinstance(image, NotExact):
            return CheckReport(name, False, image.obstruction)
        return CheckReport(name, Functional(grads[i] * image).is_null())

    for i, j in combinations(range(len(functionals)), 2):
        reports.append(CheckReport(
            f"involution_D {{H[{i}],H[{j}]}}",
            Functional(grads[i] * d_images[j]).is_null()))
        if second_op is not None:
            reports.append(involution_e(i, j))
    for i, j in combinations(range(len(flows)), 2):
        reports.append(symmetry(i, towers[j], f"commutation [v[{i}],v[{j}]]"))

    return HierarchyResult(flows, functionals, stopped_at, reports,
                           assumptions=(NONDEGENERACY_ASSUMPTION,))

"""Top-level analyses: symmetry and conservation checks, the Noether
correspondence, recursion-operator verification, and hierarchy generation."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, islice
from typing import Dict, List, Optional, Sequence, Tuple

from .dsl import DEFAULT_MAX_JET_ORDER, _Record
from .errors import (ClosureError, NotASymmetry, NotExact, NotInImage,
                     NotVariational, ResourceLimit)
from .jets import (DiffPoly, EvolutionSystem, Functional, Monomial,
                   _obstruction, _over_lcm, _pack, _unpack, dt_total,
                   integrate_x, prolong_apply)
from .operators import (PseudoDiffOp, apply_op, commutator, compose,
                        frechet, op_time_derivative, reconstruct_density)

# The most steps one hierarchy run may take.  Late Gardner steps cost about
# 1.7x the one before; ten steps from Kbar1 took 0.16 s of CPU and 24 MB
# peak RSS (Python 3.11, 2-vCPU Xeon).
MAX_HIERARCHY_STEPS = 10
# The most (monomial, eps degree) pairs one order tier of the
# operator-inversion ansatz may hold, in the preimage's weight space.  The
# built-in Gardner inversions through E need at most 9 (Qbar5); the
# hierarchy from Kbar1 through E needs 60 at step 3, the whole --steps 3
# call taking 13 ms of CPU, and 134 at step 4, inverted in 13 ms.  On the
# model with max_jet_order = 24, step 5 needs 284 (37 ms) and step 6 570
# (0.11 s), the whole --steps 6 call taking 0.18 s (Python 3.11, 2-vCPU
# Xeon, rows eliminated sparsest first).
MAX_ANSATZ_MONOMIALS = 1024


class CheckReport(_Record):
    """Outcome of a single verification.

    `residual` is zero exactly when the check passes, and a passing check
    given none has residual 0; certificates carry side products such as
    fluxes, densities or hierarchy members.
    """

    def __init__(self, name: str, passed: bool, residual: object = None,
                 certificates: Optional[dict] = None):
        if residual is None and passed:
            residual = 0
        self.name, self.passed, self.residual = name, passed, residual
        self.certificates = {} if certificates is None else certificates

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


class HierarchyResult(_Record):
    """Flows and functionals produced by iterating a recursion operator."""

    def __init__(self, flows: List[DiffPoly], functionals: List[Functional],
                 stopped_at: Optional[Tuple[int, object]] = None,
                 reports: Optional[List[CheckReport]] = None,
                 assumptions: Tuple[str, ...] = ()):
        self.flows, self.functionals = flows, functionals
        self.stopped_at = stopped_at
        self.reports = [] if reports is None else reports
        self.assumptions = assumptions

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)


NONDEGENERACY_ASSUMPTION = ("the first Hamiltonian operator is assumed "
                            "approximately nondegenerate (recorded, not checked)")


def _verdict(name: str, residual) -> CheckReport:
    """The report of a check that passes exactly when `residual` is zero."""
    return CheckReport(name, residual.is_zero(), residual)


# ---------------------------------------------------------------------------
# Symmetries and conservation laws


def check_symmetry(Q: DiffPoly, sys: EvolutionSystem, name: str = "symmetry") -> CheckReport:
    """Approximate-symmetry criterion for the evolution system.

    The residual is dQ/dt + D_Q(K) - D_K(Q); it vanishes modulo eps^(p+1)
    exactly when v_Q is an approximate symmetry.
    """
    return _verdict(name, dt_total(Q, sys) - prolong_apply(Q, sys.rhs))


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


def _features(poly: DiffPoly) -> list:
    """The feature (s - a, b, e, d) of each term x^a t^b eps^e prod u_k^n_k
    of poly, with jet weight s = sum k*n_k and jet degree d = sum n_k.
    D_x adds exactly (1, 0, 0, 0) to every feature."""
    return [(sum(k * n for k, n in mon.jets) - mon.x, mon.t, e,
             mon.jet_degree())
            for mon, e in ((_unpack(m), e) for m, e in poly._flat)]


def _op_features(D: PseudoDiffOp) -> list:
    """What each term of D adds to the feature of its argument: f(c) +
    (j, 0, 0, 0) for c*Dx^j and f(a) + f(b) - (1, 0, 0, 0) for a*Dxi*b."""
    shifts = [(f[0] + j, *f[1:]) for j, c in D.local_terms.items()
              for f in _features(c)]
    for a, b in D.nonlocal_terms:
        shifts += [(fa[0] + fb[0] - 1, fa[1] + fb[1], fa[2] + fb[2],
                    fa[3] + fb[3]) for fa in _features(a) for fb in _features(b)]
    return shifts


def _gradings(D: PseudoDiffOp, Q: DiffPoly) -> list:
    """[(w, weight)]: a basis of the gradings w under which D and Q are both
    homogeneous, one integer null vector of their feature differences per
    free column of the echelon form, each with the weight w . (f(Q) - f(D))
    that every term of a preimage of Q then has.  Empty when no nonzero
    grading makes both homogeneous, or when either has no terms."""
    shifts, features = _op_features(D), _features(Q)
    if not shifts or not features:
        return []
    differences = ([[x - y for x, y in zip(f, features[0])] for f in features]
                   + [[x - y for x, y in zip(f, shifts[0])] for f in shifts])
    pivots = _echelon(({c: v for c, v in enumerate(row) if v}, 0)
                      for row in differences)
    target = [x - y for x, y in zip(features[0], shifts[0])]
    gradings = []
    for free in sorted(set(range(4)) - {col for col, *_ in pivots}):
        null = _back_substitute(pivots, {free: Fraction(1)})
        scale = math.lcm(*(v.denominator for v in null.values()))
        w = [int(null.get(c, 0) * scale) for c in range(4)]
        gradings.append((w, sum(x * y for x, y in zip(w, target))))
    return gradings


def _shapes(gradings: list, p: int, degree_bound: int):
    """Each (e, b, d, sigma) within the eps order and the degree bound whose
    feature (sigma, b, e, d) has every grading's weight.  sigma = s - a is
    None when no grading fixes it; the first grading with w[0] != 0 fixes
    it, and every later one is checked against it."""
    for e in range(p + 1):
        for b in range(degree_bound + 1):
            for d in range(degree_bound - b + 1):
                sigma = None
                for w, weight in gradings:
                    rest = (weight - w[0] * (sigma or 0) - w[1] * b - w[2] * e
                            - w[3] * d)
                    if w[0] and sigma is None:
                        sigma, rest = divmod(rest, w[0])
                    if rest:
                        break
                else:
                    yield e, b, d, sigma


def _jet_multisets(d: int, s: int, top: int):
    """The jets ((order, exp), ...) of each monomial of degree d in
    u_0..u_top whose orders sum to s."""
    if not 0 <= s <= top * d:
        return
    if not d or not top:
        yield ((0, d),) if d else ()
        return
    for n in range(min(d, s // top) + 1):
        for jets in _jet_multisets(d - n, s - n * top, top - 1):
            yield jets + ((top, n),) if n else jets


def _graded_pairs(shapes: list, degree_bound: int, top: int) -> list:
    """The (monomial, eps degree) pairs of the shapes with jet orders up to
    top, ordered by eps degree, then x, t and u_0..u_top exponents.  They
    are drawn lazily: a tier of more than MAX_ANSATZ_MONOMIALS pairs raises
    ResourceLimit at the first pair past the cap, before any is sorted."""
    drawn = ((Monomial(a, b, jets), e) for e, b, d, sigma in shapes
             for a in range(degree_bound - b - d + 1)
             for s in (range(top * d + 1) if sigma is None else [sigma + a])
             for jets in _jet_multisets(d, s, top))
    pairs = list(islice(drawn, MAX_ANSATZ_MONOMIALS + 1))
    if len(pairs) > MAX_ANSATZ_MONOMIALS:
        raise ResourceLimit(f"an ansatz tier of jet order <= {top} and degree "
                            f"<= {degree_bound} has more monomials than the "
                            f"cap {MAX_ANSATZ_MONOMIALS}")

    def order(pair):
        (mon, e), exps = pair, dict(pair[0].jets)
        return (e, mon.x, mon.t, *(exps.get(k, 0) for k in range(top + 1)))

    return sorted(pairs, key=order)


def _echelon(rows):
    """Sparse fraction-free Gaussian elimination over Q (Bareiss 1968).

    `rows` is an iterable of (coeff_map, rhs) with coeff_map: index->int
    and an int rhs.  Returns the pivot rows [(col, lead, row, rhs)], where
    row holds the other columns, or None when the system is inconsistent.
    Each row is copied and kept primitive, so elimination runs in int
    arithmetic.  A pivot row holds no earlier pivot's column.
    """
    pivots: List[Tuple[int, int, Dict[int, int], int]] = []
    pivot_cols: Dict[int, int] = {}
    for coeffs, rhs in rows:
        row = dict(coeffs)
        for col, position in pivot_cols.items():
            factor = row.pop(col, 0)
            if factor:
                _, lead, prow, prhs = pivots[position]
                g = math.gcd(lead, factor)
                mult, factor = lead // g, factor // g
                if mult != 1:
                    row = {c: mult * v for c, v in row.items()}
                    rhs *= mult
                for c2, v2 in prow.items():
                    v = row.get(c2, 0) - factor * v2
                    if v:
                        row[c2] = v
                    else:
                        del row[c2]
                rhs -= factor * prhs
        if not row:
            if rhs:
                return None
            continue
        g = math.gcd(rhs, *row.values())
        if g != 1:
            row = {c: v // g for c, v in row.items()}
            rhs //= g
        col = min(row)
        lead = row.pop(col)
        pivot_cols[col] = len(pivots)
        pivots.append((col, lead, row, rhs))
    return pivots


def _back_substitute(pivots, free_values) -> Dict[int, Fraction]:
    """The index->Fraction solution of the echelon form `pivots` with the
    free columns at `free_values`, and at zero where absent."""
    solution = dict(free_values)
    for col, lead, row, rhs in reversed(pivots):
        value = rhs - sum(v * solution.get(c, 0) for c, v in row.items())
        solution[col] = Fraction(value) / lead
    return solution


def _solve_rational_system(rows):
    """A solution of the integer system `rows` (see _echelon) with free
    variables at zero, or None when it is inconsistent.

    The rows are eliminated sparsest first, ties in the given order, which
    keeps the pivot rows short and their integers small.  The solution does
    not depend on that order.  Each pivot is the lowest column of its
    reduced row, and no pivot row holds an earlier pivot's column, so the
    lowest column of any nonzero combination of pivot rows is the lowest
    pivot column in it: the pivot columns are exactly the lowest columns of
    the nonzero vectors of the row space, whatever the order.  With the
    other columns at zero, the pivot columns then have one solution, or
    none when the system is inconsistent, which no order changes either.
    """
    pivots = _echelon(sorted(rows, key=lambda row: len(row[0])))
    return None if pivots is None else _back_substitute(pivots, {})


def solve_operator_equation(D: PseudoDiffOp, Q: DiffPoly) -> Optional[DiffPoly]:
    """Find g with apply(D, g) == Q by a bounded linear ansatz.

    The candidate space is spanned by eps^e times monomials in x, t and the
    jets, of total degree at most deg(Q) + 1, in two tiers of jet order,
    and a third of order one more than Q's when D has no local part.
    The first tier bounds the jet order by order(Q) - max_local_order(D).
    When D's top coefficient is O(eps), D can raise the jet order by less
    than that, so the second tier goes up to order(Q): with D = Dx +
    eps*Dx^3 at p = 1, eps*u{5} has the preimage eps*u_xxxx
    (tests/test_engine.py).
    Each term's feature f = (s - a, b, e, d) (jet weight minus x degree, t
    degree, eps degree, jet degree) gains exactly (1, 0, 0, 0) under D_x, so
    every grading w under which D and Q are both homogeneous splits D g = Q
    by weight, and only the pairs of weight w . (f(Q) - f(D)) are built:
    any other part of a solution lies in ker D.  The gradings come from D
    and Q themselves; with none (D or Q inhomogeneous, or Q = 0) the basis
    is dense.  Basis elements on which a nonlocal D fails to act are
    skipped; any solution found is verified by direct application before
    being returned.  A tier of more than MAX_ANSATZ_MONOMIALS pairs raises
    ResourceLimit as soon as its enumeration draws one pair past the cap,
    before any image is built; at a degree bound so high that grading would
    be costly, the size of the dense first tier is reported without grading.
    """
    p = Q.eps_order
    degree_bound = Q.total_degree() + 1
    order_q = max(Q.max_jet_order(), 0)
    tight = max(0, order_q - max(D.max_local_order(), 0))
    order_tiers = [tight, order_q] if tight < order_q else [order_q]
    if not D.local_terms:  # a preimage under a*Dxi*b has one order more
        order_tiers.append(order_q + 1)
    # grading costs O(p * degree^2); above this degree the dense first
    # tier, which is larger still, is refused without grading
    if math.comb(degree_bound + 2, 2) > MAX_ANSATZ_MONOMIALS:
        count = (p + 1) * math.comb(order_tiers[0] + 3 + degree_bound,
                                    degree_bound)
        raise ResourceLimit(f"an ansatz of {count} monomials exceeds the "
                            f"cap {MAX_ANSATZ_MONOMIALS}")
    shapes = list(_shapes(_gradings(D, Q), p, degree_bound))
    for order_bound in order_tiers:
        basis: List[Tuple[int, int]] = []
        dens: List[int] = []
        # coordinate equations: one row per (monomial, eps degree), in the
        # numerators of the images and of Q, so the unknown of basis
        # element i is its coefficient times Q._den / dens[i]
        rows_map: Dict[Tuple[int, int], Dict[int, int]] = {}
        for mon, e in _graded_pairs(shapes, degree_bound, order_bound):
            key = _pack(mon), e
            try:
                img = apply_op(D, DiffPoly._from_flat({key: 1}, p))
            except NotExact:
                continue
            for row, value in img._flat.items():
                rows_map.setdefault(row, {})[len(basis)] = value
            basis.append(key)
            dens.append(img._den)
        # rows in build order, then an empty one per key only Q holds
        rows = [(row, Q._flat.get(k, 0)) for k, row in rows_map.items()]
        rows += [({}, c) for k, c in Q._flat.items() if k not in rows_map]
        solution = _solve_rational_system(rows)
        if solution is None:
            continue
        flat, den = _over_lcm({basis[i]: v * dens[i] / Q._den
                               for i, v in solution.items() if v})
        g = DiffPoly._from_flat(flat, p, den)
        if apply_op(D, g) == Q:
            return g
    return None


def noether_inverse(Q: DiffPoly, D: PseudoDiffOp) -> Functional:
    """Produce the conserved functional behind a Hamiltonian symmetry.

    Solves apply(D, g) == Q for g (exact integration when D is D_x, a
    bounded linear ansatz otherwise), demands that g be variational, and
    reconstructs a density with Euler derivative g.
    """
    return _noether_pair(Q, D)[1]


def _noether_pair(Q: DiffPoly, D: PseudoDiffOp) -> Tuple[DiffPoly, Functional]:
    """(g, H) for noether_inverse: the preimage g of Q under D, which is
    the Euler derivative of H's density."""
    if D._dx_power() == 1:
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
        return g, reconstruct_density(g)
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
    through R and the seed and its image are checked to be symmetries.  A
    seed whose image is not exact stops the action check there: the report
    fails with the NotExact obstruction and keeps the images before it.
    """
    K = sys.rhs
    if mode == "operator":
        # frechet(K) is local, so the commutator always closes
        return _verdict("recursion(operator)",
                        op_time_derivative(R, sys) - commutator(frechet(K), R))
    if mode == "action":
        if not seeds:
            raise ValueError("action mode needs at least one seed characteristic")
        images, failed = [], []
        for i, seed in enumerate(seeds):
            try:
                images.append(apply_op(R, seed))
            except NotExact as err:
                failed.append(err.obstruction)
                break
            failed += [r.residual for r in (
                check_symmetry(seed, sys, f"seed[{i}]"),
                check_symmetry(images[-1], sys, f"R(seed[{i}])"))
                if not r.passed]
        return CheckReport("recursion(action)", not failed,
                           failed[0] if failed else DiffPoly.zero(R.eps_order),
                           {"images": images})
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Hierarchy generation


def generate_hierarchy(R: PseudoDiffOp, seed: DiffPoly, steps: int,
                       D: PseudoDiffOp, sys: EvolutionSystem,
                       max_jet_order: int = DEFAULT_MAX_JET_ORDER) -> HierarchyResult:
    """Iterate K_i = R(K_{i-1}) from the seed, producing functionals along
    the way and verifying the expected structure.

    One pass over i = 0..steps builds flow K_i (the seed at i = 0), checks
    it is a symmetry, inverts it through D to the functional H_i, checks
    that H_i is conserved and that D(delta H_i) regenerates K_i.  The first
    failure stops the pass: R(K_{i-1}) not exact, or K_i with no
    variational preimage, is recorded in `stopped_at` as (i, obstruction).
    Then the functionals are checked pairwise for involution under both
    brackets, each by integrating the bracket density, whose Euler
    derivative is built only as the residual of a failing pair, and the
    flows for pairwise commutation.  A seed that is not a symmetry raises
    NotASymmetry carrying its residual.

    Every derived quantity is computed once.  Each flow's D_x derivatives
    are kept on the flow by dx_total, so the symmetry and commutation
    checks (the commutation [v_i, v_j] is check_symmetry of flow i for
    u_t = flow j) share them.  Per functional, the gradient ``grads[j]`` =
    delta H_j is the preimage the inversion solved for (reconstructing H_j
    proved that its Euler derivative equals it), and its image
    ``d_images[j]`` = D(delta H_j) is kept too, so {H_i, H_j}_D has density
    grads[i] * d_images[j].  When R*D closes, the second bracket's image
    (R*D)(delta H_j) is built once per j >= 1 before the pair checks; where
    it is not exact, each pair {H_i, H_j}_E fails with the obstruction as
    its residual.  A negative `steps` is a ValueError, and more than
    MAX_HIERARCHY_STEPS steps raise ResourceLimit, both before any work.
    """
    if steps < 0:
        raise ValueError(f"hierarchy steps must be non-negative, got {steps}")
    if steps > MAX_HIERARCHY_STEPS:
        raise ResourceLimit(f"{steps} hierarchy steps exceed the cap "
                            f"{MAX_HIERARCHY_STEPS}")
    seed_report = check_symmetry(seed, sys, "seed symmetry")
    if not seed_report.passed:
        raise NotASymmetry("hierarchy seed is not an approximate symmetry",
                           seed_report.residual)
    reports: List[CheckReport] = [seed_report]
    flows, K = [seed], seed
    functionals: List[Functional] = []
    grads: List[DiffPoly] = []
    d_images: List[DiffPoly] = []
    stopped_at = None
    for i in range(steps + 1):
        if i:
            try:
                K = apply_op(R, K)
            except NotExact as err:
                stopped_at = (i, err.obstruction)
                break
            if K.max_jet_order() > max_jet_order:
                raise ResourceLimit(
                    f"jet order {K.max_jet_order()} exceeds the cap {max_jet_order}"
                )
            flows.append(K)
            reports.append(check_symmetry(K, sys, f"symmetry K[{i}]"))
        try:
            g, H = _noether_pair(K, D)
        except (NotInImage, NotVariational) as err:
            stopped_at = (i, err.obstruction)
            break
        H.name = f"H[{i}]"
        functionals.append(H)
        reports.append(check_conservation(H, sys, f"conservation H[{i}]"))
        grads.append(g)
        d_images.append(apply_op(D, g))
        reports.append(_verdict(f"D(delta H[{i}]) == K[{i}]", d_images[-1] - K))

    try:
        second_op = compose(R, D)
    except ClosureError:
        second_op = None  # second bracket unavailable; involution runs on D only
    # j >= 1 -> ((R*D)(delta H[j]), None), or (None, its obstruction)
    e_images = {}
    for j in range(1, len(grads)) if second_op is not None else ():
        try:
            e_images[j] = apply_op(second_op, grads[j]), None
        except NotExact as err:
            e_images[j] = None, err.obstruction
    for i, j in combinations(range(len(functionals)), 2):
        pair = f"{{H[{i}],H[{j}]}}"
        reports.append(_verdict(f"involution_D {pair}",
                                _obstruction(grads[i] * d_images[j])))
        if second_op is not None:
            image, obstruction = e_images[j]
            reports.append(_verdict(f"involution_E {pair}", obstruction
                                    if image is None
                                    else _obstruction(grads[i] * image)))
    for i, j in combinations(range(len(flows)), 2):
        reports.append(check_symmetry(flows[i], EvolutionSystem(flows[j]),
                                      f"commutation [v[{i}],v[{j}]]"))

    return HierarchyResult(flows, functionals, stopped_at, reports,
                           assumptions=(NONDEGENERACY_ASSUMPTION,))

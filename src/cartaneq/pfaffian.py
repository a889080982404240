"""Linear Pfaffian systems and the equivalence-method machinery.

The block convention throughout: a system carries three lists of 1-forms,
``omega`` (the forms generating the differential ideal), ``theta`` (the
independence directions) and ``pi`` (the remaining fiber directions), and
together they must form a genuine coframe of the chart.

Structure equations of a linear system read

    d omega^a == A[a, r, i] pi^r ^ theta^i  +  T[a, j, k] theta^j ^ theta^k

modulo the ideal spanned by the omega themselves; a pi^pi term anywhere
means the system is not linear.  The same (A, T) container also describes
a lifted coframe with group forms, in which case nothing is discarded and
the omega block coincides with the theta block.
"""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

from .chart import Chart
from .errors import DomainError, NonEmptyEssentialTorsion, NotLinear
from .expr import Expression
from .forms import Coframe, DifferentialForm
from . import linsolve


class StructureEquations:
    """Torsion and tableau of a system of 1-forms.

    ``A`` maps (alpha, rho, i) to the pi^rho ^ theta^i coefficient of
    d omega^alpha and ``T`` maps (alpha, j, k), j < k, to the torsion
    coefficient; absent keys are zero.  The object holds these tables
    alone, not the forms they came from, and is read-only: its absorption
    is solved once and kept.
    """

    def __init__(self, chart, a, n, r, A, T):
        self.chart = chart
        self.a = a
        self.n = n
        self.r = r
        self.A = A
        self.T = T
        self._absorption = None

    def tableau_entry(self, alpha: int, rho: int, i: int) -> Expression:
        got = self.A.get((alpha, rho, i))
        return got if got is not None else Expression.const(self.chart, 0)

    def torsion_entry(self, alpha: int, j: int, k: int) -> Expression:
        if j > k:
            return -self.torsion_entry(alpha, k, j)
        got = self.T.get((alpha, j, k))  # no key has j == k
        return got if got is not None else Expression.const(self.chart, 0)


class PfaffianSystem:
    """A coframe split into system, independence and fiber blocks.

    The blocks are read-only: the structure equations are computed once
    and kept.  The constructor inverts the coframe omega + theta + pi,
    which raises SingularCoframe unless the blocks have full rank.  A
    prolonged system derives its inverse from its parent's instead, and
    that explicit inverse certifies its full rank (``_with_inverse``).
    """

    def __init__(self, chart: Chart, omega, theta, pi):
        self._set_blocks(chart, omega, theta, pi)
        self.coframe = Coframe(chart, self.omega + self.theta + self.pi)

    @classmethod
    def _with_inverse(cls, chart, omega, theta, pi, inverse):
        """The system whose coframe has the known ``inverse``, unchecked."""
        self = cls.__new__(cls)
        self._set_blocks(chart, omega, theta, pi)
        self.coframe = Coframe._from_inverse(
            chart, self.omega + self.theta + self.pi, inverse
        )
        return self

    def _set_blocks(self, chart, omega, theta, pi):
        self.chart = chart
        self.omega = list(omega)
        self.theta = list(theta)
        self.pi = list(pi)
        total = len(self.omega) + len(self.theta) + len(self.pi)
        if total != chart.dim:
            raise DomainError(
                f"blocks have {total} forms but the chart has dimension {chart.dim}"
            )
        self._structure = None


def _structure_equations(coframe, omega, theta, pi) -> StructureEquations:
    """Tableau and torsion of each d(omega) expanded on ``coframe``.

    The coframe lists the ideal generators first, then theta, then pi.
    Pairs touching a generator vanish modulo the ideal and are dropped; a
    lifted coframe has no generators ahead of theta, so nothing is.
    """
    n, r = len(theta), len(pi)
    offset = coframe.chart.dim - n - r
    A = {}
    T = {}
    for alpha, w in enumerate(omega):
        # index pairs come increasing, so a pi in front means pi ^ pi
        for (u, v), c in coframe.express(w.d()).items():
            if u < offset:
                continue
            if u >= offset + n:
                raise NotLinear("a pi ^ pi term appears in the structure equations")
            if v < offset + n:
                T[(alpha, u - offset, v - offset)] = c
            else:
                # stored as theta^i ^ pi^rho; the tableau is the pi ^ theta side
                A[(alpha, v - offset - n, u - offset)] = -c
    return StructureEquations(coframe.chart, len(omega), n, r, A, T)


def structure_equations(system: PfaffianSystem) -> StructureEquations:
    """Tableau and torsion of d(omega) modulo the system ideal."""
    if system._structure is None:
        system._structure = _structure_equations(
            system.coframe, system.omega, system.theta, system.pi
        )
    return system._structure


def coframe_structure_equations(chart, theta_forms, pi_forms=()):
    """Exact structure equations of a lifted coframe.

    Expands every d(theta) against the full coframe (theta then pi) and
    keeps everything; used for coframes with group directions, where no
    ideal reduction is allowed.  The theta block plays both the system and
    the independence role, so a == n.
    """
    theta_forms = list(theta_forms)
    pi_forms = list(pi_forms)
    cof = Coframe(chart, theta_forms + pi_forms)
    return _structure_equations(cof, theta_forms, theta_forms, pi_forms)


def is_linear(system: PfaffianSystem) -> bool:
    try:
        structure_equations(system)
    except NotLinear:
        return False
    return True


def distinct_up_to_sign(values):
    """The distinct nonzero values up to sign, in first-seen order.

    Each is returned with a positive leading numerator coefficient.
    """
    return list(dict.fromkeys(
        -e if e.num.lead_coeff < 0 else e for e in values if not e.is_zero
    ))


# ----------------------------------------------------------------------
# torsion absorption


class AbsorptionSolution:
    """Result of solving the absorption equations.

    ``particular`` maps (rho, i) to the modification coefficient with all
    free choices set to zero; ``free`` lists the free (rho, i) slots and
    ``homogeneous`` gives, per free slot, the full homogeneous solution it
    generates.  ``essential`` is the unabsorbable torsion, each component
    sign-normalized, duplicates removed.
    """

    def __init__(self, eqs, particular, free, homogeneous, essential):
        self.equations = eqs
        self.particular = particular
        self.free = free
        self.homogeneous = homogeneous
        self.essential = essential

    @property
    def absorbed(self) -> bool:
        return not self.essential

    def lam(self, rho: int, i: int) -> Expression:
        got = self.particular.get((rho, i))
        return got if got is not None else Expression.const(
            self.equations.chart, 0
        )

    def absorbed_pi_forms(self, theta_forms, pi_forms):
        """The shifted fiber forms pi - lam theta (free choices at zero) of
        the forms that the structure equations were taken from."""
        return _shifted(pi_forms, theta_forms, self.particular)


def _shifted(pi_forms, theta_forms, lam):
    """The forms pi^rho - sum_i lam[rho, i] theta^i.

    ``lam`` maps (rho, i) to a nonzero coefficient; absent keys are zero.
    """
    comps = [dict(p.comps) for p in pi_forms]
    for (rho, i), e in lam.items():
        row = comps[rho]
        for idx, c in theta_forms[i].comps.items():
            linsolve.add_entry(row, idx, -(e * c))
    return [DifferentialForm(p.chart, 1, c) for p, c in zip(pi_forms, comps)]


def absorb_torsion(eqs: StructureEquations) -> AbsorptionSolution:
    """The absorption of ``eqs``, solved on the first call and kept."""
    if eqs._absorption is None:
        eqs._absorption = _solve_absorption(eqs)
    return eqs._absorption


def _solve_absorption(eqs: StructureEquations) -> AbsorptionSolution:
    """Solve T[a,j,k] = A[a,r,j] lam[r,k] - A[a,r,k] lam[r,j] for lam.

    Unknowns are ordered lexicographically by (rho, i).  Row reduction
    takes a constant pivot where the column has one, else the entry with
    fewest terms, ties to the earliest row, so the report is
    deterministic.  A consistent system has a unique reduced form, hence
    a pivot-independent report; when torsion is left over, the particular
    solution and the essential torsion are representatives that depend on
    the pivots.
    """
    chart = eqs.chart
    n, r = eqs.n, eqs.r
    ncols = r * n

    rows = []
    for alpha in range(eqs.a):
        for j, k in combinations(range(n), 2):
            row = {}
            for rho in range(r):
                Aj = eqs.A.get((alpha, rho, j))
                Ak = eqs.A.get((alpha, rho, k))
                if Aj is not None:
                    row[rho * n + k] = Aj
                if Ak is not None:
                    row[rho * n + j] = -Ak
            t = eqs.T.get((alpha, j, k))
            if t is not None:
                row[ncols] = t
            rows.append(row)

    red, pivots = linsolve.rref(rows, max_col=ncols)
    pivot_set = set(pivots)

    # a row left with only its right-hand side is unabsorbable torsion
    essential = distinct_up_to_sign(
        row[ncols] for row in red if list(row) == [ncols]
    )

    free_cols = [c for c in range(ncols) if c not in pivot_set]
    particular = {}
    homogeneous = {c: {} for c in free_cols}
    for row_idx, col in enumerate(pivots):
        row = red[row_idx]
        rho, i = divmod(col, n)
        rhs = row.get(ncols)
        if rhs is not None:
            particular[(rho, i)] = rhs
        for fc in free_cols:
            coeff = row.get(fc)
            if coeff is not None:
                homogeneous[fc][(rho, i)] = -coeff

    free = [divmod(c, n) for c in free_cols]
    for fc in free_cols:
        homogeneous[fc][divmod(fc, n)] = Expression.const(chart, 1)
    homogeneous = {divmod(c, n): v for c, v in homogeneous.items()}
    return AbsorptionSolution(eqs, particular, free, homogeneous, essential)


# ----------------------------------------------------------------------
# Cartan characters and the involutivity test


class InvolutionReport:
    def __init__(self, characters, sigma, free_lambda, kernel_dim,
                 dim_prolongation, bound):
        self.characters = tuple(characters)
        self.sigma = tuple(sigma)
        self.free_lambda = free_lambda
        self.kernel_dim = kernel_dim
        self.dim_prolongation = dim_prolongation
        self.bound = bound

    @property
    def involutive(self) -> bool:
        return self.dim_prolongation == self.bound

    def __repr__(self):
        return (
            f"InvolutionReport(characters={self.characters}, "
            f"dim_prolongation={self.dim_prolongation}, bound={self.bound}, "
            f"involutive={self.involutive})"
        )


def _fresh_param_names(chart: Chart, count: int, stem: str):
    base = stem
    while any(chart.has_name(f"{base}{i}") for i in range(1, count + 1)):
        base += stem[-1]
    return [f"{base}{i}" for i in range(1, count + 1)]


# integer flags drawn before the symbolic fallback; see cartan_characters
_FLAG_TRIES = 3
_FLAG_SPAN = 9

# times cartan_characters fell back to the symbolic flag
flag_fallbacks = 0


def _stacked_ranks(a, A, flag):
    """sigma_k, the rank of A(v_1), ..., A(v_k) stacked, for k = 1..n.

    ``flag[k][i]`` is the i-th component of v_k.  The blocks go into one
    echelon in turn, and sigma_k is its rank once A(v_k) is in.
    """
    sigma = []
    echelon = linsolve.Echelon()
    for v in flag:
        # rows of A(v): one per alpha, columns rho
        rows = [{} for _ in range(a)]
        for (alpha, rho, i), entry in A.items():
            if v[i]:
                linsolve.add_entry(rows[alpha], rho, entry * v[i])
        for row in rows:
            echelon.add(row)
        sigma.append(len(echelon))
    return sigma


def _symbolic_sigma(eqs: StructureEquations):
    """sigma_k at a generic flag, realized as n^2 fresh parameters."""
    chart, n = eqs.chart, eqs.n
    flag_names = _fresh_param_names(chart, n * n, "t")
    big = chart.extend_params(flag_names)
    flag = [
        [Expression.var(big, flag_names[k * n + i]) for i in range(n)]
        for k in range(n)
    ]
    A_big = {key: e.rebase(big) for key, e in eqs.A.items()}
    return _stacked_ranks(eqs.a, A_big, flag)


def cartan_characters(eqs: StructureEquations) -> InvolutionReport:
    """Reduced Cartan characters and the involutivity test.

    The dimension of the prolonged tableau is counted from the freedom in
    the absorption equations: solutions of the homogeneous equations
    produce elements of the prolongation, but shifting lam by anything
    valued in the kernel of w -> A(w) changes nothing, so that freedom is
    discounted.

    The characters come from the ranks sigma_k at a flag.  An integer flag
    V, drawn from a generator seeded with the tableau, is accepted by
    Cartan's test: sigma_k(V) is at most its generic value, and sigma_n(V)
    is generic exactly when it equals the rank of A on all of theta, so
    bound(V) = n sigma_n - sum_{k<n} sigma_k(V) is at least the generic
    bound, which Cartan's inequality puts at or above dim_prolongation.
    Equality bound(V) == dim_prolongation therefore proves every
    sigma_k(V) generic and the system involutive.  When no draw reaches
    it (the system is not involutive, or the draws were unlucky), the
    ranks are taken at a flag of fresh parameters instead, counted in
    ``flag_fallbacks``.
    """
    global flag_fallbacks
    a, n, r = eqs.a, eqs.n, eqs.r

    if r == 0 or n == 0:
        sigma = [0] * n
        s = [0] * n
        return InvolutionReport(s, sigma, 0, 0, 0, 0)

    # freedom in the homogeneous absorption equations
    free_lambda = len(absorb_torsion(eqs).free)

    # kernel of w -> A(w) as an (a n) x r matrix
    ker_rows = [{} for _ in range(a * n)]
    for (alpha, rho, i), entry in eqs.A.items():
        ker_rows[alpha * n + i][rho] = entry
    full_rank = linsolve.rank(ker_rows)
    kernel_dim = r - full_rank
    dim_prolongation = free_lambda - n * kernel_dim

    def bound(sigma):
        # sum of (k + 1) s_k over the characters s_k = sigma_k - sigma_{k-1}
        return n * sigma[-1] - sum(sigma[:-1])

    rng = random.Random(hash(tuple(sorted(eqs.A.items()))))
    for _ in range(_FLAG_TRIES):
        flag = [
            [rng.randint(-_FLAG_SPAN, _FLAG_SPAN) for _ in range(n)]
            for _ in range(n)
        ]
        sigma = _stacked_ranks(a, eqs.A, flag)
        if sigma[-1] == full_rank and bound(sigma) == dim_prolongation:
            break
    else:
        flag_fallbacks += 1
        sigma = _symbolic_sigma(eqs)

    s = [sigma[0]] + [sigma[k] - sigma[k - 1] for k in range(1, n)]
    return InvolutionReport(s, sigma, free_lambda, kernel_dim,
                            dim_prolongation, bound(sigma))


# ----------------------------------------------------------------------
# jet space contact systems


def _jet_names(n: int, m: int, level: int):
    """(name, a, I) for each jet coordinate u^a_I of one order.

    The indices of I run together below n = 10 (u112).  From n = 10 on
    they are joined by underscores, since run together (11,) and (1, 1)
    would both be u11; joined they are u11 and u1_1.
    """
    sep = "_" if n >= 10 else ""
    out = []
    for a in range(1, m + 1):
        for I in combinations_with_replacement(range(1, n + 1), level):
            suffix = sep.join(str(i) for i in I)
            if m == 1:
                out.append(("u" + suffix, a, I))
            elif suffix:
                out.append((f"u{a}_{suffix}", a, I))
            else:
                out.append((f"u{a}", a, I))
    return out


def contact_system(n: int, m: int, q: int) -> PfaffianSystem:
    """The canonical contact system on jets of order q of maps R^n -> R^m."""
    if n < 1 or m < 1 or q < 1:
        raise DomainError("contact systems need n, m, q all at least 1")
    xs = [f"x{i}" for i in range(1, n + 1)]
    levels = [_jet_names(n, m, l) for l in range(q + 1)]
    coords = xs + [name for level in levels for name, _, _ in level]
    chart = Chart(coords=coords)

    def du(name):
        return DifferentialForm.basis(chart, name)

    def at(name):
        return (chart.basis_index(chart.key_of(name)),)

    by_index = {(a, I): name for level in levels for name, a, I in level}

    # du^a_I - sum_i u^a_{I+i} dx^i, one form per jet below order q
    one = Expression.const(chart, 1)
    omega = []
    for l in range(q):
        for name, a, I in levels[l]:
            comps = {at(name): one}
            for i, x in enumerate(xs, 1):
                upper = by_index[(a, tuple(sorted(I + (i,))))]
                comps[at(x)] = -Expression.var(chart, upper)
            omega.append(DifferentialForm(chart, 1, comps))
    theta = [du(x) for x in xs]
    pi = [du(name) for name, _, _ in levels[q]]
    return PfaffianSystem(chart, omega, theta, pi)


# ----------------------------------------------------------------------
# prolongation


def prolong(system: PfaffianSystem) -> PfaffianSystem:
    """One prolongation step of a linear Pfaffian system.

    The essential torsion must vanish (otherwise the integrability
    conditions it carries have to be dealt with first).  Free absorption
    choices become coordinates lam_slot on the prolonged space, and the
    shifted fiber forms pi' = pi - lam theta join the system block, with
    one table ``lam[rho, i] = particular + sum_slot lam_slot homogeneous``
    summed slot by slot through ``linsolve.add_entry``, so nonzero only.

    The prolonged coframe is omega, pi', theta, dlam, so the parent's
    inverse and the same table give its inverse with no elimination (see
    ``_prolonged_inverse``).
    """
    eqs = structure_equations(system)
    sol = absorb_torsion(eqs)
    if not sol.absorbed:
        raise NonEmptyEssentialTorsion(
            f"{len(sol.essential)} essential torsion components remain"
        )
    lam_names = _fresh_param_names(system.chart, len(sol.free), "lam")
    big = system.chart.extend_coords(lam_names)

    lam = {key: e.rebase(big) for key, e in sol.particular.items()}
    for name, slot in zip(lam_names, sol.free):
        var = Expression.var(big, name)
        for key, coeff in sol.homogeneous[slot].items():
            linsolve.add_entry(lam, key, var * coeff.rebase(big))

    theta = [t.rebase(big) for t in system.theta]
    omega = [w.rebase(big) for w in system.omega] + _shifted(
        [p.rebase(big) for p in system.pi], theta, lam
    )
    new_pi = [DifferentialForm.basis(big, nm) for nm in lam_names]
    inverse = _prolonged_inverse(system, big, lam)
    return PfaffianSystem._with_inverse(big, omega, theta, new_pi, inverse)


def _prolonged_inverse(system: PfaffianSystem, big: Chart, lam):
    """Inverse of the prolonged coframe, read off the parent's inverse.

    The parent's row M[j] expands dz^j on omega, theta, pi; the prolonged
    coframe lists omega, pi', theta, dlam, where pi'^rho = pi^rho -
    sum_i lam[rho, i] theta^i with ``lam`` the table ``prolong`` built.
    Put pi^rho = pi'^rho + sum_i lam[rho, i] theta^i into M[j]: the omega
    and pi entries keep their values in the columns of omega and pi', and
    the theta^i entry gains sum_rho M[j][pi^rho] lam[rho, i], or goes if
    that cancels it.  The new coordinates lam follow the parent's in the
    basis, each with the unit row of its dlam, ahead of any parameter rows.
    """
    a, n, r = len(system.omega), len(system.theta), len(system.pi)
    nc = len(system.chart.coords)
    one = Expression.const(big, 1)
    rows = []
    for row in system.coframe.inverse:
        new = {}
        for c, e in row.items():
            e = e.rebase(big)
            if c < a:
                new[c] = e
            elif c < a + n:
                new[c + r] = e
            else:
                new[c - n] = e
        for (rho, i), coeff in lam.items():
            m = new.get(a + rho)  # M[j][pi^rho], now in the column of pi'
            if m is not None:
                linsolve.add_entry(new, a + r + i, m * coeff)
        rows.append(new)
    lam_rows = [{a + r + n + l: one} for l in range(big.dim - system.chart.dim)]
    return rows[:nc] + lam_rows + rows[nc:]

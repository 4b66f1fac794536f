"""Implicit Hamiltonian systems over a constant linear Dirac structure.

A state x in R^n evolves subject to (xdot, dH(x)) in L, where L is a
maximal isotropic subspace of R^n + R^n*.  The structure is validated
exactly (over Q), and because it is constant the admissible dynamics is
a fixed linear map of the gradient: with V and M the vector and covector
halves of L's basis, the least-norm velocity is xdot = K grad H for
K = -M+ V, and the constraint residual M xdot - b (b = -V grad H) is
P grad H for P = (I - M M+) V.  K and P are computed once over Q, and
each row of K grad H and P grad H becomes one exact polynomial, rounded
to floats once.  When M has full rank, P = 0, so there are no
constraint rows and every residual is exactly 0.0.  Trajectories are
integrated with classical RK4 on plain Python floats, without numpy,
by one loop generated per system whose steps are straight-line Python;
a step that is not finite or not admissible is replayed stage by stage,
bit for bit, and the loop resumes after it.  A coordinate whose field
row is empty is frozen: the loop computes its one stage value once a
step, and a system without constraint rows commits no residual per
step.  A Trajectory is stored by columns: the loop appends each
coordinate to its own list, and `points` is derived from them.  The
trajectory text is made from the columns a block of BLOCK rows at a
time, each block by one % format, so that a report never holds its
whole text; a column whose values all have one .12g text (a frozen
coordinate, a conserved H, a residual of 0.0) is written once, into the
row template.  The admissible-function algebra of a system is in
`dirac_theory`.

Polynomials are SuperElements over the even generators x1..xn
(IHSystem.gens).
"""

import functools
import itertools
import math

from . import ratlin
from .dirac_linear import dirac_from_json
from .jsonin import InputError, array, fields, rational
from .multilinear import base_gens
from .superalg import SuperElement


class LeftAdmissibleSet(Exception):
    def __init__(self, step, t, x):
        super().__init__(f"state left the admissible set at step {step}, "
                         f"t = {t}")
        self.step = step
        self.t = t
        self.x = x


class BadPolynomial(InputError):
    pass


def _float_terms(p):
    """Compile p to [(float coeff, ((index, power), ...))] in term order,
    so that float evaluation builds no Fraction."""
    return [(float(c), tuple((i, k) for i, k in enumerate(e) if k))
            for (e, _), c in p.terms.items()]


def _float_eval(terms, x):
    """Value of compiled terms at x, a list of floats; NaN if a power
    overflows.  Terms are summed in order so that trajectory reports do
    not change in the last bit."""
    total = 0.0
    try:
        for c, powers in terms:
            for i, k in powers:
                c *= x[i] ** k
            total += c
    except OverflowError:
        return math.nan
    return total


def _orthonormal_kernel(M):
    """Orthonormal float basis of the null space of M: the exact kernel
    basis made orthogonal over Q by Gram-Schmidt, then normalised in
    floats."""
    ortho = []
    for v in ratlin.kernel_basis(M).basis:
        w = list(v)
        for u, uu in ortho:
            c = sum(a * b for a, b in zip(w, u)) / uu
            w = [a - c * b for a, b in zip(w, u)]
        ortho.append((w, sum(a * a for a in w)))
    return [[float(a) / math.sqrt(uu) for a in w] for w, uu in ortho]


def _gradient_map(A, grads, gens):
    """The exact polynomials (A grad)_i of a rational matrix A applied
    to the gradient grads, summed coefficient by coefficient."""
    out = []
    for row in A:
        terms = {}
        for a, g in zip(row, grads):
            if a:
                for m, c in g.terms.items():
                    terms[m] = terms.get(m, 0) + a * c
        out.append(SuperElement(gens, {m: c for m, c in terms.items() if c}))
    return out


def _max_abs(v):
    """max |v_i| (0.0 for no entries); NaN if any entry is NaN, wherever
    it stands (max() keeps whichever of a NaN and a number came first)."""
    m = 0.0
    for a in v:
        if not abs(a) <= m:
            m = abs(a)
            if m != m:
                break
    return m


def _compile_step(n, field, residual, b, H):
    """step(x0, .., x{n-1}, h, h2, h6, s, steps, tol, C0, .., C{n-1}, E,
    R, max_res), generated from float reprs and integers: one loop over
    the RK4 steps s .. steps - 1 from the point x, each step in the
    operations of _float_eval and IHSystem._staged_step.  A step commits
    each coordinate of its new point through its own C{i} (the append of
    that coordinate's column: no list a step) and its energy through E;
    with constraint rows, it commits its k1 residual through R and takes
    its stage residuals into max_res (without them R is not called: every
    residual is 0.0).  Returns
    (s, max_res) after the last step, or at the first step s that it
    cannot commit, uncommitted: one that overflows, has a stage row or
    the energy not finite (the sentinel z * 0.0 is then not 0.0), or has
    a stage residual above tol (1 + max |b|).  integrate replays that one
    step and calls the loop again from s + 1.

    A field row with no terms is a frozen coordinate x{i}: its k rows
    are 0.0, so they are left out, of z too, and its stage values
    x{i} + c * 0.0 for c = h2, h, h6 are one value, y0_{i} = x{i} +
    h * 0.0, written once a step.  c * 0.0 is a zero with the sign of h,
    or NaN for an infinite or NaN h, for every h (h2 and h6 keep the sign
    of h when they underflow), so y0_{i} is each stage's value bit for
    bit; x{i} + 0.0 would turn x{i} = -0.0 into 0.0 for h < 0.  A row
    whose coefficient rounds to 0.0 has terms, and stays.

    A term is written as _float_eval computes it, less what is exact for
    every float: y**1 is y, 1.0 * a is a, and v + (-1.0 * a) * b is
    v - a * b, since IEEE 754 defines v - w as v + (-w) and rounds
    (-a) * b to -(a * b).  A power k >= 2 stays y**k, which raises the
    OverflowError that sends a step to the replay.  Each sum starts as
    v = 0.0 + the first term (0.0 + -0.0 is 0.0, as in _float_eval)."""
    def total(v, first, addends):
        # v = first +- a1 +- a2 ... from the left, 100 addends a statement:
        # compile() runs out of recursion depth on sums thousands deep
        lines = []
        for i in range(0, len(addends), 100):
            lines.append(f"{v} = {first}" + "".join(addends[i:i + 100]))
            first = v
        return lines or [f"{v} = {first}"]

    def term(c, powers, y):
        factors = [y[i] if k == 1 else f"{y[i]}**{k}" for i, k in powers]
        if powers and c in (1.0, -1.0):
            return (" - " if c < 0 else " + ") + " * ".join(factors)
        return " + " + " * ".join([f"({c!r})"] + factors)

    def row(v, terms, y):
        return total(v, "0.0", [term(c, p, y) for c, p in terms])

    def stage_max(tag, j, rows):
        return "max(0.0, {})".format(", ".join(
            f"abs({tag}{j}_{i})" for i in range(len(rows))))
    x = y = [f"x{i}" for i in range(n)]
    body, seen, checks = [], [], []
    incs = ("h2 * k0_{0}", "h2 * k1_{0}", "h * k2_{0}",
            "h6 * (k0_{0} + 2 * k1_{0} + 2 * k2_{0} + k3_{0})")
    for j, inc in enumerate(incs):
        for tag, rows in (("k", field), ("r", residual), ("b", b)):
            for i, t in enumerate(rows):
                if t:           # residual and b rows are never empty
                    body += row(f"{tag}{j}_{i}", t, y)
                    seen.append(f"{tag}{j}_{i}")
        if residual:        # stage j's residual m{j}; then b != 0 too
            checks += [f"m{j} = {stage_max('r', j, residual)}",
                       f"if not m{j} <= tol * (1.0 + {stage_max('b', j, b)}):",
                       "    return s, max_res"]
        y = [f"y{j}_{i}" if t else f"y0_{i}" for i, t in enumerate(field)]
        body += [f"{v} = x{i} + {inc.format(i) if field[i] else 'h * 0.0'}"
                 for i, v in enumerate(y) if field[i] or not j]
    body += row("e", H, y) + total("z", "e", [f" + {v}" for v in seen])
    commit = ["R(m0)", "max_res = max(max_res, 0.0, m0, m1, m2, m3)"] \
        if residual else []
    commit += [f"C{i}({v})" for i, v in enumerate(y)] + ["E(e)"]
    if n:
        commit.append(f"{', '.join(x)} = {', '.join(y)}")
    args = x + ["h", "h2", "h6", "s", "steps", "tol"] \
        + [f"C{i}" for i in range(n)] + ["E", "R", "max_res"]
    lines = [f"def step({', '.join(args)}):", "while s < steps:", "    try:"]
    lines += ["        " + line for line in body]
    lines += ["    except OverflowError:", "        return s, max_res",
              "    if z * 0.0 != 0.0:", "        return s, max_res"]
    lines += ["    " + line for line in checks + commit + ["s += 1"]]
    lines.append("return s, max_res")
    exec(compile("\n    ".join(lines), "<ihs step>", "exec"), scope := {})
    return scope["step"]


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------

class VelocityResult:
    """Outcome of one velocity solve.

    status is "OK" or "INADMISSIBLE"; for "OK", xdot is the least-norm
    particular solution, gauge an orthonormal basis of the solution
    freedom, residual the constraint residual of xdot.  Vectors are lists
    of floats.
    """

    def __init__(self, status, xdot=None, gauge=None, residual=None):
        self.status = status
        self.xdot = xdot
        self.gauge = gauge if gauge is not None else []
        self.residual = residual


class Trajectory:
    """RK4 trajectory, stored by columns: times, columns (columns[i] holds
    coordinate x{i+1} at every point), energies and residuals, one entry
    a point.  max_residual is the largest stage residual; residuals[i] is
    the residual of the velocity solve at point i."""

    def __init__(self, times, columns, energies, max_drift, max_residual,
                 residuals):
        self.times = times
        self.columns = columns
        self.energies = energies
        self.max_drift = max_drift
        self.max_residual = max_residual
        self.residuals = residuals

    @property
    def points(self):
        """The points [x1..xn] as lists, built from the columns on each
        read."""
        if not self.columns:
            return [[] for _ in self.times]
        return list(map(list, zip(*self.columns)))


class IHSystem:
    """Constant linear Dirac structure + polynomial Hamiltonian.

    H is a SuperElement over base_gens(n), the generators x1..xn.
    """

    def __init__(self, L, H, h=1e-3, tol=1e-9):
        self.L = L            # exact, validated maximal isotropic
        self.n = n = L.n
        self.gens = base_gens(n)
        if H.gens != self.gens:
            raise BadPolynomial("H", "arity does not match n")
        self.H = H
        self.h = h
        self.tol = tol
        # L is constant, so the solve of M xdot = b is compiled once,
        # exactly: xdot = K grad H and the residual is P grad H
        V = [row[:n] for row in L.subspace.basis]
        M = [row[n:] for row in L.subspace.basis]
        pinv_V = ratlin.mat_mul(ratlin.pseudo_inverse(M), V)
        K = [[-a for a in row] for row in pinv_V]
        P = [[v - a for v, a in zip(*rows)]
             for rows in zip(V, ratlin.mat_mul(M, pinv_V))]
        grads = [H.partial_even(v) for v in self.gens.even]
        self.field = _gradient_map(K, grads, self.gens)
        self.residual_map = _gradient_map(P, grads, self.gens)
        self._field_terms = [_float_terms(p) for p in self.field]
        self._residual_terms = [_float_terms(p) for p in self.residual_map
                                if not p.is_zero()]
        # max |b| = max |V grad H| only scales the residual tolerance
        b = _gradient_map(V, grads, self.gens) if self._residual_terms else []
        self._b_terms = [_float_terms(p) for p in b if not p.is_zero()]
        self._gauge = _orthonormal_kernel(M)
        self._H_terms = _float_terms(H)
        self._dH_terms = [_float_terms(g) for g in grads]

    # -- dynamics -------------------------------------------------------

    @functools.cached_property
    def _step(self):
        """The generated RK4 step, compiled when integrate first needs it."""
        return _compile_step(self.n, self._field_terms, self._residual_terms,
                             self._b_terms, self._H_terms)

    def dH(self, x):
        x = list(map(float, x))
        return [_float_eval(t, x) for t in self._dH_terms]

    def energy(self, x):
        return _float_eval(self._H_terms, list(map(float, x)))

    def _solve(self, x):
        """(xdot, residual, admissible) at the float list x, as
        velocity_solve defines them."""
        xdot = [_float_eval(t, x) for t in self._field_terms]
        finite = all(map(math.isfinite, xdot))
        if not self._residual_terms:
            return xdot, (0.0 if finite else math.nan), finite
        residual = _max_abs([_float_eval(t, x)
                             for t in self._residual_terms])
        scale = _max_abs([_float_eval(t, x) for t in self._b_terms])
        if not (finite and math.isfinite(residual)
                and math.isfinite(scale)):
            return xdot, math.nan, False
        return xdot, residual, residual <= self.tol * (1.0 + scale)

    def velocity_solve(self, x):
        """Least-norm xdot with (xdot, dH(x)) in L, plus gauge basis.

        xdot = K grad H(x) and the residual max |M xdot - b| =
        max |P grad H(x)| are evaluated from the compiled exact
        polynomials.  The solve is admissible when the residual is at
        most tol (1 + max |b|) for b = -V grad H(x).  When P grad H is
        0, as always when M has full rank (P = 0), neither is evaluated
        and the residual is exactly 0.0.  A non-finite xdot, b or
        residual (a non-finite or overflowing state) is inadmissible,
        with a NaN residual."""
        xdot, residual, ok = self._solve(list(map(float, x)))
        if not ok:
            return VelocityResult("INADMISSIBLE", residual=residual)
        return VelocityResult("OK", xdot=xdot, gauge=self._gauge,
                              residual=residual)

    def energy_derivative(self, x):
        """dH/dt at the solve point: zero by isotropy whenever the
        solve succeeds."""
        r = self.velocity_solve(x)
        if r.status != "OK":
            return None
        return sum(a * v for a, v in zip(self.dH(x), r.xdot))

    def integrate(self, x0, steps, h=None):
        """RK4 trajectory on the compiled field xdot = K grad H; raises
        LeftAdmissibleSet if a stage leaves the admissible set (see
        velocity_solve) or the trajectory diverges (the energy of a point
        or the residual of the final point is not finite).  The k1 stage
        solves at the current point, so it supplies that point's
        residual; the final point gets one more solve.  The steps run in
        the generated loop (_compile_step); a step that it cannot commit
        is replayed by _staged_step, which raises at the stage at fault or
        gives the same floats, and the loop resumes after it.  Both
        append each coordinate to its own column.  Without
        constraint rows, the residuals are not committed step by step:
        after the final point's check they are [0.0] * (steps + 1)."""
        h = self.h if h is None else h
        h2, h6 = h / 2, h / 6
        x = [float(v) for v in x0]
        e0 = self.energy(x)
        if not math.isfinite(e0):
            raise LeftAdmissibleSet(0, 0.0, x)
        columns, energies, residuals = [[v] for v in x], [e0], []
        step, tol = self._step, self.tol
        commit = (*[col.append for col in columns], energies.append,
                  residuals.append)
        s, max_res = step(*x, h, h2, h6, 0, steps, tol, *commit, 0.0)
        while s < steps:
            x, e, res = self._staged_step(
                s, [col[-1] for col in columns], h)
            residuals += res[:1]
            max_res = max(max_res, 0.0, *res)
            for col, v in zip(columns, x):
                col.append(v)
            energies.append(e)
            s, max_res = step(*x, h, h2, h6, s + 1, steps, tol, *commit,
                              max_res)
        x = [col[-1] for col in columns]
        residuals.append(self._solve(x)[1])
        if not math.isfinite(residuals[-1]):
            raise LeftAdmissibleSet(steps, steps * h, x)
        if not self._residual_terms:
            residuals = [0.0] * (steps + 1)
        # rounding is monotone, so this is max |e - e0| over energies
        drift = max(max(energies) - e0, e0 - min(energies))
        times = [0.0] + [s * h for s in range(1, steps + 1)]
        return Trajectory(times, columns, energies, drift, max_res,
                          residuals)

    def _staged_step(self, s, x, h):
        """Step s of integrate from x, one _solve per stage: (new point,
        its energy, the stage residuals or [] without constraint rows)."""
        t, h2, h6, k, res = s * h, h / 2, h / 6, [], []
        for dt, c in zip((t, t + h2, t + h2, t + h), (0.0, h2, h2, h)):
            y = [a + c * b for a, b in zip(x, k[-1])] if k else x
            xdot, residual, ok = self._solve(y)
            if not ok:
                raise LeftAdmissibleSet(s, dt, y)
            k.append(xdot)
            res.append(residual)
        y = [a + h6 * (p + 2 * q + 2 * r + u) for a, p, q, r, u in zip(x, *k)]
        e = self.energy(y)
        if not math.isfinite(e):
            raise LeftAdmissibleSet(s, (s + 1) * h, y)
        return y, e, res if self._residual_terms else []


# ---------------------------------------------------------------------------
# Trajectory text
# ---------------------------------------------------------------------------

def _one_text(col):
    """The .12g text of every value in the sequence col if they all have
    one, else None.  Only a zero is written 0 or -0: such a column must
    hold zeros of one sign alone.  Otherwise, since '%.12g' is correctly
    rounded, the values share the text of the smallest and the largest,
    unless one is a NaN (min and max may pass over it; sum does not)."""
    text = "%.12g" % col[0]
    if text != "%.12g" % col[-1]:
        return None
    if text in ("0", "-0"):
        same = col.count(0.0) == len(col) == abs(
            sum(map(math.copysign, itertools.repeat(1.0), col)))
    else:
        total = sum(col)
        same = total == total and "%.12g" % min(col) == text \
            == "%.12g" % max(col)
    return text if same else None


# rows of trajectory text formatted at once: a report is written a block
# at a time, so the text it holds grows with the block, not with the
# trajectory.  Blocks of 256 to 1,024 rows formatted 5,000-step reports
# fastest, 4,096 slower (Python 3.11, 2 CPUs)
BLOCK = 1024


def trajectory_text(traj, head, sep, tail, between):
    """The ihs-run rows [t, x1..xn, H, residual], each written as head +
    the .12g values joined by sep + tail, and joined by between, as an
    iterator of blocks of BLOCK rows (the last may hold fewer): the text
    is their concatenation, and each block after the first starts with
    between.  A column whose values all have one .12g text (_one_text: a
    frozen coordinate, a conserved H, the residual of a system without
    constraint rows) is written once, into the row template.  One %
    formats a block: its template is the row template repeated once per
    row, and its values are the other columns' slices, interleaved by
    extended slice assignment ('%.12g' % v is f'{v:.12g}').  A .12g value
    holds only digits, '-', '+', '.', 'e', 'inf' or 'nan', so sep may
    quote it."""
    cols = [traj.times, *traj.columns, traj.energies, traj.residuals]
    head, sep, tail, between = (s.replace("%", "%%")
                                for s in (head, sep, tail, between))
    texts = [_one_text(col) for col in cols]
    fmt = head + sep.join([t or "%.12g" for t in texts]) + tail
    live = [col for col, t in zip(cols, texts) if t is None]
    k, lead = len(live), ""
    for a in range(0, len(traj.times), BLOCK):
        rows = min(BLOCK, len(traj.times) - a)
        values = [None] * (rows * k)
        for j, col in enumerate(live):
            values[j::k] = col[a:a + rows]
        yield (lead + between.join([fmt] * rows)) % tuple(values)
        lead = between


def trajectory_rows(traj):
    """The rows of trajectory_text as lists of .12g strings, one list of
    rows a block; with maxsplit, split() allocates each row at its length
    (up to 12)."""
    k = len(traj.columns) + 3
    for block in trajectory_text(traj, "", "\0", "\n", ""):
        yield [row.split("\0", k - 1) for row in block.splitlines()]


def _positive_number(obj, key, default):
    """obj[key] (default if absent), which must be a finite number > 0."""
    v = obj.get(key, default)
    if type(v) not in (int, float) or not (math.isfinite(v) and v > 0):
        raise InputError(f"$.{key}", f"must be a finite number > 0: {v!r}")
    return v


def system_from_json(obj):
    """{"n", "L", "H", "h", "tol"} as an IHSystem.  H is a list of
    [exponents, coeff]; a repeated exponent vector keeps its last
    coefficient.  Errors are InputErrors naming their JSON path."""
    fields(obj, "$", ("n", "L", "H"), ("h", "tol"))
    L = dirac_from_json(obj["L"], "$.L")
    n = obj["n"]
    if type(n) is not int or n != L.n:
        raise InputError("$.n", f"expected the integer $.L.n = {L.n}, "
                                f"got {n!r}")
    h = _positive_number(obj, "h", 1e-3)
    tol = _positive_number(obj, "tol", 1e-9)
    terms = {}
    for i, term in enumerate(array(obj["H"], "$.H")):
        at = f"$.H[{i}]"
        if not (type(term) is list and len(term) == 2
                and type(term[0]) is list and len(term[0]) == L.n
                and all(type(k) is int and k >= 0 for k in term[0])):
            raise BadPolynomial(at, f"expected [exponents, coeff] with "
                                    f"{L.n} natural exponents, got {term!r}")
        e, c = term
        coeff = rational(c, at)
        try:
            float(coeff * max(e + [1]))    # RK4 evaluates H and dH in floats
        except OverflowError as err:
            raise BadPolynomial(at, f"bad coefficient {c!r} ({err})")
        terms[(tuple(e), ())] = coeff
    H = SuperElement(base_gens(L.n), {m: c for m, c in terms.items() if c})
    try:
        return IHSystem(L, H, h=h, tol=tol)
    except OverflowError as err:
        raise InputError("$", f"the velocity solve compiled from L and H "
                              f"overflows a float ({err})")

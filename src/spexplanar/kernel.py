"""The proof kernel: the root stage of a hub join, its gate, the closed
forms of its Perron entries and the one verdict rule. Imports only `math`.

Every verdict rests on this module alone, and `spex rho` on a join string
runs on it without numpy (`spectral` adds the batches, the vector stage
and the dense route, in numpy).

In a hub join K2 + (linear forest), with or without the hub edge, both
hubs carry the same Perron entry (swapping them is an automorphism), so
its spectral radius rho is the unique root above 2 of

    f(rho) = rho - e - 2 * sum_j S_{m_j}(rho),   e = 1 iff hubs adjacent,

where S_m(rho) = 1'(rho I - A(P_m))^{-1} 1 has a closed form in u = 1/t,
rho = t + 1/t (Golub, "Some modified matrix eigenvalue problems", SIAM
Rev. 15, 1973). Newton's method converges monotonically (f is increasing
and concave above 2) from the top eigenvalue of the hub/forest quotient
matrix, a lower bound by interlacing (Haemers, 1995; Brouwer & Haemers,
"Spectra of Graphs", 2012, sec. 2.5), in 3 steps on every argmax
candidate at n = 259, 1027 and 2051 and in at most 5 on every join tried.

The root stage (`_root_stage`): Newton's root, then a proof that rho lies
in a float interval [lo, hi]. f is continuous and increasing above 2, so
f(lo) < 0 < f(hi) puts its one root there, and each sign is read off an
interval that holds f at that float point. That interval comes from IEEE
+, -, *, / and sqrt, each rounded result moved one ulp outward with
nextafter: running-error interval arithmetic (Rump, "Verification
methods: Rigorous results using floating-point arithmetic", Acta Numerica
19, 2010). [lo, hi] starts ENCLOSE_ULPS ulps either side of the Newton
root and doubles until the signs hold, so its bits never depend on the
gate below. It costs O(distinct part orders) per join.

Every solve passes one gate (`_gate`): a root enclosure's width hi - lo,
or a Perron vector's residual, is at most TOL * max(1, rho), or the solve
raises ConvergenceError (NaN is not). ||A||_2 = rho for an adjacency
matrix, so this is the backward-stability scale of a residual. The root
stage stops as soon as its signs hold and no vector reads TOL, so the
gate changes no value, only whether one is returned.

The checks on Perron entries (claim33, entry bounds) read O(k) entries,
not the vector: `_closed_forms` evaluates the closed form of each entry
or entry step they read over the root stage's [lo, hi], with rounding
placed as in the enclosure.

Each formula of the root stage is written once, and so is each driver
around them: f with f' (`_secular`), the outward-rounded bound on f
(`_secular_bound`), the Newton driver (`_secular_root`) and the
enclosure driver (`_enclose_root`). Each is generic in its number type:
Python floats for one join (`_Floats`, here), float arrays with one entry
per join for a batch (`spectral._Arrays`). The type supplies only sqrt,
nextafter, ulp, max, any, a select (for a batch's zero-count padding and
its finished rows), the first row a mask marks (for the gate's message)
and u^m by repeated squaring; math.sqrt, math.nextafter and math.ulp
round like np.sqrt, np.nextafter and np.spacing, so a join gets the same
rho, Newton steps, lo and hi bit for bit alone and in any batch.

One function gives every verdict, `enclosure_verdict(lo, hi)` on an
interval [lo, hi] that holds a margin: certified when lo > 0, violated
when hi < 0, indeterminate when it holds 0. Every gap between two radii
is decided on the float differences of their root-stage enclosures'
ends, and every margin on Perron entries on the outward-rounded sums of
its closed forms' bounds over the same enclosure: a proof, up to the
correctness of IEEE rounding.
"""

from __future__ import annotations

import math

TOL = 1e-12           # a solve's gate, relative to max(1, rho) (`_gate`)
NEWTON_STOP = 1e-14   # relative Newton step at which the root is taken
NEWTON_CAP = 100      # Newton steps before the residual decides (<= 5 seen)
ENCLOSE_ULPS = 8      # first half-width of a root enclosure, in ulps of rho
SECULAR_ORDER = 7     # join order from which the part list alone picks secular
EXACT_ORDER = 2 ** 53  # the largest forest order whose floats are exact


class ConvergenceError(RuntimeError):
    """A solve whose `measure`, the residual of its Perron vector or the
    width of its root enclosure, is `value` above `bound` (`_gate`)."""

    def __init__(self, value: float, bound: float, measure: str):
        super().__init__(f"{measure} {value:.3e} misses bound {bound:.3e}")
        self.value = value
        self.bound = bound
        self.measure = measure


def _gate(value, rho, measure: str, num) -> None:
    """Raise ConvergenceError on the first row (one, for `_Floats`) whose
    `value` is not at most TOL * max(1, rho), in number type `num`: NaN
    is not."""
    bound = TOL * num.max(1.0, rho)
    miss = num.select(value <= bound, False, True)
    if num.any(miss):
        raise ConvergenceError(*num.first(miss, value, bound), measure)


# --- the secular engine for hub joins ----------------------------------------
#
# Each formula and each driver is written once, over a forest's groups: its
# distinct path orders in decreasing order, each with how many paths have
# it (grouping keeps the sum over paths short, so its rounding stays far
# below TOL on forests of thousands of paths). One forest's groups are int
# pairs (`_part_groups`) and its values Python floats (`_Floats`). A batch
# is a zero-padded (B, P) int array of part lists, one forest per row with
# its parts non-increasing (`spectral._parts_array` pads and sorts part
# lists); its groups are the rows of two zero-padded (G, B) int arrays
# (m, cnt), group j of forest b being (m[j, b], cnt[j, b]), the j-th run
# of equal parts in row b, read off by run-length encoding
# (`spectral._columns`), and its values float arrays of shape (B,)
# (`spectral._Arrays`). Only +, -, *, / and sqrt act on a value, each
# elementwise and correctly rounded in both types, and the groups are
# summed left to right. A driver runs every row of a batch each round and
# a finished row keeps its values through `select`, so a forest's result
# does not depend on the batch it is computed in, nor on whether it is
# computed alone.


def _part_groups(parts) -> list[tuple[int, int]]:
    """One forest's (path order, count) pairs, longest path first."""
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return sorted(counts.items(), reverse=True)


class _Floats:
    """The number type of one forest: Python floats."""

    sqrt = staticmethod(math.sqrt)
    nextafter = staticmethod(math.nextafter)
    ulp = staticmethod(math.ulp)
    max = staticmethod(max)
    any = staticmethod(bool)

    @staticmethod
    def select(keep, a, b):
        return a if keep else b

    @staticmethod
    def first(miss, *values):
        """`values` as floats at the row `miss` marks: the only one."""
        return [float(v) for v in values]

    @staticmethod
    def pow(base, expo, toward=None):
        """base ** expo by repeated squaring, each product moved one ulp
        toward `toward` if it is given."""
        out = 1.0
        if toward is None:
            while expo:
                if expo & 1:
                    out *= base
                base *= base
                expo >>= 1
            return out
        nextafter = math.nextafter
        while expo:
            if expo & 1:
                out = nextafter(out * base, toward)
            base = nextafter(base * base, toward)
            expo >>= 1
        return out


def _secular(groups, rho, e: float, num):
    """f(rho) and f'(rho), for rho > 2, of a forest (or batch) given as its
    groups, in number type `num` (section comment).

    Per path of order m, with D = 1 + u^(m+1) and z = (rho I - A)^{-1} 1:
    S_m = 1'z = [m - W1] / (rho - 2) and z'z = [m - 2 W1 + W2] / (rho - 2)^2,
    where W1 = 2(1 - u^m)/((t - 1) D) is sum_i w_i / D and W2 is
    sum_i w_i^2 / D^2, for w_i = u^i + u^(m+1-i). f' = 1 + 2 sum_j z'z.
    A batch's zero-count padding adds an exact +0.0 to both sums.
    """
    t = (rho + num.sqrt(rho * rho - 4.0)) / 2.0
    u = 1.0 / t
    c = 1.0 / (rho - 2.0)
    # the factors that do not depend on m, once: each is the same float
    # that the per-path formulas below would round it to
    t1, u2, v2, c2 = t - 1.0, 2.0 * u * u, 1.0 - u * u, c * c
    s_sum = q_sum = 0.0  # 0.0 + x is x for the first group's terms
    for m, k in groups:
        um = num.pow(u, m)
        d = 1.0 + um * u
        w1 = 2.0 * (1.0 - um) / (t1 * d)
        w2 = (u2 * (1.0 - um * um) / v2 + 2.0 * m * um * u) / (d * d)
        s_sum = s_sum + k * (c * (m - w1))
        q_sum = q_sum + k * (c2 * (m - 2.0 * w1 + w2))
    return rho - e - 2.0 * s_sum, 1.0 + 2.0 * q_sum


def _secular_root(groups, e: float, num):
    """(rho, Newton steps) of a forest (or batch) given as its groups, in
    number type `num`.

    Starts from the top eigenvalue of the quotient matrix [[e, M],
    [2, d]] of the partition {hubs, forest}, with M the forest order,
    p its part count and d = 2(M - p)/M its average degree:
    ((e + d) + sqrt((e - d)^2 + 8M))/2, a lower bound on rho by
    interlacing (Haemers, "Interlacing eigenvalues and graphs", Linear
    Algebra Appl. 226-228, 1995), equal to it on equitable forests (all
    parts 1, or all 2), and at least the all-singleton root (e + sqrt(e^2
    + 8M))/2, d being >= 0. f is increasing and concave above 2, so the
    iterates rise to the root while f < 0: a row is done once f >= 0
    (rounding noise at the root, or a start rounded past it) or the step
    falls below NEWTON_STOP relative, or after NEWTON_CAP steps, and a
    done row keeps its rho and steps while the others go on. The start is
    above 2 on every join `recognize_hub_join` accepts (not K3 or
    C4 = K_{2,2}, whose start is 2) and from SECULAR_ORDER on.
    """
    order = sum(m * k for m, k in groups)
    d = 2.0 * (order - sum(k for _, k in groups)) / order
    rho = ((e + d) + num.sqrt((e - d) * (e - d) + 8.0 * order)) / 2.0
    steps = 0 * order  # an int, or an int array with one entry per row
    active = steps == 0
    for _ in range(NEWTON_CAP):
        f, df = _secular(groups, rho, e, num)
        step = f / df
        rho = num.select(active, rho - step, rho)
        steps = steps + active
        done = (step >= 0.0) | (-step <= NEWTON_STOP * rho)
        active = num.select(done, False, active)
        if not num.any(active):
            break
    return rho, steps


def _root_stage(groups, e: float, num):
    """(rho, lo, hi, Newton steps) of a forest (or batch) given as its
    groups, in number type `num`: the Newton root and its enclosure."""
    rho, steps = _secular_root(groups, e, num)
    return (rho, *_enclose_root(groups, rho, e, num), steps)


def check_order(order: int) -> None:
    """Refuse a forest order above EXACT_ORDER with a ValueError: the
    root stage reads the order, each path order and each path count as
    floats, and its bounds hold only while those are exact."""
    if order > EXACT_ORDER:
        raise ValueError(f"a hub join's forest order must be at most "
                         f"2**53 = {EXACT_ORDER}, where floats hold it "
                         f"exactly")


def join_radius(parts, hub_edge: bool) -> tuple[float, float, float, int]:
    """(rho, lo, hi, Newton steps) of the hub join of one forest, its
    parts >= 1 and the join's order at least SECULAR_ORDER: the root stage
    in Python floats, the row `spectral.hub_join_radii` gives that forest,
    bit for bit. A forest order above EXACT_ORDER is a ValueError
    (`check_order`)."""
    check_order(sum(parts))
    return _root_stage(_part_groups(parts), float(hub_edge), _Floats)


# --- the root stage's enclosure -----------------------------------------------


def _secular_bound(groups, rho, e: float, toward: float, num):
    """A bound on f(rho), for float rho > 2, of a forest (or batch) given as
    its groups, in number type `num`: an upper bound for `toward` -inf, a
    lower one for +inf.

    f is `_secular`'s. The path sums S_m are bounded toward `toward` (r)
    and f the other way (q): each rounded +, -, *, / and sqrt is followed
    by one ulp in the direction that keeps its bound (halving and doubling
    are exact), so each bound uses the ends of its operands' bounds that
    make it extreme, and u^m comes from repeated squaring of u's bound. A
    lower bound that falls below 0 for a positive quantity (u^m after
    underflow, S_m) is still a lower bound. A batch's zero-count padding
    leaves the sum as it is.
    """
    nextafter = num.nextafter

    def r(x):
        return nextafter(x, toward)

    def q(x):
        return nextafter(x, -toward)

    t_r = r(rho + r(num.sqrt(num.max(r(r(rho * rho) - 4.0), 0.0)))) / 2.0
    t_q = q(rho + q(num.sqrt(num.max(q(q(rho * rho) - 4.0), 0.0)))) / 2.0
    u = r(1.0 / t_q)
    tm = r(t_r - 1.0)
    c = r(1.0 / q(rho - 2.0))
    s = 0.0
    for m, k in groups:
        um = num.pow(u, m, toward)
        w1 = q(2.0 * q(1.0 - um) / r(tm * r(1.0 + r(um * u))))
        s = num.select(k > 0, r(s + r(k * r(c * r(m - w1)))), s)
    return q(q(rho - e) - 2.0 * s)


def _enclose_root(groups, rho, e: float, num):
    """(lo, hi) around the Newton root `rho` of a forest (or batch), with
    f(lo) < 0 < f(hi) proven by `_secular_bound` in number type `num`:
    ENCLOSE_ULPS ulps of rho either side, doubled on each row until its
    signs hold (then it keeps lo and hi), or ConvergenceError once its
    width misses the gate (`_gate`). A row with lo <= 2 fails; its lower bound is taken at
    rho instead, where the bound's formulas hold."""
    half = ENCLOSE_ULPS * num.ulp(rho)
    while True:
        lo, hi = rho - half, rho + half
        _gate(hi - lo, rho, "enclosure width", num)
        above = lo > 2.0
        held = (above
                & (_secular_bound(groups, num.select(above, lo, rho), e,
                                  -math.inf, num) < 0.0)
                & (_secular_bound(groups, hi, e, math.inf, num) > 0.0))
        if not num.any(num.select(held, False, True)):
            return lo, hi
        half = num.select(held, half, 2.0 * half)


def _closed_forms(forms, rho: float, lo: float, hi: float) -> list:
    """[float at rho, lower bound, upper bound] over rho in [lo, hi] of each
    closed form of a hub join's Perron entries (hub entries 1) in `forms`.

    A form (k, p, a, b, c, m) is k rho^p C (1 - u^a) u^b (1 - u^c) /
    (1 + u^(m+1)), with C = 2/(rho - 2) and u = 1/t as in `_secular`, and
    (k, p, 0, 0, 0, 0) is k rho^p alone. A forest vertex v has
    rho y_v = 2 + (its path neighbours' entries), so on a path of order m
    y_j = C (1 - u^j)(1 - u^(m+1-j)) / (1 + u^(m+1)) is
    (1, 0, j, 0, m+1-j, m) and
    y_(i+1) - y_i = C (1 - u) u^i (1 - u^(m-2i)) / (1 + u^(m+1)) is
    (1, 0, 1, i, m-2i, m): products of factors >= 0, each monotone in u
    (which falls as rho rises), so no difference of near-equal floats is
    taken. Each bound is `_forms_toward`. C4, whose rho is 2, needs no C:
    its singleton entries are 2/rho.
    """
    return list(zip(_forms_toward(forms, rho, rho, None),
                    _forms_toward(forms, lo, hi, -math.inf),
                    _forms_toward(forms, lo, hi, math.inf)))


def _forms_toward(forms, lo: float, hi: float, toward) -> list[float]:
    """Each form of `_closed_forms` bounded toward `toward` (-inf: lower,
    +inf: upper) over rho in [lo, hi], in Python floats (`_Floats`); for
    `toward` None, its plain float at rho = lo = hi.

    Each factor is bounded toward `toward` at the end of [lo, hi] that
    makes it extreme, with rounding placed by hand as in `_secular_bound`:
    a result rounded toward `toward` (r), or the other way (q) where it is
    subtracted or divides. u^(m+1) is u^c u^(m+1-c), and a lower bound of a
    factor >= 0 that falls below 0 after underflow is still one.
    """
    if toward is None:
        def r(x):
            return x

        def pow_(base, expo, toward):
            return base ** expo
        q, away, rho_r, rho_q = r, None, lo, lo
    else:
        pow_ = _Floats.pow
        nextafter, away = math.nextafter, -toward

        def r(x):
            return nextafter(x, toward)

        def q(x):
            return nextafter(x, away)
        # a function falling in rho is bounded toward `toward` at rho_r
        rho_r, rho_q = (hi, lo) if toward < 0 else (lo, hi)
    t_q = q(rho_r + q(math.sqrt(max(q(q(rho_r * rho_r) - 4.0), 0.0)))) / 2.0
    t_r = r(rho_q + r(math.sqrt(max(r(r(rho_q * rho_q) - 4.0), 0.0)))) / 2.0
    u_r, u_q = r(1.0 / t_q), q(1.0 / t_r)
    c0 = r(2.0 / max(q(rho_r - 2.0), 5e-324))
    # u^e <= tail < 2^-54 for e >= e_big, where 1 - u^e and 1 + u^e round
    # as 1 - tail and 1 + tail do: tail bounds u^e from above, 0 from below
    e_big, tail = 1, max(u_r, u_q)
    while 2.0 ** -54 <= tail < 1.0 and e_big < 1024:
        e_big, tail = 2 * e_big, math.nextafter(tail * tail, math.inf)
    if tail >= 2.0 ** -54:  # u near 1 (C4's rho = 2): no power is replaced
        e_big = math.inf
    if away != math.inf:
        tail = 0.0

    def u_pow(e):  # u^e bounded away from `toward`
        return u_q if e == 1 else tail if e >= e_big else pow_(u_q, e, away)
    out = []
    for k, p, a, b, c, m in forms:
        f = (k if p == 0 else r(k * pow_(rho_q, p, toward)) if p > 0
             else r(k / pow_(rho_r, -p, away)))
        if m:
            # the middle entry has c = a or a + 1: one power serves both
            ua = u_pow(a)
            uc = ua if c == a else q(ua * u_q) if c == a + 1 else u_pow(c)
            ue = ua if a + c == m + 1 else u_pow(m + 1 - c)
            g = r(c0 * r(1.0 - ua))
            if b:
                g = r(g * (u_r if b == 1 else pow_(u_r, b, toward)))
            g = r(r(g * r(1.0 - uc)) / q(1.0 + q(uc * ue)))
            f = g if k == 1.0 and p == 0 else r(f * g)
        out.append(f)
    return out


# --- verdicts -----------------------------------------------------------------


def enclosure_verdict(lo: float, hi: float) -> str:
    """The verdict on a margin proven to lie in [lo, hi]: 'certified' if
    lo > 0, 'violated' if hi < 0, 'indeterminate' when [lo, hi] holds 0
    (and for NaN). For a difference of two enclosed radii, lo and hi are
    float differences of their ends; for a margin m known up to a slack s,
    they are m - s and m + s. The sign of a float difference is exact."""
    if lo > 0.0:
        return "certified"
    if hi < 0.0:
        return "violated"
    return "indeterminate"

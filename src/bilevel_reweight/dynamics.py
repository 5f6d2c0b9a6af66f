"""Continuous-time layer: flows, stationarity and stability certificates.

The mirror flow w' = -P(w) phi(w) is integrated in dual coordinates
u = log-weights: u' = -phi(softmax(u)) with w = softmax(u), which is exactly
equivalent, preserves the simplex by construction, and keeps zero weights
zero. The joint bilevel flow couples theta' = -alpha grad G with the mirror
flow driven by the plug-in hypergradient.

Stationary points are weight vectors whose field is constant over the
support; their stability is read off the Jacobian of Phi(w) = P(w) phi(w)
restricted to the tangent space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np

from .errors import (
    ConfigError,
    NoConvergenceError,
    PreconditionError,
    _check_fields,
    _check_number,
)
from .hypergrad import frozen_field, hypergrad_at
from .losses import ModelParams
from .simplex import (
    DEFAULT_SUPPORT_TOL,
    SimplexWeights,
    _entropies,
    _finite,
    preconditioner,
    support,
)
from .solvers import (
    FlowTrace,
    TraceRecord,
    _halting,
    _inner_solution,
    _make_record,
)


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-3
    t_max: float = 10.0
    stationarity_tol: float = 1e-8
    rtol: float = 1e-10  # DOP853 tolerance; dt is the first trial step

    def __post_init__(self):
        _check_fields(self)
        if self.dt >= self.t_max:
            raise ConfigError("dt must be less than t_max")


class ConstantField:
    """A field that ignores the weights; its Jacobian is zero."""

    def __init__(self, phi):
        _check_number("phi", phi, [0.0], "any")
        self.phi = np.asarray(phi, dtype=float)

    def __call__(self, w: SimplexWeights) -> np.ndarray:
        return self.phi

    def jacobian(self, w: SimplexWeights) -> np.ndarray:
        return np.zeros((w.n, w.n))


class ExactHypergradField:
    """Oracle field psi(theta*(w), w): the true gradient of the value
    function, backed by an inner solve to |grad G| <= 1e-12 per evaluation.
    For a quadratic model the closed form's Cholesky factor of H(w) serves
    the hypergradient too, so each evaluation factors H(w) once."""

    def __init__(self, model, data, test_data):
        self.model = model
        self.data = data
        self.test_data = test_data
        self._theta0 = ModelParams(np.zeros(model.n_params(data)))

    def __call__(self, w: SimplexWeights) -> np.ndarray:
        theta, chol = _inner_solution(self.model, self.data, w, self._theta0,
                                      1e-12)
        return hypergrad_at(self.model.forward(theta, self.data),
                            self.model.forward(theta, self.test_data), w, chol)


def _softmax(u: np.ndarray) -> SimplexWeights:
    """The weights of log-weights u. Their sum is finite and at least 1
    unless exp meets a NaN (a NaN or an infinity in u), and then
    simplex._finite halts the run on "log-weights"."""
    e = np.exp(u - u.max())
    s = e.sum()
    if not math.isfinite(s):
        _finite("log-weights", u)
    return SimplexWeights._unchecked(e / s)


def _dual_records(times, states: np.ndarray) -> List[TraceRecord]:
    """Mirror-flow records of log-weight states (one row per time), built
    in one pass and bit for bit those of _softmax, entropy and support row
    by row: a row-wise NumPy sum adds in the order a 1-d sum does."""
    e = np.exp(states - states.max(axis=1, keepdims=True))
    s = e.sum(axis=1, keepdims=True)
    for i in np.flatnonzero(~np.isfinite(s[:, 0])):
        _softmax(states[i])  # a NaN state: raises
    w = e / s
    h = _entropies(w)
    sizes = (w > DEFAULT_SUPPORT_TOL).sum(axis=1)
    return [TraceRecord(k=t, theta=None, w=SimplexWeights._unchecked(row),
                        inner_loss=None, outer_loss=None,
                        entropy=float(hi), support_size=int(si))
            for t, row, hi, si in zip(times, w, h, sizes)]


def _theta_record(model, data, test_data, theta: np.ndarray,
                  w: SimplexWeights, t, extra=None) -> TraceRecord:
    return _make_record(model.forward(theta, data),
                        model.forward(theta, test_data), w, t, extra)


def _row(size: int, entries: dict) -> np.ndarray:
    row = np.zeros(size)
    row[list(entries)] = list(entries.values())
    return row


# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# II.10), with the coefficients of Hairer's DOP853 code, nonzero entries only.
# Stage i is at y + h _A[i - 1] @ k[:i] for i = 1..11, and the 8th-order
# solution is y + h _B @ k[:12]; the field there is stage 12, the next
# step's first.
_A = [_row(i, r) for i, r in enumerate([
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2,
     1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2,
     2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1,
     2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2,
     3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2,
     3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1,
     5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1,
     3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1,
     5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1,
     7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1,
     3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1,
     5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1,
     7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1,
     3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654,
     5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1,
     7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762,
     9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449,
     3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444,
     5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1,
     7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258,
     9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1}], 1)]
_B = _row(12, {0: 5.42937341165687622380535766363e-2,
               5: 4.45031289275240888144113950566,
               6: 1.89151789931450038304281599044,
               7: -5.8012039600105847814672114227,
               8: 3.1116436695781989440891606237e-1,
               9: -1.52160949662516078556178806805e-1,
               10: 2.01365400804030348374776537501e-1,
               11: 4.47106157277725905176885569043e-2})
# The 8th-order solution less the 5th- and the 3rd-order one, per unit h.
_E = np.array([
    _row(12, {0: 0.1312004499419488073250102996e-1,
              5: -0.1225156446376204440720569753e+1,
              6: -0.4957589496572501915214079952,
              7: 0.1664377182454986536961530415e+1,
              8: -0.3503288487499736816886487290,
              9: 0.3341791187130174790297318841,
              10: 0.8192320648511571246570742613e-1,
              11: -0.2235530786388629525884427845e-1}),
    _B - _row(12, {0: 0.244094488188976377952755905512,
                   8: 0.733846688281611857341361741547,
                   11: 0.220588235294117647058823529412e-1})])
# The 7th-order dense output (ibid. II.6, as in DOP853's CONTD8) takes 3 more
# stages, stage i at y + h _A_DENSE[i - 13] @ k[:i] for i = 13..15, and with
# d = y_new - y and F = h _D @ k, y(t + x h) = y + x (d + (1 - x) (h k0 - d
# + x (2 d - h (k0 + k12) + (1 - x) (F0 + x (F1 + (1 - x) (F2 + x F3)))))).
_A_DENSE = [_row(i, r) for i, r in enumerate([
    {0: 5.61675022830479523392909219681e-2,
     6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1,
     8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1,
     10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3,
     12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2,
     5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2,
     7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4,
     11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4,
     13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1,
     5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878,
     7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1,
     12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149,
     14: -9.15095847217987001081870187138}], 13)]
_D = np.array([_row(16, r) for r in [
    {0: -0.84289382761090128651353491142e+1,
     5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1,
     7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1,
     9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1,
     11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1,
     13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1,
     15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2,
     5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3,
     7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2,
     9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2,
     11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2,
     13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1,
     15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2,
     5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3,
     7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2,
     9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1,
     11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1,
     13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2,
     15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2,
     5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3,
     7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2,
     9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3,
     11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2,
     13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2,
     15: -0.14972683625798562581422125276e+3}]])
# Step control (Hairer & Wanner, Solving ODEs II, IV.2): an accepted step
# scales h by 0.9 err^-(1/8 - 0.2 _PI_BETA) err_prev^_PI_BETA, within
# [0.2, 5]. Without the err_prev term the step ends of stability-limited
# mirror-flow tails hold rtol, but the dense output between them sits on a
# noise floor near 2e-8 that can keep omega_limit's checkpoint changes above
# a stationarity_tol of 1e-9.
_PI_BETA = 0.08
_PI_EXPO = 1 / 8 - 0.2 * _PI_BETA


def _dense_output(y, y_new, k, h: float, x: np.ndarray) -> np.ndarray:
    """The dense output of a step of size h from y to y_new with its 16
    stages k, one row per step fraction in the column x."""
    d = y_new - y
    F0, F1, F2, F3 = h * (_D @ k)
    c = 1 - x
    z = F0 + x * (F1 + c * (F2 + x * F3))
    z = h * k[0] - d + x * (2 * d - h * (k[0] + k[12]) + c * z)
    return y + x * (d + c * z)


def _path(deriv, y: np.ndarray, grid, h: float, rtol: float, dual=None):
    """Integrate y' = deriv(y), deriv fixed for the whole call, by DOP853
    steps from grid[0] to grid[-1], trying h first, and yield (t, y) at
    grid[0] and at each later grid time: the grid times inside a step are
    read off its dense output as one block, which costs 3 more evaluations
    of deriv, and only grid[-1] ends a step (stretched onto it if within
    1e-9 h), so deriv is never evaluated past it. With the scale
    rtol (1e-2 + max(|y|, |y_new|)), a step passes if Hairer's combined
    5th/3rd-order error norm is at most 1 (NaN fails); h is then scaled by
    the stabilized rule at _PI_BETA, and after a rejection by
    0.9 err^-(1/8 - 0.2 _PI_BETA) down to 0.2. With dual (an index into y),
    y[dual] holds log-weights and is shifted after each step so that its
    maximum is 0, which keeps exp well-scaled."""
    def recentre(y):  # a state, or a block of states as rows
        if dual is not None:
            y[..., dual] -= y[..., dual].max(axis=-1, keepdims=True)
        return y

    yield grid[0], y
    k = np.empty((16, y.size))
    k[0] = deriv(y)
    t, t1, j, err_prev = grid[0], grid[-1], 1, 1e-4
    while t < t1:
        if h < 1e-12 * max(1.0, abs(t)):
            raise NoConvergenceError(
                f"adaptive step size fell to {h:.3g} at t = {float(t)}")
        last = t + h * (1 + 1e-9) >= t1
        step = t1 - t if last else h
        for i, a in enumerate(_A, 1):
            k[i] = deriv(y + (step * a) @ k[:i])
        y_new = y + (step * _B) @ k[:12]
        r5, r3 = _E @ k[:12] / (
            rtol * (1e-2 + np.maximum(np.abs(y), np.abs(y_new))))
        e5 = float(r5 @ r5)
        den = y.size * (e5 + 1e-2 * float(r3 @ r3))
        err = step * e5 / math.sqrt(den) if den else 0.0
        if not den < math.inf:  # an estimate that overflowed fails
            err = math.nan
        if err <= 1.0:
            k[12] = deriv(y_new)
            t_new = t1 if last else t + step
            if grid[j] < t_new:  # grid times inside the step: dense output
                for i, a in enumerate(_A_DENSE, 13):
                    k[i] = deriv(y + (step * a) @ k[:i])
                inside = j + 1
                while grid[inside] < t_new:
                    inside += 1
                x = ((grid[j:inside] - t) / step)[:, None]
                yield from zip(grid[j:inside], recentre(
                    _dense_output(y, y_new, k, step, x)))
                j = inside
            t, y, k[0] = t_new, recentre(y_new), k[12]
            if last:
                yield t, y
            h = step * (min(5.0, max(0.2, 0.9 * err ** -_PI_EXPO
                                     * err_prev ** _PI_BETA))
                        if err > 0 else 5.0)
            err_prev = max(err, 1e-4)
        else:  # rejected, a NaN err included
            h = step * (max(0.2, 0.9 * err ** -_PI_EXPO)
                        if err < math.inf else 0.2)


def _record_grid(t_max: float, record_times):
    """The times a flow records at: 500 equal intervals of [0, t_max] by
    default, else record_times with 0 put first if it is missing. They must
    be finite, strictly increasing and within [0, t_max]."""
    if record_times is None:
        return np.linspace(0.0, t_max, 501)
    grid = np.asarray(record_times, dtype=float)
    if not (grid.ndim == 1 and grid.size and np.all(grid[1:] > grid[:-1])
            and 0.0 <= grid[0] and grid[-1] <= t_max):  # NaN fails
        raise ValueError("record_times must be a nonempty, strictly "
                         f"increasing sequence within [0, {t_max}]")
    if grid[0] != 0.0:
        grid = np.concatenate([[0.0], grid])
    return grid


def _mirror_path(field, w0: SimplexWeights, grid, cfg: FlowConfig):
    """The mirror flow of field from w0 in dual coordinates, via _path."""
    deriv = lambda u: -field(_softmax(u))
    return _path(deriv, np.log(w0.values), grid, cfg.dt, cfg.rtol, slice(None))


def integrate_mirror_flow(field, w0: SimplexWeights, cfg: FlowConfig,
                          record_times=None) -> FlowTrace:
    """The mirror flow on the dual variable; hits record times exactly. It
    runs inside solvers._halting, which keeps the record times reached; the
    step size underflowing is a halt too."""
    if not w0.interior:
        raise ValueError("w0 must lie in the simplex interior")
    times, states = [], []
    with _halting(times) as trace:
        for t, u in _mirror_path(field, w0, _record_grid(cfg.t_max,
                                                          record_times), cfg):
            times.append(t)
            states.append(u)
    trace.records = _dual_records(times, np.array(states))
    return trace


def constant_field_solution(w0: SimplexWeights, phi, t: float) -> SimplexWeights:
    """Closed-form mirror flow for a constant field:
    w(t) = w0 * exp(-t phi), renormalized."""
    z = t * np.asarray(phi, dtype=float)
    z = z - z.min()
    return SimplexWeights.from_unnormalized(w0.values * np.exp(-z))


def integrate_joint_flow(model, data, test_data, theta0: ModelParams,
                         w0: SimplexWeights, cfg: FlowConfig,
                         record_times=None, alpha: float = 1.0,
                         beta: float = 1.0) -> FlowTrace:
    """Joint flow theta' = -alpha grad G(theta, w), w' = -beta P(w) psi,
    for nonnegative finite rates alpha and beta, not both zero, inside
    solvers._halting."""
    _check_number("alpha", alpha, 1.0, "nonnegative")
    _check_number("beta", beta, 1.0, "nonnegative")
    if alpha == 0 and beta == 0:
        raise ValueError("alpha and beta cannot both be zero")
    if not w0.interior:
        raise ValueError("w0 must lie in the simplex interior")
    p = theta0.theta.size

    def deriv(s):
        th = s[:p]
        _finite("model parameters", th)
        w = _softmax(s[p:])
        train = model.forward(th, data)
        dth = -alpha * train.gamma_T_apply(w.values)
        du = -beta * hypergrad_at(train, model.forward(th, test_data), w)
        return np.concatenate([dth, du])

    state = np.concatenate([theta0.theta, np.log(w0.values)])
    grid = _record_grid(cfg.t_max, record_times)
    with _halting() as trace:
        for t, y in _path(deriv, state, grid, cfg.dt, cfg.rtol,
                          slice(p, None)):
            trace.append(_theta_record(model, data, test_data, y[:p],
                                       _softmax(y[p:]), t))
    return trace


@dataclass
class StationaryReport:
    """Stationarity and stability certificate for a weight vector."""

    w: SimplexWeights
    is_stationary: bool
    support: np.ndarray
    proportionality_residual: float
    offsupport_margin: np.ndarray
    tangent_eigenvalues: Optional[np.ndarray] = None
    is_stable: Optional[bool] = None

    def to_json_dict(self) -> dict:
        eig = None
        if self.tangent_eigenvalues is not None:
            eig = [[float(z.real), float(z.imag)]
                   for z in self.tangent_eigenvalues]
        return {
            "w": self.w.values.tolist(),
            "is_stationary": self.is_stationary,
            "support": [int(i) for i in self.support],
            "proportionality_residual": self.proportionality_residual,
            "offsupport_margin": [float(x) for x in self.offsupport_margin],
            "tangent_eigenvalues": eig,
            "is_stable": self.is_stable,
        }


def is_stationary(w: SimplexWeights, field,
                  tol: float = 1e-8) -> StationaryReport:
    """Stationary iff the field is constant over support(w)."""
    _check_number("tol", tol, 1.0, "positive")
    phi = field(w)
    supp = support(w)
    on = phi[supp]
    residual = float(on.max() - on.min()) if supp.size else math.inf
    off = np.setdiff1d(np.arange(w.n), supp)
    margins = phi[off] - float(w.values @ phi)
    stationary = bool(residual <= tol * (1.0 + np.abs(phi).max()))
    return StationaryReport(
        w=w, is_stationary=stationary, support=supp,
        proportionality_residual=residual, offsupport_margin=margins)


def stability_check(w: SimplexWeights, field,
                    tol: float = 1e-8) -> StationaryReport:
    """Certify w: is_stationary's report, with is_stable and
    tangent_eigenvalues added where w is stationary and left None (the
    Jacobian not evaluated) where it is not. w is stable if its off-support
    margins and the real parts of the eigenvalues of A = P(w~) J~ restricted
    to the tangent space all exceed tol. Every column of A sums to zero, so
    in the basis {e_i - e_l} that restriction is A[:-1, :-1] - A[:-1, -1:].
    A field without a jacobian(w) method is refused at any w."""
    if not hasattr(field, "jacobian"):
        raise PreconditionError("the field has no jacobian(w) method")
    report = is_stationary(w, field, tol)
    if not report.is_stationary:
        return report
    supp = report.support
    A = (preconditioner(SimplexWeights.from_unnormalized(w.values[supp]))
         @ field.jacobian(w)[np.ix_(supp, supp)])
    eigs = (np.linalg.eigvals(A[:-1, :-1] - A[:-1, -1:]) if supp.size > 1
            else np.array([], dtype=complex))
    report.tangent_eigenvalues = eigs
    report.is_stable = bool(np.all(report.offsupport_margin > tol)
                            and np.all(eigs.real > tol))
    return report


def membership_I(Z: np.ndarray, tol: float = 1e-8):
    """Is Z in the set of l x p matrices with 1_l in range(Z) or a
    nontrivial null space? Returns (bool, certificate). One lstsq call
    gives both the least-squares x and Z's singular values."""
    _check_number("tol", tol, 1.0, "positive")
    Z = np.asarray(Z, dtype=float)
    l, p = Z.shape
    if p == 0:
        raise PreconditionError(f"Z has no columns (shape {Z.shape})")
    ones = np.ones(l)
    x, _, _, svals = np.linalg.lstsq(Z, ones, rcond=None)
    residual = float(np.linalg.norm(Z @ x - ones))
    sigma_max = float(svals[0]) if svals.size else 0.0
    sigma_min = float(svals[-1]) if p <= l else 0.0
    if bool(residual <= tol * math.sqrt(l)):
        return True, {"kind": "ones", "x": x.tolist(), "residual": residual}
    if bool(sigma_min <= tol * max(sigma_max, 1.0)):
        return True, {"kind": "null", "sigma_min": sigma_min}
    return False, {"kind": None, "residual": residual, "sigma_min": sigma_min}


def sparsity_certificate(w: SimplexWeights, gamma: np.ndarray,
                         tol: float = 1e-8,
                         support_tol: float = DEFAULT_SUPPORT_TOL):
    """Stationary supports must make Gamma restricted to the support a
    member of I_l^p; generic supports larger than p fail."""
    _check_number("support_tol", support_tol, 1.0, "positive")
    supp = support(w, support_tol)
    if supp.size == 0:
        raise PreconditionError("empty support")
    return membership_I(np.asarray(gamma, float)[supp], tol)


@dataclass
class OmegaResult:
    """Limit of the frozen-parameter mirror flow, or a non-convergence flag."""

    w: SimplexWeights
    converged: bool
    oscillating: bool
    t: float
    checkpoint_changes: List[float] = dc_field(default_factory=list)


def omega_limit(field, w0: SimplexWeights, cfg: FlowConfig) -> OmegaResult:
    """Integrate the mirror flow through 500 equal checkpoints to t_max, the
    flows' default record grid. Stop at the first whose change is at most
    stationarity_tol, or that lies within 1e-4 of one more than 50 back
    with no fall in the change over those 50 (oscillating). Non-convergence
    is an ordinary value, never an error. The checkpoints carry the
    integrator's error, about rtol, so a stationarity_tol far below it may
    never trip. Most checkpoints lie inside steps and are read off the dense
    output, which the stabilized step control keeps near the step ends'
    accuracy in the stability-limited tail; without it that output sat on a
    floor near 2e-8."""
    if not w0.interior:
        # already on a face; one-hot starts are stationary immediately
        rep = is_stationary(w0, field, max(cfg.stationarity_tol, 1e-12))
        if rep.is_stationary:
            return OmegaResult(w0, True, False, 0.0)
        raise ValueError("w0 must lie in the simplex interior")
    grid = _record_grid(cfg.t_max, None)
    path = _mirror_path(field, w0, grid, cfg)
    next(path)
    return _omega_stop(w0, ((t, _softmax(u).values) for t, u in path),
                       grid.size, cfg)


def omega_from_trace(trace: FlowTrace, w0: SimplexWeights,
                     cfg: FlowConfig) -> OmegaResult:
    """omega_limit's stop rules with a mirror trace's later records from w0
    as checkpoints: equal to omega_limit(field, w0, cfg) when
    integrate_mirror_flow(field, w0, cfg) wrote it on its default grid."""
    return _omega_stop(w0, ((r.k, r.w.values) for r in trace.records[1:]),
                       len(trace.records), cfg)


def _omega_stop(w0, checkpoints, size: int, cfg: FlowConfig) -> OmegaResult:
    history = np.empty((size, w0.n))
    history[0] = w0.values
    changes: List[float] = []
    win, t, cur = 50, 0.0, w0.values
    for i, (t, cur) in enumerate(checkpoints, 1):
        change = float(np.linalg.norm(cur - history[i - 1]))
        changes.append(change)
        if change <= cfg.stationarity_tol:
            return OmegaResult(SimplexWeights(cur), True, False, float(t),
                               changes)
        if i > win and changes[-1] >= changes[-win] * (1 - 1e-3) and (
                np.linalg.norm(history[:i - win] - cur, axis=1).min() < 1e-4):
            return OmegaResult(SimplexWeights(cur), False, True, float(t),
                               changes)
        history[i] = cur
    return OmegaResult(SimplexWeights(cur), False, False, float(t), changes)


def integrate_sparse_reference(model, data, test_data, theta0: ModelParams,
                               w0: SimplexWeights, cfg: FlowConfig,
                               record_times=None, refresh_dt: float = 0.1,
                               omega_cfg: Optional[FlowConfig] = None) -> FlowTrace:
    """Reference trajectory theta' = -grad G(theta, Omega(theta, w0)) with
    the sparse limit Omega refreshed every refresh_dt of slow time and held
    piecewise-constant in between, one _path per segment. A record's extra
    holds its segment's omega_converged, omega_oscillating, omega_t and
    omega_change (the last checkpoint change, or None). A refresh whose
    Omega did not converge raises NoConvergenceError naming its time and
    whether Omega oscillated: the reference holds limits only. It runs
    inside solvers._halting, the refreshes included, so a failed first
    refresh raises and a later one ends the run with the records so far."""
    _check_number("refresh_dt", refresh_dt, 1.0, "positive")
    if omega_cfg is None:
        omega_cfg = FlowConfig(dt=min(cfg.dt, 1e-2), t_max=1e3,
                               stationarity_tol=1e-9)
    grid = _record_grid(cfg.t_max, record_times)
    refreshes = refresh_dt * np.arange(1, math.ceil(grid[-1] / refresh_dt) + 1)
    # a refresh time that rounding put within 1e-9 dt of a record time is
    # that record time, not a second grid point a step of 1e-17 away
    near = np.abs(refreshes[:, None] - grid) <= 1e-9 * cfg.dt
    refreshes = np.where(near.any(axis=1), grid[near.argmax(axis=1)], refreshes)
    refreshes = refreshes[refreshes < grid[-1]]
    times = np.union1d(grid, refreshes)
    record = np.isin(times, grid)

    theta, start = theta0.theta.copy(), 0
    ends = [*np.flatnonzero(np.isin(times, refreshes)), times.size - 1]
    with _halting() as trace:
        for end in ends:
            f = frozen_field(model, data, test_data, ModelParams(theta))
            omega = omega_limit(f, w0, omega_cfg)
            if not omega.converged:
                raise NoConvergenceError(
                    f"Omega refreshed at t = {times[start]:g} did not "
                    "converge " + ("(it oscillates)" if omega.oscillating
                                  else "by t_max"))
            extra = {"omega_converged": omega.converged,
                     "omega_oscillating": omega.oscillating,
                     "omega_t": omega.t,
                     "omega_change": (omega.checkpoint_changes or [None])[-1]}

            def deriv(th, w=omega.w):
                _finite("model parameters", th)
                return -model.forward(th, data).gamma_T_apply(w.values)

            path = _path(deriv, theta, times[start:end + 1], cfg.dt, cfg.rtol)
            for i, (t, theta) in enumerate(path, start):
                # a segment's first time is the last of the one before
                if record[i] and (i == 0 or i > start):
                    trace.append(_theta_record(model, data, test_data, theta,
                                               omega.w, t, extra))
            start = end
    return trace

"""The explicit Runge-Kutta method DOP853 of Dormand and Prince (Hairer,
Norsett & Wanner, *Solving Ordinary Differential Equations I*, Sec. II.10),
with its 7th-order dense output, for autonomous systems of two equations
y' = fun(*y), on Python floats.

It takes the steps scipy.integrate.solve_ivp(fun, (0, t_bound), y0, method="DOP853",
rtol=rtol, atol=atol, t_eval=t_eval) takes on numpy, bit for bit (pins rk/scan, rk/extremes):
the order in which BLAS sums a product sets the last bits of every state, so each product is
summed as the OpenBLAS 0.3.31 kernel numpy called on an AVX-512 core (SkylakeX), each fused
multiply-add rounded once: np.dot(K[:s].T, a[:s]) as dgemv_n_4.c's two-row path,
np.linalg.norm of two entries as ddot.c's loop, np.dot(D, K) as dgemm_small_kernel_nn. The
states no longer depend on the core OpenBLAS picks at run time. Terms with a zero table
coefficient are left out where that rounds alike, which holds for finite slopes (numpy warned
for others). It runs forward only, t_bound > 0: a reversible system's backward solve is the
mirrored forward one (dynamics._rk_batch). A solve stops after MAX_STEPS steps.

The method is written after scipy.integrate._ivp (rk.py, common.py, ivp.py),
and the coefficient tables below are copied literal for literal from
scipy/integrate/_ivp/dop853_coefficients.py (scipy 1.17.1), under this
notice:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Sequence
from math import fsum

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7
A = [[0.0] * N_STAGES_EXTENDED for _ in range(N_STAGES_EXTENDED)]
A[1][0] = 5.26001519587677318785587544488e-2

A[2][0] = 1.97250569845378994544595329183e-2
A[2][1] = 5.91751709536136983633785987549e-2

A[3][0] = 2.95875854768068491816892993775e-2
A[3][2] = 8.87627564304205475450678981324e-2

A[4][0] = 2.41365134159266685502369798665e-1
A[4][2] = -8.84549479328286085344864962717e-1
A[4][3] = 9.24834003261792003115737966543e-1

A[5][0] = 3.7037037037037037037037037037e-2
A[5][3] = 1.70828608729473871279604482173e-1
A[5][4] = 1.25467687566822425016691814123e-1

A[6][0] = 3.7109375e-2
A[6][3] = 1.70252211019544039314978060272e-1
A[6][4] = 6.02165389804559606850219397283e-2
A[6][5] = -1.7578125e-2

A[7][0] = 3.70920001185047927108779319836e-2
A[7][3] = 1.70383925712239993810214054705e-1
A[7][4] = 1.07262030446373284651809199168e-1
A[7][5] = -1.53194377486244017527936158236e-2
A[7][6] = 8.27378916381402288758473766002e-3

A[8][0] = 6.24110958716075717114429577812e-1
A[8][3] = -3.36089262944694129406857109825
A[8][4] = -8.68219346841726006818189891453e-1
A[8][5] = 2.75920996994467083049415600797e1
A[8][6] = 2.01540675504778934086186788979e1
A[8][7] = -4.34898841810699588477366255144e1

A[9][0] = 4.77662536438264365890433908527e-1
A[9][3] = -2.48811461997166764192642586468
A[9][4] = -5.90290826836842996371446475743e-1
A[9][5] = 2.12300514481811942347288949897e1
A[9][6] = 1.52792336328824235832596922938e1
A[9][7] = -3.32882109689848629194453265587e1
A[9][8] = -2.03312017085086261358222928593e-2

A[10][0] = -9.3714243008598732571704021658e-1
A[10][3] = 5.18637242884406370830023853209
A[10][4] = 1.09143734899672957818500254654
A[10][5] = -8.14978701074692612513997267357
A[10][6] = -1.85200656599969598641566180701e1
A[10][7] = 2.27394870993505042818970056734e1
A[10][8] = 2.49360555267965238987089396762
A[10][9] = -3.0467644718982195003823669022

A[11][0] = 2.27331014751653820792359768449
A[11][3] = -1.05344954667372501984066689879e1
A[11][4] = -2.00087205822486249909675718444
A[11][5] = -1.79589318631187989172765950534e1
A[11][6] = 2.79488845294199600508499808837e1
A[11][7] = -2.85899827713502369474065508674
A[11][8] = -8.87285693353062954433549289258
A[11][9] = 1.23605671757943030647266201528e1
A[11][10] = 6.43392746015763530355970484046e-1

A[12][0] = 5.42937341165687622380535766363e-2
A[12][5] = 4.45031289275240888144113950566
A[12][6] = 1.89151789931450038304281599044
A[12][7] = -5.8012039600105847814672114227
A[12][8] = 3.1116436695781989440891606237e-1
A[12][9] = -1.52160949662516078556178806805e-1
A[12][10] = 2.01365400804030348374776537501e-1
A[12][11] = 4.47106157277725905176885569043e-2

A[13][0] = 5.61675022830479523392909219681e-2
A[13][6] = 2.53500210216624811088794765333e-1
A[13][7] = -2.46239037470802489917441475441e-1
A[13][8] = -1.24191423263816360469010140626e-1
A[13][9] = 1.5329179827876569731206322685e-1
A[13][10] = 8.20105229563468988491666602057e-3
A[13][11] = 7.56789766054569976138603589584e-3
A[13][12] = -8.298e-3

A[14][0] = 3.18346481635021405060768473261e-2
A[14][5] = 2.83009096723667755288322961402e-2
A[14][6] = 5.35419883074385676223797384372e-2
A[14][7] = -5.49237485713909884646569340306e-2
A[14][10] = -1.08347328697249322858509316994e-4
A[14][11] = 3.82571090835658412954920192323e-4
A[14][12] = -3.40465008687404560802977114492e-4
A[14][13] = 1.41312443674632500278074618366e-1

A[15][0] = -4.28896301583791923408573538692e-1
A[15][5] = -4.69762141536116384314449447206
A[15][6] = 7.68342119606259904184240953878
A[15][7] = 4.06898981839711007970213554331
A[15][8] = 3.56727187455281109270669543021e-1
A[15][12] = -1.39902416515901462129418009734e-3
A[15][13] = 2.9475147891527723389556272149
A[15][14] = -9.15095847217987001081870187138


B = A[N_STAGES][:N_STAGES]

E3 = B + [0.0]
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = [0.0] * (N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = [[0.0] * N_STAGES_EXTENDED for _ in range(INTERPOLATOR_POWER - 3)]
D[0][0] = -0.84289382761090128651353491142e+1
D[0][5] = 0.56671495351937776962531783590
D[0][6] = -0.30689499459498916912797304727e+1
D[0][7] = 0.23846676565120698287728149680e+1
D[0][8] = 0.21170345824450282767155149946e+1
D[0][9] = -0.87139158377797299206789907490
D[0][10] = 0.22404374302607882758541771650e+1
D[0][11] = 0.63157877876946881815570249290
D[0][12] = -0.88990336451333310820698117400e-1
D[0][13] = 0.18148505520854727256656404962e+2
D[0][14] = -0.91946323924783554000451984436e+1
D[0][15] = -0.44360363875948939664310572000e+1

D[1][0] = 0.10427508642579134603413151009e+2
D[1][5] = 0.24228349177525818288430175319e+3
D[1][6] = 0.16520045171727028198505394887e+3
D[1][7] = -0.37454675472269020279518312152e+3
D[1][8] = -0.22113666853125306036270938578e+2
D[1][9] = 0.77334326684722638389603898808e+1
D[1][10] = -0.30674084731089398182061213626e+2
D[1][11] = -0.93321305264302278729567221706e+1
D[1][12] = 0.15697238121770843886131091075e+2
D[1][13] = -0.31139403219565177677282850411e+2
D[1][14] = -0.93529243588444783865713862664e+1
D[1][15] = 0.35816841486394083752465898540e+2

D[2][0] = 0.19985053242002433820987653617e+2
D[2][5] = -0.38703730874935176555105901742e+3
D[2][6] = -0.18917813819516756882830838328e+3
D[2][7] = 0.52780815920542364900561016686e+3
D[2][8] = -0.11573902539959630126141871134e+2
D[2][9] = 0.68812326946963000169666922661e+1
D[2][10] = -0.10006050966910838403183860980e+1
D[2][11] = 0.77771377980534432092869265740
D[2][12] = -0.27782057523535084065932004339e+1
D[2][13] = -0.60196695231264120758267380846e+2
D[2][14] = 0.84320405506677161018159903784e+2
D[2][15] = 0.11992291136182789328035130030e+2

D[3][0] = -0.25693933462703749003312586129e+2
D[3][5] = -0.15418974869023643374053993627e+3
D[3][6] = -0.23152937917604549567536039109e+3
D[3][7] = 0.35763911791061412378285349910e+3
D[3][8] = 0.93405324183624310003907691704e+2
D[3][9] = -0.37458323136451633156875139351e+2
D[3][10] = 0.10409964950896230045147246184e+3
D[3][11] = 0.29840293426660503123344363579e+2
D[3][12] = -0.43533456590011143754432175058e+2
D[3][13] = 0.96324553959188282948394950600e+2
D[3][14] = -0.39177261675615439165231486172e+2
D[3][15] = -0.14972683625798562581422125276e+3

# multiplies the step from the error's asymptotic behaviour; the least and
# the greatest factor one step may change the step size by
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
# the error is that of the 7th-order estimate: it scales as h^8
ERROR_ESTIMATOR_ORDER = 7
_ERROR_EXPONENT = -1 / (ERROR_ESTIMATOR_ORDER + 1)

# the most accepted steps one solve may take, 3.2-3.6 s at 63-71 us a step on
# a shared 2-vCPU machine; the longest tested solves take under 16,000
MAX_STEPS = 50_000

# Veltkamp's splitter 2^27 + 1 (Dekker 1971): with |x a| in [_TINY, _HUGE) and
# |a| > 2^-14 (every table coefficient) or a = x, the halves' products are exact
_SPLITTER = 134217729.0
_TINY, _HUGE = 2.0 ** -960, 2.0 ** 980


def _split(a: float) -> tuple[float, float, float]:
    hi = _SPLITTER * a - (_SPLITTER * a - a)
    return a, hi, a - hi


def _fma(x: float, coef: tuple[float, float, float], c: float) -> float:
    """x a + c rounded once, for coef = _split(a): the kernels' fused multiply-add. TwoProduct
    gives x a = p + e exactly and fsum rounds p + e + c once; outside its range, integers do."""
    a, ah, al = coef
    p = x * a
    if _TINY <= abs(p) < _HUGE:
        t = _SPLITTER * x
        xh = t - (t - x)
        xl = x - xh
        try:
            return fsum((p, ((xh * ah - p) + xh * al + xl * ah) + xl * al, c))
        except OverflowError:       # p + c past the largest float
            pass
    if not (x and a and math.isfinite(x)):     # the product is exact
        return x * a + c
    if not math.isfinite(c):
        return c
    (nx, dx), (na, da), (nc, dc) = (v.as_integer_ratio() for v in (x, a, c))
    num = nx * na * dc + nc * dx * da
    try:
        return num / (dx * da * dc)     # rounded once; +0.0 for an exact zero
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _dot_plan(a: list[float]) -> tuple[list, list]:
    """The terms dgemv_n adds for np.dot(K[:s].T, a[:s]), s = len(a), K of two columns:
    from t = +0.0, t + fma(k_i, a_i, k_(i+1) a_(i+1)) for each pair of each block of four,
    then t = fma(k_i, a_i, t) for the rest. A pair with a zero coefficient adds a plain
    product, (i, None, a_i), as does a first term on t = +0.0; a zero term of the rest, nothing."""
    body = len(a) - len(a) % 4
    pairs = [(i, _split(a[i]), a[i + 1]) if a[i] and a[i + 1] else (i if a[i] else i + 1, None, a[i] or a[i + 1])
             for i in range(0, body, 2) if a[i] or a[i + 1]]
    rest = [(i, _split(a[i])) for i in range(body, len(a)) if a[i]]
    if rest and not pairs:
        i, (a_i, _, _) = rest.pop(0)
        pairs.append((i, None, a_i))
    return pairs, rest


def _dot(K0: list[float], K1: list[float], plan: tuple[list, list]) -> tuple[float, float]:
    pairs, rest = plan
    t0 = t1 = 0.0
    for i, coef, b in pairs:
        if coef is None:
            t0 += K0[i] * b
            t1 += K1[i] * b
        else:
            t0 += _fma(K0[i], coef, K0[i + 1] * b)
            t1 += _fma(K1[i], coef, K1[i + 1] * b)
    for i, coef in rest:
        t0, t1 = _fma(K0[i], coef, t0), _fma(K1[i], coef, t1)
    return t0 + 0.0, t1 + 0.0       # y = 0 + 1 t: never -0.0


def _dot16(k: list[float], lanes: list) -> float:
    """One entry of np.dot(D, K), D 4 x 16 and K 16 x 2, as the dgemm small kernel sums it:
    eight lanes fma(k_(l+8), d_(l+8), k_l d_l), summed as ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)).
    Where d_l = 0, a lane is k_(l+8) d_(l+8) rounded, or for k_(l+8) = +-0 that plus k_l 0."""
    a0, a1, a2, a3, a4, a5, a6, a7 = (_fma(k[l + 8], coef, k[l] * d) if coef
                                      else k[l + 8] * d if k[l + 8] else k[l + 8] * d + k[l] * 0.0
                                      for l, coef, d in lanes)
    return ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))


def _norm(x0: float, x1: float) -> float:
    """np.linalg.norm([x0, x1]): the root of ddot's fma(x1, x1, x0 x0)."""
    return math.sqrt(_fma(x1, _split(x1), x0 * x0))


# the sums the solver forms: stage s from A[s][:s] (the step from B at s = N_STAGES), the
# error estimates, and D K's lanes (every d_(l+8) is nonzero; (l, None, d_(l+8)) where d_l = 0)
_ROWS = {s: _dot_plan(A[s][:s]) for s in range(1, N_STAGES_EXTENDED)}
_E3, _E5 = _dot_plan(E3), _dot_plan(E5)
_LANES = [[(l, _split(d[l + 8]), d[l]) if d[l] else (l, None, d[l + 8]) for l in range(8)] for d in D]


def _initial_step(fun, y, t_bound, f0, rtol, atol):
    """The first step's size, by Hairer, Norsett & Wanner Sec. II.4."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _norm(y[0] / scale[0], y[1] / scale[1]) / 2 ** 0.5       # root mean squares
    d1 = _norm(f0[0] / scale[0], f0[1] / scale[1]) / 2 ** 0.5
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = fun(y[0] + h0 * f0[0], y[1] + h0 * f0[1])
    d2 = _norm((f1[0] - f0[0]) / scale[0], (f1[1] - f0[1]) / scale[1]) / 2 ** 0.5 / h0

    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ESTIMATOR_ORDER + 1))

    return min(100 * h0, h1, t_bound)


def _error_norm(K, h, scale):
    (e5_0, e5_1), (e3_0, e3_1), (s0, s1) = _dot(*K, _E5), _dot(*K, _E3), scale
    # norm ** 2 as numpy's scalar power gives it: inf where it passes the largest float
    err5_norm_2, err3_norm_2 = (math.inf if abs(n) >= 2.0 ** 512 else n ** 2
                                for n in (_norm(e5_0 / s0, e5_1 / s1), _norm(e3_0 / s0, e3_1 / s1)))
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    # a zero denom (0.01 err3^2 underflowed) is numpy's 0 / 0
    return abs(h) * err5_norm_2 / math.sqrt(denom * 2) if denom else math.nan


def _dense_output(fun, K, h, t_old, t, y_old, y, f, t_eval, t_bound):
    """The states at the times t_eval inside the step from (t_old, y_old) to (t, y), where
    the slope is f: one pair per time, from the polynomial's coefficients F[6], ..., F[0]."""
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        dy0, dy1 = _dot(*K, _ROWS[s])
        K[0][s], K[1][s] = fun(y_old[0] + dy0 * h, y_old[1] + dy1 * h)
    coeffs = [[h * _dot16(k, lanes) for lanes in reversed(_LANES)]
              + [2 * (v - v_old) - h * (f_new + k[0]), h * k[0] - (v - v_old), v - v_old]
              for k, v_old, v, f_new in zip(K, y_old, y, f)]
    # slopes near the largest float times D's entries (up to 528) pass it: inf - inf below
    if not all(map(math.isfinite, coeffs[0] + coeffs[1])):
        raise OverflowError(f"reference integration to |t| = {t_bound} passes the float range in its dense output")
    (a6, a5, a4, a3, a2, a1, a0), (b6, b5, b4, b3, b2, b1, b0) = coeffs
    (y0, y1), span = y_old, t - t_old
    out = []
    for te in t_eval:
        x = (te - t_old) / span
        u = 1 - x
        out.append(((((((((0.0 + a6) * x + a5) * u + a4) * x + a3) * u + a2) * x + a1) * u + a0) * x + y0,
                    (((((((0.0 + b6) * x + b5) * u + b4) * x + b3) * u + b2) * x + b1) * u + b0) * x + y1))
    return out


def dop853(fun: Callable[[float, float], tuple[float, float]], y0: Sequence[float],
           t_eval: Sequence[float], rtol: float, atol: float) -> list[tuple[float, float]]:
    """The states of y' = fun(*y), y(0) = y0, a pair, at the times t_eval:
    one pair per time, in the order given.

    Forward only: the times run from 0 up to the last, which is positive (a
    backward solve is the mirrored forward one). y0 must be finite, and rtol
    at least 100 machine epsilons: the caller checks both. Raises
    RuntimeError when the step size falls below 10 ulp(t), OverflowError
    where the dense output passes the float range, and ValueError past
    MAX_STEPS accepted steps; the last two name |t|, the last time.
    """
    t = 0.0
    y = [float(v) for v in y0]
    t_eval = [float(v) for v in t_eval]
    t_bound = t_eval[-1]
    t_eval_i = 0

    f = fun(*y)
    h_abs = _initial_step(fun, y, t_bound, f, rtol, atol)
    K0, K1 = K = [[0.0] * N_STAGES_EXTENDED, [0.0] * N_STAGES_EXTENDED]
    ys = []

    for _ in range(MAX_STEPS):
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)

        step_rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError("reference integration failed: "
                                   "Required step size is less than spacing between numbers.")

            t_new = min(t + h_abs, t_bound)
            h_abs = h = t_new - t

            K0[0], K1[0] = f
            for s in range(1, N_STAGES):
                dy0, dy1 = _dot(K0, K1, _ROWS[s])
                K0[s], K1[s] = fun(y[0] + dy0 * h, y[1] + dy1 * h)
            dy0, dy1 = _dot(K0, K1, _ROWS[N_STAGES])
            y_new = [y[0] + h * dy0, y[1] + h * dy1]
            f_new = fun(*y_new)
            K0[N_STAGES], K1[N_STAGES] = f_new

            scale = [atol + max(abs(v), abs(v_new)) * rtol for v, v_new in zip(y, y_new)]
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            else:
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _ERROR_EXPONENT)
                step_rejected = True

        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new

        t_eval_i_new = bisect_right(t_eval, t)
        if t_eval_i_new > t_eval_i:
            ys += _dense_output(fun, K, h, t_old, t, y_old, y, f, t_eval[t_eval_i:t_eval_i_new], t_bound)
            t_eval_i = t_eval_i_new

        if t == t_bound:
            return ys
    raise ValueError(f"reference integration to |t| = {t_bound} needs more than the cap of {MAX_STEPS} steps")

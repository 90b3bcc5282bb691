"""Named verification suites behind `gaudin-lab verify`.

Each suite runs a deterministic batch of numerical checks (all randomness
flows from one seeded generator) and returns CheckResult rows carrying the
identity under test, the tolerance, and the measured value.  The pytest
acceptance module consumes the same rows, so the CLI and the test suite
cannot drift apart.

A row is of one of three kinds, each built by its own constructor:

- residual (`_residual`): target 0, passes when measured <= tolerance;
- floor (`_floor`): target = tolerance, passes when measured >= tolerance;
- order (`_order`): a fitted order as measured, passes when it lies within
  tolerance of target.

Every order, of a floor row or an order row, is measured by `_fit_order`.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GaudinLabError
from .flows import (
    FlowCurve,
    _closure,
    _observables,
    action_along_curve,
    evolve,
    plaquette_residual,
)
from .liealg import (
    InvariantPolynomial,
    build_slm_basis,
    charpoly,
    random_traceless,
    trace_pairing,
)
from .models import (
    PhaseState,
    grad_hamiltonian,
    hamiltonian,
    lax_matrix,
    m_matrix,
    orbit_elements,
    random_elliptic_ensemble,
    random_rational_ensemble,
    retrivialize,
    transition_gamma,
)
from .weierstrass import (
    LatticeSumOracle,
    build_cache,
    kernel_table,
    sigma_eval,
    weierstrass_eval,
    zeta_eval,
)

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass
class CheckResult:
    name: str
    law: str
    tolerance: float
    measured: float
    passed: bool
    target: float = 0.0

    def to_dict(self):
        d = asdict(self)
        d["tolerance"] = float(d["tolerance"])
        d["measured"] = float(d["measured"])
        d["target"] = float(d["target"])
        return d


def _residual(name, law, tol, measured):
    measured = float(measured)
    return CheckResult(name, law, float(tol), measured, bool(measured <= tol))


def _order(name, law, target, window, measured):
    measured = float(measured)
    return CheckResult(name, law, float(window), measured,
                       bool(abs(measured - target) <= window), float(target))


def _floor(name, law, floor, measured):
    measured = float(measured)
    return CheckResult(name, law, float(floor), measured,
                       bool(measured >= floor), float(floor))


def _fit_order(values, ratio=2.0):
    """Least-squares slope of log(residual) against log(step) for a
    geometric step sequence h, h/ratio, h/ratio^2, ..., each residual
    clamped at 1e-300.  Two residuals a, b give log2(a / b) / log2(ratio),
    the same slope with the bits of a plain log2 quotient."""
    vals = np.maximum(np.asarray(values, dtype=float), 1e-300)
    if len(vals) == 2:
        return float(np.log2(vals[0] / vals[1]) / np.log2(ratio))
    x = -np.arange(len(vals)) * np.log(ratio)
    y = np.log(vals)
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


def _five_point(f, x):
    """f'(x) by the five-point stencil at h = 1e-4 from one call of f on x + h [-2, -1, 1, 2]
    (a new leading axis): truncation O(h^4), roundoff about eps |f| / h = 2e-12 relative."""
    h = 1e-4
    f2, f1, g1, g2 = f(np.add.outer(h * np.array([-2.0, -1.0, 1.0, 2.0]), x))
    return (f2 - 8.0 * f1 + 8.0 * g1 - g2) / (12.0 * h)


def _closure_squares(model, state, T, hs, method="rk4"):
    """Flow 1 then flow 2, and flow 2 then flow 1, for times T at each step
    of the ladder hs, in one lockstep evolve: members 2k and 2k + 1 are
    the two orderings at hs[k]."""
    orders = [FlowCurve([[0.0, 0.0], [T, 0.0], [T, T]]),
              FlowCurve([[0.0, 0.0], [0.0, T], [T, T]])]
    return evolve(model, state, orders * len(hs), np.repeat(hs, 2), method=method)


def _norms(stack):
    """Frobenius norm of each matrix of a stack, as np.linalg.norm of that
    matrix alone (norm(..., axis=(-2, -1)) rounds differently)."""
    flat = stack.reshape(-1, *stack.shape[-2:])
    return np.array([np.linalg.norm(A) for A in flat]).reshape(stack.shape[:-2])


def _numeric_residue(f, pole, direction=1.0):
    """Residue of a meromorphic matrix function by symmetric two-point limits
    at eps = 1e-4 and eps/2, Richardson-combined to kill the O(eps^2) term.
    f takes the (2, 2) array of points pole +- d and returns their matrices."""
    eps = 1e-4
    d = np.array([eps / 2.0, eps]) * direction
    plus, minus = f(pole + np.array([d, -d]))
    sym = 0.5 * (plus * d[:, None, None] + minus * (-d)[:, None, None])
    return (4.0 * sym[0] - sym[1]) / 3.0


# ---------------------------------------------------------------------------
# weierstrass suite
# ---------------------------------------------------------------------------

def suite_weierstrass(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    cache = build_cache(1.2j)

    def rand_z(c, margin=0.1, n=1):
        tau = c.tau
        out = []
        while len(out) < n:
            z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45) * np.imag(tau)) \
                + rng.uniform(-0.45, 0.45) * np.real(tau)
            if min(abs(z), abs(z - 1), abs(z + 1), abs(z - tau), abs(z + tau)) > margin:
                out.append(z)
        return out

    # derivative structure via five-point central differences
    zs = np.array(rand_z(cache, n=50))
    wp, ze, sig = weierstrass_eval(cache, zs)
    dz = _five_point(lambda x: zeta_eval(cache, x), zs)
    ds = _five_point(lambda x: sigma_eval(cache, x), zs)
    worst_zp = np.max(np.abs(dz + wp) / np.maximum(1.0, np.abs(wp)))
    worst_sl = np.max(np.abs(ds / sig - ze) / np.maximum(1.0, np.abs(ze)))
    rows.append(_residual("weier/zeta_derivative", "zeta'(z) = -p(z)", 1e-7, worst_zp))
    rows.append(_residual("weier/sigma_logderivative", "sigma'(z)/sigma(z) = zeta(z)", 1e-7, worst_sl))

    # quasi-periodicity over both periods 2w_1 = 1 and 2w_2 = tau
    for l, period, eta in ((1, 1.0, cache.eta1), (2, cache.tau, cache.eta2)):
        z = np.array(rand_z(cache, n=20))
        s0, s1 = sigma_eval(cache, z), sigma_eval(cache, z + period)
        rs = abs(s1 + s0 * np.exp(2.0 * eta * (z + period / 2.0))) / abs(s0)
        rz = abs(zeta_eval(cache, z + period) - zeta_eval(cache, z) - 2.0 * eta)
        worst = max(np.max(rs), np.max(rz))
        rows.append(_residual(
            f"weier/quasi_periodicity_l{l}",
            "sigma(z + 2w_l) = -sigma(z) exp(2 eta_l (z + w_l)); zeta shifts by 2 eta_l",
            1e-9, worst))

    # Legendre relation across random moduli
    worst = 0.0
    for _ in range(10):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0))
        c = build_cache(tau)
        worst = max(worst, abs(tau * c.eta1 - c.eta2 - 1j * np.pi))
    rows.append(_residual("weier/legendre", "tau eta1 - eta2 = pi i", 1e-10, worst))

    # dual-algorithm agreement on a pole-avoiding grid
    worst = 0.0
    for tau in (1.2j, 0.3 + 1.5j):
        c = build_cache(tau)
        oracle = LatticeSumOracle(tau)
        for x in np.linspace(0.08, 0.92, 10):
            for y in np.linspace(0.08, 0.92, 10):
                z = (x - 0.5) + (y - 0.5) * tau
                wp, ze, sig = weierstrass_eval(c, z)
                worst = max(worst,
                            abs(wp - oracle.wp(z)) / max(1.0, abs(wp)),
                            abs(ze - oracle.zeta(z)) / max(1.0, abs(ze)),
                            abs(sig - oracle.sigma(z)) / max(1.0, abs(sig)))
    rows.append(_residual("weier/dual_algorithm",
                          "theta-quotient route == paired lattice sums", 1e-10, worst))

    # quasi-period cross-check against the independent oracle
    oracle = LatticeSumOracle(1.2j)
    worst = max(abs(cache.eta1 - oracle.eta1()), abs(cache.eta2 - oracle.eta2()))
    rows.append(_residual("weier/quasi_periods_oracle",
                          "eta_l = zeta(w_l) agrees between routes", 1e-10, worst))

    # square-lattice symmetry at tau = i
    ci = build_cache(1j)
    worst = max(abs(np.imag(ci.eta1)), abs(ci.eta2 + 1j * ci.eta1))
    rows.append(_residual("weier/square_lattice_symmetry",
                          "tau = i: eta1 real and eta2 = -i eta1", 1e-12, worst))

    # normalisations near the origin
    z0 = 1e-4
    _, ze, sig = weierstrass_eval(cache, z0)
    worst = max(abs(ze - 1.0 / z0), abs(sig / z0 - 1.0))
    rows.append(_residual("weier/origin_normalisation",
                          "zeta(z) - 1/z -> 0 and sigma(z)/z -> 1", 1e-6, worst))

    # parity
    zs = np.array(rand_z(cache, n=10))
    wp1, ze1, s1 = weierstrass_eval(cache, zs)
    wp2, ze2, s2 = weierstrass_eval(cache, -zs)
    worst = max(np.max(np.abs(wp1 - wp2) / np.maximum(1.0, np.abs(wp1))),
                np.max(np.abs(ze1 + ze2) / np.maximum(1.0, np.abs(ze1))),
                np.max(np.abs(s1 + s2) / np.maximum(1.0, np.abs(s1))))
    rows.append(_residual("weier/parity", "p even; zeta, sigma odd", 1e-12, worst))

    # kernel: residue value and log-derivatives, one table per job, a z per row
    u, pole = 0.21 + 0.13j, 0.17 + 0.31j
    eps = 1e-4

    def phi(us, zs):
        return kernel_table(cache, us, zs, [pole]).value[..., 0, 0]

    v_plus, v_minus = phi([[u], [u]], [pole + eps, pole - eps]) * [eps, -eps]
    expected = np.exp(-u * zeta_eval(cache, pole))
    rows.append(_residual("weier/kernel_residue",
                          "lim (z - pole) phi = exp(-u zeta(pole))",
                          1e-7, abs(0.5 * (v_plus + v_minus) - expected)))
    zs = np.array([z for z in rand_z(cache, n=10)
                   if abs(z - pole) >= 0.1 and abs(z - pole - u) >= 0.1])
    table = kernel_table(cache, [[u]], zs, [pole])
    # differentiate phi itself, not log phi: no branch cut to cross
    fdu = _five_point(lambda x: phi(x[:, None, None], zs), u) / table.value[:, 0, 0]
    fdz = _five_point(lambda x: phi([[u]], x), zs) / table.value[:, 0, 0]
    # abs of one entry at a time: np.abs of an array rounds some moduli differently
    worst_du = max([0.0, *map(abs, fdu - table.dlog_du[:, 0, 0])])
    worst_dz = max([0.0, *map(abs, fdz - table.dlog_dz[:, 0, 0])])
    rows.append(_residual("weier/kernel_dlog_du",
                          "d log phi / du = zeta(u+z-pole) - zeta(u) - zeta(z)",
                          1e-7, worst_du))
    rows.append(_residual("weier/kernel_dlog_dz",
                          "d log phi / dz = zeta(u+z-pole) - zeta(z-pole) + u p(z)",
                          1e-7, worst_dz))
    return rows


# ---------------------------------------------------------------------------
# rational suite
# ---------------------------------------------------------------------------

def _worst_bracket(draws):
    """Largest |{H_i, H_j}| / max(|H_i|, |H_j|, 1) over the (model, state)
    pairs of draws and every pair i < j of their charges."""
    worst = 0.0
    for model, state in draws:
        H = [abs(hamiltonian(model, state, i)) for i in range(model.n_hams)]
        closure = _closure(model, state)
        for i, j in itertools.combinations(range(model.n_hams), 2):
            worst = max(worst, float(closure[i, j]) / max(H[i], H[j], 1.0))
    return worst


def _directional_order(model, state, dirL, dirq=None, dirp=None):
    """Fitted order in eps of H_1(x + eps d) - H_1(x) - eps <d, grad H_1>
    at eps = 1e-3, 1e-4, 1e-5, which is 2 when the analytic gradient is
    right; d moves the residues by dirL and, in genus 1, q and p by dirq
    and dirp."""
    dH_dL, dH_dq, dH_dp = grad_hamiltonian(model, state, 0)
    Ls = orbit_elements(model, state)
    lin = sum(trace_pairing(Y, D) for Y, D in zip(dirL, dH_dL))
    if dirq is not None:
        lin = lin + np.sum(dirq * dH_dq) + np.sum(dirp * dH_dp)

    def H_of(eps):
        qp = {} if dirq is None else {"q": state.q + eps * dirq, "p": state.p + eps * dirp}
        st = PhaseState(orbit_mats=[L + eps * Y for L, Y in zip(Ls, dirL)], t=state.t, **qp)
        return hamiltonian(model, st, 0)

    H0 = H_of(0.0)
    return _fit_order([abs(H_of(e) - H0 - e * lin) for e in (1e-3, 1e-4, 1e-5)], ratio=10.0)


def suite_rational(seed=0):
    rng = np.random.default_rng(seed + 1)
    rows = []

    # involutivity across random constrained states
    for m, degrees, label in ((2, (2, 2), "sl2"), (3, (2, 3, 2), "sl3")):
        worst = _worst_bracket(random_rational_ensemble(rng, m, 3, degrees) for _ in range(50))
        rows.append(_residual(f"rational/involutivity_{label}",
                              "{H_i, H_j} = 0 on the product of orbits",
                              1e-9, worst))

    # conservation drift at the contract step size, plus order under halving.
    # The state must be energetic enough that coarse-step drifts sit above
    # roundoff, yet with bounded group-point growth over T = 1: hyperbolic
    # trajectories square the conditioning of L = -phi Lambda phi^{-1} and
    # would swamp the 1e-8 contract with cancellation noise.
    zs = [2.9 + 1.1j, -3.2 + 0.4j, 0.1 - 2.8j, 4.0 + 3.0j, -2.5 - 2.2j]
    both_flows = FlowCurve([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    for _ in range(40):
        model, state = random_rational_ensemble(rng, 2, 3, (2, 2), spread=1.2)
        probe = evolve(model, state, both_flows, 4e-2)
        growth = max(np.linalg.norm(f) for f in probe.states[-1].phis)
        if growth >= 20.0:
            # rejected anyway; its group points may be too ill-conditioned
            # to invert for the residues of the drift probe
            continue
        H_probe = _observables(model, probe, ()).H
        coarse_drift = float(np.max(np.abs(H_probe - H_probe[0])))
        if 1e-11 < coarse_drift < 3e-7:
            break

    def drifts(traj):
        # T = 1 along each flow: every charge must survive every flow
        obs = _observables(model, traj, zs)
        hd = np.max(np.abs(obs.H - obs.H[0]))
        iso = np.max(np.abs(obs.charpoly - obs.charpoly[0]))
        return float(hd), float(np.max(obs.residue_drift)), float(iso)

    contract = evolve(model, state, both_flows, 1e-3)
    hd, rs, iso = drifts(contract)
    rows.append(_residual("rational/drift_hamiltonian",
                          "H_j conserved along every flow (T = 1, h = 1e-3, rk4)",
                          1e-8, hd))
    rows.append(_residual("rational/drift_residue_sum",
                          "sum_a L_a conserved along every flow", 1e-8, rs))
    rows.append(_residual("rational/drift_isospectral",
                          "char-poly coefficients of L(z_s) conserved", 1e-8, iso))
    coarse = drifts(evolve(model, state, both_flows, 8e-2))
    fine = drifts(probe)
    # residue-sum drift contracts at the rk4 order (16x); the Hamiltonian and
    # spectral drifts accumulate without a secular term here and contract at
    # ~32x, so the 16x expectation is enforced as a floor
    for name, k in (("hamiltonian", 0), ("residue_sum", 1), ("isospectral", 2)):
        rows.append(_floor(f"rational/drift_order_{name}",
                           "halving h cuts the drift by at least ~16x (rk4 order)",
                           3.2, _fit_order([coarse[k], fine[k]])))

    # independent dense ODE oracle on the raw matrix entries, vectorised
    # over the sites (sums over them run in site order)
    def oracle_ode(h_fine, T=1.0):
        Ls = orbit_elements(model, state)
        w = model.ham_points[0]
        ps = model.marked_points[:, None, None]
        n_steps = int(round(T / h_fine))
        w_p, p_w = w - ps, ps - w

        def rhs(Ls):
            A = np.sum(Ls / w_p, axis=0) / p_w
            return A @ Ls - Ls @ A

        for _ in range(n_steps):
            k1 = rhs(Ls)
            k2 = rhs(Ls + h_fine / 2 * k1)
            k3 = rhs(Ls + h_fine / 2 * k2)
            k4 = rhs(Ls + h_fine * k3)
            Ls = Ls + h_fine / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return Ls

    # the contract run's first leg is the flow of H_1 over T = 1
    L_evolved = orbit_elements(model, contract.states[contract.segment_ids.index(1) - 1])
    L_oracle = oracle_ode(2.5e-4)
    worst = max(np.linalg.norm(A - B) for A, B in zip(L_evolved, L_oracle))
    rows.append(_residual("rational/ode_oracle",
                          "group-point evolution matches dense integration of "
                          "dL_a/dt = [grad P (L(q)) / (p_a - q), L_a]", 1e-6, worst))

    # zero curvature: the normalised plaquette residual estimates
    # ||curvature|| + O(h); step halving must follow one power law and the
    # Richardson-extrapolated curvature itself must vanish
    model, state = random_rational_ensemble(rng, 2, 3, (2, 2), spread=0.5)
    res = [plaquette_residual(model, state, 0, 1, h, zs[:3]) for h in (0.02, 0.01, 0.005)]
    slopes = [_fit_order(res[:2]), _fit_order(res[1:])]
    mscale = max(1.0, max(_norms(m_matrix(model, state, i, zs[:3])).max()
                          for i in (0, 1)) ** 2)
    curvature = abs(2.0 * res[2] - res[1]) / mscale
    rows.append(_residual("rational/zero_curvature_small",
                          "d_i M_j - d_j M_i - [M_i, M_j] = 0 (extrapolated "
                          "plaquette residual)", 1e-4, curvature))
    rows.append(_residual("rational/zero_curvature_order",
                          "plaquette residual follows one power law (fitted order +-0.3)",
                          0.3, abs(slopes[0] - slopes[1])))

    # gradient convergence orders (shared scalar kernel + rational chain rule)
    basis = build_slm_basis(3)
    X = random_traceless(rng, 3)
    Y = random_traceless(rng, 3)
    worst_dev = 0.0
    for k in (2, 3, 4):
        P = InvariantPolynomial(k)
        G = P.gradient(X)
        errs = [abs(P.evaluate(X + e * Y) - P.evaluate(X) - e * trace_pairing(Y, G))
                for e in (1e-3, 1e-4, 1e-5)]
        worst_dev = max(worst_dev, abs(_fit_order(errs, ratio=10.0) - 2.0))
    rows.append(_order("grad/invariant_poly_order",
                       "P(X + eps Y) - P(X) - eps Tr(Y grad P) = O(eps^2)",
                       2.0, 0.2, 2.0 + worst_dev))

    dirL = [random_traceless(rng, 2, 0.7) for _ in range(model.n_sites)]
    rows.append(_order("grad/rational_directional_order",
                       "directional derivative of H matches dH/dL at second order",
                       2.0, 0.2, _directional_order(model, state, dirL)))
    return rows


# ---------------------------------------------------------------------------
# elliptic suite
# ---------------------------------------------------------------------------

def _oracle_lax(model, state, z, oracle):
    """Re-assemble the genus-1 Lax matrix entrywise with the lattice-sum
    oracle as the special-function backend (independent of the theta route)."""
    basis = model.basis
    Ls = orbit_elements(model, state)
    N = model.n_sites

    def ze(x):
        return oracle.zeta(x)

    lmu = np.array([np.linalg.solve(basis.gram,
                                    [np.trace(L @ H) for H in basis.cartan])
                    for L in Ls])
    pi = basis.gram_inv @ state.p - lmu.T @ np.array([ze(-p) for p in model.marked_points])
    Lmu = pi + lmu.T @ np.array([ze(z - p) for p in model.marked_points])
    out = np.zeros((model.m, model.m), dtype=complex)
    for mu in range(basis.rank):
        out += Lmu[mu] * basis.cartan[mu]
    for r, (i, j) in enumerate(zip(*basis.root_entries)):
        u = basis.root_value(r, state.q)
        coef = 0j
        for a, pa in enumerate(model.marked_points):
            phi = (oracle.sigma(u + z - pa)
                   / (oracle.sigma(u) * oracle.sigma(z - pa))
                   * np.exp(-u * (ze(z) - ze(pa))))
            coef += Ls[a][i, j] * phi
        out[i, j] += coef
    return out


def suite_elliptic(seed=0):
    rng = np.random.default_rng(seed + 2)
    rows = []
    model, state = random_elliptic_ensemble(rng, 2, 2, (2, 2))
    model3, state3 = random_elliptic_ensemble(rng, 3, 2, (2, 2))
    tau = model.cache.tau

    def rand_cell_z(mdl, n):
        out = []
        while len(out) < n:
            z = complex(rng.uniform(-0.45, 0.45),
                        rng.uniform(-0.45, 0.45) * np.imag(mdl.cache.tau))
            if abs(z) > 0.1 and all(abs(z - p) > 0.08 for p in mdl.marked_points) \
                    and all(abs(z - q) > 0.08 for q in mdl.ham_points):
                out.append(z)
        return out

    # double periodicity
    worst = 0.0
    for mdl, st in ((model, state), (model3, state3)):
        zs = np.array(rand_cell_z(mdl, 10))
        L = lax_matrix(mdl, st, np.array([zs, zs + 1, zs + mdl.cache.tau]))
        worst = max(worst, np.max(_norms(L[1:] - L[0]) / _norms(L[0])))
    rows.append(_residual("elliptic/periodicity",
                          "L(z + 1) = L(z + tau) = L(z)", 1e-9, worst))

    # residue extraction at every marked point (symmetric numerical limit)
    worst = 0.0
    for mdl, st in ((model, state), (model3, state3)):
        Ls = orbit_elements(mdl, st)
        for a, pa in enumerate(mdl.marked_points):
            lim = _numeric_residue(lambda z: lax_matrix(mdl, st, z), pa)
            worst = max(worst, np.linalg.norm(lim - Ls[a]))
    rows.append(_residual("elliptic/residue_extraction",
                          "Res_{p_a} L = -phi_a Lambda_a phi_a^{-1}", 1e-7, worst))

    # gluing: gamma L gamma^{-1} stays bounded on shrinking circles around 0
    circles = np.multiply.outer((0.1, 0.025),
                                np.exp(1j * np.linspace(0.0, 2 * np.pi, 8, endpoint=False)))
    g = transition_gamma(model, state, circles)
    g_inv = np.linalg.inv(g)
    maxima = _norms(g @ lax_matrix(model, state, circles) @ g_inv).max(axis=-1)
    rows.append(_residual("elliptic/gluing_bounded",
                          "gamma L gamma^{-1} extends holomorphically through z = 0",
                          2.0, maxima[-1] / maxima[0]))

    # retrivialisation cross-check
    worst = 0.0
    for mdl, st in ((model, state), (model3, state3)):
        for z in rand_cell_z(mdl, 5):
            A, B = retrivialize(mdl, st, z)
            worst = max(worst, np.linalg.norm(A - B) / max(1.0, np.linalg.norm(A)))
    rows.append(_residual("elliptic/retrivialize",
                          "conjugation by f_1 == direct assembly in the constant-"
                          "connection trivialisation", 1e-8, worst))

    # Cartan part is untouched by the retrivialisation
    z = rand_cell_z(model, 1)[0]
    A, _ = retrivialize(model, state, z)
    L0 = lax_matrix(model, state, z)
    worst = max(abs(A[i, i] - L0[i, i]) for i in range(model.m))
    rows.append(_residual("elliptic/retrivialize_cartan",
                          "diagonal components invariant under the change of "
                          "trivialisation", 1e-10, worst))

    # Hamiltonian value against the lattice-sum backend
    oracle = LatticeSumOracle(tau)
    worst = 0.0
    for i in range(model.n_hams):
        Lo = _oracle_lax(model, state, model.ham_points[i], oracle)
        Ho = model.polys[i].evaluate(Lo)
        worst = max(worst, abs(Ho - hamiltonian(model, state, i)))
    rows.append(_residual("elliptic/hamiltonian_oracle",
                          "H_i from the theta route == H_i from lattice sums",
                          1e-8, worst))

    # M matrix: residue at its pole, Cartan residue at 0, gluing combination
    i = 0
    w = model.ham_points[i]
    G = model.polys[i].gradient(lax_matrix(model, state, w))
    lim = _numeric_residue(lambda z: m_matrix(model, state, i, z), w)
    rows.append(_residual("elliptic/m_residue",
                          "Res_{q_i} M_i = grad P_i(L(q_i))", 1e-7,
                          np.linalg.norm(lim - G) / max(1.0, np.linalg.norm(G))))
    # approach z = 0 perpendicular to the root pairing so the essential
    # twist exp(-u zeta(z)) stays oscillatory instead of overflowing
    u0 = model.basis.root_value(0, state.q)
    dirc = 1j * u0 / abs(u0)
    lim0 = _numeric_residue(lambda z: m_matrix(model, state, i, z), 0.0,
                            direction=dirc)
    Gmu_diag = np.diag(G).copy()
    Gmu_diag -= Gmu_diag.mean()
    rows.append(_residual("elliptic/m_cartan_pole",
                          "Cartan residue of M_i at z = 0 is -grad^mu, matching "
                          "dq^mu/dt = dH/dp", 1e-7,
                          np.linalg.norm(np.diag(lim0) + Gmu_diag)))
    dq = grad_hamiltonian(model, state, i)[2]
    comb = g @ m_matrix(model, state, i, circles) @ g_inv
    for mu in range(model.basis.rank):
        comb += (dq[mu] / circles)[..., None, None] * model.basis.cartan[mu]
    maxima = _norms(comb).max(axis=-1)
    rows.append(_residual("elliptic/m_gluing_bounded",
                          "gamma M gamma^{-1} + (dq/dt / z) H stays bounded at z = 0",
                          2.0, maxima[-1] / maxima[0]))

    # involutivity: spin Calogero-Moser (N = 1) and two-site Gaudin
    for N, label in ((1, "calogero_moser"), (2, "two_site")):
        worst = _worst_bracket(random_elliptic_ensemble(rng, 2, N, (2, 2)) for _ in range(25))
        rows.append(_residual(f"elliptic/involutivity_{label}",
                              "{H_1, H_2} = 0 on orbits x cotangent torus",
                              1e-8, worst))

    # spin Calogero-Moser reduction: constant Cartan part, diag-free residue
    cm_model, cm_state = random_elliptic_ensemble(rng, 2, 1, (2, 2))
    L1, L2 = lax_matrix(cm_model, cm_state, rand_cell_z(cm_model, 2))
    res = orbit_elements(cm_model, cm_state)[0]
    worst = max(abs(np.diag(L1) - np.diag(L2)).max(), abs(np.diag(res)).max())
    rows.append(_residual("elliptic/calogero_moser_reduction",
                          "N = 1: residue is off-diagonal and the Cartan part "
                          "of L is constant in z", 1e-10, worst))

    # flow commutativity at integrator order.  The two orderings agree up to
    # the residual diagonal gauge torus (whose moment map is the Cartan
    # residue-sum constraint), so the comparison uses the gauge-reduced data:
    # the cotangent pair and the spectral invariants of L(z).
    zs_comm = rand_cell_z(model, 3)

    end = _closure_squares(model, state, 0.1, (0.008, 0.004, 0.002)).states[-1]
    polys = charpoly(lax_matrix(model, end, zs_comm))
    gaps = [max(np.max(np.abs(end.q[a] - end.q[a + 1])), np.max(np.abs(end.p[a] - end.p[a + 1])),
                np.max(np.abs(polys[a] - polys[a + 1])))
            for a in (0, 2, 4)]
    rows.append(_order("elliptic/commutativity_order",
                       "flow_i o flow_j - flow_j o flow_i vanishes at the "
                       "integrator order on gauge-invariant data", 4.0, 1.2,
                       _fit_order(gaps)))
    rows.append(_residual("elliptic/commutativity_small",
                          "commuting flows: invariant-data gap at h = 0.002 "
                          "stays small", 1e-6, gaps[-1]))

    # Lax equation: Richardson time derivative, one trajectory per (flow, shift)
    worst = 0.0
    dt = 1e-3
    zs = rand_cell_z(model, 3)
    L0 = lax_matrix(model, state, zs)
    # two steps to each shifted time, every (flow, shift) a lockstep member
    shifts = (dt, -dt, 2 * dt, -2 * dt)
    axes = np.eye(model.n_hams)
    ends = evolve(model, state,
                  [FlowCurve([[0.0, 0.0], s * axis]) for axis in axes for s in shifts],
                  [abs(s) / 2.0 for _ in axes for s in shifts]).states[-1]
    shifted = lax_matrix(model, ends, zs).reshape(model.n_hams, len(shifts), len(zs),
                                                  model.m, model.m)
    for i, (L_p1, L_m1, L_p2, L_m2) in enumerate(shifted):
        dL = (8 * (L_p1 - L_m1) - (L_p2 - L_m2)) / (12 * dt)
        M = m_matrix(model, state, i, zs)
        worst = max(worst, _norms(dL - (M @ L0 - L0 @ M)).max())
    rows.append(_residual("elliptic/lax_residual",
                          "dL/dt^i = [M_i, L] for the elliptic companion ansatz",
                          1e-5, worst))

    # gradient convergence order for the full genus-1 chain rule
    dirL = [random_traceless(rng, 2, 0.5) for _ in range(model.n_sites)]
    dirq = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    dirp = rng.standard_normal(1) + 1j * rng.standard_normal(1)
    rows.append(_order("grad/elliptic_directional_order",
                       "directional derivative of H matches (dH/dL, dH/dq, dH/dp) "
                       "at second order", 2.0, 0.2,
                       _directional_order(model, state, dirL, dirq, dirp)))
    return rows


# ---------------------------------------------------------------------------
# univar suite
# ---------------------------------------------------------------------------

def suite_univar(seed=0):
    from .univar import (
        GaugeField,
        canonical_noncommuting_pair,
        check_closure,
        check_flatness,
        gauged_rhs,
        integrate_toy,
        noether_moment,
        pure_gauge_field,
        rotation_invariant_pair,
        so3_generators,
        so3_invariant_system,
        ToyHamiltonian,
        make_toy_system,
    )
    from .liealg import matrix_exponential

    rng = np.random.default_rng(seed + 3)
    rows = []
    sys2 = rotation_invariant_pair()

    def moments(system, p, q, h, field=None):
        """mu_a = -p X_a q at every sample of flow 1 over T = 1 by rk4"""
        ps, qs, _ = integrate_toy(system, p, q, 0, 1.0, h, field=field)
        return np.array([noether_moment(system, pk, qk) for pk, qk in zip(ps, qs)])

    # Noether conservation at integrator order
    p0 = np.array([0.7, -0.4])
    q0 = np.array([0.5, 0.9])
    d1, d2 = (np.max(np.abs(mus - mus[0])) for mus in
              (moments(sys2, p0, q0, 0.02), moments(sys2, p0, q0, 0.01)))
    rows.append(_residual("univar/noether_drift",
                          "mu_a = -p X_a q conserved along invariant flows",
                          1e-9, d2))
    rows.append(_order("univar/noether_order",
                       "Noether drift scales like h^4 under rk4", 4.0, 1.0,
                       _fit_order([d1, d2])))

    # gauged flow preserves the constraint surface mu = 0
    field = GaugeField(((lambda t: 0.35, ), (lambda t: -0.2, )))
    pc = np.array([0.4, 0.72])       # p parallel to q => mu = 0
    qc = np.array([0.5, 0.9])
    d1, d2 = (np.max(np.abs(moments(sys2, pc, qc, h, field))) for h in (0.02, 0.01))
    rows.append(_residual("univar/constraint_preserved",
                          "gauged flow starting on mu = 0 stays on mu = 0",
                          1e-9, d2))
    rows.append(_order("univar/constraint_order",
                       "constraint drift scales like h^4 under rk4", 4.0, 1.0,
                       _fit_order([d1, d2])))

    # ungauged reduction and the pure-gauge linear orbit
    dq_g, dp_g = gauged_rhs(sys2, p0, q0, np.zeros(2), None)
    dq_e = np.array([H.grad(p0, q0)[0] for H in sys2.hamiltonians])
    dp_e = np.array([-np.asarray(H.grad(p0, q0)[1]) for H in sys2.hamiltonians])
    rows.append(_residual("univar/ungauged_reduction",
                          "A = 0 reproduces the ungauged flow equations", 1e-14,
                          max(np.max(np.abs(dq_g - dq_e)), np.max(np.abs(dp_g - dp_e)))))

    zeroH = ToyHamiltonian(lambda p, q: 0.0,
                           lambda p, q: (np.zeros(2), np.zeros(2)))
    free = make_toy_system(2, [zeroH], [np.array([[0.0, -1.0], [1.0, 0.0]])],
                           np.zeros((1, 1, 1)))
    a0 = 0.45
    fld = GaugeField(((lambda t: a0, ), ))
    _, qs, _ = integrate_toy(free, p0, q0, 0, 1.0, 1e-3, field=fld)
    closed = matrix_exponential(a0 * free.generators[0]).real @ q0
    rows.append(_residual("univar/pure_gauge_orbit",
                          "H = 0, constant A: q(t) = exp(t A^a X_a) q(0)", 1e-9,
                          float(np.max(np.abs(qs[-1] - closed)))))

    # flatness: constant abelian, pure gauge, and a non-flat counterexample
    gens3, eps3 = so3_generators()
    const = GaugeField(((lambda t: 0.3, lambda t: 0.0, lambda t: 0.0),
                        (lambda t: 0.3, lambda t: 0.0, lambda t: 0.0)))
    F = check_flatness(const, np.array([0.4, -0.2]), eps3 * 0.0)
    rows.append(_residual("univar/flat_constant_abelian",
                          "constant commuting multiplier has F = 0", 1e-9,
                          float(np.max(np.abs(F)))))

    def g_of_t(t):
        # analytic in t so the complex-step derivative inside
        # pure_gauge_field stays exact
        a = np.sin(t[0] + 0.3 * t[1])
        b = np.cos(0.7 * t[0] * t[1])
        return matrix_exponential(a * gens3[0]) @ matrix_exponential(b * gens3[1])

    pg = pure_gauge_field(g_of_t, gens3, 2)
    F = check_flatness(pg, np.array([0.31, -0.17]), eps3)
    rows.append(_residual("univar/flat_pure_gauge",
                          "A = -(d_i g) g^{-1} has F = 0", 1e-6,
                          float(np.max(np.abs(F)))))

    bad = GaugeField(((lambda t: t[1], lambda t: 0.0, lambda t: 0.0),
                      (lambda t: 0.0, lambda t: t[0], lambda t: 0.0)))
    F = check_flatness(bad, np.array([1.0, 1.0]), eps3)
    rows.append(_floor("univar/nonflat_detected",
                       "generic non-commuting multiplier shows F != 0",
                       1e-3, np.max(np.abs(F))))

    # closure reports
    cl = check_closure(sys2, p0, q0)
    rows.append(_residual("univar/closure_invariant_pair",
                          "{H_1, H_2} = 0 for the central-potential pair", 1e-10,
                          float(cl[0, 1])))
    pair = canonical_noncommuting_pair()
    cl = check_closure(pair, p0, q0)
    rows.append(_residual("univar/closure_counterexample",
                          "{p_1, q_1} = 1 is reported, not hidden", 1e-12,
                          abs(float(cl[0, 1]) - 1.0)))

    # finite-difference bracket agrees with the analytic-gradient bracket
    worst = 0.0
    fd = 1e-6
    for H in (sys2.hamiltonians[0], sys2.hamiltonians[1]):
        dHdp, dHdq = H.grad(p0, q0)
        for k in range(2):
            e = np.zeros(2)
            e[k] = fd
            worst = max(worst,
                        abs((H.value(p0 + e, q0) - H.value(p0 - e, q0)) / (2 * fd) - dHdp[k]),
                        abs((H.value(p0, q0 + e) - H.value(p0, q0 - e)) / (2 * fd) - dHdq[k]))
    rows.append(_residual("univar/gradient_consistency",
                          "supplied analytic gradients match finite differences",
                          1e-6, worst))

    # so(3) system sanity: moment conservation under its own flow
    mus = moments(so3_invariant_system(), np.array([0.2, -0.4, 0.6]),
                  np.array([0.8, 0.1, -0.5]), 0.01)
    rows.append(_residual("univar/so3_noether",
                          "all three so(3) charges conserved", 1e-9,
                          np.max(np.abs(mus - mus[0]))))
    return rows


# ---------------------------------------------------------------------------
# multiform suite
# ---------------------------------------------------------------------------

def suite_multiform(seed=0):
    rng = np.random.default_rng(seed + 4)
    rows = []

    def path_gaps(model, state, hs, T, method="rk4"):
        squares = _closure_squares(model, state, T, hs, method)
        a = [action_along_curve(model, squares.member(b)) for b in range(2 * len(hs))]
        return [abs(x - y) for x, y in zip(a[::2], a[1::2])]

    # rational + rk4: the discrete path gap sits at roundoff already (the two
    # trajectories agree to integrator order, so the quadrature errors cancel)
    model, state = random_rational_ensemble(rng, 2, 3, (2, 2))
    rows.append(_residual("multiform/rational_path_independence",
                          "on-shell action depends on the curve only through "
                          "its endpoints", 1e-7,
                          path_gaps(model, state, [0.01], 0.5)[0]))
    # with the second-order stepper the trajectories differ measurably and the
    # gap must close at least at the quadrature order h^2
    gaps = path_gaps(model, state, (0.02, 0.01, 0.005), 0.5, method="conjugation")
    rows.append(_floor("multiform/rational_gap_order",
                       "path gap closes at least at the quadrature order h^2",
                       1.5, _fit_order(gaps)))

    # elliptic (spin Calogero-Moser, N = 1): trajectories differ by the
    # residual gauge motion, the actions agree up to clean h^2 quadrature
    emodel, estate = random_elliptic_ensemble(rng, 2, 1, (2, 2))
    gaps = path_gaps(emodel, estate, (0.01, 0.005, 0.0025), 0.2)
    rows.append(_residual("multiform/elliptic_path_independence",
                          "spin Calogero-Moser action is curve-independent "
                          "between fixed endpoints", 1e-4, gaps[-1]))
    rows.append(_order("multiform/elliptic_gap_order",
                       "path gap closes at the trapezoid order h^2", 2.0, 0.8,
                       _fit_order(gaps)))

    # stationary curve
    still = FlowCurve([[0.0, 0.0]])
    traj = evolve(model, state, still, 0.01)
    rows.append(_residual("multiform/zero_length_action",
                          "a zero-length curve accumulates no action", 1e-14,
                          abs(action_along_curve(model, traj))))
    return rows


SUITES = {
    "weierstrass": suite_weierstrass,
    "rational": suite_rational,
    "elliptic": suite_elliptic,
    "univar": suite_univar,
    "multiform": suite_multiform,
}


def run_suite(name, seed=0):
    if name == "all":
        return [row for suite in SUITES.values() for row in suite(seed)]
    if name not in SUITES:
        raise GaudinLabError(f"unknown suite {name!r}; choose from "
                             f"{', '.join([*SUITES, 'all'])}")
    return SUITES[name](seed)

"""The benchmark's workloads: instance draws and the operation on each.

Every workload is a closed loop of whole rounds.  A round is a fixed list of
operations whose inputs are either drawn from the workload's random stream
(seeded by ``--seed``) or fixed.  Inputs are fixed where drawn ones would
fail on some seeds or would make a run's median depend on the seed more
than a 20 s run can average out (README.md).  The program only sees the
inputs: scenario configs with ``source_mode: "explicit"``, or measures and
certificate parameters.
"""

from __future__ import annotations

import math
import os

import numpy as np

import heatloc.bench as hb
import heatloc.certificates as hc
import heatloc.field as hf
import heatloc.operators as ho
from checks import check_certificate, check_scenario, forward

L = 2.0 * math.pi

# The acceptance suite's 1D reference positions.
REFERENCE_1D = [[24 * L / 128], [60 * L / 128], [100 * L / 128]]

# Off-grid draws of the program's own generator (``source_mode: "off_grid"``,
# minimum separation 1.0) for ``source_seed`` k, each run with ``noise_seed``
# k, positions rounded to six decimals: 1D k = 1, 2, 3 and 15 (16 sensors,
# 40 dB; k = 1 and 3 also noiseless, k = 1 being the instance of
# ``configs/noiseless_1d_off_grid.json``) and 2D k = 1..12 (12x12 sensors,
# 20 and 30 dB).  The sources near the upper edge of 1D k = 15 (6.223 comes
# back at 6.087) and of 2D k = 3 (20 dB) and k = 4 (20 and 30 dB) are pulled
# inward on every run.
OFF_GRID_1D = {
    1: [[4.681525], [1.547335], [2.565185]],
    2: [[3.071947], [2.035595], [5.411582]],
    3: [[5.870267], [0.497386], [2.405379]],
    15: [[3.094498], [4.719035], [6.222749]],
}
OFF_GRID_2D = [
    [[1.907374, 5.332594], [0.981024, 0.195448], [5.656554, 0.327145]],
    [[3.071947, 2.035595], [5.411582, 3.556939], [2.226569, 4.844844]],
    [[5.870267, 0.497386], [2.405379, 5.020043], [4.763215, 2.153762]],
    [[0.000137, 2.681137], [5.523956, 0.941607], [2.385562, 6.1979]],
    [[4.610262, 3.710351], [1.305702, 2.785732], [1.564506, 4.257428]],
    [[4.304754, 1.663918], [0.09841, 1.596998], [0.449352, 0.049656]],
    [[5.479399, 1.855835], [2.639552, 2.547155], [0.520516, 4.377074]],
    [[3.032082, 3.832899], [0.629801, 0.350191], [1.855201, 1.509934]],
    [[1.340815, 5.003444], [2.447599, 5.298603], [4.513837, 4.722434]],
    [[0.798528, 4.109262], [2.807769, 2.382523], [3.931279, 4.981053]],
    [[0.798075, 4.301648], [4.008555, 3.918494], [3.649457, 0.332458]],
    [[0.351409, 5.214099], [4.703621, 4.445934], [1.444956, 0.214676]],
]

# The fixed-input operations that fail their checks today, on every run: the
# noisy path pulls a source near the upper edge inward (README.md).  A run is
# correct only when exactly these of its operations fail.
EXPECTED_FAILURES = frozenset({
    "noisy_1d_off_grid_k15_16s_40db",
    "noisy_2d_off_grid_k3_20db",
    "noisy_2d_off_grid_k4_20db",
    "noisy_2d_off_grid_k4_30db",
})

NOISY_1D_REFINEMENT = {"lasso_lambda": "universal"}
NOISY_2D_REFINEMENT = {
    "lasso_lambda": "universal",
    "max_rounds": 10,
    "solver": {"max_iters": 50000, "tol_primal": 1e-7, "tol_dual": 1e-7},
}

CERT_LAM = 1.0 / 64.0
CERT_M = 16
CERT_P = 4
CERT_MIN_SEPARATION = 0.3  # about 1.7 kernel widths sqrt(2*lam)
CERT_SNR_DB = 40.0
CERT_RHO = 1.05
CERT_GRID = np.linspace(-1.0, 1.0, 257).reshape(-1, 1)
# The acceptance suite's certified 1D instances (positions, amplitudes).  The
# TV-ball solve takes 4 to 7.5 s and its time differs by up to 1.9x between
# drawn measures, which a 20 s run cannot average out, so it runs on these
# fixed measures; the cheaper certificate work also runs on drawn ones.
CERT_TV_BALL = [
    ([0.05], [1.0]),
    ([-0.22, 0.31], [0.5, 0.5]),
    ([-0.4, 0.02, 0.44], [0.4, 0.3, 0.3]),
]
CERT_2D_MESH_POINTS = 1024
CHECK_MESH = {1: np.linspace(-1.5, 1.5, 3001), 2: np.linspace(-1.5, 1.5, 601)}


class ScenarioOp:
    """``run_scenario`` on one scenario followed by ``emit_results``."""

    def __init__(self, label: str, dim: int, positions, n_sensors: int, snr_db, noise_seed: int,
                 refinement: dict):
        self.label = label
        raw = {
            "name": label,
            "dim": dim,
            "domain_lo": [0.0] * dim,
            "domain_hi": [L] * dim,
            "s": len(positions),
            "source_mode": "explicit",
            "source_positions": positions,
            "amplitudes": [1.0] * len(positions),
            "n_sensors": n_sensors,
            "method": "refinement",
            "refinement": refinement,
            "noise_seed": noise_seed,
        }
        if snr_db is not None:
            raw["snr_db"] = snr_db
        self.cfg = hb.load_config(raw)  # validates
        self.spec = dict(dim=dim, n_sensors=n_sensors, lo=0.0, hi=L, positions=positions,
                         amplitudes=raw["amplitudes"], snr_db=snr_db)

    def run(self, out_dir: str):
        art = hb.run_scenario(self.cfg)
        paths = hb.emit_results(art, out_dir, self.cfg)
        return art, paths

    def check(self, output) -> list[str]:
        art, paths = output
        return check_scenario(self.spec, art, paths)


def _draw_certificate_measure(rng, dim: int) -> hf.SparseMeasure:
    """1D: one to three atoms in [-1/2, 1/2], separated, positive amplitudes summing
    to 1.  2D: a single unit atom in [-1/2, 1/2]^2."""
    if dim == 2:
        return hf.SparseMeasure(rng.uniform(-0.5, 0.5, (1, 2)), [1.0])
    s = int(rng.integers(1, 4))
    while True:
        pos = np.sort(rng.uniform(-0.5, 0.5, s))
        if s == 1 or np.min(np.diff(pos)) >= CERT_MIN_SEPARATION:
            break
    amp = rng.uniform(0.5, 1.0, s)
    return hf.SparseMeasure(pos.reshape(-1, 1), amp / amp.sum())


class CertificateOp:
    """A certified 1D instance with its noisy TV-ball check, plus two drawn measures.

    The TV-ball instance is one of the acceptance suite's certified 1D
    measures (CERT_TV_BALL) with fixed noise at 40 dB: a certificate and its
    verification for every atom, then ``verify_soft_stable_inequality`` for
    atom 0 on a 257-point grid.  The drawn 1D measure (one to three atoms) and
    the drawn 2D single-atom measure each go through certificate construction
    and verification for every atom.
    """

    def __init__(self, label: str, rng, tv_ball: int):
        self.label = label
        self.axis = np.arange(-CERT_M, CERT_M + 1) / CERT_M
        self.t = 2.0 * CERT_LAM
        positions, amplitudes = CERT_TV_BALL[tv_ball]
        self.fixed = hf.SparseMeasure(np.reshape(positions, (-1, 1)), amplitudes)
        b = forward(self.axis.reshape(-1, 1), self.t, self.fixed.positions, self.fixed.amplitudes)
        sigma = math.sqrt(float(b @ b) * 10.0 ** (-CERT_SNR_DB / 10.0) / b.size)
        noise = np.random.default_rng([tv_ball, 40]).standard_normal(b.size)
        self.b_clean = b
        self.b_noisy = b + sigma * noise
        self.eps = float(np.linalg.norm(self.b_noisy - b))
        self.drawn_1d = _draw_certificate_measure(rng, 1)
        self.drawn_2d = _draw_certificate_measure(rng, 2)
        self.cfg = {
            1: hc.CertConfig(lam=CERT_LAM, m=CERT_M, p_jackson=CERT_P, dim=1),
            2: hc.CertConfig(lam=CERT_LAM, m=CERT_M, p_jackson=CERT_P, dim=2,
                             mesh_points=CERT_2D_MESH_POINTS),
        }

    def _certify(self, mu, **kw) -> list:
        cfg = self.cfg[mu.dim]
        out = []
        for i0 in range(mu.n_atoms):
            approx = hc.calibrated_certificate(cfg, mu, i0)
            report = hc.verify_soft_conditions(
                approx.certificate, mu, i0, cfg.lam, coeff_norm=approx.coeff_norm,
                mesh_points=cfg.mesh_points, **kw)
            out.append((approx, report))
        return out

    def run(self, out_dir: str):
        fixed = self._certify(self.fixed, eps=self.eps, rho=CERT_RHO)
        A = ho.build_dictionary(fixed[0][0].certificate.op, CERT_GRID)
        stable = hc.verify_soft_stable_inequality(
            A, self.b_noisy, fixed[0][1], CERT_LAM, CERT_RHO, self.eps)
        return {"fixed": fixed, "stable": stable,
                "drawn_1d": self._certify(self.drawn_1d), "drawn_2d": self._certify(self.drawn_2d)}

    def check(self, output) -> list[str]:
        problems = []
        for key, mu, b_clean in (
            ("fixed", self.fixed, self.b_clean),
            ("drawn_1d", self.drawn_1d, None),
            ("drawn_2d", self.drawn_2d, None),
        ):
            if mu.dim == 1 and b_clean is None:
                b_clean = forward(self.axis.reshape(-1, 1), self.t, mu.positions, mu.amplitudes)
            case = dict(dim=mu.dim, lam=CERT_LAM, t=self.t, axis=self.axis, mesh=CHECK_MESH[mu.dim],
                        positions=mu.positions, amplitudes=mu.amplitudes, grid=CERT_GRID,
                        b_clean=b_clean)
            out = dict(certificates=[a for a, _ in output[key]], reports=[r for _, r in output[key]])
            if key == "fixed":
                out.update(i0=0, stable=output["stable"])
            problems += [f"{key}: {p}" for p in check_certificate(case, out)]
        return problems


def _noiseless_1d(rng, k: int) -> list:
    # An operation runs 6 to 8 refinement rounds of 1.5 to 2.5 s each, by
    # instance (12.5 to 19.4 s over ten draws), and a 20 s run holds two
    # operations, so drawn instances would make the run median depend on the
    # seed by about 10%.  The round is two fixed off-grid instances instead.
    return [
        ScenarioOp(f"noiseless_1d_off_grid_k{j}", 1, OFF_GRID_1D[j], 16, None, j, {})
        for j in (1, 3)
    ]


# Noisy scenario draws fail on some seeds in every regime measured
# (README.md), which would make the failure share depend on the seed, so the
# noisy workloads run fixed inputs and do not depend on ``--seed``.
def _noisy_1d(rng, k: int) -> list:
    ops = [
        ScenarioOp(f"noisy_1d_reference_{n}s_{snr:g}db", 1, REFERENCE_1D, n, snr, 1,
                   NOISY_1D_REFINEMENT)
        for n in (8, 12, 16)
        for snr in (30.0, 40.0)
    ]
    ops += [
        ScenarioOp(f"noisy_1d_off_grid_k{j}_16s_40db", 1, pos, 16, 40.0, j, NOISY_1D_REFINEMENT)
        for j, pos in OFF_GRID_1D.items()
    ]
    return ops


def _noisy_2d(rng, k: int) -> list:
    return [
        ScenarioOp(f"noisy_2d_off_grid_k{j}_{snr:g}db", 2, pos, 12, snr, j, NOISY_2D_REFINEMENT)
        for snr in (20.0, 30.0)
        for j, pos in enumerate(OFF_GRID_2D, start=1)
    ]


def _certificate_lab(rng, k: int) -> list:
    return [CertificateOp(f"certificate_lab_{k}.{j}", rng, j) for j in range(len(CERT_TV_BALL))]


WORKLOADS = {
    "noiseless_1d": _noiseless_1d,
    "noisy_1d": _noisy_1d,
    "noisy_2d": _noisy_2d,
    "certificate_lab": _certificate_lab,
}


def rounds(name: str, seed: int):
    """Endless sequence of rounds (lists of operations) for a workload and seed."""
    make = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    k = 0
    while True:
        yield make(rng, k)
        k += 1


def output_dir(root: str, name: str) -> str:
    return os.path.join(root, ".perfbench_out", name)

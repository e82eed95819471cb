"""The bend step as it was before the flow stress became state, kept as an
oracle for rdsm.bend.BendState.advance_step.

A test helper: ReferenceBendState builds its constants through BendState,
then steps with the earlier kernels, which evaluate every law over every
point on every step: the flow stress recomputed from the plastic strain,
the trapezoid work, the fiber and shear damage increments, the cohesive
initiation criterion and the cohesive dissipation all over the full (n, m)
arrays, and the state arrays replaced, not updated in place.  A test can
step it beside BendState and compare the state bit for bit.

The interface's damage feedback is the one law taken from the current
kernel: the oracle initiates on the raw drivers and then applies
rdsm.bend._feedback_separation at its initiated points, so that the
comparison keeps checking every other kernel bit for bit.
tests/test_bend.py checks that closed form against a per-point bisection.
"""

import numpy as np

from rdsm.bend import BendState, _feedback_separation, _solve_power_hardening
from rdsm.constitutive import (
    bk_mixed_mode_gc,
    cdm_damage_evolution,
    cdm_shear_damage,
    czm_dissipated,
    jc_stress,
)
from rdsm.errors import AdmissibilityError


def reference_return_map(strain, eps_p, stiffness, y0, coef, expo, active):
    """One power-hardening return-map step over (n, m) points.

    stiffness and the hardening constants are (n, 1) columns; points flow
    only where active and the elastic trial stress exceeds the current flow
    stress.  Returns the trial stress, the plastic mask, the new plastic
    strain, the new flow stress and the trapezoid plastic work per row.
    """
    trial = stiffness * (strain - eps_p)
    flow_old = jc_stress(eps_p, y0, coef, expo)
    plastic = active & (trial > flow_old)
    eps_p_new = eps_p.copy()
    flow_new = flow_old.copy()  # eps_p, hence the flow stress, moves only where plastic
    if np.any(plastic):
        k, y, c, n = (np.broadcast_to(a, strain.shape)[plastic] for a in (stiffness, y0, coef, expo))
        e = _solve_power_hardening(strain[plastic], k, y, c, n, eps_p[plastic])
        eps_p_new[plastic] = e
        flow_new[plastic] = jc_stress(e, y, c, n)
    work = (
        np.where(plastic, 0.5 * (flow_old + flow_new) * (eps_p_new - eps_p), 0.0)
    ).sum(axis=1)
    return trial, plastic, eps_p_new, flow_new, work


class ReferenceCohesiveBank:
    """Cohesive points over full (n, m) arrays, the initiation traction
    t0_m stored beside the separations."""

    def __init__(self, bank):
        for name in ("k", "t0_n", "t0_s", "gc_i", "gc_ii", "exponent", "label", "feedback"):
            setattr(self, name, getattr(bank, name))
        shape = bank.delta_max.shape
        self.initiated = np.zeros(shape, dtype=bool)
        self.delta_max = np.zeros(shape)
        self.delta0_m = np.zeros(shape)
        self.delta_f_m = np.zeros(shape)
        self.t0_m = np.zeros(shape)
        self.dissipated = np.zeros(shape)
        self.prev_n = np.zeros(shape)
        self.prev_s = np.zeros(shape)

    def damage(self):
        d = np.clip(self.delta_max, self.delta0_m, self.delta_f_m)
        span = np.where(self.delta_f_m > self.delta0_m, self.delta_f_m - self.delta0_m, 1.0)
        frac = self.delta_f_m * (d - self.delta0_m) / (np.maximum(d, 1e-300) * span)
        return np.where(self.initiated, np.clip(frac, 0.0, 1.0), 0.0)

    def advance(self, delta_n, delta_s):
        """Initiation where the quadratic criterion reaches 1 on the segment
        from the last step's drivers to these, at the root of the quadratic
        in the segment parameter taken in the kernel's form; then the
        separation law over every initiated point."""
        k = self.k[:, None]
        delta_m = np.hypot(delta_n, delta_s)
        wn, ws = k * delta_n / self.t0_n[:, None], k * delta_s / self.t0_s[:, None]
        un, us = k * self.prev_n / self.t0_n[:, None], k * self.prev_s / self.t0_s[:, None]
        fresh = (~self.initiated) & (wn**2 + ws**2 >= 1.0)
        if np.any(fresh):
            rows, cols = np.nonzero(fresh)
            un, us = un[fresh], us[fresh]
            vn, vs = wn[fresh] - un, ws[fresh] - us
            a, b, c = vn * vn + vs * vs, un * vn + us * vs, 1.0 - (un**2 + us**2)
            t = np.minimum(c / (b + np.sqrt(b * b + a * c)), 1.0)
            pn, ps = self.prev_n[fresh], self.prev_s[fresh]
            dn = pn + t * (delta_n[fresh] - pn)
            ds = ps + t * (delta_s[fresh] - ps)
            d0 = np.hypot(dn, ds)
            shear_sq = (ds / d0) ** 2
            gcm = bk_mixed_mode_gc(
                1.0 - shear_sq, shear_sq, 0.0, self.gc_i[rows], self.gc_ii[rows], self.exponent[rows]
            )
            t0m = self.k[rows] * d0
            dfm = 2.0 * gcm / t0m
            if np.any(dfm <= d0):
                j = int(np.argmax(dfm <= d0))
                raise AdmissibilityError(
                    "cohesive toughness below initiation energy",
                    layer=f"{self.label} {cols[j]}",
                )
            self.delta0_m[rows, cols] = d0
            self.t0_m[rows, cols] = t0m
            self.delta_f_m[rows, cols] = dfm
            self.initiated[rows, cols] = True
        if self.feedback:  # the same closed form over the initiated points
            delta_m[self.initiated] = _feedback_separation(
                delta_m[self.initiated], self.delta_max[self.initiated],
                self.delta0_m[self.initiated], self.delta_f_m[self.initiated], self.feedback,
            )
        self.delta_max = np.where(
            self.initiated, np.maximum(self.delta_max, delta_m), self.delta_max
        )
        new_diss = np.where(
            self.initiated,
            czm_dissipated(self.delta_max, self.t0_m, self.delta0_m, self.delta_f_m),
            0.0,
        )
        inc = new_diss - self.dissipated
        self.dissipated = new_diss
        self.prev_n, self.prev_s = delta_n.copy(), delta_s.copy()
        return inc


class ReferenceBendState(BendState):
    """BendState's constants and starting state, stepped by the earlier
    full-array kernels."""

    def __init__(self, specimen, x):
        super().__init__(specimen, x)
        self.coh = ReferenceCohesiveBank(self.coh)
        self.iface = ReferenceCohesiveBank(self.iface)

    def advance_step(self) -> None:
        sp = self.specimen
        if self.step >= sp.n_steps:
            raise RuntimeError("ramp already complete")
        kappa_new = sp.kappa_max * (self.step + 1) / sp.n_steps
        kappa_mid = sp.kappa_max * (self.step + 0.5) / sp.n_steps

        eps = kappa_new * (self.ybar[:, None] - sp.ply_mid_y[None, :])
        eps_mid = kappa_mid * (self.ybar[:, None] - sp.ply_mid_y[None, :])
        abs_eps = np.abs(eps)

        # --- ply fiber damage (DL) ---------------------------------------
        k11 = self.e_p * abs_eps / self.x_p
        hit = k11 >= 1.0
        d_new = self.d11.copy()
        if np.any(hit):
            d_new[hit] = np.maximum(
                self.d11[hit],
                cdm_damage_evolution(
                    k11[hit], self.x_p[hit], self.e_p[hit], self.gf_p[hit], sp.characteristic_length
                ),
            )
        release = 0.5 * self.e_p * eps_mid**2
        self.energy["DL"] += ((d_new - self.d11) * release).sum(axis=1) * self.vol_ply
        self.d11 = d_new

        # --- ply matrix shear (PL) ----------------------------------------
        gs = self.gs[:, None]
        trial, plastic, eps_p_new, flow_new, work = reference_return_map(
            self.sf[None, :] * abs_eps, self.eps12_p, gs,
            self.sig_y[:, None], self.c_h[:, None], self.p_h[:, None], ~self.failed,
        )
        self.energy["PL"] += work * self.vol_ply
        sig_eff = np.where(plastic, flow_new, np.where(self.failed, self.sig12_eff, np.maximum(trial, 0.0)))
        k12 = sig_eff / self.ss[:, None]
        dmg_hit = (~self.failed) & (k12 >= 1.0)
        d12_new = self.d12.copy()
        if np.any(dmg_hit):
            cand = cdm_shear_damage(
                k12[dmg_hit],
                np.broadcast_to(self.alpha12[:, None], k12.shape)[dmg_hit],
                np.broadcast_to(self.d12_max[:, None], k12.shape)[dmg_hit],
            )
            d12_new[dmg_hit] = np.maximum(self.d12[dmg_hit], cand)
        sig_mid = 0.5 * (self.sig12_eff + sig_eff)
        self.energy["PL"] += (
            (d12_new - self.d12) * (sig_mid**2 / (2.0 * gs))
        ).sum(axis=1) * self.vol_ply
        self.d12 = d12_new
        self.eps12_p = eps_p_new
        self.sig12_eff = sig_eff
        self.failed = self.failed | (self.eps12_p >= self.eps_max[:, None]) | (
            self.d12 >= self.d12_max[:, None] - 1e-15
        )

        # --- cohesive layers (DC) -----------------------------------------
        gamma_tot = self.sf[None, :] * eps
        jump = np.abs(gamma_tot[:, :-1] - gamma_tot[:, 1:])
        dmg_amp = sp.damage_slip_amplification * (
            self.d11[:, :-1] + self.d11[:, 1:]
        ) * 0.5 * (np.abs(eps[:, :-1]) + np.abs(eps[:, 1:])) * 0.5
        delta_s = sp.cohesive_shear_coupling * sp.ply_thickness * (jump + dmg_amp)
        peel = kappa_new * sp.ply_thickness * (
            1.0 + sp.damage_slip_amplification * 0.5 * (self.d11[:, :-1] + self.d11[:, 1:])
        )
        delta_n = sp.cohesive_peel_coupling * sp.ply_thickness * peel
        self.energy["DC"] += self.coh.advance(delta_n, delta_s).sum(axis=1) * self.area_coh

        # --- bond-line interface (DI) -------------------------------------
        slip = self.eps12_p.mean(axis=1)
        delta_s_i = (
            sp.interface_shear_coupling * sp.ply_thickness * np.abs(gamma_tot[:, -1])
            + sp.interface_slip_coupling * sp.composite_thickness * slip
        )
        mismatch = np.abs(self.nu_m - self.v_p[:, -1])
        delta_n_i = sp.interface_peel_coupling * sp.ply_thickness * mismatch * np.abs(eps[:, -1])
        self.energy["DI"] += (
            self.iface.advance(delta_n_i[:, None], delta_s_i[:, None]).sum(axis=1) * self.area_int
        )

        # --- substrate plasticity (PM) ------------------------------------
        eps_m = np.abs(kappa_new * (self.ybar[:, None] - sp.metal_mid_y[None, :]))
        _, _, self.eps_p_m, _, work_m = reference_return_map(
            eps_m, self.eps_p_m,
            self.e_m[:, None], self.a_m[:, None], self.b_m[:, None], self.n_m[:, None], True,
        )
        self.energy["PM"] += work_m * self.vol_metal

        self.step += 1

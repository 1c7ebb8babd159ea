//! An executable specification of the paper's dynamic placement scheme:
//! Eq. 1's M×N matrix of `p^res · p^vir · p^rel · p^eff` (Eqs. 2–5), the
//! Algorithm 1 round loop and the new-arrival column of Section III-C,
//! stated once, straight from PAPER.md and DESIGN.md §1–2.
//!
//! It is compiled only into test targets (`#[path]`-included by
//! `dvmp-placement`'s unit tests, the workspace's integration tests and
//! the `matrix_walkthrough` example) and shares no code with the
//! production planner: it reads the [`PlacementView`] through the
//! cluster model's accessors, snaps score inputs with the
//! `class_tolerance` quantizers that define that knob, and keeps no state
//! between passes — no caches, indexes or journal. Every round recomputes
//! every entry. The production planner must reproduce its decisions bit
//! for bit, so each factor multiplies in the order DESIGN.md §1 writes the
//! product, with the keyed extension factors last.
#![allow(dead_code)] // each including target uses a different part

use dvmp_cluster::pm::{PmClass, PmId};
use dvmp_cluster::resources::ResourceVector;
use dvmp_cluster::vm::{VmId, VmSpec};
use dvmp_placement::config::{
    quantize_score, quantize_secs, CapacityBasis, DynamicConfig, OverheadMode,
};
use dvmp_placement::policy::{KeyedFactor, Migration, PlacementPolicy, PlacementView};
use dvmp_simcore::SimTime;
use std::sync::Arc;

/// A row of Eq. 1: one available (on or booting) PM.
#[derive(Debug, Clone)]
pub struct Row {
    pub id: PmId,
    /// `C_j^max`: virtual capacity, or physical under the
    /// `CapacityBasis::Physical` ablation.
    pub capacity: ResourceVector,
    /// `C_j`, updated as Algorithm 1 applies moves.
    pub used: ResourceVector,
    /// `p_j^rel`.
    pub rel: f64,
    /// `T^cre` and `T^mig` of the PM, in seconds.
    pub cre: u64,
    pub mig: u64,
    /// `eff_j = min_m power_m / power_j`.
    pub eff: f64,
}

/// A column of Eq. 1: one running VM.
#[derive(Debug, Clone)]
pub struct Col {
    pub id: VmId,
    /// `R_i`: the VM's current demand.
    pub demand: ResourceVector,
    /// `T_i^re`, in seconds, charged `T^mig` by each planned move.
    pub remaining: u64,
    /// Index of the current host in [`Fleet::rows`].
    pub host: usize,
}

/// The fleet as one planning pass sees it.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Available PMs in ascending id order.
    pub rows: Vec<Row>,
    /// Running VMs in ascending id order.
    pub cols: Vec<Col>,
    pub now: SimTime,
}

/// The scheme as specified, a [`PlacementPolicy`] named `"dynamic"`.
#[derive(Debug, Clone)]
pub struct Spec {
    cfg: DynamicConfig,
    /// Extension factors, multiplied in after the built-in four in
    /// registration order.
    extras: Vec<Arc<dyn KeyedFactor>>,
}

impl Spec {
    pub fn new(cfg: DynamicConfig) -> Self {
        cfg.validate().expect("invalid DynamicConfig");
        Spec {
            cfg,
            extras: Vec::new(),
        }
    }

    pub fn with_factor(mut self, factor: Arc<dyn KeyedFactor>) -> Self {
        self.extras.push(factor);
        self
    }

    /// The pass's rows and columns. Reliability, `eff_j` and the overhead
    /// seconds are snapped onto the `class_tolerance` grid; capacity and
    /// demand stay exact.
    pub fn fleet(&self, view: &PlacementView<'_>) -> Fleet {
        let tol = self.cfg.class_tolerance;
        let effs = relative_efficiencies(view.dc.classes(), &self.cfg.min_vm);
        let rows: Vec<Row> = view
            .dc
            .pms()
            .iter()
            .filter(|pm| pm.is_available())
            .map(|pm| Row {
                id: pm.id,
                capacity: match self.cfg.capacity_basis {
                    CapacityBasis::Virtual => pm.virtual_capacity(),
                    CapacityBasis::Physical => *pm.capacity(),
                },
                used: *pm.used(),
                rel: quantize_score(pm.reliability, tol),
                cre: quantize_secs(pm.class.creation_time.as_secs(), tol),
                mig: quantize_secs(pm.class.migration_time.as_secs(), tol),
                eff: quantize_score(effs[pm.class_idx], tol),
            })
            .collect();
        let cols = view
            .migratable_vms()
            .filter_map(|(vm, host)| {
                Some(Col {
                    id: vm.spec.id,
                    demand: *vm.demand(),
                    remaining: vm.estimated_remaining(view.now).as_secs(),
                    host: rows.binary_search_by_key(&host, |r| r.id).ok()?,
                })
            })
            .collect();
        Fleet {
            rows,
            cols,
            now: view.now,
        }
    }

    /// `p_ij` of hosting a VM with demand `demand` and remaining time
    /// `remaining` on `row`. `host` is the VM's current host, `None` for a
    /// new request; `with_vir = false` drops Eq. 3 (the I9 fallback).
    pub fn p(
        &self,
        row: &Row,
        demand: &ResourceVector,
        remaining: u64,
        host: Option<&Row>,
        with_vir: bool,
        now: SimTime,
    ) -> f64 {
        let cfg = &self.cfg;
        let hosted = host.is_some_and(|h| h.id == row.id);
        // Eq. 2; the VM's own demand is already inside its host's `C_j` (I5).
        if !hosted && !row.used.fits_with(demand, &row.capacity) {
            return 0.0;
        }
        let mut p = 1.0;
        // Eq. 3, charging both overheads as printed or only the incurred
        // one (I2); 1 on the current host.
        if cfg.use_vir && with_vir && !hosted {
            let overhead = match cfg.overhead_mode {
                OverheadMode::PaperJoint => row.cre + row.mig,
                OverheadMode::Split if host.is_some() => row.mig,
                OverheadMode::Split => row.cre,
            };
            p *= if remaining == 0 || remaining < overhead {
                0.0
            } else {
                let f = (remaining - overhead) as f64 / remaining as f64;
                f * f
            };
        }
        if cfg.use_rel {
            p *= row.rel;
        }
        if cfg.use_eff {
            p *= p_eff(row, demand, hosted, &cfg.min_vm);
        }
        for extra in &self.extras {
            if p == 0.0 {
                break;
            }
            let from = host.map(|h| extra.key(h.id));
            p *= extra.factor(from, extra.key(row.id), now).clamp(0.0, 1.0);
        }
        p
    }

    /// The entry of column `col` at `row` in the pass's current state.
    pub fn entry(&self, fleet: &Fleet, row: usize, col: usize) -> f64 {
        let c = &fleet.cols[col];
        let host = &fleet.rows[c.host];
        let r = &fleet.rows[row];
        self.p(r, &c.demand, c.remaining, Some(host), true, fleet.now)
    }

    /// `d_ij = p_ij / p_(current host)`, Algorithm 1's matrix D.
    pub fn normalized(&self, fleet: &Fleet, row: usize, col: usize) -> f64 {
        let p_host = self.entry(fleet, fleet.cols[col].host, col);
        normalize(self.entry(fleet, row, col), p_host)
    }

    /// The move one Algorithm 1 round takes, as `(col, row, d)`: the
    /// largest `d_ij` above `MIG_threshold`. A tie goes to the lowest
    /// `VmId`, then to the lowest PM id; `+∞` candidates of one column rank
    /// by their raw `p_ij` (I6).
    pub fn best_move(&self, fleet: &Fleet) -> Option<(usize, usize, f64)> {
        let mut winner: Option<(usize, usize, f64)> = None;
        for col in 0..fleet.cols.len() {
            let host = fleet.cols[col].host;
            let p_host = self.entry(fleet, host, col);
            // (row, d, p) of the column's best candidate.
            let mut best: Option<(usize, f64, f64)> = None;
            for row in (0..fleet.rows.len()).filter(|&r| r != host) {
                let p = self.entry(fleet, row, col);
                let d = normalize(p, p_host);
                let better = match best {
                    None => true,
                    Some((_, bd, _)) if p_host > 0.0 => d > bd,
                    // Every candidate is +∞ here: the raw entry ranks them (I6).
                    Some((_, _, bp)) => p > bp,
                };
                if d > 0.0 && better {
                    best = Some((row, d, p));
                }
            }
            if let Some((row, d, _)) = best {
                if d > self.cfg.mig_threshold && winner.map_or(true, |(_, _, wd)| d > wd) {
                    winner = Some((col, row, d));
                }
            }
        }
        winner
    }

    /// Algorithm 1: up to `MIG_round` rounds, each taking
    /// [`best_move`](Self::best_move) over the fully recomputed matrix and
    /// applying it to `fleet` — the source releases the VM, the
    /// destination reserves it, and the VM's remaining time pays the
    /// destination's `T^mig`.
    pub fn algorithm1(&self, fleet: &mut Fleet) -> Vec<Migration> {
        let mut moves = Vec::new();
        for _round in 0..self.cfg.mig_round {
            let Some((col, to, _)) = self.best_move(fleet) else {
                break;
            };
            let from = fleet.cols[col].host;
            let demand = fleet.cols[col].demand;
            fleet.rows[from].used = fleet.rows[from].used.saturating_sub(&demand);
            fleet.rows[to].used = fleet.rows[to].used.add(&demand);
            let c = &mut fleet.cols[col];
            c.remaining = c.remaining.saturating_sub(fleet.rows[to].mig);
            c.host = to;
            moves.push(Migration {
                vm: c.id,
                from: fleet.rows[from].id,
                to: fleet.rows[to].id,
            });
        }
        moves
    }
}

/// `p / p_host`, or `+∞` for a positive `p` over a zero host entry (I6).
fn normalize(p: f64, p_host: f64) -> f64 {
    if p_host > 0.0 {
        p / p_host
    } else if p > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Eq. 5 at the prospective level (I1): `(w_j / W_j) · eff_j`, with `w_j`
/// the Eq. 4 level of the PM's occupancy after hosting the VM (its current
/// occupancy on the host row).
pub fn p_eff(row: &Row, demand: &ResourceVector, hosted: bool, min_vm: &ResourceVector) -> f64 {
    let w_max = row.capacity.contains_times(min_vm); // W_j
    if w_max == 0 || row.eff <= 0.0 {
        return 0.0;
    }
    let prospective = if hosted {
        row.used
    } else {
        row.used.add(demand)
    };
    let u = prospective.joint_utilization(&row.capacity);
    let u_min = min_vm.joint_utilization(&row.capacity);
    let w = level_for(u, u_min, w_max, row.capacity.k());
    (w as f64 / w_max as f64) * row.eff
}

/// Eq. 4: the largest `w ∈ 1..=W_j` with `w^K · U_MIN ≤ u`, boundaries
/// compared with a relative slack of 1e-9 so an occupancy exactly on a
/// boundary lands on it (I1).
pub fn level_for(u: f64, u_min: f64, w_max: u64, k: usize) -> u64 {
    if u_min <= 0.0 {
        return w_max;
    }
    let ratio = (u / u_min).max(0.0);
    let mut w = 1;
    while w < w_max && ratio >= ((w + 1) as f64).powi(k as i32) * (1.0 - 1e-9) {
        w += 1;
    }
    w
}

/// `eff_c = min_m power_m / power_c` per class, with `power_c` the class's
/// active power per minimum-VM slot; 0 for a class without a slot.
fn relative_efficiencies(classes: &[PmClass], min_vm: &ResourceVector) -> Vec<f64> {
    let power: Vec<Option<f64>> = classes
        .iter()
        .map(|c| {
            let slots = c.capacity.contains_times(min_vm);
            (slots > 0).then(|| c.active_power_w / slots as f64)
        })
        .collect();
    let min = power.iter().flatten().fold(f64::INFINITY, |a, &b| a.min(b));
    power
        .iter()
        .map(|p| match p {
            Some(p) if min.is_finite() => min / p,
            _ => 0.0,
        })
        .collect()
}

impl PlacementPolicy for Spec {
    fn name(&self) -> &'static str {
        "dynamic"
    }

    /// Section III-C: the new VM's column and its argmax (lowest PM id on
    /// ties). When Eq. 3 zeroes the whole column while capacity exists,
    /// the overhead-free column decides (I9).
    fn place(&mut self, view: &PlacementView<'_>, vm: &VmSpec) -> Option<PmId> {
        let fleet = self.fleet(view);
        let est = vm.estimated_runtime.as_secs();
        let column = |with_vir: bool| {
            let mut best: Option<(PmId, f64)> = None;
            for row in &fleet.rows {
                let p = self.p(row, &vm.resources, est, None, with_vir, fleet.now);
                if p > 0.0 && best.map_or(true, |(_, bp)| p > bp) {
                    best = Some((row.id, p));
                }
            }
            best.map(|(id, _)| id)
        };
        column(true).or_else(|| column(false))
    }

    fn plan_migrations(&mut self, view: &PlacementView<'_>) -> Vec<Migration> {
        self.algorithm1(&mut self.fleet(view))
    }

    fn is_dynamic(&self) -> bool {
        true
    }
}

//! Lane-batched integration of many identical RC networks.
//!
//! A parameter sweep steps N simulations that share one platform (same
//! floorplan, package, and solver) while varying policy knobs. Their thermal
//! networks therefore share a single topology and differ only in state:
//! temperatures and injected power. [`ThermalLaneKernel`] exploits that by
//! storing the state of all N *lanes* in flat struct-of-arrays buffers laid
//! out **lane-minor** — `state[node * lanes + lane]` — so the per-node and
//! per-edge inner loops of the integrator run over `lanes` consecutive
//! doubles and auto-vectorize.
//!
//! # Why lane-minor and not lane-major
//!
//! With lane-major `[lane][node]` storage the inner loop would iterate over
//! nodes of one lane — the same loop the scalar kernel already runs, with the
//! same serial edge-scatter dependency. Lane-minor storage turns every scalar
//! operation of the single-network kernel into an element-wise operation
//! across lanes, which is exactly the shape LLVM vectorizes. The kernel is one
//! portable loop, compiled once per ISA level (baseline, AVX2, AVX-512) and
//! chosen at runtime.
//!
//! # Bit-identical by construction
//!
//! The batched kernel performs, per lane, the **exact same floating-point
//! operations in the exact same order** as
//! [`RcNetwork::euler_step_with`](crate::rc::RcNetwork::euler_step_with) /
//! [`RcNetwork::rk4_step_with`](crate::rc::RcNetwork::rk4_step_with) driven
//! by [`Solver::advance_with`]:
//!
//! * the sub-step split comes from the shared [`Solver::substep_plan`];
//! * each node accumulates its incident edge flows in global edge-insertion
//!   order — the kernel gathers via a CSR adjacency instead of scattering
//!   `+q`/`-q` per edge, which is exactly (not approximately) the same
//!   arithmetic; see `LaneTopology::derivative` in this module — using only
//!   `+ - * /`, which vectorize to correctly-rounded IEEE-754 element-wise
//!   instructions with no FMA contraction;
//! * the stage arithmetic copies the expression shapes of the scalar RK4.
//!
//! The differential suite in `crates/core/tests/lane_equivalence.rs` pins
//! this property end-to-end; this module's unit tests pin it per lane count
//! on every SIMD level the host CPU can run.

use crate::error::ThermalError;
use crate::model::ThermalModel;
use crate::rc::CompiledKernel;
use crate::solver::Solver;
use tbp_arch::units::{Seconds, Watts};

/// Runtime-selected vector width for the lane loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimdLevel {
    /// Portable element-wise loops (still auto-vectorized to the target's
    /// baseline, e.g. SSE2 on x86-64).
    Scalar,
    /// 256-bit AVX2 code path.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// 512-bit AVX-512F code path.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

#[cfg(target_arch = "x86_64")]
fn detect_simd() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx512f") {
        SimdLevel::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_simd() -> SimdLevel {
    SimdLevel::Scalar
}

/// Scratch stages for the lane-batched integrator, all `nodes * lanes` long.
#[derive(Debug, Clone, Default)]
struct LaneWorkspace {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    t0: Vec<f64>,
    stage: Vec<f64>,
}

impl LaneWorkspace {
    fn sized(len: usize) -> Self {
        LaneWorkspace {
            k1: vec![0.0; len],
            k2: vec![0.0; len],
            k3: vec![0.0; len],
            k4: vec![0.0; len],
            t0: vec![0.0; len],
            stage: vec![0.0; len],
        }
    }
}

/// The topology every lane shares, in gather form, plus the derivative
/// that reads it.
#[derive(Debug, Clone)]
struct LaneTopology {
    lanes: usize,
    ambient: f64,
    /// Gather-form adjacency (CSR): node `n`'s incident edges occupy
    /// `adj_start[n]..adj_start[n + 1]` of `adj_g`/`adj_other`, listed in
    /// global edge-insertion order. Every entry accumulates uniformly as
    /// `acc += g * (t_other - t_self)` — see [`LaneTopology::derivative`]
    /// for why that is bit-identical to the scalar `+q`/`-q` scatter.
    adj_start: Vec<usize>,
    adj_other: Vec<usize>,
    adj_g: Vec<f64>,
    ambient_g: Vec<f64>,
    capacitance: Vec<f64>,
}

impl LaneTopology {
    /// Lane-batched form of [`RcNetwork::derivative_into`]: per lane the
    /// same operations in the same order, vectorized across the `lanes`
    /// consecutive doubles of each node row.
    ///
    /// The scalar path scatters each edge's flow `q = g * (t_b - t_a)` as
    /// `flow[a] += q; flow[b] -= q` in edge order. This kernel instead
    /// *gathers*: each node walks its incident edges (CSR adjacency, kept in
    /// global edge order) accumulating into a register, so there is no
    /// serializing read-modify-write chain through memory and each node's sum
    /// enjoys independent out-of-order execution. Bit-identity with the
    /// scatter is exact, not approximate:
    ///
    /// * a node's contributions arrive in the same (global edge) order, and
    ///   interleaving with *other* nodes' updates never affects its own sum;
    /// * the b-side `flow[b] -= g * (t_b - t_a)` is rewritten as
    ///   `acc += g * (t_a - t_b)` — IEEE-754 negation is exact and
    ///   `x - y == x + (-y)` rounds identically, so folding the sign into the
    ///   operand order gives the same bits while making every entry uniform;
    /// * only `+ - * /` are used (no FMA contraction), each correctly rounded
    ///   element-wise.
    ///
    /// Common lane counts get a row loop with the width known at compile
    /// time, which the vectorizer turns into whole-register operations for
    /// whatever ISA the caller was compiled for; other counts take a
    /// dynamic-width loop. `inline(always)` keeps both inside the
    /// `#[target_feature]` copies of the integrator.
    ///
    /// [`RcNetwork::derivative_into`]: crate::rc::RcNetwork::derivative_into
    #[inline(always)]
    fn derivative(&self, power: &[f64], temps: &[f64], out: &mut [f64]) {
        match self.lanes {
            1 => self.rows::<1>(power, temps, out),
            2 => self.rows::<2>(power, temps, out),
            4 => self.rows::<4>(power, temps, out),
            8 => self.rows::<8>(power, temps, out),
            16 => self.rows::<16>(power, temps, out),
            _ => self.rows_dyn(power, temps, out),
        }
    }

    /// [`derivative`](Self::derivative) for a compile-time lane count: each
    /// node row is a `[f64; LANES]`, so the only bounds check per edge is
    /// the lookup of the other endpoint's row.
    ///
    /// The lane loops are index loops on purpose: an iterator-zip spelling
    /// runs this kernel as fast, but its fat-LTO code layout slowed cache
    /// hits elsewhere in the binary by 20–40% (docs/PERFORMANCE.md).
    #[inline(always)]
    fn rows<const LANES: usize>(&self, power: &[f64], temps: &[f64], out: &mut [f64]) {
        let (t_rows, t_tail) = temps.as_chunks::<LANES>();
        let (p_rows, p_tail) = power.as_chunks::<LANES>();
        let (o_rows, o_tail) = out.as_chunks_mut::<LANES>();
        let nodes = self.ambient_g.len();
        assert!(t_tail.is_empty() && p_tail.is_empty() && o_tail.is_empty());
        assert!(t_rows.len() == nodes && p_rows.len() == nodes && o_rows.len() == nodes);
        for (node, ((o, p), t)) in o_rows.iter_mut().zip(p_rows).zip(t_rows).enumerate() {
            let g = self.ambient_g[node];
            let c = self.capacitance[node];
            let (lo, hi) = (self.adj_start[node], self.adj_start[node + 1]);
            let mut acc = [0.0f64; LANES];
            for l in 0..LANES {
                acc[l] = p[l] + g * (self.ambient - t[l]);
            }
            for (&ge, &other) in self.adj_g[lo..hi].iter().zip(&self.adj_other[lo..hi]) {
                let to = &t_rows[other];
                for l in 0..LANES {
                    acc[l] += ge * (to[l] - t[l]);
                }
            }
            for l in 0..LANES {
                o[l] = acc[l] / c;
            }
        }
    }

    /// [`derivative`](Self::derivative) for any lane count; same operations
    /// in the same order as [`rows`](Self::rows).
    fn rows_dyn(&self, power: &[f64], temps: &[f64], out: &mut [f64]) {
        let lanes = self.lanes;
        for (node, &g) in self.ambient_g.iter().enumerate() {
            let base = node * lanes;
            let c = self.capacitance[node];
            for l in 0..lanes {
                out[base + l] = power[base + l] + g * (self.ambient - temps[base + l]);
            }
            for e in self.adj_start[node]..self.adj_start[node + 1] {
                let ge = self.adj_g[e];
                let obase = self.adj_other[e] * lanes;
                for l in 0..lanes {
                    out[base + l] += ge * (temps[obase + l] - temps[base + l]);
                }
            }
            for l in 0..lanes {
                out[base + l] /= c;
            }
        }
    }
}

/// SoA integrator stepping N identical-topology RC networks in lockstep.
///
/// Built from N [`ThermalModel`]s that share topology, package ambient, and
/// solver (verified bitwise at construction); per step, callers load each
/// lane's block powers, call [`advance`](Self::advance) once, and write the
/// state back into the models with
/// [`ThermalModel::sync_from_lane`].
#[derive(Debug, Clone)]
pub struct ThermalLaneKernel {
    topo: LaneTopology,
    nodes: usize,
    solver: Solver,
    /// RC node index of each floorplan block (shared across lanes).
    block_nodes: Vec<usize>,
    max_stable_step: f64,
    /// Node temperatures, lane-minor: `temps[node * lanes + lane]`.
    temps: Vec<f64>,
    /// Injected node power, lane-minor like `temps`.
    power: Vec<f64>,
    workspace: LaneWorkspace,
    simd: SimdLevel,
}

impl ThermalLaneKernel {
    /// Builds a lane kernel over `models`, one lane per model in order.
    ///
    /// Every model must share lane 0's topology (nodes and edges, compared
    /// field-for-field), ambient temperature, solver configuration, and
    /// block-node mapping; each lane's current temperatures and injected
    /// powers are copied in as its initial state.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when `models` is empty or
    /// a model's shared configuration differs from lane 0.
    pub fn from_models(models: &[&ThermalModel]) -> Result<Self, ThermalError> {
        let first = *models.first().ok_or_else(|| {
            ThermalError::InvalidParameter("lane batch needs at least one model".into())
        })?;
        for (lane, model) in models.iter().enumerate().skip(1) {
            let same = model.network().nodes() == first.network().nodes()
                && model.network().edges() == first.network().edges()
                && model.network().ambient() == first.network().ambient()
                && model.solver() == first.solver()
                && model.block_nodes() == first.block_nodes();
            if !same {
                return Err(ThermalError::InvalidParameter(format!(
                    "lane {lane} thermal platform differs from lane 0; \
                     batched stepping needs identical topology, package and solver"
                )));
            }
        }
        let kernel = CompiledKernel::build(first.network().nodes(), first.network().edges());
        let lanes = models.len();
        let nodes = first.network().len();
        // Every edge endpoint indexes a real node row, so the adjacency built
        // below only names rows the derivative loops can look up.
        assert!(
            kernel
                .edge_a
                .iter()
                .chain(&kernel.edge_b)
                .all(|&n| n < nodes),
            "compiled kernel edge endpoints must index nodes"
        );
        // Transpose the edge list into gather form: each node's incident
        // edges, in global edge-insertion order (walking the edges once and
        // appending to both endpoints preserves that order per node).
        let mut adj_start = vec![0usize; nodes + 1];
        for (&a, &b) in kernel.edge_a.iter().zip(&kernel.edge_b) {
            adj_start[a + 1] += 1;
            adj_start[b + 1] += 1;
        }
        for node in 0..nodes {
            adj_start[node + 1] += adj_start[node];
        }
        let entries = adj_start[nodes];
        let mut cursor = adj_start.clone();
        let mut adj_other = vec![0usize; entries];
        let mut adj_g = vec![0.0f64; entries];
        for ((&a, &b), &g) in kernel.edge_a.iter().zip(&kernel.edge_b).zip(&kernel.edge_g) {
            for (node, other) in [(a, b), (b, a)] {
                adj_other[cursor[node]] = other;
                adj_g[cursor[node]] = g;
                cursor[node] += 1;
            }
        }
        let mut temps = vec![0.0; nodes * lanes];
        let mut power = vec![0.0; nodes * lanes];
        for (lane, model) in models.iter().enumerate() {
            for (node, &t) in model.network().temperatures_raw().iter().enumerate() {
                temps[node * lanes + lane] = t;
            }
            for (node, &p) in model.network().powers().iter().enumerate() {
                power[node * lanes + lane] = p;
            }
        }
        Ok(ThermalLaneKernel {
            topo: LaneTopology {
                lanes,
                ambient: first.network().ambient().as_celsius(),
                adj_start,
                adj_other,
                adj_g,
                ambient_g: kernel.ambient_g,
                capacitance: kernel.capacitance,
            },
            nodes,
            solver: *first.solver(),
            block_nodes: first.block_nodes().to_vec(),
            max_stable_step: kernel.max_stable_step,
            temps,
            power,
            workspace: LaneWorkspace::sized(nodes * lanes),
            simd: detect_simd(),
        })
    }

    /// Number of lanes stepped together.
    pub fn num_lanes(&self) -> usize {
        self.topo.lanes
    }

    /// Number of RC nodes per lane.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Number of floorplan blocks per lane.
    pub fn num_blocks(&self) -> usize {
        self.block_nodes.len()
    }

    /// Human-readable label of the runtime-selected SIMD code path
    /// (`"avx512"`, `"avx2"`, or `"scalar"`), for benchmark reports.
    pub fn simd_label(&self) -> &'static str {
        match self.simd {
            SimdLevel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Loads one lane's per-block power vector — the batched counterpart of
    /// the injection half of [`ThermalModel::step`].
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for an out-of-range lane and
    /// [`ThermalError::PowerLengthMismatch`] when `power` does not have one
    /// entry per floorplan block.
    pub fn set_block_powers(&mut self, lane: usize, power: &[Watts]) -> Result<(), ThermalError> {
        if lane >= self.topo.lanes {
            return Err(ThermalError::UnknownNode(lane));
        }
        if power.len() != self.block_nodes.len() {
            return Err(ThermalError::PowerLengthMismatch {
                expected: self.block_nodes.len(),
                actual: power.len(),
            });
        }
        for (&node, p) in self.block_nodes.iter().zip(power) {
            self.power[node * self.topo.lanes + lane] = p.as_watts();
        }
        Ok(())
    }

    /// Copies one lane's node temperatures (index order, °C) into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::UnknownNode`] for an out-of-range lane and
    /// [`ThermalError::InvalidParameter`] when `out` is not one entry per
    /// node.
    pub(crate) fn copy_lane_temperatures_into(
        &self,
        lane: usize,
        out: &mut [f64],
    ) -> Result<(), ThermalError> {
        if lane >= self.topo.lanes {
            return Err(ThermalError::UnknownNode(lane));
        }
        if out.len() != self.nodes {
            return Err(ThermalError::InvalidParameter(format!(
                "lane sync target has {} nodes but the kernel has {}",
                out.len(),
                self.nodes
            )));
        }
        for (node, t) in out.iter_mut().enumerate() {
            *t = self.temps[node * self.topo.lanes + lane];
        }
        Ok(())
    }

    /// Current temperature of one lane's node, for tests and diagnostics.
    pub fn lane_temperature(&self, lane: usize, node: usize) -> Option<f64> {
        if lane < self.topo.lanes && node < self.nodes {
            Some(self.temps[node * self.topo.lanes + lane])
        } else {
            None
        }
    }

    /// Advances every lane by `dt`, splitting into the same stable sub-steps
    /// as [`Solver::advance_with`] would for each network individually.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidTimeStep`] when `dt` is not positive
    /// and finite.
    pub fn advance(&mut self, dt: Seconds) -> Result<(), ThermalError> {
        let dt_secs = dt.as_secs();
        if !(dt_secs.is_finite() && dt_secs > 0.0) {
            return Err(ThermalError::InvalidTimeStep(dt_secs));
        }
        let (substeps, sub_dt) = self.solver.substep_plan(dt_secs, self.max_stable_step);
        match self.simd {
            SimdLevel::Scalar => self.substeps(substeps, sub_dt),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect_simd` only selects this level when the CPU
            // reports AVX2.
            SimdLevel::Avx2 => unsafe { self.substeps_avx2(substeps, sub_dt) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detect_simd` only selects this level when the CPU
            // reports AVX-512F.
            SimdLevel::Avx512 => unsafe { self.substeps_avx512(substeps, sub_dt) },
        }
        Ok(())
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn substeps_avx2(&mut self, substeps: usize, sub_dt: f64) {
        self.substeps(substeps, sub_dt);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn substeps_avx512(&mut self, substeps: usize, sub_dt: f64) {
        self.substeps(substeps, sub_dt);
    }

    /// `substeps` sub-steps of `dt` each, across all lanes. The Euler step
    /// mirrors [`RcNetwork::euler_step_with`] element-wise; the RK4 stage
    /// expressions copy [`RcNetwork::rk4_step_with`] shape-for-shape, so each
    /// lane's arithmetic is bit-identical to the scalar path.
    /// `inline(always)` so each `#[target_feature]` wrapper compiles it, and
    /// the derivative inside it, with its own vector ISA.
    ///
    /// [`RcNetwork::euler_step_with`]: crate::rc::RcNetwork::euler_step_with
    /// [`RcNetwork::rk4_step_with`]: crate::rc::RcNetwork::rk4_step_with
    #[inline(always)]
    fn substeps(&mut self, substeps: usize, dt: f64) {
        use crate::solver::SolverKind;
        let ThermalLaneKernel {
            topo,
            solver,
            temps,
            power,
            workspace: ws,
            ..
        } = self;
        match solver.kind() {
            SolverKind::ForwardEuler => {
                for _ in 0..substeps {
                    topo.derivative(power, temps, &mut ws.k1);
                    for (t, d) in temps.iter_mut().zip(&ws.k1) {
                        *t += dt * d;
                    }
                }
            }
            SolverKind::RungeKutta4 => {
                for _ in 0..substeps {
                    ws.t0.copy_from_slice(temps);
                    topo.derivative(power, &ws.t0, &mut ws.k1);
                    for ((stage, &t), &k) in ws.stage.iter_mut().zip(&ws.t0).zip(&ws.k1) {
                        *stage = t + 0.5 * dt * k;
                    }
                    topo.derivative(power, &ws.stage, &mut ws.k2);
                    for ((stage, &t), &k) in ws.stage.iter_mut().zip(&ws.t0).zip(&ws.k2) {
                        *stage = t + 0.5 * dt * k;
                    }
                    topo.derivative(power, &ws.stage, &mut ws.k3);
                    for ((stage, &t), &k) in ws.stage.iter_mut().zip(&ws.t0).zip(&ws.k3) {
                        *stage = t + dt * k;
                    }
                    topo.derivative(power, &ws.stage, &mut ws.k4);
                    for (i, temp) in temps.iter_mut().enumerate() {
                        *temp = ws.t0[i]
                            + dt / 6.0 * (ws.k1[i] + 2.0 * ws.k2[i] + 2.0 * ws.k3[i] + ws.k4[i]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::Package;
    use crate::solver::SolverKind;
    use tbp_arch::floorplan::Floorplan;

    fn model(package: Package, solver: SolverKind) -> ThermalModel {
        ThermalModel::with_solver(&Floorplan::paper_3core(), package, solver).unwrap()
    }

    fn block_power(model: &ThermalModel, watts: &[f64]) -> Vec<Watts> {
        assert_eq!(watts.len(), model.num_blocks());
        watts.iter().copied().map(Watts::new).collect()
    }

    #[test]
    fn construction_validates_lanes() {
        assert!(ThermalLaneKernel::from_models(&[]).is_err());
        let euler = model(Package::mobile_embedded(), SolverKind::ForwardEuler);
        let rk4 = model(Package::mobile_embedded(), SolverKind::RungeKutta4);
        let hiperf = model(Package::high_performance(), SolverKind::ForwardEuler);
        assert!(ThermalLaneKernel::from_models(&[&euler, &rk4]).is_err());
        assert!(ThermalLaneKernel::from_models(&[&euler, &hiperf]).is_err());
        let twin = euler.clone();
        let kernel = ThermalLaneKernel::from_models(&[&euler, &twin]).unwrap();
        assert_eq!(kernel.num_lanes(), 2);
        assert_eq!(kernel.num_nodes(), euler.network().len());
        assert_eq!(kernel.num_blocks(), euler.num_blocks());
        assert!(!kernel.simd_label().is_empty());
    }

    #[test]
    fn shape_errors_are_reported() {
        let m = model(Package::mobile_embedded(), SolverKind::ForwardEuler);
        let mut kernel = ThermalLaneKernel::from_models(&[&m]).unwrap();
        assert!(kernel.set_block_powers(3, &[Watts::ZERO; 14]).is_err());
        assert!(kernel.set_block_powers(0, &[Watts::ZERO]).is_err());
        assert!(kernel.advance(Seconds::ZERO).is_err());
        assert!(kernel.advance(Seconds::new(f64::NAN)).is_err());
        assert_eq!(kernel.lane_temperature(9, 0), None);
        assert_eq!(kernel.lane_temperature(0, 999), None);
        let mut short = vec![0.0; 3];
        assert!(kernel.copy_lane_temperatures_into(0, &mut short).is_err());
        assert!(kernel
            .copy_lane_temperatures_into(2, &mut vec![0.0; kernel.num_nodes()])
            .is_err());
    }

    /// Lane counts that exercise every width `LaneTopology::derivative`
    /// dispatches on: the compile-time row loops (1, 2, 4, 8, 16) and the
    /// dynamic-width loop (3, 5). Each runs on every SIMD level this CPU
    /// supports, so the baseline loop and each `#[target_feature]` copy of
    /// the integrator are all checked, whichever level `detect_simd` picks.
    const LANE_COUNTS: [usize; 7] = [1, 2, 3, 4, 5, 8, 16];

    /// `Scalar`, plus each `#[target_feature]` level the CPU reports.
    fn runnable_levels() -> Vec<SimdLevel> {
        #[allow(unused_mut)]
        let mut levels = vec![SimdLevel::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                levels.push(SimdLevel::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                levels.push(SimdLevel::Avx512);
            }
        }
        levels
    }

    /// The load-bearing property: each lane of the batched kernel produces
    /// *bit-identical* temperatures to a scalar [`ThermalModel::step`] run of
    /// the same model, for both solvers, heterogeneous lane powers, and
    /// every SIMD level this CPU can run.
    #[test]
    fn lanes_match_scalar_models_bit_for_bit() {
        for simd in runnable_levels() {
            for kind in [SolverKind::ForwardEuler, SolverKind::RungeKutta4] {
                for package in [Package::mobile_embedded(), Package::high_performance()] {
                    for lanes in LANE_COUNTS {
                        lanes_match_scalar_case(simd, kind, package.clone(), lanes);
                    }
                }
            }
        }
    }

    fn lanes_match_scalar_case(simd: SimdLevel, kind: SolverKind, package: Package, lanes: usize) {
        let reference = model(package, kind);
        let mut scalar: Vec<ThermalModel> = (0..lanes).map(|_| reference.clone()).collect();
        let mut batched = scalar.clone();
        let mut kernel =
            ThermalLaneKernel::from_models(&batched.iter().collect::<Vec<_>>()).unwrap();
        kernel.simd = simd;
        let dt = Seconds::from_millis(5.0);
        for step in 0..200 {
            for (lane, (s, b)) in scalar.iter_mut().zip(&mut batched).enumerate() {
                // Lane-dependent, step-dependent power pattern.
                let watts: Vec<f64> = (0..s.num_blocks())
                    .map(|blk| 0.01 * (lane + 1) as f64 * ((blk + step) % 5) as f64)
                    .collect();
                let p = block_power(s, &watts);
                s.step(&p, dt).unwrap();
                b.load_block_powers(&p).unwrap();
                kernel.set_block_powers(lane, &p).unwrap();
            }
            kernel.advance(dt).unwrap();
            for (lane, b) in batched.iter_mut().enumerate() {
                b.sync_from_lane(&kernel, lane, dt).unwrap();
            }
        }
        for (lane, (s, b)) in scalar.iter().zip(&batched).enumerate() {
            assert_eq!(s.elapsed(), b.elapsed());
            for node in 0..s.network().len() {
                let ts = s.network().temperature(node).as_celsius();
                let tb = b.network().temperature(node).as_celsius();
                assert_eq!(
                    ts.to_bits(),
                    tb.to_bits(),
                    "{simd:?} {kind:?} {lanes} lanes, lane {lane} node {node}: \
                     scalar {ts} vs batched {tb}"
                );
            }
            assert_eq!(s.network().powers(), b.network().powers());
        }
    }
}

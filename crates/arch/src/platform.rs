//! The assembled MPSoC platform.
//!
//! [`MpsocPlatform`] owns the cores, caches, memories, bus and floorplan of
//! the emulated machine and produces per-floorplan-block power snapshots that
//! the thermal model integrates. It is the hardware half of the co-simulation
//! loop; the OS model in `tbp-os` drives core utilisation and frequencies, and
//! the policies in `tbp-core` read temperatures back.

use serde::{Deserialize, Serialize};

use crate::bus::{Bus, BusConfig, BusWindow};
use crate::cache::{Cache, CacheConfig};
use crate::core::{Core, CoreId};
use crate::error::ArchError;
use crate::floorplan::{BlockKind, Floorplan};
use crate::freq::{DvfsScale, Frequency, OperatingPoint, Voltage};
use crate::memory::{PrivateMemory, SharedMemory};
use crate::power::{ComponentKind, CoreClass, PointScales, PowerModel, REFERENCE_VOLTAGE};
use crate::units::{Bytes, Celsius, Seconds, Watts};

/// Configuration of an [`MpsocPlatform`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Number of processor tiles.
    pub num_cores: usize,
    /// Processor class of every tile (the platform is homogeneous).
    pub core_class: CoreClass,
    /// DVFS scale shared by all cores.
    pub dvfs: DvfsScale,
    /// Instruction-cache configuration of every tile.
    pub icache: CacheConfig,
    /// Data-cache configuration of every tile.
    pub dcache: CacheConfig,
    /// Private memory capacity of every tile.
    pub private_memory: Bytes,
    /// Shared memory capacity.
    pub shared_memory: Bytes,
    /// Shared bus configuration.
    pub bus: BusConfig,
    /// Power model parameters.
    pub power: PowerModel,
}

impl PlatformConfig {
    /// The paper's 3-core streaming MPSoC (Conf1 cores, Table 1 power
    /// figures, Figure 5 floorplan).
    pub fn paper_default() -> Self {
        PlatformConfig {
            num_cores: 3,
            core_class: CoreClass::Risc32Streaming,
            dvfs: DvfsScale::paper_default(),
            icache: CacheConfig::paper_icache(),
            dcache: CacheConfig::paper_dcache(),
            private_memory: Bytes::from_mib(1),
            shared_memory: Bytes::from_mib(4),
            bus: BusConfig::paper_default(),
            power: PowerModel::new(),
        }
    }

    /// Same platform with the lower-power ARM11-class cores (Conf2).
    pub fn paper_arm11() -> Self {
        PlatformConfig {
            core_class: CoreClass::Risc32Arm11,
            ..PlatformConfig::paper_default()
        }
    }

    /// Overrides the number of cores (used by the scalability ablation).
    pub fn with_cores(mut self, n: usize) -> Self {
        self.num_cores = n;
        self
    }
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::paper_default()
    }
}

/// Per-block power produced by one platform step, in floorplan order.
///
/// The snapshot holds only watts; block names come from
/// [`MpsocPlatform::block_table`]. It can be reused across steps via
/// [`MpsocPlatform::power_snapshot_into`], which rewrites the power vector in
/// place, so the steady-state co-simulation step allocates nothing here.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerSnapshot {
    watts: Vec<Watts>,
}

impl PowerSnapshot {
    /// Creates an empty snapshot to be filled by
    /// [`MpsocPlatform::power_snapshot_into`].
    pub fn empty() -> Self {
        PowerSnapshot::default()
    }

    /// Power of each block, in floorplan order.
    pub fn per_block(&self) -> &[Watts] {
        &self.watts
    }

    /// Total chip power.
    pub fn total(&self) -> f64 {
        self.watts.iter().map(|w| w.as_watts()).sum()
    }
}

/// What sets a block's operating point and utilisation each step.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Activity {
    /// The core with this index (its tile's core, caches and memory).
    Core(usize),
    /// The uncore (shared memory, interconnect): bus clock and utilisation.
    Uncore,
}

/// The constant part of one block's power: its Table 1 max power and the
/// factor its per-component power is multiplied by (the private memory's
/// macro scale, 1 for every other block, which leaves the bits unchanged).
#[derive(Debug, Clone, Copy)]
struct BlockPower {
    max_power: Watts,
    scale: f64,
}

/// A run of consecutive floorplan blocks that share one activity source.
#[derive(Debug, Clone, Copy)]
struct ActivityRun {
    activity: Activity,
    /// One past the run's last block index.
    end: usize,
}

/// The power pass precomputed at platform construction: every block's
/// constants in floorplan order, grouped into runs of one activity source,
/// and the uncore's point scales (the bus clock and reference voltage never
/// change).
///
/// Derived from the configuration, so it compares equal to any other table
/// and stays out of equality.
#[derive(Debug, Clone)]
struct PowerTable {
    blocks: Vec<BlockPower>,
    runs: Vec<ActivityRun>,
    uncore_scales: PointScales,
}

impl PartialEq for PowerTable {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl PowerTable {
    fn new(
        config: &PlatformConfig,
        floorplan: &Floorplan,
        private_memories: &[PrivateMemory],
    ) -> Self {
        let mut blocks = Vec::with_capacity(floorplan.len());
        let mut runs: Vec<ActivityRun> = Vec::new();
        for (i, block) in floorplan.blocks().iter().enumerate() {
            let (activity, max_power, scale) = match block.kind {
                BlockKind::Core(id) => (
                    Activity::Core(id.index()),
                    config.core_class.max_power(),
                    1.0,
                ),
                BlockKind::ICache(id) => (
                    Activity::Core(id.index()),
                    config.icache.kind.component().max_power(),
                    1.0,
                ),
                BlockKind::DCache(id) => (
                    Activity::Core(id.index()),
                    config.dcache.kind.component().max_power(),
                    1.0,
                ),
                BlockKind::PrivateMemory(id) => (
                    Activity::Core(id.index()),
                    ComponentKind::Memory32k.max_power(),
                    private_memories[id.index()].macro_scale(),
                ),
                // The interconnect is modelled as a shared-memory-class
                // component driven by bus utilisation.
                BlockKind::SharedMemory | BlockKind::Interconnect => (
                    Activity::Uncore,
                    ComponentKind::SharedMemory.max_power(),
                    1.0,
                ),
            };
            blocks.push(BlockPower { max_power, scale });
            match runs.last_mut() {
                Some(run) if run.activity == activity => run.end = i + 1,
                _ => runs.push(ActivityRun {
                    activity,
                    end: i + 1,
                }),
            }
        }
        let uncore_point = OperatingPoint::new(
            Frequency::from_mhz(config.bus.clock_mhz),
            Voltage::new(REFERENCE_VOLTAGE),
        );
        PowerTable {
            blocks,
            runs,
            uncore_scales: config.power.point_scales(uncore_point),
        }
    }
}

/// The assembled MPSoC: cores, caches, memories, bus and floorplan.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, PartialEq)]
pub struct MpsocPlatform {
    config: PlatformConfig,
    floorplan: Floorplan,
    cores: Vec<Core>,
    icaches: Vec<Cache>,
    dcaches: Vec<Cache>,
    private_memories: Vec<PrivateMemory>,
    shared_memory: SharedMemory,
    bus: Bus,
    elapsed: Seconds,
    /// Block names, in floorplan order.
    block_names: Vec<String>,
    power_table: PowerTable,
}

impl MpsocPlatform {
    /// Builds a platform from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::EmptyPlatform`] for a zero-core configuration and
    /// [`ArchError::InvalidConfig`] / [`ArchError::InvalidFloorplan`] when a
    /// component configuration is invalid.
    pub fn new(config: PlatformConfig) -> Result<Self, ArchError> {
        if config.num_cores == 0 {
            return Err(ArchError::EmptyPlatform);
        }
        let floorplan = Floorplan::homogeneous_tiles(config.num_cores)?;
        let mut cores = Vec::with_capacity(config.num_cores);
        let mut icaches = Vec::with_capacity(config.num_cores);
        let mut dcaches = Vec::with_capacity(config.num_cores);
        let mut private_memories = Vec::with_capacity(config.num_cores);
        for i in 0..config.num_cores {
            let id = CoreId(i);
            cores.push(Core::new(id, config.core_class, config.dvfs.clone()));
            icaches.push(Cache::new(id, config.icache)?);
            dcaches.push(Cache::new(id, config.dcache)?);
            private_memories.push(PrivateMemory::new(id, config.private_memory)?);
        }
        let shared_memory = SharedMemory::new(config.shared_memory)?;
        let bus = Bus::new(config.bus)?;
        let block_names = floorplan.blocks().iter().map(|b| b.name.clone()).collect();
        let power_table = PowerTable::new(&config, &floorplan, &private_memories);
        Ok(MpsocPlatform {
            config,
            floorplan,
            cores,
            icaches,
            dcaches,
            private_memories,
            shared_memory,
            bus,
            elapsed: Seconds::ZERO,
            block_names,
            power_table,
        })
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The floorplan of the platform.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Identifiers of all cores, ascending.
    pub fn core_ids(&self) -> Vec<CoreId> {
        (0..self.cores.len()).map(CoreId).collect()
    }

    /// Immutable access to a core.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownCore`] for an out-of-range id.
    pub fn core(&self, id: CoreId) -> Result<&Core, ArchError> {
        self.cores.get(id.index()).ok_or(ArchError::UnknownCore(id))
    }

    /// Mutable access to a core.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownCore`] for an out-of-range id.
    pub fn core_mut(&mut self, id: CoreId) -> Result<&mut Core, ArchError> {
        self.cores
            .get_mut(id.index())
            .ok_or(ArchError::UnknownCore(id))
    }

    /// All cores in id order.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// The private memory of a core.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownCore`] for an out-of-range id.
    pub fn private_memory(&self, id: CoreId) -> Result<&PrivateMemory, ArchError> {
        self.private_memories
            .get(id.index())
            .ok_or(ArchError::UnknownCore(id))
    }

    /// Mutable access to the private memory of a core.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownCore`] for an out-of-range id.
    pub fn private_memory_mut(&mut self, id: CoreId) -> Result<&mut PrivateMemory, ArchError> {
        self.private_memories
            .get_mut(id.index())
            .ok_or(ArchError::UnknownCore(id))
    }

    /// The shared memory.
    pub fn shared_memory(&self) -> &SharedMemory {
        &self.shared_memory
    }

    /// The shared bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Simulated time elapsed so far.
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Queues migration (or other middleware) traffic for transfer through
    /// the shared memory and bus.
    pub fn offer_shared_traffic(&mut self, bytes: Bytes) {
        self.shared_memory.record_transfer(bytes);
        self.bus.offer(bytes);
    }

    /// Advances the platform by `dt`: cache accesses are derived from each
    /// core's executed cycles, refill and middleware traffic is pushed
    /// through the bus, and the bus window (including contention) is
    /// returned.
    pub fn step(&mut self, dt: Seconds) -> BusWindow {
        for i in 0..self.cores.len() {
            let cycles = self.cores[i].task_cycles_in(dt.as_secs());
            let i_accesses = self.icaches[i].accesses_for_cycles(cycles);
            let d_accesses = self.dcaches[i].accesses_for_cycles(cycles);
            let refill = self.icaches[i].record_accesses(i_accesses)
                + self.dcaches[i].record_accesses(d_accesses);
            self.bus.offer(refill);
        }
        self.elapsed += dt;
        self.bus.serve(dt)
    }

    /// Produces the per-block power snapshot at the given uniform die
    /// temperature (convenience for warm-up and tests).
    pub fn power_snapshot(&self, temperature_celsius: f64) -> PowerSnapshot {
        let uniform = vec![Celsius::new(temperature_celsius); self.floorplan.len()];
        self.power_snapshot_at(&uniform)
    }

    /// Block names, in floorplan order: entry `i` names
    /// [`PowerSnapshot::per_block`]`()[i]`.
    pub fn block_table(&self) -> &[String] {
        &self.block_names
    }

    /// Produces the per-block power snapshot given each block's current
    /// temperature (floorplan order). Leakage is evaluated at the block's own
    /// temperature, closing the electro-thermal loop.
    ///
    /// Temperatures beyond the floorplan length are ignored; missing entries
    /// default to the ambient temperature.
    pub fn power_snapshot_at(&self, block_temperatures: &[Celsius]) -> PowerSnapshot {
        let mut snapshot = PowerSnapshot::empty();
        self.power_snapshot_into(block_temperatures, &mut snapshot);
        snapshot
    }

    /// Allocation-free form of [`power_snapshot_at`](Self::power_snapshot_at):
    /// rewrites `out` in place, so once `out` has been filled for a platform
    /// of this shape the call performs no heap allocations.
    ///
    /// One walk over the table built at construction: point scales and
    /// utilisation once per run of blocks sharing an activity source (a tile's four
    /// blocks, the two uncore blocks), then the power arithmetic per block.
    pub fn power_snapshot_into(&self, block_temperatures: &[Celsius], out: &mut PowerSnapshot) {
        let model = &self.config.power;
        let table = &self.power_table;
        out.watts.clear();
        let mut start = 0;
        for run in &table.runs {
            let (scales, utilization) = match run.activity {
                Activity::Core(idx) => {
                    let core = &self.cores[idx];
                    let point = if core.is_running() {
                        core.operating_point()
                    } else {
                        OperatingPoint::new(Frequency::ZERO, core.operating_point().voltage)
                    };
                    (
                        model.point_scales(point),
                        core.utilization().clamp(0.0, 1.0),
                    )
                }
                Activity::Uncore => (table.uncore_scales, self.bus_utilization_estimate()),
            };
            for i in start..run.end {
                let block = &table.blocks[i];
                let t = block_temperatures
                    .get(i)
                    .copied()
                    .unwrap_or_else(Celsius::ambient);
                let w = model.power_at(block.max_power, &scales, utilization, t);
                out.watts.push(Watts::new(w.as_watts() * block.scale));
            }
            start = run.end;
        }
    }

    fn bus_utilization_estimate(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            (self.bus.busy_time() / self.elapsed).clamp(0.0, 1.0)
        }
    }

    /// Resets dynamic state (bus backlog, elapsed time) while keeping the
    /// configuration, so a platform can be reused across experiments.
    pub fn reset(&mut self) {
        self.bus.reset();
        self.elapsed = Seconds::ZERO;
        for core in &mut self.cores {
            core.resume();
            core.set_utilization(0.0).expect("0 is a valid utilization");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Power of the named block, found through the floorplan.
    fn block_watts(platform: &MpsocPlatform, snap: &PowerSnapshot, name: &str) -> f64 {
        let i = platform.floorplan().index_of(name).unwrap();
        assert_eq!(platform.block_table()[i], name);
        snap.per_block()[i].as_watts()
    }

    #[test]
    fn paper_platform_has_three_cores() {
        let platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        assert_eq!(platform.num_cores(), 3);
        assert_eq!(platform.core_ids(), vec![CoreId(0), CoreId(1), CoreId(2)]);
        assert_eq!(platform.floorplan().len(), 14);
        assert_eq!(platform.config().core_class, CoreClass::Risc32Streaming);
        assert!(platform.core(CoreId(2)).is_ok());
        assert!(platform.core(CoreId(3)).is_err());
        assert!(platform.private_memory(CoreId(0)).is_ok());
        assert!(platform.private_memory(CoreId(9)).is_err());
        assert_eq!(platform.elapsed(), Seconds::ZERO);
    }

    #[test]
    fn zero_core_config_rejected() {
        let config = PlatformConfig::paper_default().with_cores(0);
        assert_eq!(MpsocPlatform::new(config), Err(ArchError::EmptyPlatform));
    }

    #[test]
    fn arm11_variant_uses_conf2_cores() {
        let platform = MpsocPlatform::new(PlatformConfig::paper_arm11()).unwrap();
        assert_eq!(
            platform.core(CoreId(0)).unwrap().class(),
            CoreClass::Risc32Arm11
        );
        assert_eq!(PlatformConfig::default(), PlatformConfig::paper_default());
    }

    #[test]
    fn power_snapshot_covers_every_block() {
        let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        for id in platform.core_ids() {
            platform.core_mut(id).unwrap().set_utilization(0.5).unwrap();
        }
        let snap = platform.power_snapshot(60.0);
        assert_eq!(snap.per_block().len(), 14);
        assert_eq!(platform.block_table().len(), 14);
        assert!(snap.total() > 0.0);
        let table = platform.block_table();
        assert!(table.iter().any(|n| n == "core0"));
        assert!(table.iter().any(|n| n == "shared_mem"));
        assert!(!table.iter().any(|n| n == "nope"));
        // Core blocks dominate the budget.
        let core_power = block_watts(&platform, &snap, "core0");
        let icache_power = block_watts(&platform, &snap, "core0.icache");
        assert!(core_power > icache_power);
    }

    #[test]
    fn snapshot_into_reuses_buffers_and_matches_fresh_snapshot() {
        let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        for id in platform.core_ids() {
            platform.core_mut(id).unwrap().set_utilization(0.4).unwrap();
        }
        assert_eq!(platform.block_table().len(), 14);
        let temps = vec![Celsius::new(55.0); platform.floorplan().len()];
        let fresh = platform.power_snapshot_at(&temps);
        let mut reused = PowerSnapshot::empty();
        platform.power_snapshot_into(&temps, &mut reused);
        assert_eq!(fresh, reused);
        // Refilling after a state change rewrites in place and still matches.
        platform
            .core_mut(CoreId(0))
            .unwrap()
            .set_utilization(0.9)
            .unwrap();
        platform.power_snapshot_into(&temps, &mut reused);
        assert_eq!(platform.power_snapshot_at(&temps), reused);
        let names: Vec<&str> = platform
            .floorplan()
            .blocks()
            .iter()
            .map(|b| b.name.as_str())
            .collect();
        assert_eq!(platform.block_table(), names.as_slice());
    }

    #[test]
    fn busy_core_burns_more_than_idle_core() {
        let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        platform
            .core_mut(CoreId(0))
            .unwrap()
            .set_utilization(0.9)
            .unwrap();
        platform
            .core_mut(CoreId(1))
            .unwrap()
            .set_utilization(0.1)
            .unwrap();
        let snap = platform.power_snapshot(60.0);
        assert!(block_watts(&platform, &snap, "core0") > block_watts(&platform, &snap, "core1"));
    }

    #[test]
    fn frequency_scaling_reduces_power() {
        let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        for id in platform.core_ids() {
            platform.core_mut(id).unwrap().set_utilization(0.8).unwrap();
        }
        let fast = block_watts(&platform, &platform.power_snapshot(60.0), "core0");
        platform
            .core_mut(CoreId(0))
            .unwrap()
            .set_frequency(Frequency::from_mhz(266.0))
            .unwrap();
        let slow = block_watts(&platform, &platform.power_snapshot(60.0), "core0");
        assert!(slow < fast);
    }

    #[test]
    fn leakage_couples_power_to_temperature() {
        let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        platform
            .core_mut(CoreId(0))
            .unwrap()
            .set_utilization(0.5)
            .unwrap();
        let cool = block_watts(&platform, &platform.power_snapshot(45.0), "core0");
        let hot = block_watts(&platform, &platform.power_snapshot(95.0), "core0");
        assert!(hot > cool);
    }

    #[test]
    fn step_generates_bus_traffic_for_busy_cores() {
        let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        for id in platform.core_ids() {
            platform.core_mut(id).unwrap().set_utilization(1.0).unwrap();
        }
        let window = platform.step(Seconds::from_millis(1.0));
        assert!(window.bytes_served.as_u64() > 0);
        assert!(platform.elapsed().as_millis() > 0.9);
        // Idle platform generates almost no traffic.
        let mut idle = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        let idle_window = idle.step(Seconds::from_millis(1.0));
        assert!(idle_window.bytes_served.as_u64() < window.bytes_served.as_u64());
    }

    #[test]
    fn shared_traffic_is_accounted() {
        let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        platform.offer_shared_traffic(Bytes::from_kib(64));
        assert_eq!(platform.shared_memory().transferred(), Bytes::from_kib(64));
        assert_eq!(platform.bus().pending(), Bytes::from_kib(64));
        let window = platform.step(Seconds::from_millis(1.0));
        assert!(window.bytes_served.as_u64() >= Bytes::from_kib(64).as_u64());
    }

    #[test]
    fn reset_restores_idle_running_state() {
        let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        platform
            .core_mut(CoreId(1))
            .unwrap()
            .set_utilization(0.7)
            .unwrap();
        platform.core_mut(CoreId(1)).unwrap().halt();
        platform.offer_shared_traffic(Bytes::from_kib(64));
        platform.step(Seconds::from_millis(5.0));
        platform.reset();
        assert_eq!(platform.elapsed(), Seconds::ZERO);
        assert!(platform.core(CoreId(1)).unwrap().is_running());
        assert_eq!(platform.core(CoreId(1)).unwrap().utilization(), 0.0);
        assert_eq!(platform.bus().pending(), Bytes::ZERO);
    }

    #[test]
    fn scalability_up_to_eight_cores() {
        for n in [2, 4, 8] {
            let platform =
                MpsocPlatform::new(PlatformConfig::paper_default().with_cores(n)).unwrap();
            assert_eq!(platform.num_cores(), n);
            let snap = platform.power_snapshot(50.0);
            assert_eq!(snap.per_block().len(), 4 * n + 2);
        }
    }
}

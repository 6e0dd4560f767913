//! Property-based tests of the architecture model's core data structures.

use proptest::prelude::*;

use tbp_arch::core::CoreId;
use tbp_arch::floorplan::Floorplan;
use tbp_arch::freq::{DvfsScale, Frequency};
use tbp_arch::platform::{MpsocPlatform, PlatformConfig};
use tbp_arch::power::{CoreClass, PowerModel};
use tbp_arch::units::{Bytes, Celsius, Seconds};

proptest! {
    /// The DVFS scale always returns a level that covers the requested load
    /// (up to saturation at the maximum frequency).
    #[test]
    fn dvfs_levels_cover_the_load(load in 0.0f64..1.5) {
        let scale = DvfsScale::paper_default();
        let point = scale.level_for_load(load).unwrap();
        let covered = point.frequency.as_hz() as f64 / scale.max_frequency().as_hz() as f64;
        prop_assert!(covered + 1e-9 >= load.min(1.0) || point.frequency == scale.max_frequency());
        prop_assert!(scale.contains(point.frequency));
    }

    /// Dynamic power is monotone in utilisation and in the operating point,
    /// and total power never drops below leakage.
    #[test]
    fn power_model_is_monotone(util_a in 0.0f64..=1.0, util_b in 0.0f64..=1.0, t in 30.0f64..110.0) {
        let model = PowerModel::new();
        let scale = DvfsScale::paper_default();
        let point = scale.max_point();
        let lo = util_a.min(util_b);
        let hi = util_a.max(util_b);
        let p_lo = model.core_power(CoreClass::Risc32Streaming, point, lo, Celsius::new(t)).unwrap();
        let p_hi = model.core_power(CoreClass::Risc32Streaming, point, hi, Celsius::new(t)).unwrap();
        prop_assert!(p_hi.as_watts() + 1e-12 >= p_lo.as_watts());
        let leak = model.leakage_power(CoreClass::Risc32Streaming.max_power(), point.voltage, Celsius::new(t));
        prop_assert!(p_lo.as_watts() + 1e-12 >= leak.as_watts());
    }

    /// Any homogeneous floorplan is well formed: blocks never overlap, every
    /// adjacency has a positive shared edge, and each core block exists.
    #[test]
    fn floorplans_are_well_formed(n in 1usize..10) {
        let plan = Floorplan::homogeneous_tiles(n).unwrap();
        prop_assert_eq!(plan.core_ids().len(), n);
        for (a, b, shared) in plan.adjacencies() {
            prop_assert!(shared > 0.0);
            prop_assert!(a != b);
            prop_assert!(!plan.blocks()[a].rect.overlaps(&plan.blocks()[b].rect));
        }
        for id in plan.core_ids() {
            prop_assert!(plan.core_block_index(id).is_ok());
        }
        prop_assert!(plan.total_area_mm2() > 0.0);
    }

    /// The platform's power snapshot is finite, positive in total, and grows
    /// (or stays equal) when any core's utilisation grows.
    #[test]
    fn platform_power_snapshot_is_sane(utils in proptest::collection::vec(0.0f64..=1.0, 3)) {
        let mut platform = MpsocPlatform::new(PlatformConfig::paper_default()).unwrap();
        for (i, &u) in utils.iter().enumerate() {
            platform.core_mut(CoreId(i)).unwrap().set_utilization(u).unwrap();
        }
        let snapshot = platform.power_snapshot(60.0);
        prop_assert!(snapshot.total().is_finite());
        prop_assert!(snapshot.total() > 0.0);
        for w in snapshot.per_block() {
            prop_assert!(w.as_watts() >= 0.0);
        }
        // Raising core 0 to full utilisation cannot decrease total power.
        platform.core_mut(CoreId(0)).unwrap().set_utilization(1.0).unwrap();
        let raised = platform.power_snapshot(60.0);
        prop_assert!(raised.total() + 1e-12 >= snapshot.total());
    }

    /// The bus conserves bytes: served + deferred equals what was offered,
    /// and repeated service eventually drains any finite backlog.
    #[test]
    fn bus_conserves_traffic(kib in 1u64..4096) {
        use tbp_arch::bus::{Bus, BusConfig};
        let mut bus = Bus::new(BusConfig::paper_default()).unwrap();
        let offered = Bytes::from_kib(kib);
        bus.offer(offered);
        let window = bus.serve(Seconds::from_millis(1.0));
        prop_assert_eq!(
            window.bytes_served.as_u64() + window.bytes_deferred.as_u64(),
            offered.as_u64()
        );
        let mut remaining = window.bytes_deferred;
        for _ in 0..10_000 {
            if remaining == Bytes::ZERO {
                break;
            }
            remaining = bus.serve(Seconds::from_millis(1.0)).bytes_deferred;
        }
        prop_assert_eq!(remaining, Bytes::ZERO);
        prop_assert_eq!(bus.total_served(), offered);
    }

    /// Frequency arithmetic round-trips: time for N cycles at frequency f,
    /// multiplied back, recovers N.
    #[test]
    fn frequency_cycle_round_trip(mhz in 1.0f64..2000.0, cycles in 1.0f64..1e9) {
        let f = Frequency::from_mhz(mhz);
        let time = f.time_for_cycles(cycles);
        let back = f.cycles_in(time);
        prop_assert!((back - cycles).abs() / cycles < 1e-9);
    }
}

proptest! {
    /// Every block of the power snapshot equals, bit for bit, the power of
    /// the component that block stands for, evaluated through that
    /// component's own method at the block's temperature: a tile's core,
    /// caches and private memory at the core's active point, and the shared
    /// memory and interconnect at the bus clock and reference voltage, driven
    /// by the bus's busy share of the elapsed time.
    #[test]
    fn power_snapshot_blocks_match_their_components(
        cores_pick in 0usize..4,
        utils in proptest::collection::vec(0.0f64..=1.0, 32),
        levels in proptest::collection::vec(0usize..64, 32),
        halted in proptest::collection::vec(0u32..4, 32),
        traffic_kib in 0u64..512,
        steps in 0usize..4,
        temps in proptest::collection::vec(20.0f64..=150.0, 130),
    ) {
        use tbp_arch::cache::Cache;
        use tbp_arch::floorplan::BlockKind;
        use tbp_arch::freq::{OperatingPoint, Voltage};
        use tbp_arch::power::{ComponentKind, REFERENCE_VOLTAGE};

        let n = [1, 3, 12, 32][cores_pick];
        let mut platform =
            MpsocPlatform::new(PlatformConfig::paper_default().with_cores(n)).unwrap();
        let points = platform.config().dvfs.points().to_vec();
        for i in 0..n {
            let core = platform.core_mut(CoreId(i)).unwrap();
            core.set_utilization(utils[i]).unwrap();
            core.set_frequency(points[levels[i] % points.len()].frequency).unwrap();
            if halted[i] == 0 {
                core.halt();
            }
        }
        platform.offer_shared_traffic(Bytes::from_kib(traffic_kib));
        for _ in 0..steps {
            platform.step(Seconds::from_millis(5.0));
        }
        let block_temps: Vec<Celsius> = temps[..platform.floorplan().len()]
            .iter()
            .map(|&t| Celsius::new(t))
            .collect();
        let snapshot = platform.power_snapshot_at(&block_temps);

        let config = platform.config().clone();
        let model = &config.power;
        let bus_point = OperatingPoint::new(
            Frequency::from_mhz(config.bus.clock_mhz),
            Voltage::new(REFERENCE_VOLTAGE),
        );
        let bus_util = if platform.elapsed() == Seconds::ZERO {
            0.0
        } else {
            (platform.bus().busy_time() / platform.elapsed()).clamp(0.0, 1.0)
        };
        prop_assert_eq!(snapshot.per_block().len(), platform.floorplan().len());
        for (i, block) in platform.floorplan().blocks().iter().enumerate() {
            let t = block_temps[i];
            let active = |id: CoreId| {
                let core = platform.core(id).unwrap();
                if core.is_running() {
                    core.operating_point()
                } else {
                    OperatingPoint::new(Frequency::ZERO, core.operating_point().voltage)
                }
            };
            let util = |id: CoreId| platform.core(id).unwrap().utilization();
            let expected = match block.kind {
                BlockKind::Core(id) => platform.core(id).unwrap().power(model, t),
                BlockKind::ICache(id) => Cache::new(id, config.icache)
                    .unwrap()
                    .power(model, active(id), util(id), t),
                BlockKind::DCache(id) => Cache::new(id, config.dcache)
                    .unwrap()
                    .power(model, active(id), util(id), t),
                BlockKind::PrivateMemory(id) => platform
                    .private_memory(id)
                    .unwrap()
                    .power(model, active(id), util(id), t),
                BlockKind::SharedMemory | BlockKind::Interconnect => model
                    .component_power(ComponentKind::SharedMemory, bus_point, bus_util, t)
                    .unwrap(),
            };
            prop_assert_eq!(
                snapshot.per_block()[i].as_watts().to_bits(),
                expected.as_watts().to_bits(),
                "block {} of a {}-core platform",
                block.name,
                n
            );
        }
    }
}

//! Private and shared memory models.
//!
//! Every tile owns a private memory holding its uClinux image and task address
//! spaces; a single non-cacheable shared memory hosts the inter-processor
//! message queues and the migration transfer buffer (Figure 3). For the
//! thermal study the memories are power sources; for the migration cost study
//! the shared memory is the conduit every migrated task context must cross.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::core::CoreId;
use crate::error::ArchError;
use crate::freq::OperatingPoint;
use crate::power::{ComponentKind, PowerModel};
use crate::units::{Bytes, Celsius, Watts};

/// A per-tile private memory (scratchpad) holding OS image and task address
/// spaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivateMemory {
    owner: CoreId,
    capacity: Bytes,
    allocated: Bytes,
    /// Cached `sqrt(capacity / 32 kB)` used by [`power`](Self::power): a pure
    /// function of the fixed capacity that would otherwise cost a division
    /// and a square root per block per simulation step.
    macro_scale: f64,
}

impl PrivateMemory {
    /// Creates a private memory of the given capacity owned by `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] for a zero capacity.
    pub fn new(owner: CoreId, capacity: Bytes) -> Result<Self, ArchError> {
        if capacity == Bytes::ZERO {
            return Err(ArchError::InvalidConfig(
                "private memory capacity must be > 0".into(),
            ));
        }
        let macros = (capacity.as_u64() as f64 / Bytes::from_kib(32).as_u64() as f64).max(1.0);
        Ok(PrivateMemory {
            owner,
            capacity,
            allocated: Bytes::ZERO,
            macro_scale: macros.sqrt(),
        })
    }

    /// The paper's tiles use small on-chip private memories; 1 MiB is enough
    /// to hold the uClinux image plus the replicated SDR tasks.
    pub fn paper_default(owner: CoreId) -> Self {
        PrivateMemory::new(owner, Bytes::from_mib(1)).expect("1 MiB is valid")
    }

    /// The owning core.
    pub fn owner(&self) -> CoreId {
        self.owner
    }

    /// Total capacity.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently allocated (task address spaces, replicas, OS image).
    pub fn allocated(&self) -> Bytes {
        self.allocated
    }

    /// Bytes still free.
    pub fn free(&self) -> Bytes {
        Bytes::new(
            self.capacity
                .as_u64()
                .saturating_sub(self.allocated.as_u64()),
        )
    }

    /// Occupancy as a fraction of capacity.
    pub fn occupancy(&self) -> f64 {
        self.allocated.as_u64() as f64 / self.capacity.as_u64() as f64
    }

    /// Allocates `size` bytes (e.g. a task replica's address space).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] when the allocation does not fit.
    pub fn allocate(&mut self, size: Bytes) -> Result<(), ArchError> {
        if self.allocated.as_u64() + size.as_u64() > self.capacity.as_u64() {
            return Err(ArchError::InvalidConfig(format!(
                "allocation of {size} exceeds private memory capacity {} ({} already used)",
                self.capacity, self.allocated
            )));
        }
        self.allocated += size;
        Ok(())
    }

    /// Releases `size` bytes. Releasing more than is allocated saturates at
    /// zero rather than panicking, because task-recreation kills address
    /// spaces the accounting may have already dropped.
    pub fn release(&mut self, size: Bytes) {
        self.allocated = Bytes::new(self.allocated.as_u64().saturating_sub(size.as_u64()));
    }

    /// Instantaneous power of the memory.
    ///
    /// Power is modelled as the Table 1 32 kB macro scaled by the number of
    /// such macros needed for the configured capacity, at the utilisation of
    /// the owning core.
    pub fn power(
        &self,
        model: &PowerModel,
        point: OperatingPoint,
        core_utilization: f64,
        temperature: Celsius,
    ) -> Watts {
        let per_macro = model
            .component_power(
                ComponentKind::Memory32k,
                point,
                core_utilization.clamp(0.0, 1.0),
                temperature,
            )
            .expect("clamped utilization is valid");
        // Only a handful of macros are active at a time regardless of the
        // total capacity: scale sub-linearly (square root) like banked SRAMs
        // (`macro_scale` is the cached `sqrt(capacity / 32 kB)`).
        Watts::new(per_macro.as_watts() * self.macro_scale)
    }

    /// The `sqrt(capacity / 32 kB)` factor [`power`](Self::power) scales
    /// the 32 kB macro's power by.
    pub(crate) fn macro_scale(&self) -> f64 {
        self.macro_scale
    }
}

impl fmt::Display for PrivateMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "private memory of {} ({} / {})",
            self.owner, self.allocated, self.capacity
        )
    }
}

/// The single non-cacheable shared memory of the platform.
///
/// Hosts the message queues of the streaming middleware and the migration
/// transfer buffer. Traffic through it is what the bus contention model and
/// the migration cost model account for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedMemory {
    capacity: Bytes,
    transferred: Bytes,
}

impl SharedMemory {
    /// Creates a shared memory of the given capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] for a zero capacity.
    pub fn new(capacity: Bytes) -> Result<Self, ArchError> {
        if capacity == Bytes::ZERO {
            return Err(ArchError::InvalidConfig(
                "shared memory capacity must be > 0".into(),
            ));
        }
        Ok(SharedMemory {
            capacity,
            transferred: Bytes::ZERO,
        })
    }

    /// Default shared memory (4 MiB), large enough for queues plus the 64 kB
    /// migration buffer.
    pub fn paper_default() -> Self {
        SharedMemory::new(Bytes::from_mib(4)).expect("4 MiB is valid")
    }

    /// Total capacity.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Cumulative bytes transferred through the shared memory.
    pub fn transferred(&self) -> Bytes {
        self.transferred
    }

    /// Records a transfer through the shared memory (queue push/pop or
    /// migration buffer copy).
    pub fn record_transfer(&mut self, size: Bytes) {
        self.transferred = self.transferred.saturating_add(size);
    }

    /// Instantaneous power of the shared memory given a bus utilisation
    /// estimate (fraction of cycles the memory is being accessed).
    pub fn power(
        &self,
        model: &PowerModel,
        point: OperatingPoint,
        bus_utilization: f64,
        temperature: Celsius,
    ) -> Watts {
        model
            .component_power(
                ComponentKind::SharedMemory,
                point,
                bus_utilization.clamp(0.0, 1.0),
                temperature,
            )
            .expect("clamped utilization is valid")
    }
}

impl fmt::Display for SharedMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shared memory ({}, {} transferred)",
            self.capacity, self.transferred
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::{Frequency, Voltage};

    fn point() -> OperatingPoint {
        OperatingPoint::new(Frequency::from_mhz(500.0), Voltage::new(1.2))
    }

    #[test]
    fn private_memory_allocation_accounting() {
        let mut mem = PrivateMemory::new(CoreId(0), Bytes::from_kib(256)).unwrap();
        assert_eq!(mem.owner(), CoreId(0));
        assert_eq!(mem.capacity(), Bytes::from_kib(256));
        assert_eq!(mem.free(), Bytes::from_kib(256));
        mem.allocate(Bytes::from_kib(64)).unwrap();
        assert_eq!(mem.allocated(), Bytes::from_kib(64));
        assert_eq!(mem.free(), Bytes::from_kib(192));
        assert!((mem.occupancy() - 0.25).abs() < 1e-9);
        assert!(mem.allocate(Bytes::from_kib(256)).is_err());
        mem.release(Bytes::from_kib(64));
        assert_eq!(mem.allocated(), Bytes::ZERO);
        // Over-release saturates.
        mem.release(Bytes::from_kib(64));
        assert_eq!(mem.allocated(), Bytes::ZERO);
        assert!(mem.to_string().contains("core0"));
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(PrivateMemory::new(CoreId(0), Bytes::ZERO).is_err());
        assert!(SharedMemory::new(Bytes::ZERO).is_err());
    }

    #[test]
    fn paper_defaults() {
        let mem = PrivateMemory::paper_default(CoreId(2));
        assert_eq!(mem.capacity(), Bytes::from_mib(1));
        let shared = SharedMemory::paper_default();
        assert_eq!(shared.capacity(), Bytes::from_mib(4));
    }

    #[test]
    fn shared_memory_tracks_transfers() {
        let mut shared = SharedMemory::paper_default();
        shared.record_transfer(Bytes::from_kib(64));
        shared.record_transfer(Bytes::from_kib(64));
        assert_eq!(shared.transferred(), Bytes::from_kib(128));
        assert!(shared.to_string().contains("transferred"));
    }

    #[test]
    fn memory_power_scales_with_activity_and_capacity() {
        let model = PowerModel::new();
        let t = Celsius::new(60.0);
        let small = PrivateMemory::new(CoreId(0), Bytes::from_kib(32)).unwrap();
        let large = PrivateMemory::new(CoreId(0), Bytes::from_mib(1)).unwrap();
        let p_small = small.power(&model, point(), 1.0, t).as_watts();
        let p_large = large.power(&model, point(), 1.0, t).as_watts();
        assert!(p_large > p_small);
        // Sub-linear scaling: 32x capacity should cost much less than 32x power.
        assert!(p_large < p_small * 32.0);
        // 32 kB macro at full activity matches Table 1.
        assert!((p_small - 0.015).abs() < 1e-9);

        let shared = SharedMemory::paper_default();
        let busy = shared.power(&model, point(), 0.8, t).as_watts();
        let idle = shared.power(&model, point(), 0.0, t).as_watts();
        assert!(busy > idle);
    }
}

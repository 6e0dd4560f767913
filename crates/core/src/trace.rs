//! Track selection for the simulation's trace sink.
//!
//! The emulation platform of the paper streams per-component statistics to a
//! host PC over one channel; the equivalent here is the `tbp_obs` sink a
//! simulation feeds (see `Simulation::attach_trace_sink`). [`TrackSelection`]
//! names which track groups such a sink receives.

/// Which observability track groups an attached trace sink receives.
///
/// The default selects everything; scenario specs narrow it through the
/// (non-hash-affecting) `[trace]` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackSelection {
    /// Per-core sensor temperatures.
    pub temperatures: bool,
    /// Per-core clock frequencies.
    pub frequencies: bool,
    /// The cumulative migration counter.
    pub migrations: bool,
    /// The cumulative deadline-miss counter.
    pub deadline_misses: bool,
    /// Per-edge pipeline queue depths.
    pub queue_depths: bool,
    /// Live-reconfiguration events.
    pub reconfigs: bool,
}

impl TrackSelection {
    /// Every track group.
    pub fn all() -> Self {
        TrackSelection {
            temperatures: true,
            frequencies: true,
            migrations: true,
            deadline_misses: true,
            queue_depths: true,
            reconfigs: true,
        }
    }

    /// No track group (useful as a base for builder-style selection).
    pub fn none() -> Self {
        TrackSelection {
            temperatures: false,
            frequencies: false,
            migrations: false,
            deadline_misses: false,
            queue_depths: false,
            reconfigs: false,
        }
    }
}

impl Default for TrackSelection {
    fn default() -> Self {
        TrackSelection::all()
    }
}

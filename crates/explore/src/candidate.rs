//! Candidate designs: deterministic wrappers over the parameterized map
//! builders in `wsp_maps`.

use wsp_maps::{sorting_center_variant, MapInstance, SortingCenterParams};
use wsp_traffic::RingOrientation;

/// One point of the design space: a full set of topology knobs that builds
/// into a concrete warehouse + traffic system.
///
/// Construction is deterministic — the same candidate always builds the
/// byte-identical instance — which is the foundation of the explorer's
/// thread-count-independence guarantee.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignCandidate {
    /// The topology knobs.
    pub params: SortingCenterParams,
}

impl DesignCandidate {
    /// Wraps a parameter set.
    pub fn new(params: SortingCenterParams) -> Self {
        DesignCandidate { params }
    }

    /// A short deterministic label for reports and benchmark output.
    pub fn label(&self) -> String {
        self.params.label()
    }

    /// Builds the candidate's warehouse and validated traffic system.
    ///
    /// # Errors
    ///
    /// Returns the builder's error as a string (out-of-range knobs, or a
    /// map-construction bug).
    pub fn build(&self) -> Result<MapInstance, String> {
        sorting_center_variant(&self.params).map_err(|e| e.to_string())
    }
}

/// The default sorting-center sweep: 20 candidates spanning aisle pitch,
/// ring orientation, station count, lane-chop granularity, and (for the
/// paper geometry) station placement — the knobs the paper's §IV-A leaves
/// to the designer.
///
/// The lane-chop axis trades cycle time against capacity headroom: 90
/// reproduces the paper's three-component ring (entry capacities 41/41/37
/// against the 36 per-period loaded crossings a 36-product workload
/// forces), 200 merges the whole aisle ladder into one long component
/// (double the cycle time, double the capacity headroom, a smaller ILP) —
/// so the explorer sees real feasible trade-offs rather than one dominant
/// design. Neither length chops below the Property 4.1 capacity boundary:
/// every design solves at 80 and at 320 units (the umbrella test
/// `tests/realize_differential.rs` realizes all 40), so at those sizes the
/// sweep yields no [`Infeasible`] outcome;
/// `impossible_workloads_report_infeasible` in `evaluate.rs` covers that
/// path.
///
/// The sweep is a fixed, deterministic list: benchmarks and the
/// determinism tests rely on it never depending on ambient state.
///
/// [`Infeasible`]: crate::CandidateOutcome::Infeasible
pub fn sorting_center_sweep() -> Vec<DesignCandidate> {
    let mut out = Vec::new();
    for aisle_pitch in [2u32, 3] {
        for orientation in [RingOrientation::Forward, RingOrientation::Reversed] {
            for stations in [2u32, 4] {
                for max_component_len in [90usize, 200] {
                    out.push(DesignCandidate::new(SortingCenterParams {
                        aisle_pitch,
                        orientation,
                        stations,
                        max_component_len,
                        ..SortingCenterParams::paper()
                    }));
                }
            }
        }
    }
    // Station-placement rotations of the paper geometry.
    for station_offset in [9u32, 18, 27, 36] {
        out.push(DesignCandidate::new(SortingCenterParams {
            station_offset,
            ..SortingCenterParams::paper()
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_twenty_distinct_buildable_candidates() {
        let sweep = sorting_center_sweep();
        assert_eq!(sweep.len(), 20);
        let labels: std::collections::BTreeSet<String> = sweep.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 20, "duplicate candidate labels");
        for c in &sweep {
            let map = c.build().expect("sweep candidate builds");
            assert!(map.traffic.is_strongly_connected(), "{}", c.label());
        }
    }

    #[test]
    fn build_is_deterministic() {
        let c = &sorting_center_sweep()[7];
        let a = c.build().unwrap();
        let b = c.build().unwrap();
        assert_eq!(a.warehouse.grid().to_ascii(), b.warehouse.grid().to_ascii());
        assert_eq!(a.traffic.component_count(), b.traffic.component_count());
    }
}

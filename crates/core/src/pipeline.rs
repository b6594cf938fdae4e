//! The staged pipeline engine: the four phases of the methodology as
//! explicit, resumable stages over typed artifacts, driven by a reusable
//! [`Pipeline`] whose scratch tables make repeated evaluations
//! allocation-light.
//!
//! The one-shot [`solve`](crate::solve) remains the convenience entry
//! point; it is now a thin wrapper over `Pipeline::new().run(..)`. The
//! staged API exists for two callers:
//!
//! * **Batch evaluation** (`wsp-explore`): one `Pipeline` per worker
//!   thread evaluates candidate designs back to back, reusing the
//!   realization and verification scratch across candidates.
//! * **Resumption**: every stage takes the previous stage's artifact, so a
//!   caller can synthesize once and re-realize under different options
//!   (horizon, full-horizon flag) without re-running the ILP, or re-verify
//!   a realized artifact against a different workload.
//!
//! Stage chain: [`FlowArtifact`] → [`CycleArtifact`] → [`RealizedArtifact`]
//! → [`VerifiedReport`]. Artifacts nest (each carries its predecessor), so
//! any artifact alone is enough to resume from, and the final verification
//! assembles the flat [`PipelineReport`] from the chain.
//!
//! # Examples
//!
//! Resuming from the cycle stage to compare horizons without re-solving
//! the ILP:
//!
//! ```
//! use wsp_core::{Pipeline, PipelineOptions, WspInstance};
//! use wsp_maps::sorting_center;
//!
//! let map = sorting_center()?;
//! let workload = map.uniform_workload(40);
//! let instance = WspInstance::new(map.warehouse, map.traffic, workload, 3600);
//! let options = PipelineOptions::default();
//!
//! let mut pipeline = Pipeline::new();
//! let flow = pipeline.synthesize(&instance, &options)?;
//! let cycles = pipeline.decompose(&flow)?;
//! // Two realizations from one synthesis.
//! let fast = pipeline.realize(&instance, &options, &cycles)?;
//! let report = pipeline.verify(&instance, fast)?;
//! assert!(report.stats.total_delivered() >= 40);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::time::{Duration, Instant};

use wsp_flow::{synthesize_flow_with_scratch, AgentCycleSet, AgentFlowSet, LpScratch};
use wsp_model::CheckScratch;
use wsp_realize::{realize_with_scratch, RealizeOutcome, RealizeScratch};

use crate::{PhaseTimings, PipelineError, PipelineOptions, PipelineReport, WspInstance};

/// Stage-one artifact: the synthesized agent flow set (§IV-D).
#[derive(Debug, Clone)]
pub struct FlowArtifact {
    /// The synthesized agent flow set (validated against §IV-D exactly).
    pub flow: AgentFlowSet,
    /// Wall-clock time of contract compilation + flow synthesis.
    pub elapsed: Duration,
}

/// Stage-two artifact: the flow decomposed into agent cycles (§IV-E).
#[derive(Debug, Clone)]
pub struct CycleArtifact {
    /// The stage-one artifact this was decomposed from.
    pub flow: FlowArtifact,
    /// The agent cycle set (every cycle carry-consistent).
    pub cycles: AgentCycleSet,
    /// Wall-clock time of the decomposition.
    pub elapsed: Duration,
}

/// Stage-three artifact: the cycles realized into a discrete plan
/// (Algorithm 1).
#[derive(Debug, Clone)]
pub struct RealizedArtifact {
    /// The stage-two artifact this was realized from.
    pub cycles: CycleArtifact,
    /// The realization outcome (plan + delivery counts).
    pub outcome: RealizeOutcome,
    /// Wall-clock time of the realization.
    pub elapsed: Duration,
}

/// Stage-four artifact: the independently verified end state of the
/// pipeline — the flat [`PipelineReport`].
pub type VerifiedReport = PipelineReport;

/// The staged pipeline engine. One `Pipeline` holds the preallocated
/// realization and verification scratch tables plus the LP solver
/// scratch (basis factors and pricing workspace; it carries no state
/// from one synthesis to the next); keep it per thread (it is `Send`,
/// and every stage method takes the instance by `&`) and feed it
/// instances back to back for allocation-light batch evaluation.
#[derive(Debug, Default)]
pub struct Pipeline {
    realize_scratch: RealizeScratch,
    check_scratch: CheckScratch,
    lp_scratch: LpScratch,
}

impl Pipeline {
    /// A fresh pipeline (scratch tables grow on first use).
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// Stage one: synthesize an agent flow set for the instance (Fig. 2,
    /// "synthesize agent flows").
    ///
    /// # Errors
    ///
    /// [`PipelineError::Flow`] on infeasible workloads or solver limits.
    pub fn synthesize(
        &mut self,
        instance: &WspInstance,
        options: &PipelineOptions,
    ) -> Result<FlowArtifact, PipelineError> {
        let t0 = Instant::now();
        let flow = synthesize_flow_with_scratch(
            &instance.warehouse,
            &instance.traffic,
            &instance.workload,
            instance.t_limit,
            &options.flow,
            &mut self.lp_scratch,
        )?;
        Ok(FlowArtifact {
            flow,
            elapsed: t0.elapsed(),
        })
    }

    /// Stage two: decompose the flow set into agent cycles.
    ///
    /// Borrows the artifact (cloning the small flow set into the result),
    /// so one synthesis can feed several decompositions.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Flow`] if the flow set cannot be decomposed
    /// (cannot happen for flow sets produced by stage one).
    pub fn decompose(&mut self, flow: &FlowArtifact) -> Result<CycleArtifact, PipelineError> {
        let t0 = Instant::now();
        let cycles = flow.flow.decompose()?;
        Ok(CycleArtifact {
            flow: flow.clone(),
            cycles,
            elapsed: t0.elapsed(),
        })
    }

    /// Stage three: realize the cycle set into a discrete collision-free
    /// plan, reusing this pipeline's realization scratch.
    ///
    /// Borrows the artifact, so one decomposition can feed several
    /// realizations (e.g. different horizons via `options`).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Realize`] on capacity violations or inconsistent
    /// cycle sets.
    pub fn realize(
        &mut self,
        instance: &WspInstance,
        options: &PipelineOptions,
        cycles: &CycleArtifact,
    ) -> Result<RealizedArtifact, PipelineError> {
        let t0 = Instant::now();
        let workload_stop = if options.realize_full_horizon {
            None
        } else {
            Some(&instance.workload)
        };
        let outcome = realize_with_scratch(
            &instance.warehouse,
            &instance.traffic,
            &cycles.cycles,
            workload_stop,
            instance.t_limit,
            &mut self.realize_scratch,
        )?;
        Ok(RealizedArtifact {
            cycles: cycles.clone(),
            outcome,
            elapsed: t0.elapsed(),
        })
    }

    /// Stage four: check the realized plan with the independent
    /// [`wsp_model::PlanChecker`] (feasibility conditions (1)–(3) of §III
    /// plus workload servicing), reusing this pipeline's verification
    /// scratch, and assemble the flat report.
    ///
    /// Takes the artifact by value: the verified plan moves into the
    /// report rather than being copied.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Verification`] with the checker's explanation.
    pub fn verify(
        &mut self,
        instance: &WspInstance,
        realized: RealizedArtifact,
    ) -> Result<VerifiedReport, PipelineError> {
        let t0 = Instant::now();
        let checker = wsp_model::PlanChecker::new(&instance.warehouse);
        let stats = checker
            .check_services_with_scratch(
                &realized.outcome.plan,
                &instance.workload,
                &mut self.check_scratch,
            )
            .map_err(|e| PipelineError::Verification(e.to_string()))?;
        let timings = PhaseTimings {
            flow_synthesis: realized.cycles.flow.elapsed,
            decomposition: realized.cycles.elapsed,
            realization: realized.elapsed,
            verification: t0.elapsed(),
        };
        let RealizedArtifact {
            cycles: cycle_artifact,
            outcome,
            ..
        } = realized;
        Ok(PipelineReport {
            flow: cycle_artifact.flow.flow,
            cycles: cycle_artifact.cycles,
            outcome,
            stats,
            timings,
        })
    }

    /// Runs all four stages: synthesize flows, decompose into cycles,
    /// realize into a discrete plan, and verify the plan independently.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] tagged with the failing phase.
    pub fn run(
        &mut self,
        instance: &WspInstance,
        options: &PipelineOptions,
    ) -> Result<PipelineReport, PipelineError> {
        let flow = self.synthesize(instance, options)?;
        let cycles = self.decompose(&flow)?;
        let realized = self.realize(instance, options, &cycles)?;
        self.verify(instance, realized)
    }
}

// Compile-time Send + Sync audit: `wsp-explore` moves instances, options,
// pipelines, and artifacts across `std::thread::scope` workers, and shares
// candidate inputs behind `&` — every type crossing the boundary must be
// thread-safe. A regression here (an `Rc`, a raw pointer, interior
// mutability without `Sync`) fails the build, not the batch run.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<wsp_model::Warehouse>();
    assert_send_sync::<wsp_traffic::TrafficSystem>();
    assert_send_sync::<wsp_model::Workload>();
    assert_send_sync::<wsp_flow::FlowSynthesisOptions>();
    assert_send_sync::<WspInstance>();
    assert_send_sync::<PipelineOptions>();
    assert_send_sync::<PipelineReport>();
    assert_send_sync::<FlowArtifact>();
    assert_send_sync::<CycleArtifact>();
    assert_send_sync::<RealizedArtifact>();
    // The realize scratch lives inside each worker's `Pipeline` (and
    // inside each `wsp_sim::Simulation`, audited in `wsp_sim`'s mirror of
    // this block) and crosses the thread boundary with it.
    assert_send_sync::<RealizeScratch>();
    // The solver scratch lives inside each worker's `Pipeline` and
    // crosses the thread boundary with it.
    assert_send_sync::<LpScratch>();
    // `wsp-server` shares one `RunControl` per job between its HTTP
    // handler threads (cancel/poll) and the job worker driving the
    // evaluation — it must stay lock-free thread-safe.
    assert_send_sync::<crate::RunControl>();
    assert_send::<Pipeline>();
    assert_send::<PipelineError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_model::{Direction, GridMap, ProductCatalog, ProductId, Warehouse, Workload};
    use wsp_traffic::design_perimeter_loop;

    fn tiny_instance(demand: u64) -> WspInstance {
        let grid = GridMap::from_ascii("...\n.#.\n.@.").unwrap();
        let mut w =
            Warehouse::from_grid_with_access(&grid, &[Direction::East, Direction::West]).unwrap();
        w.set_catalog(ProductCatalog::with_len(1));
        let s = w.shelf_access()[0];
        w.stock(s, ProductId(0), 10_000).unwrap();
        let ts = design_perimeter_loop(&w, 3).unwrap();
        WspInstance::new(w, ts, Workload::from_demands(vec![demand]), 600)
    }

    #[test]
    fn staged_run_matches_one_shot_solve() {
        let instance = tiny_instance(12);
        let options = PipelineOptions::default();
        let one_shot = crate::solve(&instance, &options).unwrap();
        let staged = Pipeline::new().run(&instance, &options).unwrap();
        assert_eq!(staged.flow, one_shot.flow);
        assert_eq!(staged.cycles.cycles(), one_shot.cycles.cycles());
        assert_eq!(staged.outcome, one_shot.outcome);
        assert_eq!(staged.stats, one_shot.stats);
    }

    #[test]
    fn pipeline_reuse_across_instances_is_deterministic() {
        let mut pipeline = Pipeline::new();
        let options = PipelineOptions::default();
        let a1 = pipeline.run(&tiny_instance(12), &options).unwrap();
        let _other = pipeline.run(&tiny_instance(3), &options).unwrap();
        let a2 = pipeline.run(&tiny_instance(12), &options).unwrap();
        assert_eq!(a1.outcome, a2.outcome);
        assert_eq!(a1.stats, a2.stats);
        assert_eq!(a1.objective(), a2.objective());
    }

    #[test]
    fn stages_resume_from_retained_artifacts() {
        let instance = tiny_instance(4);
        let options = PipelineOptions::default();
        let mut pipeline = Pipeline::new();
        let flow = pipeline.synthesize(&instance, &options).unwrap();
        let cycles = pipeline.decompose(&flow).unwrap();

        // Early-stop and full-horizon realizations from the same cycles.
        let early = pipeline.realize(&instance, &options, &cycles).unwrap();
        let full_options = PipelineOptions {
            realize_full_horizon: true,
            ..PipelineOptions::default()
        };
        let full = pipeline.realize(&instance, &full_options, &cycles).unwrap();
        assert!(early.outcome.timesteps < full.outcome.timesteps);
        assert_eq!(full.outcome.timesteps, 600);

        let early_report = pipeline.verify(&instance, early).unwrap();
        let full_report = pipeline.verify(&instance, full).unwrap();
        assert!(early_report.stats.total_delivered() >= 4);
        assert!(full_report.stats.total_delivered() > early_report.stats.total_delivered());
    }

    #[test]
    fn verify_reports_unserviced_workloads() {
        let instance = tiny_instance(4);
        let options = PipelineOptions::default();
        let mut pipeline = Pipeline::new();
        let flow = pipeline.synthesize(&instance, &options).unwrap();
        let cycles = pipeline.decompose(&flow).unwrap();
        let realized = pipeline.realize(&instance, &options, &cycles).unwrap();
        // Verifying against a harder instance must fail in the verify phase.
        let mut harder = instance.clone();
        harder.workload = Workload::from_demands(vec![1_000]);
        let err = pipeline.verify(&harder, realized).unwrap_err();
        assert!(matches!(err, PipelineError::Verification(_)));
    }

    #[test]
    fn artifact_timings_flow_into_the_report() {
        let instance = tiny_instance(6);
        let options = PipelineOptions::default();
        let mut pipeline = Pipeline::new();
        let flow = pipeline.synthesize(&instance, &options).unwrap();
        let cycles = pipeline.decompose(&flow).unwrap();
        let realized = pipeline.realize(&instance, &options, &cycles).unwrap();
        let synth_elapsed = flow.elapsed;
        let report = pipeline.verify(&instance, realized).unwrap();
        assert_eq!(report.timings.flow_synthesis, synth_elapsed);
        assert!(report.timings.total() >= synth_elapsed);
    }
}

//! The work-queue parallel batch evaluator.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wsp_core::{PhaseTimings, Pipeline, PipelineError, PipelineOptions, RunControl, WspInstance};
use wsp_flow::FlowError;

use crate::pareto::{pareto_front, Objective};
use crate::DesignCandidate;

/// Batch-evaluation configuration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Worker-thread override. `None` falls back to the `WSP_THREADS`
    /// environment variable, then to
    /// [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
    /// Total workload units per candidate (spread uniformly over the
    /// candidate's products).
    pub units: u64,
    /// Plan-length limit `T` per candidate.
    pub t_limit: usize,
    /// Pipeline configuration forwarded to every evaluation.
    pub pipeline: PipelineOptions,
    /// Lifelong scoring: when set, every solved candidate is additionally
    /// run through a deterministic `wsp-sim` simulation and its mean task
    /// latency becomes the fourth Pareto axis
    /// ([`Objective::sim_latency`](crate::Objective)).
    pub sim: Option<SimScoring>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            threads: None,
            units: 160,
            t_limit: 3_600,
            pipeline: PipelineOptions::default(),
            sim: None,
        }
    }
}

/// Configuration of the lifelong scoring stage: a seeded zipf task stream
/// simulated for a fixed tick budget on the candidate's own design. All
/// knobs are deterministic, so the added axis keeps the batch evaluator's
/// byte-reproducibility guarantee.
#[derive(Debug, Clone)]
pub struct SimScoring {
    /// Simulated ticks per candidate.
    pub ticks: u64,
    /// Rolling-horizon window (`0`: the simulator's auto default).
    pub window: usize,
    /// Total units in the zipf arrival mix.
    pub units: u64,
    /// Zipf exponent of the mix (see `MapInstance::zipf_workload`).
    pub zipf_exponent: f64,
    /// Mean ticks between arrivals.
    pub mean_gap: u32,
    /// Seed for both the mix permutation and the arrival gaps.
    pub seed: u64,
    /// Task-assignment policy the scored simulation runs under — a
    /// co-design knob: the same floorplan scores differently when agents
    /// follow their synthesized cycles ([`wsp_sim::AssignPolicy::Static`])
    /// versus bidding on queued tasks
    /// ([`wsp_sim::AssignPolicy::Auction`]). Deterministic either way.
    pub policy: wsp_sim::AssignPolicy,
}

impl Default for SimScoring {
    fn default() -> Self {
        SimScoring {
            ticks: 600,
            window: 0,
            units: 400,
            zipf_exponent: 1.0,
            mean_gap: 2,
            seed: 7,
            policy: wsp_sim::AssignPolicy::Static,
        }
    }
}

/// The lifelong-simulation portion of a solved candidate's evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimScore {
    /// Mean task latency in milliticks (the scored axis).
    pub mean_latency_milliticks: u64,
    /// Completed tasks per kilotick.
    pub throughput_per_kilotick: u64,
    /// Tasks completed within the simulated budget.
    pub completed: u64,
}

/// The deterministic portion of one candidate's evaluation — everything
/// here is byte-identical run to run and thread count to thread count
/// (wall-clock timings live in [`CandidateReport::timings`] instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateEval {
    /// Agents the realized plan employs.
    pub agents: usize,
    /// Timestep of the last needed delivery.
    pub makespan: usize,
    /// Total units delivered.
    pub delivered: u64,
    /// Number of agent cycles in the decomposition.
    pub cycles: usize,
    /// ILP-size proxy for flow-synthesis cost
    /// ([`wsp_flow::AgentFlowSet::synthesis_cost`]).
    pub synthesis_cost: u64,
    /// Lifelong simulation score, when [`ExploreOptions::sim`] is set.
    pub sim: Option<SimScore>,
}

impl CandidateEval {
    /// The candidate's position in objective space. The latency axis is
    /// `0` when lifelong scoring is off (leaving three-axis fronts
    /// unchanged) and `u64::MAX` for a scored design that completed no
    /// tasks within the tick budget — a mean of zero completions is not a
    /// latency of zero, and must never dominate designs that deliver.
    pub fn objective(&self) -> Objective {
        Objective {
            agents: self.agents as u64,
            makespan: self.makespan as u64,
            synthesis_cost: self.synthesis_cost,
            sim_latency: self.sim.as_ref().map_or(0, |s| {
                if s.completed == 0 {
                    u64::MAX
                } else {
                    s.mean_latency_milliticks
                }
            }),
        }
    }
}

/// How one candidate's evaluation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateOutcome {
    /// Solved and verified.
    Solved(CandidateEval),
    /// The workload is provably infeasible on this design (a legitimate
    /// exploration result, not an error).
    Infeasible(String),
    /// The candidate failed to build or the pipeline failed elsewhere.
    Failed(String),
}

impl CandidateOutcome {
    /// The evaluation, if the candidate solved.
    pub fn eval(&self) -> Option<&CandidateEval> {
        match self {
            CandidateOutcome::Solved(e) => Some(e),
            _ => None,
        }
    }
}

/// One candidate's full result: the deterministic outcome plus wall-clock
/// phase timings (absent when the pipeline never ran to completion).
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// The evaluated candidate.
    pub candidate: DesignCandidate,
    /// The deterministic outcome.
    pub outcome: CandidateOutcome,
    /// Wall-clock per-phase timings of the successful run, if any.
    pub timings: Option<PhaseTimings>,
}

/// The batch result: per-candidate reports in candidate order, the Pareto
/// front, and run metadata.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// One report per input candidate, in input order.
    pub reports: Vec<CandidateReport>,
    /// Indices (into `reports`) of the solved candidates on the Pareto
    /// front over (agents, makespan, synthesis cost), ascending.
    pub front: Vec<usize>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
}

impl ExploreOutcome {
    /// The report of the best solved candidate: the front member with the
    /// lexicographically smallest (agents, makespan, synthesis cost).
    pub fn best(&self) -> Option<&CandidateReport> {
        self.front
            .iter()
            .map(|&i| &self.reports[i])
            .min_by_key(|r| {
                let o = r.outcome.eval().expect("front members solved").objective();
                (o.agents, o.makespan, o.synthesis_cost)
            })
    }

    /// The canonical JSON rendering of the deterministic results: the
    /// Pareto front plus one object per candidate (label, outcome, and —
    /// for solved candidates — the full [`CandidateEval`]), keys in fixed
    /// order. Wall-clock state (`threads`, `wall`, per-phase timings) is
    /// deliberately excluded, so the rendering is **byte-identical** for
    /// the same candidate list at every thread count — `wsp-server`
    /// returns exactly this string for explore jobs, which makes a server
    /// round-trip byte-comparable to a direct [`evaluate_batch`] call.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + 160 * self.reports.len());
        out.push_str("{\n  \"front\": [");
        for (k, i) in self.front.iter().enumerate() {
            let _ = write!(out, "{}{}", if k > 0 { ", " } else { "" }, i);
        }
        out.push_str("],\n  \"candidates\": [\n");
        for (k, r) in self.reports.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(
                out,
                "\"label\": \"{}\", ",
                json_escape(&r.candidate.label())
            );
            match &r.outcome {
                CandidateOutcome::Solved(e) => {
                    let _ = write!(
                        out,
                        "\"outcome\": \"solved\", \"agents\": {}, \"makespan\": {}, \
                         \"delivered\": {}, \"cycles\": {}, \"synthesis_cost\": {}",
                        e.agents, e.makespan, e.delivered, e.cycles, e.synthesis_cost
                    );
                    if let Some(s) = &e.sim {
                        let _ = write!(
                            out,
                            ", \"sim\": {{\"mean_latency_milliticks\": {}, \
                             \"throughput_per_kilotick\": {}, \"completed\": {}}}",
                            s.mean_latency_milliticks, s.throughput_per_kilotick, s.completed
                        );
                    }
                }
                CandidateOutcome::Infeasible(detail) => {
                    let _ = write!(
                        out,
                        "\"outcome\": \"infeasible\", \"detail\": \"{}\"",
                        json_escape(detail)
                    );
                }
                CandidateOutcome::Failed(detail) => {
                    let _ = write!(
                        out,
                        "\"outcome\": \"failed\", \"detail\": \"{}\"",
                        json_escape(detail)
                    );
                }
            }
            out.push('}');
            if k + 1 < self.reports.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Minimal JSON string escaping for the canonical rendering (labels and
/// solver error details are ASCII in practice, but control characters and
/// quotes must never corrupt the document).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Evaluates one candidate through the full staged pipeline, reusing the
/// caller's [`Pipeline`] scratch.
pub fn evaluate_candidate(
    pipeline: &mut Pipeline,
    candidate: &DesignCandidate,
    options: &ExploreOptions,
) -> CandidateReport {
    let map = match candidate.build() {
        Ok(map) => map,
        Err(e) => {
            return CandidateReport {
                candidate: candidate.clone(),
                outcome: CandidateOutcome::Failed(e),
                timings: None,
            }
        }
    };
    let workload = map.uniform_workload(options.units);
    // Draw the lifelong arrival mix before the map moves into the
    // instance (the mix is a pure function of the candidate + scoring
    // seed, so determinism is preserved).
    let sim_mix = options
        .sim
        .as_ref()
        .map(|s| map.zipf_workload(s.units, s.zipf_exponent, s.seed));
    let instance = WspInstance::new(map.warehouse, map.traffic, workload, options.t_limit);
    match pipeline.run(&instance, &options.pipeline) {
        Ok(report) => {
            let sim = match options.sim.as_ref() {
                None => None,
                Some(scoring) => {
                    match simulate_candidate(
                        &instance,
                        report.cycles.clone(),
                        scoring,
                        sim_mix.expect("mix drawn when scoring is on"),
                    ) {
                        Ok(score) => Some(score),
                        Err(e) => {
                            return CandidateReport {
                                candidate: candidate.clone(),
                                outcome: CandidateOutcome::Failed(format!(
                                    "lifelong scoring failed: {e}"
                                )),
                                timings: Some(report.timings),
                            }
                        }
                    }
                }
            };
            let (agents, makespan) = report.objective();
            let eval = CandidateEval {
                agents,
                makespan,
                delivered: report.stats.total_delivered(),
                cycles: report.cycles.cycles().len(),
                synthesis_cost: report.flow.synthesis_cost(),
                sim,
            };
            CandidateReport {
                candidate: candidate.clone(),
                outcome: CandidateOutcome::Solved(eval),
                timings: Some(report.timings),
            }
        }
        Err(PipelineError::Flow(FlowError::Infeasible { detail })) => CandidateReport {
            candidate: candidate.clone(),
            outcome: CandidateOutcome::Infeasible(detail),
            timings: None,
        },
        Err(e) => CandidateReport {
            candidate: candidate.clone(),
            outcome: CandidateOutcome::Failed(e.to_string()),
            timings: None,
        },
    }
}

/// Runs the deterministic lifelong simulation behind [`SimScoring`] on a
/// solved candidate's own cycle set (no re-synthesis).
fn simulate_candidate(
    instance: &WspInstance,
    cycles: wsp_flow::AgentCycleSet,
    scoring: &SimScoring,
    mix: wsp_model::Workload,
) -> Result<SimScore, wsp_sim::SimError> {
    let config = wsp_sim::SimConfig {
        ticks: scoring.ticks,
        window: scoring.window,
        stream: wsp_sim::StreamConfig {
            mix,
            mean_gap: scoring.mean_gap,
            seed: scoring.seed,
        },
        assign: wsp_sim::AssignConfig {
            policy: scoring.policy,
            ..wsp_sim::AssignConfig::default()
        },
        ..wsp_sim::SimConfig::default()
    };
    let mut sim = wsp_sim::Simulation::from_cycles(instance, cycles, config)?;
    let report = sim.run()?;
    Ok(SimScore {
        mean_latency_milliticks: report.mean_latency_milliticks(),
        throughput_per_kilotick: report.throughput_per_kilotick(),
        completed: report.counters.completed,
    })
}

/// Evaluates a batch of candidates on a work-queue of scoped worker
/// threads and scores the Pareto front.
///
/// Each worker owns one [`Pipeline`] (realization/verification scratch
/// plus the LP solver scratch — basis factors and pricing workspace —
/// are reused across the candidates it pulls) and claims work off a
/// shared atomic counter, so an expensive candidate never stalls the rest
/// of the batch behind it. Results land in their candidate's slot,
/// keeping the output a pure function of the input regardless of
/// completion order or thread count: no scratch carries anything from
/// one candidate into the next that could change its result.
pub fn evaluate_batch(candidates: &[DesignCandidate], options: &ExploreOptions) -> ExploreOutcome {
    evaluate_batch_with(candidates, options, &RunControl::new())
}

/// [`evaluate_batch`] with a supervision channel: `control` is checked
/// before each candidate claim (a cancelled batch stops promptly — no new
/// evaluations start, in-flight ones finish their candidate) and its
/// progress counter advances by one per evaluated candidate, so an
/// external observer (e.g. a `wsp-server` job poll) sees monotone
/// progress toward `candidates.len()`.
///
/// Without cancellation the result is identical to [`evaluate_batch`] —
/// byte-identical at every thread count. When cancelled, candidates whose
/// evaluation never started report
/// [`CandidateOutcome::Failed`]`("cancelled before evaluation")` and the
/// front is scored over whatever did complete (the caller typically
/// discards the partial outcome).
pub fn evaluate_batch_with(
    candidates: &[DesignCandidate],
    options: &ExploreOptions,
    control: &RunControl,
) -> ExploreOutcome {
    let t0 = Instant::now();
    let n = candidates.len();
    let threads = wsp_core::resolve_threads(options.threads).min(n.max(1));

    let mut slots: Vec<Option<CandidateReport>> = Vec::new();
    slots.resize_with(n, || None);
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            workers.push(scope.spawn(move || {
                let mut pipeline = Pipeline::new();
                let mut produced: Vec<(usize, CandidateReport)> = Vec::new();
                loop {
                    if control.is_cancelled() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    produced.push((
                        i,
                        evaluate_candidate(&mut pipeline, &candidates[i], options),
                    ));
                    control.add_progress(1);
                }
                produced
            }));
        }
        for worker in workers {
            for (i, report) in worker.join().expect("explore worker panicked") {
                slots[i] = Some(report);
            }
        }
    });

    let reports: Vec<CandidateReport> = slots
        .into_iter()
        .zip(candidates)
        .map(|(s, c)| {
            s.unwrap_or_else(|| CandidateReport {
                candidate: c.clone(),
                outcome: CandidateOutcome::Failed("cancelled before evaluation".to_string()),
                timings: None,
            })
        })
        .collect();

    // Pareto front over the solved candidates, mapped back to report
    // indices (in ascending order, as `pareto_front` preserves it).
    let solved: Vec<(usize, Objective)> = reports
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.outcome.eval().map(|e| (i, e.objective())))
        .collect();
    let objectives: Vec<Objective> = solved.iter().map(|&(_, o)| o).collect();
    let front: Vec<usize> = pareto_front(&objectives)
        .into_iter()
        .map(|k| solved[k].0)
        .collect();

    ExploreOutcome {
        reports,
        front,
        threads,
        wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_maps::SortingCenterParams;

    fn tiny_candidates() -> Vec<DesignCandidate> {
        [2u32, 4]
            .into_iter()
            .map(|stations| {
                DesignCandidate::new(SortingCenterParams {
                    chute_rows: 3,
                    chute_cols: 4,
                    stations,
                    ..SortingCenterParams::paper()
                })
            })
            .collect()
    }

    fn tiny_options(threads: usize) -> ExploreOptions {
        ExploreOptions {
            threads: Some(threads),
            units: 24,
            t_limit: 1_200,
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn batch_solves_and_scores_a_front() {
        let outcome = evaluate_batch(&tiny_candidates(), &tiny_options(2));
        assert_eq!(outcome.reports.len(), 2);
        assert!(!outcome.front.is_empty());
        for &i in &outcome.front {
            let eval = outcome.reports[i].outcome.eval().expect("front solved");
            assert!(eval.delivered >= 24);
            assert!(eval.synthesis_cost > 0);
            assert!(outcome.reports[i].timings.is_some());
        }
        let best = outcome.best().expect("has a best");
        assert!(best.outcome.eval().is_some());
    }

    #[test]
    fn failed_candidates_keep_their_slot() {
        let mut candidates = tiny_candidates();
        candidates.insert(
            1,
            DesignCandidate::new(SortingCenterParams {
                chute_rows: 2, // even: rejected by validate()
                ..SortingCenterParams::paper()
            }),
        );
        let outcome = evaluate_batch(&candidates, &tiny_options(2));
        assert_eq!(outcome.reports.len(), 3);
        assert!(matches!(
            outcome.reports[1].outcome,
            CandidateOutcome::Failed(_)
        ));
        assert!(!outcome.front.contains(&1));
    }

    #[test]
    fn impossible_workloads_report_infeasible() {
        let candidates = tiny_candidates();
        let options = ExploreOptions {
            units: 50_000_000, // far beyond any station's per-period rate
            ..tiny_options(1)
        };
        let outcome = evaluate_batch(&candidates, &options);
        for r in &outcome.reports {
            assert!(matches!(r.outcome, CandidateOutcome::Infeasible(_)));
        }
        assert!(outcome.front.is_empty());
        assert!(outcome.best().is_none());
    }

    #[test]
    fn lifelong_scoring_adds_a_deterministic_latency_axis() {
        let candidates = tiny_candidates();
        let scored = |threads: usize| ExploreOptions {
            sim: Some(SimScoring {
                ticks: 200,
                units: 60,
                ..SimScoring::default()
            }),
            ..tiny_options(threads)
        };
        let one = evaluate_batch(&candidates, &scored(1));
        let two = evaluate_batch(&candidates, &scored(2));
        assert_eq!(one.to_json(), two.to_json());
        for r in &one.reports {
            let eval = r.outcome.eval().expect("tiny candidates solve");
            let sim = eval.sim.as_ref().expect("lifelong scoring on");
            assert!(
                sim.completed > 0,
                "{}: no tasks completed",
                r.candidate.label()
            );
            assert!(sim.mean_latency_milliticks > 0);
            assert_eq!(eval.objective().sim_latency, sim.mean_latency_milliticks);
        }
        // A scored design that completes nothing must sit at the worst end
        // of the latency axis, not the best.
        let mut starved = one.reports[0].outcome.eval().unwrap().clone();
        starved.sim = Some(SimScore {
            mean_latency_milliticks: 0,
            throughput_per_kilotick: 0,
            completed: 0,
        });
        assert_eq!(starved.objective().sim_latency, u64::MAX);
        // Without scoring the axis is zero.
        let plain = evaluate_batch(&candidates, &tiny_options(1));
        for r in &plain.reports {
            assert_eq!(r.outcome.eval().unwrap().objective().sim_latency, 0);
        }
    }

    #[test]
    fn assignment_policy_is_a_deterministic_codesign_knob() {
        // Scoring the same candidates under the auction policy must stay
        // byte-reproducible across thread counts, and the knob must
        // actually reach the simulator (auction runs complete work too).
        let candidates = tiny_candidates();
        let scored = |threads: usize| ExploreOptions {
            sim: Some(SimScoring {
                ticks: 200,
                units: 60,
                policy: wsp_sim::AssignPolicy::Auction,
                ..SimScoring::default()
            }),
            ..tiny_options(threads)
        };
        let one = evaluate_batch(&candidates, &scored(1));
        let two = evaluate_batch(&candidates, &scored(2));
        assert_eq!(one.to_json(), two.to_json());
        for r in &one.reports {
            let eval = r.outcome.eval().expect("tiny candidates solve");
            let sim = eval.sim.as_ref().expect("lifelong scoring on");
            assert!(
                sim.completed > 0,
                "{}: auction scoring completed nothing",
                r.candidate.label()
            );
        }
    }

    #[test]
    fn canonical_json_is_thread_count_independent() {
        let mut candidates = tiny_candidates();
        // Include a failed candidate so every outcome arm renders.
        candidates.push(DesignCandidate::new(SortingCenterParams {
            chute_rows: 2, // even: rejected by validate()
            ..SortingCenterParams::paper()
        }));
        let one = evaluate_batch(&candidates, &tiny_options(1));
        let two = evaluate_batch(&candidates, &tiny_options(2));
        assert_eq!(one.to_json(), two.to_json());
        let json = one.to_json();
        assert!(json.starts_with("{\n  \"front\": ["));
        assert!(json.contains("\"outcome\": \"solved\""));
        assert!(json.contains("\"outcome\": \"failed\""));
        assert!(json.contains("\"synthesis_cost\": "));
        // Wall-clock state must never leak into the canonical rendering.
        assert!(!json.contains("wall"));
        assert!(!json.contains("threads"));
    }

    #[test]
    fn cancelled_batches_stop_promptly_and_mark_unevaluated_slots() {
        let candidates = tiny_candidates();
        // Cancel before the batch starts: no candidate may be evaluated.
        let control = RunControl::new();
        control.cancel();
        let outcome = evaluate_batch_with(&candidates, &tiny_options(2), &control);
        assert_eq!(outcome.reports.len(), candidates.len());
        for r in &outcome.reports {
            assert!(
                matches!(&r.outcome, CandidateOutcome::Failed(e) if e.contains("cancelled")),
                "expected a cancelled marker, got {:?}",
                r.outcome
            );
        }
        assert_eq!(control.progress(), 0);
        assert!(outcome.front.is_empty());

        // An uncancelled control reproduces evaluate_batch exactly and
        // reports full progress.
        let control = RunControl::new();
        let with = evaluate_batch_with(&candidates, &tiny_options(2), &control);
        let without = evaluate_batch(&candidates, &tiny_options(1));
        assert_eq!(with.to_json(), without.to_json());
        assert_eq!(control.progress(), candidates.len() as u64);
    }

    #[test]
    fn empty_batch_is_fine() {
        let outcome = evaluate_batch(&[], &tiny_options(4));
        assert!(outcome.reports.is_empty());
        assert!(outcome.front.is_empty());
        assert!(outcome.to_json().starts_with("{\n  \"front\": [],"));
    }
}

//! `design-sweep`: the paper's co-design loop. Each pass evaluates the 20
//! `sorting_center_sweep()` designs at one workload size through
//! `evaluate_candidate`, with one reused `Pipeline` on one thread, as an
//! explore worker does. Op = one candidate.
//!
//! Candidate cost grows with the size (80 units cost about half of 320),
//! so a run covers the whole 80..=320 range: both ends, plus one
//! seed-drawn size in each of four slices between them; a round is one
//! pass at every size. Figures are medians over rounds, which keeps
//! seed-to-seed differences and bursts of machine noise out of them.

use std::time::{Duration, Instant};

use wsp_core::{Pipeline, PipelineError, WspInstance};
use wsp_explore::{
    evaluate_batch, evaluate_candidate, pareto_front, sorting_center_sweep, CandidateEval,
    CandidateOutcome, CandidateReport, DesignCandidate, ExploreOptions, ExploreOutcome,
};
use wsp_flow::FlowError;

use crate::calibrate::Calibrator;
use crate::checks;
use crate::trace::Tracer;
use crate::{median, quantile, Check, Metric, RunConfig, RunResult, Scale};

const SIZE_LO: u64 = 80;
const SIZE_HI: u64 = 320;
const T_LIMIT: usize = 3_600;
const SALT_SIZES: u64 = 0x5177;

/// The run's workload sizes: both ends of `80..=320`, which set the
/// fastest and slowest candidates, and one seed-drawn size in each of
/// `interior` equal slices between them.
pub fn sizes(seed: u64, interior: u64) -> Vec<u64> {
    let width = (SIZE_HI - SIZE_LO) / (interior + 1);
    let drawn = (0..interior).map(|i| {
        SIZE_LO + width / 2 + i * width + crate::derive(seed, SALT_SIZES, i) % (width + 1)
    });
    std::iter::once(SIZE_LO)
        .chain(drawn)
        .chain(std::iter::once(SIZE_HI))
        .collect()
}

/// The explore options of one pass: one thread, the run's size, the
/// paper's plan-length limit, no lifelong scoring.
pub fn options(units: u64) -> ExploreOptions {
    ExploreOptions {
        threads: Some(1),
        units,
        t_limit: T_LIMIT,
        ..ExploreOptions::default()
    }
}

/// Renders one pass as its batch would: the Pareto front over the solved
/// candidates, then every report, through `ExploreOutcome::to_json`.
pub fn render_pass(reports: Vec<CandidateReport>) -> String {
    let solved: Vec<(usize, wsp_explore::Objective)> = reports
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.outcome.eval().map(|e| (i, e.objective())))
        .collect();
    let objectives: Vec<wsp_explore::Objective> = solved.iter().map(|&(_, o)| o).collect();
    let front = pareto_front(&objectives)
        .into_iter()
        .map(|k| solved[k].0)
        .collect();
    ExploreOutcome {
        reports,
        front,
        threads: 1,
        wall: Duration::ZERO,
    }
    .to_json()
}

/// Work counts of the traced stage-by-stage evaluations.
#[derive(Debug, Default, Clone)]
pub struct StageCounts {
    /// Candidates that solved.
    pub solved: u64,
    /// Candidates proven infeasible.
    pub infeasible: u64,
    /// Candidates that failed.
    pub failed: u64,
    /// Summed `AgentFlowSet::synthesis_cost` of solved candidates.
    pub synthesis_cost: u64,
    /// Summed cycle counts of solved candidates.
    pub cycles: u64,
    /// Summed agents × timesteps of the realized plans.
    pub plan_agent_steps: u64,
}

/// Evaluates one candidate stage by stage under spans — `build`,
/// `synthesize`, `decompose`, `realize`, `verify`, all inside one
/// `explore.candidate` span — and returns the outcome `evaluate_candidate`
/// would.
pub fn evaluate_traced(
    tracer: &mut Tracer,
    pipeline: &mut Pipeline,
    candidate: &DesignCandidate,
    options: &ExploreOptions,
    op: u64,
    counts: &mut StageCounts,
) -> CandidateOutcome {
    let span = tracer.begin("explore.candidate", op);
    let outcome = staged(tracer, pipeline, candidate, options, op, counts);
    tracer.end(span);
    match &outcome {
        CandidateOutcome::Solved(_) => counts.solved += 1,
        CandidateOutcome::Infeasible(_) => counts.infeasible += 1,
        CandidateOutcome::Failed(_) => counts.failed += 1,
    }
    outcome
}

fn staged(
    tracer: &mut Tracer,
    pipeline: &mut Pipeline,
    candidate: &DesignCandidate,
    options: &ExploreOptions,
    op: u64,
    counts: &mut StageCounts,
) -> CandidateOutcome {
    let span = tracer.begin("maps.candidate_build", op);
    let built = candidate.build();
    tracer.end(span);
    let map = match built {
        Ok(map) => map,
        Err(e) => return CandidateOutcome::Failed(e),
    };
    let workload = map.uniform_workload(options.units);
    let instance = WspInstance::new(map.warehouse, map.traffic, workload, options.t_limit);
    let failed = |e: PipelineError| match e {
        PipelineError::Flow(FlowError::Infeasible { detail }) => {
            CandidateOutcome::Infeasible(detail)
        }
        e => CandidateOutcome::Failed(e.to_string()),
    };

    let span = tracer.begin("flow.synthesize", op);
    let flow = pipeline.synthesize(&instance, &options.pipeline);
    tracer.end(span);
    let flow = match flow {
        Ok(flow) => flow,
        Err(e) => return failed(e),
    };
    let span = tracer.begin("flow.decompose", op);
    let cycles = pipeline.decompose(&flow);
    tracer.end(span);
    let cycles = match cycles {
        Ok(cycles) => cycles,
        Err(e) => return failed(e),
    };
    let span = tracer.begin("realize.realize", op);
    let realized = pipeline.realize(&instance, &options.pipeline, &cycles);
    tracer.end(span);
    let realized = match realized {
        Ok(realized) => realized,
        Err(e) => return failed(e),
    };
    let plan_agent_steps = (realized.outcome.agents * realized.outcome.timesteps) as u64;
    let span = tracer.begin("model.verify", op);
    let report = pipeline.verify(&instance, realized);
    tracer.end(span);
    let report = match report {
        Ok(report) => report,
        Err(e) => return failed(e),
    };
    let (agents, makespan) = report.objective();
    let eval = CandidateEval {
        agents,
        makespan,
        delivered: report.stats.total_delivered(),
        cycles: report.cycles.cycles().len(),
        synthesis_cost: report.flow.synthesis_cost(),
        sim: None,
    };
    counts.synthesis_cost += eval.synthesis_cost;
    counts.cycles += eval.cycles as u64;
    counts.plan_agent_steps += plan_agent_steps;
    CandidateOutcome::Solved(eval)
}

/// The per-layer figures of the traced candidate path.
pub(crate) fn stage_metrics(
    layer: &mut crate::LayerMetrics,
    tracer: &Tracer,
    counts: &StageCounts,
) {
    let n = tracer.count("explore.candidate");
    layer.set(
        "explore.candidate_self_ms",
        tracer.self_ms("explore.candidate"),
        n,
    );
    layer.set("explore.solved_n", counts.solved as f64, n);
    layer.set("explore.infeasible_n", counts.infeasible as f64, n);
    layer.set("explore.failed_n", counts.failed as f64, n);
    for (metric, span) in [
        ("maps.candidate_build_ms", "maps.candidate_build"),
        ("flow.synthesize_ms", "flow.synthesize"),
        ("flow.decompose_ms", "flow.decompose"),
        ("realize.realize_ms", "realize.realize"),
        ("model.verify_ms", "model.verify"),
    ] {
        layer.set(metric, tracer.self_ms(span), tracer.count(span));
    }
    let solved = counts.solved as usize;
    let per_solved = |total: u64| total as f64 / solved.max(1) as f64;
    layer.set(
        "lp.synthesis_cost",
        per_solved(counts.synthesis_cost),
        solved,
    );
    layer.set("flow.cycles_n", counts.cycles as f64, solved);
    layer.set(
        "realize.plan_agent_steps",
        per_solved(counts.plan_agent_steps),
        solved,
    );
}

/// One round: a pass at every size.
struct Round {
    /// Wall seconds of the untraced passes.
    secs: f64,
    /// Wall ms of each untraced candidate.
    candidate_ms: Vec<f64>,
}

/// Runs the workload.
///
/// # Errors
///
/// Never in practice; the signature matches the other workloads.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let (designs, sizes, setups) = match config.scale {
        Scale::Full => (sorting_center_sweep(), sizes(config.seed, 4), 5),
        Scale::Smoke => (
            sorting_center_sweep().into_iter().step_by(7).collect(),
            sizes(config.seed, 0),
            2,
        ),
    };
    let largest = *sizes.iter().max().expect("at least one size");

    // Set-up: a fresh pipeline grows its scratch on one untimed cold pass
    // at the largest size. Repeated, and the median reported.
    let mut calibrator = Calibrator::new();
    let mut setup_s = Vec::new();
    let mut pipeline = Pipeline::new();
    for _ in 0..setups {
        let t0 = Instant::now();
        pipeline = Pipeline::new();
        let cold = options(largest);
        for d in &designs {
            std::hint::black_box(evaluate_candidate(&mut pipeline, d, &cold));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        calibrator.sample();
    }

    let mut checks = Vec::new();
    let mut first_render: Vec<Option<String>> = vec![None; sizes.len()];
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_rounds: Vec<f64> = Vec::new();
    let mut tracer = Tracer::new();
    let mut counts = StageCounts::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut mismatch: Option<String> = None;
    let mut traced_mismatch: Option<String> = None;
    let deadline = Instant::now() + config.budget;
    let mut op = 0u64;

    // Rounds run until the budget is spent; the first always completes.
    while rounds.is_empty() || Instant::now() < deadline {
        // The traced run alternates which path goes first in a round.
        let traced_first = rounds.len() % 2 == 1;
        let mut round = Round {
            secs: 0.0,
            candidate_ms: Vec::new(),
        };
        let mut traced_secs = 0.0;
        for (si, &units) in sizes.iter().enumerate() {
            let opts = options(units);
            let mut traced_pass = |tracer: &mut Tracer, pipeline: &mut Pipeline| {
                let t0 = Instant::now();
                let outcomes: Vec<CandidateOutcome> = designs
                    .iter()
                    .zip(op..)
                    .map(|(d, k)| evaluate_traced(tracer, pipeline, d, &opts, k, &mut counts))
                    .collect();
                (outcomes, t0.elapsed().as_secs_f64())
            };
            let before =
                (config.trace && traced_first).then(|| traced_pass(&mut tracer, &mut pipeline));
            let t0 = Instant::now();
            let mut reports = Vec::with_capacity(designs.len());
            for d in &designs {
                let c0 = Instant::now();
                let report = evaluate_candidate(&mut pipeline, d, &opts);
                round.candidate_ms.push(c0.elapsed().as_secs_f64() * 1e3);
                attempted += 1;
                if matches!(report.outcome, CandidateOutcome::Failed(_)) {
                    failed += 1;
                }
                reports.push(report);
            }
            round.secs += t0.elapsed().as_secs_f64();
            let after =
                (config.trace && !traced_first).then(|| traced_pass(&mut tracer, &mut pipeline));
            if let Some((outcomes, secs)) = before.or(after) {
                traced_secs += secs;
                let differs = (0..designs.len()).find(|&k| outcomes[k] != reports[k].outcome);
                checks::keep_first(
                    &mut traced_mismatch,
                    differs.map_or(Ok(()), |k| {
                        Err(format!(
                            "size {units}, {}: staged {:?} vs evaluate_candidate {:?}",
                            designs[k].label(),
                            outcomes[k],
                            reports[k].outcome
                        ))
                    }),
                );
            }
            op += designs.len() as u64;
            let rendering = render_pass(reports);
            match &first_render[si] {
                None => first_render[si] = Some(rendering),
                Some(first) => checks::keep_first(
                    &mut mismatch,
                    checks::same_bytes(
                        &format!("pass at size {units}, round {}", rounds.len()),
                        first,
                        &rendering,
                    ),
                ),
            }
        }
        calibrator.sample();
        rounds.push(round);
        traced_rounds.push(traced_secs);
    }
    let peak_rss = crate::peak_rss_mb();

    checks.push(Check::from_result(
        "every pass at a size renders the same ExploreOutcome",
        mismatch.map_or(Ok(()), Err),
    ));
    for (si, &units) in sizes.iter().enumerate() {
        let Some(rendering) = &first_render[si] else {
            continue;
        };
        for threads in [1usize, 2] {
            let batch = evaluate_batch(
                &designs,
                &ExploreOptions {
                    threads: Some(threads),
                    ..options(units)
                },
            );
            checks.push(Check::from_result(
                &format!("size {units}: pass == evaluate_batch at {threads} thread(s)"),
                checks::same_bytes("pass vs batch", &batch.to_json(), rendering),
            ));
        }
    }
    checks.push(Check::from_result(
        "regime: some candidate solves",
        checks::ensure(attempted > failed, || {
            "every candidate failed; the sweep measured no pipeline work".to_string()
        }),
    ));
    if config.trace {
        checks.push(Check::from_result(
            "staged stages reproduce evaluate_candidate outcomes",
            traced_mismatch.map_or(Ok(()), Err),
        ));
    }

    let mut notes = Vec::new();
    let metrics = if config.trace {
        let pairs: Vec<(f64, f64)> = traced_rounds
            .iter()
            .zip(&rounds)
            .map(|(&t, r)| (t, r.secs))
            .collect();
        let mut layer = crate::LayerMetrics::new();
        stage_metrics(&mut layer, &tracer, &counts);
        layer.set(
            "trace.overhead_share",
            crate::overhead_share(&pairs),
            rounds.len(),
        );
        crate::write_spans(&tracer, "design-sweep", config.seed);
        layer.into_metrics(false)
    } else {
        // Medians over rounds, scaled to nominal machine speed.
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.candidate_ms.len() as f64 / r.secs)
            .collect();
        let p50: Vec<f64> = rounds
            .iter()
            .map(|r| quantile(&r.candidate_ms, 0.5))
            .collect();
        let p90: Vec<f64> = rounds
            .iter()
            .map(|r| quantile(&r.candidate_ms, 0.9))
            .collect();
        let (setup, rate, p50, p90) =
            (median(&setup_s), median(&rates), median(&p50), median(&p90));
        notes = crate::calibration_notes(&calibrator, [setup, rate, p50, p90]);
        let f = calibrator.factor();
        let n = attempted as usize;
        vec![
            Metric::new("setup_s", setup * f, "s", setup_s.len()),
            Metric::new("peak_rss_mb", peak_rss, "MB", 1),
            Metric::new(
                "success_share",
                (attempted - failed) as f64 / attempted.max(1) as f64,
                "ratio",
                n,
            ),
            Metric::labelled(
                "ops_per_s",
                "candidates_per_s",
                rate / f,
                "1/s",
                rounds.len(),
            ),
            Metric::labelled("op_ms_p50", "candidate_ms_p50", p50 * f, "ms", n),
            Metric::labelled("op_ms_tail", "candidate_ms_p90", p90 * f, "ms", n),
        ]
    };
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        checks,
        notes,
    })
}

//! `floor-calm` and `floor-faults`: the 105,836-vertex
//! `scaled_warehouse(101, 1000, 3, 3)` floor, 1,615 agents from
//! `direct_cycle_set(…, 2000)`, `AssignPolicy::Auction`, the ≈401-task
//! uniform stream at mean gap 2 and the default stall process, simulated
//! from tick 0 to 2,000 — the `-auction` row of `BENCH_sim.json` timed
//! from its start instead of after warm-up. `floor-faults` adds the
//! `-faults` row's mix: breakdowns every ~12 ticks, all permanent, one
//! 500-tick station outage and one 400-tick 4-cell closure. Op = one
//! `Simulation::step`.
//!
//! One draw's cost depends on its stream, stall and fault seeds, so a run
//! pools draws, each with seeds derived from the run seed.

use std::time::Instant;

use wsp_core::WspInstance;
use wsp_model::{ProductId, Workload};
use wsp_sim::{
    direct_cycle_set, AssignPolicy, DeviationConfig, FaultConfig, RepairConfig, SimConfig,
    SimCounters, Simulation, StreamConfig,
};

use crate::checks;
use crate::trace::Tracer;
use crate::{median, quantile, Check, Metric, RunConfig, RunResult, Scale};

/// The floor layout seed, pinned: layouts 1, 2 and 11 hit a routing
/// pathology that makes a draw cost minutes, which is a workload of its
/// own.
pub const MAP_SEED: u64 = 3;
const SALT_DRAWS: u64 = 0xd4a3;

/// The built floor every draw of a run simulates.
pub struct Floor {
    /// Warehouse and traffic system.
    pub instance: WspInstance,
    /// The executed cycle set.
    pub cycles: wsp_flow::AgentCycleSet,
    /// The arrival mix: uniform over the products the cycles deliver.
    pub mix: Workload,
}

/// Floor size per scale.
struct Dims {
    rows: u32,
    cols: u32,
    map_seed: u64,
    /// Agent budget of `direct_cycle_set`.
    agents: usize,
    /// Tasks in the arrival stream (about; spread over delivered products).
    tasks: u64,
    /// Ticks per draw.
    ticks: u64,
    /// Length of the recorded prefix the plan checker replays.
    prefix: u64,
}

fn dims(scale: Scale) -> Dims {
    match scale {
        Scale::Full => Dims {
            rows: 101,
            cols: 1000,
            map_seed: MAP_SEED,
            agents: 2000,
            tasks: 400,
            ticks: 2000,
            prefix: 400,
        },
        Scale::Smoke => Dims {
            rows: 5,
            cols: 40,
            map_seed: 5,
            agents: 24,
            tasks: 40,
            ticks: 400,
            prefix: 120,
        },
    }
}

/// Builds the floor, recording `maps.floor_build` and `sim.cycles` spans.
pub fn build_floor(scale: Scale, tracer: &mut Tracer) -> Floor {
    let d = dims(scale);
    let span = tracer.begin("maps.floor_build", 0);
    let map =
        wsp_maps::scaled_warehouse(d.rows, d.cols, 3, d.map_seed).expect("scaled floor builds");
    tracer.end(span);
    let instance = WspInstance::new(map.warehouse, map.traffic, Workload::zeros(0), 0);
    let span = tracer.begin("sim.cycles", 0);
    let cycles = direct_cycle_set(&instance.warehouse, &instance.traffic, d.agents);
    tracer.end(span);
    let delivered: std::collections::BTreeSet<ProductId> = cycles
        .cycles()
        .iter()
        .flat_map(|c| c.delivered_products())
        .collect();
    let mut mix = Workload::zeros(instance.warehouse.catalog().len());
    for &p in &delivered {
        mix.set(p, d.tasks / delivered.len() as u64 + 1);
    }
    Floor {
        instance,
        cycles,
        mix,
    }
}

/// The stream, stall and fault seeds of one draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrawSeeds {
    /// Arrival-stream seed.
    pub stream: u64,
    /// Stall-process seed.
    pub stall: u64,
    /// Fault-injection seed.
    pub fault: u64,
}

/// Draw `k` of run seed `seed`. Draw 0 of [`crate::DEFAULT_SEED`] is the
/// `-auction`/`-faults` rows' (7, 9, `0xfa17`); every other draw offsets
/// those seeds by a mix of (seed, k).
pub fn draw_seeds(seed: u64, k: u64) -> DrawSeeds {
    let salt = if seed == crate::DEFAULT_SEED && k == 0 {
        0
    } else {
        crate::derive(seed, SALT_DRAWS, k)
    };
    DrawSeeds {
        stream: 7 ^ salt,
        stall: 9 ^ salt.rotate_left(21),
        fault: 0xfa17 ^ salt.rotate_left(42),
    }
}

/// The simulation config of one draw; repair threads pinned to 1.
pub fn sim_config(floor: &Floor, seeds: DrawSeeds, faults: bool, ticks: u64) -> SimConfig {
    let mut config = SimConfig {
        ticks,
        stream: StreamConfig {
            mix: floor.mix.clone(),
            mean_gap: 2,
            seed: seeds.stream,
        },
        deviations: DeviationConfig::stalls(64, 2, 8, seeds.stall),
        repair: RepairConfig {
            enabled: true,
            threads: Some(1),
            ..RepairConfig::default()
        },
        replan_lag: 24,
        ..SimConfig::default()
    };
    config.assign.policy = AssignPolicy::Auction;
    if faults {
        config.faults = FaultConfig {
            breakdown_gap: 12,
            permanent_permille: 1000,
            outage_gap: 1000,
            outage_min_ticks: 500,
            outage_max_ticks: 500,
            closure_gap: 1000,
            closure_min_ticks: 400,
            closure_max_ticks: 400,
            closure_len: 4,
            seed: seeds.fault,
            ..FaultConfig::none()
        };
    }
    config
}

/// What stepping one draw produced.
#[derive(Debug, Default)]
pub(crate) struct Draw {
    /// Wall seconds spent inside `step`.
    pub(crate) step_secs: f64,
    /// Ticks stepped (elided ones included).
    pub(crate) ticks: u64,
    /// Wall ms of each step that executed its tick.
    pub(crate) executed_ms: Vec<f64>,
    /// The draw reached its last tick.
    pub(crate) complete: bool,
    /// The final report's JSON.
    pub(crate) report_json: String,
    /// The report at the recorded-prefix tick, when asked for.
    pub(crate) prefix_json: Option<String>,
    /// Final counters.
    pub(crate) counters: SimCounters,
    /// Mean completed-task latency, ticks.
    pub(crate) latency_ticks: f64,
    /// First conservation failure.
    pub(crate) conservation: Option<String>,
}

/// Classes an executed step by which counter advanced, in the order
/// replan > fault/shed > repair > assignment/rebalance > plain.
fn step_class(before: &SimCounters, after: &SimCounters) -> &'static str {
    if after.ticks_elided > before.ticks_elided {
        "sim.elided_tick"
    } else if after.replans > before.replans {
        "sim.replan_tick"
    } else if after.faults_injected > before.faults_injected || after.tasks_shed > before.tasks_shed
    {
        "sim.fault_tick"
    } else if after.repairs_attempted > before.repairs_attempted {
        "sim.repair_tick"
    } else if after.assignments_made > before.assignments_made
        || after.rebalance_moves > before.rebalance_moves
    {
        "sim.assign_tick"
    } else {
        "sim.plain_tick"
    }
}

/// Steps `sim` through `ticks` ticks, timing each step and checking
/// conservation after it, until `stop()` says otherwise. With a tracer,
/// each step is a span classed by [`step_class`] (op id = draw << 32 |
/// tick).
pub(crate) fn step_draw(
    sim: &mut Simulation<'_>,
    ticks: u64,
    prefix: Option<u64>,
    mut tracer: Option<(&mut Tracer, u64)>,
    stop: &dyn Fn() -> bool,
) -> Result<Draw, String> {
    let mut draw = Draw::default();
    for tick in 0..ticks {
        if stop() {
            break;
        }
        let before = sim.counters().clone();
        let t0 = Instant::now();
        let stepped = sim.step();
        let t1 = Instant::now();
        stepped.map_err(|e| format!("step {tick}: {e}"))?;
        let after = sim.counters();
        if let Some((t, d)) = tracer.as_mut() {
            t.record(step_class(&before, after), (*d << 32) | tick, t0, t1);
        }
        let dt = (t1 - t0).as_secs_f64();
        draw.step_secs += dt;
        draw.ticks += 1;
        if after.ticks_elided == before.ticks_elided {
            draw.executed_ms.push(dt * 1e3);
        }
        if draw.conservation.is_none() {
            draw.conservation = checks::conserved(tick, after).err();
        }
        if prefix == Some(tick + 1) {
            draw.prefix_json = Some(sim.report().to_json());
        }
    }
    draw.complete = draw.ticks == ticks;
    let span = tracer
        .as_mut()
        .map(|(t, d)| t.begin("sim.render", *d << 32));
    let report = sim.report();
    draw.report_json = report.to_json();
    if let (Some((t, _)), Some(span)) = (tracer.as_mut(), span) {
        t.end(span);
    }
    draw.latency_ticks = report.mean_latency_milliticks() as f64 / 1000.0;
    draw.counters = report.counters;
    Ok(draw)
}

/// Per-class step time and count from the step spans [`step_draw`]
/// recorded.
pub(crate) fn tick_class_metrics(layer: &mut crate::LayerMetrics, tracer: &Tracer) {
    for (span, ms, n) in [
        ("sim.replan_tick", "sim.replan_tick_ms", "sim.replan_tick_n"),
        ("sim.assign_tick", "sim.assign_tick_ms", "sim.assign_tick_n"),
        ("sim.fault_tick", "sim.fault_tick_ms", "sim.fault_tick_n"),
        ("sim.repair_tick", "sim.repair_tick_ms", "sim.repair_tick_n"),
        ("sim.plain_tick", "sim.plain_tick_ms", "sim.plain_tick_n"),
    ] {
        layer.set(ms, tracer.total_ms(span), tracer.count(span));
        layer.set(n, tracer.count(span) as f64, tracer.count(span));
    }
    layer.set(
        "sim.elided_tick_ms",
        tracer.total_ms("sim.elided_tick"),
        tracer.count("sim.elided_tick"),
    );
}

/// Builds draw `k`'s simulation under a `sim.build` span.
fn new_sim<'a>(
    floor: &'a Floor,
    config: &RunConfig,
    k: u64,
    faults: bool,
    tracer: &mut Tracer,
) -> Result<Simulation<'a>, String> {
    let sim_config = sim_config(
        floor,
        draw_seeds(config.seed, k),
        faults,
        dims(config.scale).ticks,
    );
    let span = tracer.begin("sim.build", k << 32);
    let sim = Simulation::from_cycles(&floor.instance, floor.cycles.clone(), sim_config)
        .map_err(|e| format!("draw {k} does not build: {e}"));
    tracer.end(span);
    sim
}

/// Replays draw 0's first `prefix` ticks with recording on: every step
/// conserves tasks, the executed plan passes `PlanChecker`, and the report
/// equals the one the timed draw showed at that tick.
fn check_prefix(
    floor: &Floor,
    config: &RunConfig,
    faults: bool,
    prefix: u64,
    timed_prefix: Option<&str>,
) -> Result<(), String> {
    let mut sim_config = sim_config(floor, draw_seeds(config.seed, 0), faults, prefix);
    sim_config.record = true;
    let mut sim = Simulation::from_cycles(&floor.instance, floor.cycles.clone(), sim_config)
        .map_err(|e| format!("recorded draw does not build: {e}"))?;
    for tick in 0..prefix {
        sim.step()
            .map_err(|e| format!("recorded step {tick}: {e}"))?;
        checks::conserved(tick, sim.counters())?;
    }
    let report = sim.report();
    let plan = sim.executed_plan().expect("recording is on");
    checks::plan_feasible(&floor.instance.warehouse, plan, report.counters.delivered)?;
    match timed_prefix {
        Some(timed) => {
            checks::same_bytes("recorded prefix vs timed draw", timed, &report.to_json())
        }
        None => Err("the timed draw 0 never reached the prefix tick".to_string()),
    }
}

/// Runs the workload; `faults` selects `floor-faults`.
///
/// # Errors
///
/// A floor that fails to build or step.
pub fn run(config: &RunConfig, faults: bool) -> Result<RunResult, String> {
    let Dims { ticks, prefix, .. } = dims(config.scale);
    let setups = match config.scale {
        Scale::Full => 5,
        Scale::Smoke => 2,
    };
    let mut tracer = Tracer::new();

    // Set-up: floor generation, the cycle set and draw 0's simulation
    // (distance fields and first window); repeated, the median reported,
    // the last one kept.
    let mut setup_s = Vec::new();
    for _ in 1..setups {
        let t0 = Instant::now();
        let floor = build_floor(config.scale, &mut tracer);
        drop(new_sim(&floor, config, 0, faults, &mut tracer)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let t0 = Instant::now();
    let floor = build_floor(config.scale, &mut tracer);
    let first = new_sim(&floor, config, 0, faults, &mut tracer)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    let cache_mb = first.auction_cache_bytes() as f64 / 1e6;

    let deadline = Instant::now() + config.budget;
    let mut draws: Vec<Draw> = Vec::new();
    let mut traced: Vec<Draw> = Vec::new();
    let mut first = Some(first);
    let mut attempted = 0u64;
    for k in 0.. {
        if k > 0 && Instant::now() >= deadline {
            break;
        }
        let mut sim = match first.take() {
            Some(sim) => sim,
            None => new_sim(&floor, config, k, faults, &mut tracer)?,
        };
        let prefix_at = (k == 0).then_some(prefix);
        if config.trace {
            // Twins: the same draw untraced and traced, in alternating
            // order, both run to the end so their reports compare.
            let mut twin = new_sim(&floor, config, k, faults, &mut tracer)?;
            let never = || false;
            if k % 2 == 1 {
                traced.push(step_draw(
                    &mut twin,
                    ticks,
                    None,
                    Some((&mut tracer, k)),
                    &never,
                )?);
            }
            draws.push(step_draw(&mut sim, ticks, prefix_at, None, &never)?);
            if k % 2 == 0 {
                traced.push(step_draw(
                    &mut twin,
                    ticks,
                    None,
                    Some((&mut tracer, k)),
                    &never,
                )?);
            }
        } else {
            let any_complete = draws.iter().any(|d| d.complete);
            let stop = || any_complete && Instant::now() >= deadline;
            draws.push(step_draw(&mut sim, ticks, prefix_at, None, &stop)?);
        }
        attempted += draws.last().map_or(0, |d| d.ticks);
    }
    let peak_rss = crate::peak_rss_mb();

    let complete: Vec<&Draw> = draws.iter().filter(|d| d.complete).collect();
    let mut checks = Vec::new();
    checks.push(Check::from_result(
        "SimCounters::conserved() after every step",
        draws
            .iter()
            .chain(&traced)
            .find_map(|d| d.conservation.clone())
            .map_or(Ok(()), Err),
    ));
    checks.push(Check::from_result(
        "recorded prefix passes PlanChecker and matches the timed draw",
        check_prefix(
            &floor,
            config,
            faults,
            prefix,
            draws[0].prefix_json.as_deref(),
        ),
    ));
    if config.trace {
        checks.push(Check::from_result(
            "traced and untraced draws render the same report",
            draws
                .iter()
                .zip(&traced)
                .enumerate()
                .find_map(|(k, (a, b))| {
                    checks::same_bytes(&format!("draw {k}"), &a.report_json, &b.report_json).err()
                })
                .map_or(Ok(()), Err),
        ));
    }
    let sum = |f: fn(&SimCounters) -> u64| -> u64 { draws.iter().map(|d| f(&d.counters)).sum() };
    if faults {
        let (fired, lost) = (sum(|c| c.faults_injected), sum(|c| c.agents_lost));
        checks.push(Check::from_result(
            "regime: faults fire and agents are lost",
            checks::ensure(fired > 0 && lost > 0, || {
                format!("{fired} faults fired, {lost} agents lost")
            }),
        ));
    } else {
        let (elided, fired) = (sum(|c| c.ticks_elided), sum(|c| c.faults_injected));
        checks.push(Check::from_result(
            "regime: ticks elide and no fault fires",
            checks::ensure(elided > 0 && fired == 0, || {
                format!("{elided} ticks elided, {fired} faults fired")
            }),
        ));
    }

    let metrics = if config.trace {
        let mut layer = crate::LayerMetrics::new();
        layer.set(
            "maps.floor_build_ms",
            tracer.total_ms("maps.floor_build"),
            tracer.count("maps.floor_build"),
        );
        layer.set(
            "sim.cycles_ms",
            tracer.total_ms("sim.cycles"),
            tracer.count("sim.cycles"),
        );
        layer.set(
            "sim.build_ms",
            tracer.total_ms("sim.build"),
            tracer.count("sim.build"),
        );
        layer.set("sim.cache_mb", cache_mb, 1);
        tick_class_metrics(&mut layer, &tracer);
        layer.set(
            "sim.render_ms",
            tracer.total_ms("sim.render"),
            tracer.count("sim.render"),
        );
        crate::set_sim_counts(
            &mut layer,
            traced.iter().map(|d| (&d.counters, d.latency_ticks)),
        );
        let pairs: Vec<(f64, f64)> = traced
            .iter()
            .zip(&draws)
            .map(|(t, u)| (t.step_secs, u.step_secs))
            .collect();
        layer.set(
            "trace.overhead_share",
            crate::overhead_share(&pairs),
            pairs.len(),
        );
        crate::write_spans(
            &tracer,
            if faults { "floor-faults" } else { "floor-calm" },
            config.seed,
        );
        layer.into_metrics(true)
    } else {
        // Pooled over the draws that reached their last tick (the first
        // always does): a run mixes light and heavy draws, and a median
        // over draws would snap to one kind or the other.
        let ticks: u64 = complete.iter().map(|d| d.ticks).sum();
        let secs: f64 = complete.iter().map(|d| d.step_secs).sum();
        let executed_ms: Vec<f64> = complete
            .iter()
            .flat_map(|d| d.executed_ms.iter().copied())
            .collect();
        let rate = ticks as f64 / secs;
        let p50 = quantile(&executed_ms, 0.5);
        let p99 = quantile(&executed_ms, 0.99);
        let executed = executed_ms.len();
        let injected: u64 = complete.iter().map(|d| d.counters.injected).sum();
        let completed: u64 = complete.iter().map(|d| d.counters.completed).sum();
        vec![
            Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
            Metric::new("peak_rss_mb", peak_rss, "MB", 1),
            Metric::new(
                "success_share",
                completed as f64 / injected.max(1) as f64,
                "ratio",
                injected as usize,
            ),
            Metric::labelled("ops_per_s", "sim_ticks_per_s", rate, "1/s", complete.len()),
            Metric::labelled("op_ms_p50", "tick_ms_p50", p50, "ms", executed),
            Metric::labelled("op_ms_tail", "tick_ms_p99", p99, "ms", executed),
        ]
    };
    Ok(RunResult {
        attempted,
        failed: 0,
        metrics,
        checks,
        notes: Vec::new(),
    })
}

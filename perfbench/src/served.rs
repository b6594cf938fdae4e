//! `served-mix`: `wsp-server` with its default `ServerConfig` (one job
//! worker) over real sockets. Two callers form a closed loop — each
//! submits a job, polls it to `done`, fetches the result, then submits the
//! next — so two jobs are outstanding at a time. Jobs alternate between
//! sim jobs (the paper sorting center, `Static`, 2,000 ticks, stall gap
//! 64, repair on) and explore jobs (four seed-picked sweep designs). Op =
//! one job, from the submit POST until the result body arrives.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wsp_core::{Pipeline, PipelineOptions, WspInstance};
use wsp_explore::{evaluate_batch, sorting_center_sweep, DesignCandidate, ExploreOptions};
use wsp_maps::SortingCenterParams;
use wsp_server::json::Json;
use wsp_server::{serve, ServerConfig, ServerHandle};
use wsp_sim::{DeviationConfig, RepairConfig, SimConfig, Simulation, StreamConfig};
use wsp_traffic::RingOrientation;

use crate::calibrate::Calibrator;
use crate::http::request;
use crate::trace::Tracer;
use crate::{checks, median, quantile, Check, Metric, RunConfig, RunResult, Scale};

const CALLERS: usize = 2;
const POLL_GAP: Duration = Duration::from_millis(2);
const SALT_JOBS: u64 = 0x10b5;

/// A sim job: the paper sorting center under `Static` with stalls and
/// repair.
#[derive(Debug, Clone)]
pub struct SimJob {
    /// The design simulated.
    pub params: SortingCenterParams,
    /// Workload units (synthesis workload and arrival mix).
    pub units: u64,
    /// Plan-length limit for synthesis.
    pub t_limit: usize,
    /// Ticks simulated.
    pub ticks: u64,
    /// Mean ticks between arrivals.
    pub mean_gap: u32,
    /// Arrival-stream seed.
    pub stream_seed: u64,
    /// Stall-process seed.
    pub stall_seed: u64,
}

/// An explore job: a few sweep designs at one size.
#[derive(Debug, Clone)]
pub struct ExploreJob {
    /// The designs evaluated.
    pub designs: Vec<DesignCandidate>,
    /// Workload units per design.
    pub units: u64,
    /// Plan-length limit.
    pub t_limit: usize,
}

/// One job of the mix.
#[derive(Debug, Clone)]
pub enum Job {
    /// `POST /api/v1/jobs/sim`.
    Sim(SimJob),
    /// `POST /api/v1/jobs/explore`.
    Explore(ExploreJob),
}

fn params_json(p: &SortingCenterParams) -> String {
    let orientation = match p.orientation {
        RingOrientation::Forward => "forward",
        RingOrientation::Reversed => "reversed",
    };
    format!(
        "{{\"chute_rows\": {}, \"chute_cols\": {}, \"chute_step\": {}, \"aisle_pitch\": {}, \
         \"stations\": {}, \"station_offset\": {}, \"max_products\": {}, \
         \"max_component_len\": {}, \"orientation\": \"{orientation}\"}}",
        p.chute_rows,
        p.chute_cols,
        p.chute_step,
        p.aisle_pitch,
        p.stations,
        p.station_offset,
        p.max_products,
        p.max_component_len
    )
}

impl SimJob {
    /// The submission body.
    pub fn body(&self) -> String {
        format!(
            "{{\"map\": {}, \"units\": {}, \"t_limit\": {}, \"ticks\": {}, \"mean_gap\": {}, \
             \"stream_seed\": {}, \"deviations\": {{\"mean_gap\": 64, \"min_ticks\": 2, \
             \"max_ticks\": 8, \"seed\": {}}}, \"repair\": {{\"enabled\": true}}, \"threads\": 1}}",
            params_json(&self.params),
            self.units,
            self.t_limit,
            self.ticks,
            self.mean_gap,
            self.stream_seed,
            self.stall_seed
        )
    }

    /// The instance the job simulates: the design, with a uniform
    /// workload of `units`.
    pub fn instance(&self) -> Result<(WspInstance, wsp_model::Workload), String> {
        let map = wsp_maps::sorting_center_variant(&self.params).map_err(|e| e.to_string())?;
        let mix = map.uniform_workload(self.units);
        let workload = map.uniform_workload(self.units);
        Ok((
            WspInstance::new(map.warehouse, map.traffic, workload, self.t_limit),
            mix,
        ))
    }

    /// The simulation config the spec describes; repair on one thread.
    pub fn config(&self, mix: wsp_model::Workload) -> SimConfig {
        SimConfig {
            ticks: self.ticks,
            stream: StreamConfig {
                mix,
                mean_gap: self.mean_gap,
                seed: self.stream_seed,
            },
            deviations: DeviationConfig::stalls(64, 2, 8, self.stall_seed),
            repair: RepairConfig {
                enabled: true,
                threads: Some(1),
                ..RepairConfig::default()
            },
            ..SimConfig::default()
        }
    }

    /// The direct library call for this spec: `Simulation::new`, `run`,
    /// `SimReport::to_json`.
    pub fn direct(&self) -> Result<String, String> {
        let (instance, mix) = self.instance()?;
        let mut sim = Simulation::new(&instance, &PipelineOptions::default(), self.config(mix))
            .map_err(|e| e.to_string())?;
        Ok(sim.run().map_err(|e| e.to_string())?.to_json())
    }
}

impl ExploreJob {
    /// The submission body.
    pub fn body(&self) -> String {
        let candidates: Vec<String> = self
            .designs
            .iter()
            .map(|d| params_json(&d.params))
            .collect();
        format!(
            "{{\"candidates\": [{}], \"units\": {}, \"t_limit\": {}, \"threads\": 1}}",
            candidates.join(", "),
            self.units,
            self.t_limit
        )
    }

    /// Batch options on one thread.
    pub fn options(&self) -> ExploreOptions {
        ExploreOptions {
            threads: Some(1),
            units: self.units,
            t_limit: self.t_limit,
            ..ExploreOptions::default()
        }
    }

    /// The direct library call for this spec: `evaluate_batch`,
    /// `ExploreOutcome::to_json`.
    pub fn direct(&self) -> String {
        evaluate_batch(&self.designs, &self.options()).to_json()
    }
}

impl Job {
    fn path(&self) -> &'static str {
        match self {
            Job::Sim(_) => "/api/v1/jobs/sim",
            Job::Explore(_) => "/api/v1/jobs/explore",
        }
    }

    fn body(&self) -> String {
        match self {
            Job::Sim(j) => j.body(),
            Job::Explore(j) => j.body(),
        }
    }

    fn direct(&self) -> Result<String, String> {
        match self {
            Job::Sim(j) => j.direct(),
            Job::Explore(j) => Ok(j.direct()),
        }
    }
}

/// The job shape of a scale: the sim design and size, and how many pool
/// pairs a run draws.
struct Shape {
    pairs: u64,
    params: SortingCenterParams,
    units: u64,
    t_limit: usize,
    ticks: u64,
}

impl Shape {
    fn of(scale: Scale) -> Shape {
        match scale {
            Scale::Full => Shape {
                pairs: 32,
                params: SortingCenterParams::paper(),
                units: 160,
                t_limit: 3_600,
                ticks: 2_000,
            },
            Scale::Smoke => Shape {
                pairs: 2,
                params: SortingCenterParams {
                    chute_rows: 3,
                    chute_cols: 4,
                    stations: 2,
                    ..SortingCenterParams::paper()
                },
                units: 24,
                t_limit: 2_000,
                ticks: 260,
            },
        }
    }

    fn sim(&self, stream_seed: u64, stall_seed: u64) -> Job {
        Job::Sim(SimJob {
            params: self.params.clone(),
            units: self.units,
            t_limit: self.t_limit,
            ticks: self.ticks,
            mean_gap: 4,
            stream_seed,
            stall_seed,
        })
    }

    /// Four sweep designs from `start` at a stride of five (the small
    /// design alone at smoke scale).
    fn explore(&self, start: usize) -> Job {
        let designs = if self.params == SortingCenterParams::paper() {
            let sweep = sorting_center_sweep();
            (0..4)
                .map(|k| sweep[(start + 5 * k) % sweep.len()].clone())
                .collect()
        } else {
            vec![DesignCandidate::new(self.params.clone())]
        };
        Job::Explore(ExploreJob {
            designs,
            units: self.units,
            t_limit: self.t_limit,
        })
    }
}

/// The run's job pool, alternating sim and explore jobs; job `j` of the
/// loop submits `pool[j % pool.len()]`. Stream and stall seeds and the
/// explore designs are drawn from the run seed. A sim job costs 15–75 ms
/// depending on its seeds, so the pool holds 32 of each kind: a run's mean
/// job cost then barely depends on the run seed.
pub fn pool(seed: u64, scale: Scale) -> Vec<Job> {
    let shape = Shape::of(scale);
    (0..shape.pairs)
        .flat_map(|i| {
            let stream = crate::derive(seed, SALT_JOBS, 2 * i) % 1_000_000;
            let stall = crate::derive(seed, SALT_JOBS, 2 * i + 1) % 1_000_000;
            let start = crate::derive(seed, SALT_JOBS ^ 0xe, i) as usize;
            [shape.sim(stream, stall), shape.explore(start)]
        })
        .collect()
}

/// The set-up's two jobs, the same for every seed so that set-up time does
/// not depend on it.
fn setup_jobs(scale: Scale) -> [Job; 2] {
    let shape = Shape::of(scale);
    [shape.sim(7, 9), shape.explore(0)]
}

/// How one job of the loop went.
#[derive(Debug)]
struct JobRecord {
    /// Loop index `j`.
    index: usize,
    /// When the submit POST started.
    start: Instant,
    /// When the result body arrived (or the job was given up).
    end: Instant,
    /// The job finished `done` and its result arrived (a 503 refusal or a
    /// failed job did not).
    done: bool,
    /// Every request a traced job made: span name, start, end.
    requests: Vec<(&'static str, Instant, Instant)>,
    /// Submit response arrival.
    submitted_at: Instant,
    /// First poll that saw `running`, and the first that saw `done`.
    running_at: Option<Instant>,
    done_at: Option<Instant>,
}

impl JobRecord {
    /// Wall ms of this job's requests named `name`.
    fn request_ms(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        let name = name.to_string();
        self.requests
            .iter()
            .filter(move |(n, _, _)| *n == name)
            .map(|(_, t0, t1)| (*t1 - *t0).as_secs_f64() * 1e3)
    }
}

/// Runs one job through HTTP: submit, poll every `POLL_GAP` until a final
/// status, fetch the result; a `traced` job also keeps its request spans
/// and ends with one `GET /healthz`. Returns the record and the result
/// body.
fn run_job(
    addr: SocketAddr,
    index: usize,
    job: &Job,
    traced: bool,
) -> Result<(JobRecord, Option<String>), String> {
    let mut requests = Vec::new();
    let mut timed = |name: &'static str, method: &str, path: &str, body: &str| {
        let t0 = Instant::now();
        let response = request(addr, method, path, body);
        let t1 = Instant::now();
        if traced {
            requests.push((name, t0, t1));
        }
        response.map(|r| (r, t1))
    };
    let start = Instant::now();
    let (submitted, submitted_at) = timed("server.submit", "POST", job.path(), &job.body())?;
    let (mut running_at, mut done_at) = (None, None);
    let mut body = None;
    let mut end = submitted_at;
    match submitted.status {
        202 => {
            let id = Json::parse(&submitted.body)
                .ok()
                .and_then(|j| j.get("id").and_then(Json::as_u64))
                .ok_or_else(|| format!("submit body has no id: {}", submitted.body))?;
            let status_path = format!("/api/v1/jobs/{id}");
            loop {
                let (snapshot, at) = timed("server.poll", "GET", &status_path, "")?;
                let status = Json::parse(&snapshot.body)
                    .ok()
                    .and_then(|j| j.get("status").and_then(Json::as_str).map(str::to_string))
                    .ok_or_else(|| format!("poll body has no status: {}", snapshot.body))?;
                match status.as_str() {
                    "queued" => {}
                    "running" => {
                        running_at.get_or_insert(at);
                    }
                    "done" => {
                        done_at = Some(at);
                        break;
                    }
                    _ => break,
                }
                std::thread::sleep(POLL_GAP);
            }
            end = Instant::now();
            if done_at.is_some() {
                let (result, at) =
                    timed("server.result", "GET", &format!("{status_path}/result"), "")?;
                end = at;
                body = (result.status == 200).then_some(result.body);
            }
        }
        503 => {}
        other => return Err(format!("submit answered {other}: {}", submitted.body)),
    }
    if traced {
        timed("tiny_http.healthz", "GET", "/healthz", "")?;
    }
    let record = JobRecord {
        index,
        start,
        end,
        done: body.is_some(),
        requests,
        submitted_at,
        running_at,
        done_at,
    };
    Ok((record, body))
}

/// Served result bodies: the first of each pool spec, and the first
/// difference between two bodies of one spec. Later bodies are compared
/// on arrival and dropped, so memory does not grow with the number of
/// jobs a run completes.
struct Bodies {
    first: Vec<Option<String>>,
    mismatch: Option<String>,
}

impl Bodies {
    fn keep(&mut self, spec: usize, job: usize, body: String) {
        match &self.first[spec] {
            None => self.first[spec] = Some(body),
            Some(first) => checks::keep_first(
                &mut self.mismatch,
                checks::same_bytes(
                    &format!("job {job} vs the first body of pool spec {spec}"),
                    first,
                    &body,
                ),
            ),
        }
    }
}

/// Reads one counter from a `/metrics` scrape.
fn scraped(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0.0)
}

/// Whether loop job `j` records client spans and a health probe in the
/// traced run: pairs of (sim, explore) jobs alternate traced and
/// untraced, so job `j` pairs with job `j + 2` of the same kind.
fn traced_job(j: usize) -> bool {
    (j / 2) % 2 == 0
}

/// Starts the server and runs one untimed job of each kind.
fn set_up(jobs: &[Job]) -> Result<ServerHandle, String> {
    let handle =
        serve("127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("server bind: {e}"))?;
    for (k, job) in jobs.iter().enumerate() {
        if run_job(handle.addr(), k, job, false)?.1.is_none() {
            handle.shutdown();
            return Err(format!("set-up job {k} did not finish"));
        }
    }
    Ok(handle)
}

/// Runs the workload.
///
/// # Errors
///
/// The server failing to start or a transport error mid-run.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let jobs = pool(config.seed, config.scale);
    let setups = match config.scale {
        Scale::Full => 5,
        Scale::Smoke => 2,
    };
    let warm_up = setup_jobs(config.scale);
    let mut calibrator = Calibrator::new();
    let mut setup_s = Vec::new();
    let mut handle = None;
    for _ in 0..setups {
        if let Some(h) = handle.take() {
            ServerHandle::shutdown(h);
        }
        let t0 = Instant::now();
        handle = Some(set_up(&warm_up)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        calibrator.sample();
    }
    let handle = handle.expect("at least one set-up");
    let addr = handle.addr();

    let loop_start = Instant::now();
    let deadline = loop_start + config.budget;
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    let errors = Mutex::new(Vec::new());
    let bodies = Mutex::new(Bodies {
        first: vec![None; jobs.len()],
        mismatch: None,
    });
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            scope.spawn(|| {
                while Instant::now() < deadline {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let traced = config.trace && traced_job(j);
                    match run_job(addr, j, &jobs[j % jobs.len()], traced) {
                        Ok((record, body)) => {
                            if let Some(body) = body {
                                let mut bodies = bodies.lock().expect("body lock");
                                bodies.keep(j % jobs.len(), j, body);
                            }
                            records.lock().expect("record lock").push(record);
                        }
                        Err(e) => {
                            errors.lock().expect("error lock").push(e);
                            break;
                        }
                    }
                }
            });
        }
        // The main thread samples the reference kernel about once a second
        // while the callers run (a few ms each, on the otherwise idle
        // core).
        while Instant::now() + Duration::from_secs(1) < deadline {
            std::thread::sleep(Duration::from_secs(1));
            calibrator.sample();
        }
    });
    let metrics_text = request(addr, "GET", "/metrics", "").map(|r| r.body);
    handle.shutdown();
    let peak_rss = crate::peak_rss_mb();
    let records = records.into_inner().expect("record lock");
    let errors = errors.into_inner().expect("error lock");
    let Bodies { first, mismatch } = bodies.into_inner().expect("body lock");
    let metrics_text = metrics_text?;

    let attempted = records.len() as u64 + errors.len() as u64;
    let done = records.iter().filter(|r| r.done).count() as u64;
    let failed = attempted - done;

    // Output checks: every served body equals the first body of its spec
    // (checked on arrival), and that equals the direct library call.
    let mut checks = Vec::new();
    let mut mismatch = mismatch;
    for (spec, body) in first.iter().enumerate() {
        let Some(body) = body else { continue };
        let verdict = match jobs[spec].direct() {
            Ok(direct) => checks::same_bytes(&format!("pool spec {spec}"), &direct, body),
            Err(e) => Err(format!("direct call for pool spec {spec} failed: {e}")),
        };
        checks::keep_first(&mut mismatch, verdict);
    }
    checks.push(Check::from_result(
        "every served body == the direct library call for its spec",
        mismatch.map_or(Ok(()), Err),
    ));
    checks.push(Check::from_result(
        "no transport errors",
        errors.first().cloned().map_or(Ok(()), Err),
    ));
    let repairs: u64 = first
        .iter()
        .zip(&jobs)
        .filter(|(_, job)| matches!(job, Job::Sim(_)))
        .filter_map(|(body, _)| body.as_deref())
        .filter_map(|b| Json::parse(b).ok())
        .filter_map(|j| j.get("repairs_attempted").and_then(Json::as_u64))
        .sum();
    checks.push(Check::from_result(
        "regime: served sims attempt repairs",
        checks::ensure(repairs > 0, || {
            "no served sim attempted a repair".to_string()
        }),
    ));

    let finished: Vec<&JobRecord> = records.iter().filter(|r| r.done).collect();
    let mut notes = Vec::new();
    let metrics = if config.trace {
        let mut layer = crate::LayerMetrics::new();
        let traced: Vec<&JobRecord> = records.iter().filter(|r| traced_job(r.index)).collect();
        let mut tracer = Tracer::new();
        for r in &traced {
            for &(name, t0, t1) in &r.requests {
                tracer.record(name, r.index as u64, t0, t1);
            }
        }
        let p50 = |name: &str| {
            let v: Vec<f64> = traced.iter().flat_map(|r| r.request_ms(name)).collect();
            (quantile(&v, 0.5), v.len())
        };
        for (metric, span) in [
            ("server.submit_ms", "server.submit"),
            ("server.poll_ms", "server.poll"),
            ("server.result_ms", "server.result"),
            ("tiny_http.rtt_ms", "tiny_http.healthz"),
        ] {
            let (value, n) = p50(span);
            layer.set(metric, value, n);
        }
        let queue_wait: Vec<f64> = traced
            .iter()
            .filter_map(|r| {
                r.running_at
                    .map(|t| (t - r.submitted_at).as_secs_f64() * 1e3)
            })
            .collect();
        let run_ms: Vec<f64> = traced
            .iter()
            .filter_map(|r| Some((r.done_at? - r.running_at?).as_secs_f64() * 1e3))
            .collect();
        layer.set(
            "server.queue_wait_ms",
            quantile(&queue_wait, 0.5),
            queue_wait.len(),
        );
        layer.set("server.run_ms", quantile(&run_ms, 0.5), run_ms.len());
        let polls = tracer.count("server.poll");
        let finished = traced.iter().filter(|r| r.done_at.is_some()).count();
        layer.set(
            "server.polls_per_job",
            polls as f64 / finished.max(1) as f64,
            finished,
        );
        layer.set(
            "server.poll_waste_share",
            (polls - finished) as f64 / polls.max(1) as f64,
            polls,
        );
        layer.set(
            "server.refused_n",
            scraped(&metrics_text, "wsp_jobs_rejected_total"),
            1,
        );
        layer.set(
            "server.failed_n",
            scraped(&metrics_text, "wsp_jobs_failed_total"),
            1,
        );
        let by_index: std::collections::BTreeMap<usize, f64> = records
            .iter()
            .filter(|r| r.done)
            .map(|r| (r.index, (r.end - r.start).as_secs_f64()))
            .collect();
        let pairs: Vec<(f64, f64)> = by_index
            .iter()
            .filter(|(&j, _)| traced_job(j))
            .filter_map(|(&j, &t)| by_index.get(&(j + 2)).map(|&u| (t, u)))
            .collect();
        layer.set(
            "trace.overhead_share",
            crate::overhead_share(&pairs),
            pairs.len(),
        );
        checks.push(Check::from_result(
            "in-process replays render the served bodies",
            replay(&jobs, &first, &mut layer, &mut tracer),
        ));
        crate::write_spans(&tracer, "served-mix", config.seed);
        layer.into_metrics(false)
    } else {
        let loop_secs = records
            .iter()
            .map(|r| r.end)
            .max()
            .map_or(0.0, |end| (end - loop_start).as_secs_f64());
        let latency: Vec<f64> = finished
            .iter()
            .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
            .collect();
        let setup = median(&setup_s);
        let rate = finished.len() as f64 / loop_secs.max(f64::MIN_POSITIVE);
        let (p50, p90) = (quantile(&latency, 0.5), quantile(&latency, 0.9));
        notes = crate::calibration_notes(&calibrator, [setup, rate, p50, p90]);
        let f = calibrator.factor();
        let n = finished.len();
        vec![
            Metric::new("setup_s", setup * f, "s", setup_s.len()),
            Metric::new("peak_rss_mb", peak_rss, "MB", 1),
            Metric::new(
                "success_share",
                done as f64 / attempted.max(1) as f64,
                "ratio",
                attempted as usize,
            ),
            Metric::labelled("ops_per_s", "jobs_per_s", rate / f, "1/s", n),
            Metric::labelled("op_ms_p50", "job_ms_p50", p50 * f, "ms", n),
            Metric::labelled("op_ms_tail", "job_ms_p90", p90 * f, "ms", n),
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

/// The traced run's in-process replay: every distinct sim spec of the
/// pool stage by stage with step spans, every explore spec's designs
/// through the traced candidate path. Replayed reports must equal the
/// served bodies (and explore outcomes the direct batch's).
fn replay(
    jobs: &[Job],
    served: &[Option<String>],
    layer: &mut crate::LayerMetrics,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut draws = Vec::new();
    let mut counts = crate::sweep::StageCounts::default();
    let mut pipeline = Pipeline::new();
    let mut failure = None;
    for (spec, job) in jobs.iter().enumerate() {
        let served = &served[spec];
        let op = spec as u64;
        let outcome = match job {
            Job::Sim(sim_job) => {
                let span = tracer.begin("maps.candidate_build", op);
                let built = sim_job.instance();
                tracer.end(span);
                let (instance, mix) = built?;
                let mut stages = Pipeline::new();
                let options = PipelineOptions::default();
                let span = tracer.begin("flow.synthesize", op);
                let flow = stages.synthesize(&instance, &options);
                tracer.end(span);
                let flow = flow.map_err(|e| e.to_string())?;
                let span = tracer.begin("flow.decompose", op);
                let cycles = stages.decompose(&flow);
                tracer.end(span);
                let cycles = cycles.map_err(|e| e.to_string())?;
                let span = tracer.begin("sim.build", op << 32);
                let sim = Simulation::from_cycles(&instance, cycles.cycles, sim_job.config(mix));
                tracer.end(span);
                let mut sim = sim.map_err(|e| e.to_string())?;
                let draw = crate::floor::step_draw(
                    &mut sim,
                    sim_job.ticks,
                    None,
                    Some((&mut *tracer, op)),
                    &|| false,
                )?;
                let rendered = draw.report_json.clone();
                draws.push(draw);
                served.as_ref().map_or(Ok(()), |s| {
                    checks::same_bytes(&format!("replayed sim spec {spec}"), s, &rendered)
                })
            }
            Job::Explore(explore_job) => {
                let direct = evaluate_batch(&explore_job.designs, &explore_job.options());
                let options = explore_job.options();
                for (k, design) in explore_job.designs.iter().enumerate() {
                    let outcome = crate::sweep::evaluate_traced(
                        tracer,
                        &mut pipeline,
                        design,
                        &options,
                        (op << 32) | k as u64,
                        &mut counts,
                    );
                    let expected = &direct.reports[k].outcome;
                    checks::keep_first(
                        &mut failure,
                        checks::ensure(outcome == *expected, || {
                            format!("explore spec {spec}, design {k}: {outcome:?} vs {expected:?}")
                        }),
                    );
                }
                Ok(())
            }
        };
        checks::keep_first(&mut failure, outcome);
    }
    crate::floor::tick_class_metrics(layer, tracer);
    crate::sweep::stage_metrics(layer, tracer, &counts);
    layer.set(
        "sim.build_ms",
        tracer.self_ms("sim.build"),
        tracer.count("sim.build"),
    );
    layer.set(
        "sim.render_ms",
        tracer.self_ms("sim.render"),
        tracer.count("sim.render"),
    );
    crate::set_sim_counts(layer, draws.iter().map(|d| (&d.counters, d.latency_ticks)));
    failure.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_later_body_that_differs_from_its_specs_first_is_caught() {
        let mut bodies = Bodies {
            first: vec![None; 2],
            mismatch: None,
        };
        bodies.keep(0, 0, "{\"ticks\": 2000}".to_string());
        bodies.keep(1, 1, "{\"ticks\": 9}".to_string());
        bodies.keep(0, 2, "{\"ticks\": 2000}".to_string());
        assert!(bodies.mismatch.is_none());
        bodies.keep(0, 4, "{\"ticks\": 2001}".to_string());
        let why = bodies.mismatch.expect("a flipped byte is caught");
        assert!(why.contains("job 4") && why.contains("byte 13"), "{why}");
    }
}

//! Job specifications: the JSON bodies `POST /api/v1/jobs/{explore,sim}`
//! accept, validated strictly at submit time.
//!
//! Unknown fields are rejected (a typoed knob fails the submission with
//! `400` instead of silently running the default), and every field is
//! range-checked by the same constructors the library path uses, so a
//! spec that submits cleanly runs exactly like the equivalent direct
//! library call.

use crate::json::Json;
use wsp_explore::{sorting_center_sweep, DesignCandidate, ExploreOptions, SimScoring};
use wsp_maps::SortingCenterParams;
use wsp_sim::{
    AssignConfig, AssignPolicy, DeviationConfig, FaultConfig, RepairConfig, SimConfig, StreamConfig,
};
use wsp_traffic::RingOrientation;

/// Errors on any object field outside `allowed`.
fn check_keys(value: &Json, what: &str, allowed: &[&str]) -> Result<(), String> {
    let fields = value
        .as_object()
        .ok_or_else(|| format!("{what} must be an object, got {}", value.kind()))?;
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown {what} field {key:?} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn get_u64(value: &Json, key: &str, default: u64) -> Result<u64, String> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("{key} must be a non-negative integer, got {}", v.kind())),
    }
}

fn get_usize(value: &Json, key: &str, default: usize) -> Result<usize, String> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("{key} must be a non-negative integer, got {}", v.kind())),
    }
}

fn get_u32(value: &Json, key: &str, default: u32) -> Result<u32, String> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u32()
            .ok_or_else(|| format!("{key} must be a non-negative integer, got {}", v.kind())),
    }
}

fn get_threads(value: &Json) -> Result<Option<usize>, String> {
    match value.get("threads") {
        None => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("threads must be a non-negative integer, got {}", v.kind())),
    }
}

/// Parses a `"map"` object into [`SortingCenterParams`], defaulting every
/// absent knob to [`SortingCenterParams::paper`].
fn parse_params(value: &Json) -> Result<SortingCenterParams, String> {
    check_keys(
        value,
        "map",
        &[
            "chute_rows",
            "chute_cols",
            "chute_step",
            "aisle_pitch",
            "stations",
            "station_offset",
            "max_products",
            "max_component_len",
            "orientation",
        ],
    )?;
    let paper = SortingCenterParams::paper();
    let orientation = match value.get("orientation") {
        None => paper.orientation,
        Some(v) => match v.as_str() {
            Some("forward") => RingOrientation::Forward,
            Some("reversed") => RingOrientation::Reversed,
            _ => {
                return Err(format!(
                    "orientation must be \"forward\" or \"reversed\", got {v}"
                ))
            }
        },
    };
    Ok(SortingCenterParams {
        chute_rows: get_u32(value, "chute_rows", paper.chute_rows)?,
        chute_cols: get_u32(value, "chute_cols", paper.chute_cols)?,
        chute_step: get_u32(value, "chute_step", paper.chute_step)?,
        aisle_pitch: get_u32(value, "aisle_pitch", paper.aisle_pitch)?,
        stations: get_u32(value, "stations", paper.stations)?,
        station_offset: get_u32(value, "station_offset", paper.station_offset)?,
        max_products: get_u32(value, "max_products", paper.max_products)?,
        max_component_len: get_usize(value, "max_component_len", paper.max_component_len)?,
        orientation,
    })
}

/// A validated explore job: a candidate list plus batch options.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// The candidates to evaluate (the default sorting-center sweep when
    /// the spec names none).
    pub candidates: Vec<DesignCandidate>,
    /// Workload units per candidate.
    pub units: u64,
    /// Plan-length limit `T` per candidate.
    pub t_limit: usize,
    /// Worker-thread budget for this job (`None`: `WSP_THREADS`, then
    /// available parallelism — resolved by [`wsp_core::resolve_threads`]).
    pub threads: Option<usize>,
    /// Optional lifelong scoring stage.
    pub sim: Option<SimScoring>,
}

impl ExploreSpec {
    /// Parses and validates a submission body.
    ///
    /// # Errors
    ///
    /// A message naming the offending field; the caller maps it to `400`.
    pub fn from_json(value: &Json) -> Result<ExploreSpec, String> {
        check_keys(
            value,
            "explore spec",
            &["candidates", "units", "t_limit", "threads", "sim"],
        )?;
        let defaults = ExploreOptions::default();
        let candidates = match value.get("candidates") {
            None => sorting_center_sweep(),
            Some(v) => {
                let items = v
                    .as_array()
                    .ok_or_else(|| format!("candidates must be an array, got {}", v.kind()))?;
                if items.is_empty() {
                    return Err("candidates must not be empty".to_string());
                }
                items
                    .iter()
                    .map(|item| parse_params(item).map(DesignCandidate::new))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let sim = match value.get("sim") {
            None => None,
            Some(v) => Some(parse_scoring(v)?),
        };
        Ok(ExploreSpec {
            candidates,
            units: get_u64(value, "units", defaults.units)?,
            t_limit: get_usize(value, "t_limit", defaults.t_limit)?,
            threads: get_threads(value)?,
            sim,
        })
    }

    /// The [`ExploreOptions`] this spec evaluates under.
    pub fn options(&self) -> ExploreOptions {
        ExploreOptions {
            threads: self.threads,
            units: self.units,
            t_limit: self.t_limit,
            sim: self.sim.clone(),
            ..ExploreOptions::default()
        }
    }

    /// Progress denominator: candidates to evaluate.
    pub fn total(&self) -> u64 {
        self.candidates.len() as u64
    }
}

/// Parses the explore spec's optional `"sim"` scoring stage.
fn parse_scoring(value: &Json) -> Result<SimScoring, String> {
    check_keys(
        value,
        "sim scoring",
        &[
            "ticks",
            "window",
            "units",
            "zipf_exponent",
            "mean_gap",
            "seed",
            "policy",
        ],
    )?;
    let defaults = SimScoring::default();
    Ok(SimScoring {
        ticks: get_u64(value, "ticks", defaults.ticks)?,
        window: get_usize(value, "window", defaults.window)?,
        units: get_u64(value, "units", defaults.units)?,
        zipf_exponent: match value.get("zipf_exponent") {
            None => defaults.zipf_exponent,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| format!("zipf_exponent must be a number, got {}", v.kind()))?,
        },
        mean_gap: get_u32(value, "mean_gap", defaults.mean_gap)?,
        seed: get_u64(value, "seed", defaults.seed)?,
        policy: parse_policy(value, defaults.policy)?,
    })
}

fn parse_policy(value: &Json, default: AssignPolicy) -> Result<AssignPolicy, String> {
    match value.get("policy") {
        None => Ok(default),
        Some(v) => match v.as_str() {
            Some("static") => Ok(AssignPolicy::Static),
            Some("auction") => Ok(AssignPolicy::Auction),
            _ => Err(format!("policy must be \"static\" or \"auction\", got {v}")),
        },
    }
}

/// A validated lifelong-simulation job over one sorting-center design.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// The design to simulate.
    pub params: SortingCenterParams,
    /// Total workload units (both the synthesis workload and the arrival
    /// mix use this).
    pub units: u64,
    /// Plan-length limit `T` for the synthesis stage.
    pub t_limit: usize,
    /// Ticks to simulate.
    pub ticks: u64,
    /// Rolling-horizon window (`0`: the simulator's auto default).
    pub window: usize,
    /// Skew of the arrival mix (`None`: uniform mix).
    pub zipf_exponent: Option<f64>,
    /// Seed for the zipf popularity permutation.
    pub workload_seed: u64,
    /// Mean ticks between arrivals.
    pub mean_gap: u32,
    /// Seed for the arrival permutation and gaps.
    pub stream_seed: u64,
    /// Task-assignment policy.
    pub policy: AssignPolicy,
    /// The stall-deviation process (`DeviationConfig::none()` default).
    pub deviations: DeviationConfig,
    /// The fault-injection layer — agent breakdowns, station outages,
    /// corridor closures (`FaultConfig::none()` default; a stream fires
    /// only when its `*_gap` is non-zero).
    pub faults: FaultConfig,
    /// The catch-up repair stage; the job's thread budget lives in
    /// `repair.threads`.
    pub repair: RepairConfig,
}

impl SimSpec {
    /// Parses and validates a submission body.
    ///
    /// # Errors
    ///
    /// A message naming the offending field; the caller maps it to `400`.
    pub fn from_json(value: &Json) -> Result<SimSpec, String> {
        check_keys(
            value,
            "sim spec",
            &[
                "map",
                "units",
                "t_limit",
                "ticks",
                "window",
                "zipf_exponent",
                "workload_seed",
                "mean_gap",
                "stream_seed",
                "policy",
                "deviations",
                "faults",
                "repair",
                "threads",
            ],
        )?;
        let params = match value.get("map") {
            None => SortingCenterParams::paper(),
            Some(v) => parse_params(v)?,
        };
        let deviations = match value.get("deviations") {
            None => DeviationConfig::none(),
            Some(v) => {
                check_keys(
                    v,
                    "deviations",
                    &["mean_gap", "min_ticks", "max_ticks", "seed"],
                )?;
                let defaults = DeviationConfig::default();
                DeviationConfig::stalls(
                    get_u32(v, "mean_gap", defaults.mean_gap)?,
                    get_u32(v, "min_ticks", defaults.min_ticks)?,
                    get_u32(v, "max_ticks", defaults.max_ticks)?,
                    get_u64(v, "seed", defaults.seed)?,
                )
            }
        };
        let faults = match value.get("faults") {
            None => FaultConfig::none(),
            Some(v) => {
                check_keys(
                    v,
                    "faults",
                    &[
                        "breakdown_gap",
                        "breakdown_min_ticks",
                        "breakdown_max_ticks",
                        "permanent_permille",
                        "outage_gap",
                        "outage_min_ticks",
                        "outage_max_ticks",
                        "closure_gap",
                        "closure_min_ticks",
                        "closure_max_ticks",
                        "closure_len",
                        "seed",
                    ],
                )?;
                let defaults = FaultConfig::default();
                FaultConfig {
                    breakdown_gap: get_u32(v, "breakdown_gap", defaults.breakdown_gap)?,
                    breakdown_min_ticks: get_u32(
                        v,
                        "breakdown_min_ticks",
                        defaults.breakdown_min_ticks,
                    )?,
                    breakdown_max_ticks: get_u32(
                        v,
                        "breakdown_max_ticks",
                        defaults.breakdown_max_ticks,
                    )?,
                    permanent_permille: get_u32(
                        v,
                        "permanent_permille",
                        defaults.permanent_permille,
                    )?,
                    outage_gap: get_u32(v, "outage_gap", defaults.outage_gap)?,
                    outage_min_ticks: get_u32(v, "outage_min_ticks", defaults.outage_min_ticks)?,
                    outage_max_ticks: get_u32(v, "outage_max_ticks", defaults.outage_max_ticks)?,
                    closure_gap: get_u32(v, "closure_gap", defaults.closure_gap)?,
                    closure_min_ticks: get_u32(v, "closure_min_ticks", defaults.closure_min_ticks)?,
                    closure_max_ticks: get_u32(v, "closure_max_ticks", defaults.closure_max_ticks)?,
                    closure_len: get_u32(v, "closure_len", defaults.closure_len)?,
                    seed: get_u64(v, "seed", defaults.seed)?,
                }
            }
        };
        let mut repair = match value.get("repair") {
            None => RepairConfig::default(),
            Some(v) => {
                check_keys(
                    v,
                    "repair",
                    &[
                        "enabled",
                        "lag_threshold",
                        "slack",
                        "lookahead",
                        "cooldown",
                        "max_batch",
                        "threads",
                    ],
                )?;
                let defaults = RepairConfig::default();
                RepairConfig {
                    enabled: match v.get("enabled") {
                        None => true,
                        Some(b) => b
                            .as_bool()
                            .ok_or_else(|| format!("enabled must be a bool, got {}", b.kind()))?,
                    },
                    lag_threshold: get_usize(v, "lag_threshold", defaults.lag_threshold)?,
                    slack: get_usize(v, "slack", defaults.slack)?,
                    lookahead: get_usize(v, "lookahead", defaults.lookahead)?,
                    cooldown: get_u64(v, "cooldown", defaults.cooldown)?,
                    max_batch: get_usize(v, "max_batch", defaults.max_batch)?,
                    threads: get_threads(v)?,
                }
            }
        };
        // The top-level thread budget routes into the repair fan-out (the
        // only parallel stage a sim job has).
        if let Some(threads) = get_threads(value)? {
            repair.threads = Some(threads);
        }
        Ok(SimSpec {
            params,
            units: get_u64(value, "units", 96)?,
            t_limit: get_usize(value, "t_limit", 3_600)?,
            ticks: get_u64(value, "ticks", 600)?,
            window: get_usize(value, "window", 0)?,
            zipf_exponent: match value.get("zipf_exponent") {
                None => None,
                Some(v) => {
                    Some(v.as_f64().ok_or_else(|| {
                        format!("zipf_exponent must be a number, got {}", v.kind())
                    })?)
                }
            },
            workload_seed: get_u64(value, "workload_seed", 7)?,
            mean_gap: get_u32(value, "mean_gap", 4)?,
            stream_seed: get_u64(value, "stream_seed", 0x5eed)?,
            policy: parse_policy(value, AssignPolicy::Static)?,
            deviations,
            faults,
            repair,
        })
    }

    /// The [`SimConfig`] this spec runs under, given the arrival mix drawn
    /// from the built map.
    pub fn config(&self, mix: wsp_model::Workload) -> SimConfig {
        SimConfig {
            ticks: self.ticks,
            window: self.window,
            stream: StreamConfig {
                mix,
                mean_gap: self.mean_gap,
                seed: self.stream_seed,
            },
            assign: AssignConfig {
                policy: self.policy,
                ..AssignConfig::default()
            },
            deviations: self.deviations.clone(),
            faults: self.faults,
            repair: self.repair.clone(),
            ..SimConfig::default()
        }
    }

    /// Progress denominator: ticks to simulate.
    pub fn total(&self) -> u64 {
        self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn explore_spec_defaults_to_the_sweep() {
        let spec = ExploreSpec::from_json(&parse("{}")).unwrap();
        assert_eq!(spec.candidates.len(), 20);
        assert_eq!(spec.units, ExploreOptions::default().units);
        assert!(spec.sim.is_none());
        assert_eq!(spec.total(), 20);
    }

    #[test]
    fn explore_spec_parses_candidates_and_scoring() {
        let spec = ExploreSpec::from_json(&parse(
            r#"{
                "candidates": [
                    {"chute_rows": 3, "chute_cols": 4, "stations": 2},
                    {"orientation": "reversed"}
                ],
                "units": 24, "t_limit": 1200, "threads": 2,
                "sim": {"ticks": 100, "policy": "auction"}
            }"#,
        ))
        .unwrap();
        assert_eq!(spec.candidates.len(), 2);
        assert_eq!(spec.candidates[0].params.chute_rows, 3);
        assert_eq!(
            spec.candidates[1].params.orientation,
            RingOrientation::Reversed
        );
        assert_eq!(spec.threads, Some(2));
        let scoring = spec.sim.as_ref().unwrap();
        assert_eq!(scoring.ticks, 100);
        assert_eq!(scoring.policy, AssignPolicy::Auction);
        let options = spec.options();
        assert_eq!(options.units, 24);
        assert_eq!(options.t_limit, 1200);
    }

    #[test]
    fn unknown_and_mistyped_fields_are_rejected() {
        assert!(ExploreSpec::from_json(&parse(r#"{"unitz": 10}"#))
            .unwrap_err()
            .contains("unitz"));
        assert!(ExploreSpec::from_json(&parse(r#"{"units": "ten"}"#))
            .unwrap_err()
            .contains("units"));
        assert!(ExploreSpec::from_json(&parse(r#"{"candidates": []}"#))
            .unwrap_err()
            .contains("empty"));
        assert!(
            ExploreSpec::from_json(&parse(r#"{"candidates": [{"chute_rowz": 3}]}"#))
                .unwrap_err()
                .contains("chute_rowz")
        );
        assert!(SimSpec::from_json(&parse(r#"{"engine": "warp"}"#))
            .unwrap_err()
            .contains("engine"));
        // The reference engine is a test oracle, not a service option.
        assert!(SimSpec::from_json(&parse(r#"{"engine": "reference"}"#))
            .unwrap_err()
            .contains("engine"));
        assert!(SimSpec::from_json(&parse(r#"{"policy": "greedy"}"#))
            .unwrap_err()
            .contains("policy"));
    }

    #[test]
    fn sim_spec_parses_faults_and_rejects_unknown_fault_fields() {
        let spec = SimSpec::from_json(&parse(
            r#"{
                "ticks": 200,
                "faults": {"breakdown_gap": 40, "permanent_permille": 250,
                           "outage_gap": 90, "closure_gap": 70, "seed": 3}
            }"#,
        ))
        .unwrap();
        assert!(spec.faults.enabled());
        assert_eq!(spec.faults.breakdown_gap, 40);
        assert_eq!(spec.faults.permanent_permille, 250);
        assert_eq!(spec.faults.outage_gap, 90);
        assert_eq!(spec.faults.closure_gap, 70);
        assert_eq!(spec.faults.seed, 3);
        // Unset spans keep the library defaults.
        assert_eq!(spec.faults.breakdown_min_ticks, 50);
        let config = spec.config(wsp_model::Workload::from_demands(vec![1; 3]));
        assert!(config.faults.enabled());

        let absent = SimSpec::from_json(&parse(r#"{"ticks": 200}"#)).unwrap();
        assert!(!absent.faults.enabled(), "no faults block, no faults");

        assert!(
            SimSpec::from_json(&parse(r#"{"faults": {"breakdown_gapp": 4}}"#))
                .unwrap_err()
                .contains("breakdown_gapp")
        );
        assert!(SimSpec::from_json(&parse(r#"{"faults": {"seed": "x"}}"#))
            .unwrap_err()
            .contains("seed"));
    }

    #[test]
    fn sim_spec_routes_threads_into_repair() {
        let spec = SimSpec::from_json(&parse(
            r#"{
                "map": {"chute_rows": 3, "chute_cols": 4, "stations": 2},
                "ticks": 260, "threads": 3,
                "deviations": {"mean_gap": 16, "min_ticks": 2, "max_ticks": 7, "seed": 9},
                "repair": {"lag_threshold": 3}
            }"#,
        ))
        .unwrap();
        assert_eq!(spec.params.chute_rows, 3);
        assert_eq!(spec.ticks, 260);
        assert!(spec.repair.enabled, "a repair block implies enabled");
        assert_eq!(spec.repair.lag_threshold, 3);
        assert_eq!(spec.repair.threads, Some(3));
        assert_eq!(spec.deviations.mean_gap, 16);
        assert_eq!(spec.total(), 260);

        // Unset deviation fields keep the library defaults.
        let partial = SimSpec::from_json(&parse(r#"{"deviations": {"mean_gap": 16}}"#)).unwrap();
        assert_eq!(
            format!("{:?}", partial.deviations),
            format!("{:?}", DeviationConfig::stalls(16, 2, 8, 0xdead))
        );
        let config = spec.config(wsp_model::Workload::from_demands(vec![1; 3]));
        assert_eq!(config.ticks, 260);
        assert_eq!(config.stream.mean_gap, 4);
    }
}

//! Machine-speed calibration. The shared 2-core VMs this benchmark runs on
//! change speed by up to 2× within minutes (a neighbour's load shows up as
//! slower on-CPU time, not only as stolen time), which no run length
//! averages away. So `design-sweep` and `served-mix` sample a fixed
//! reference kernel — sharing no code with the library — after each
//! set-up and sweep round, and about once a second during the served loop,
//! and scale their end-to-end times by `NOMINAL_MS / median sample`: the
//! figures read as if the machine ran at the speed where the kernel takes
//! [`NOMINAL_MS`]. A change to the library cannot move the kernel, so it
//! moves the scaled figures exactly as it moves the raw ones; the raw
//! figures are printed beside them. The floors are not calibrated: their
//! memory-bound cost does not track the kernel.

use std::collections::VecDeque;
use std::time::Instant;

/// Reference-kernel time that defines the nominal machine speed.
pub const NOMINAL_MS: f64 = 1.0;

const SIDE: usize = 192;

/// One run of the kernel: a breadth-first search over a walled 192×192
/// grid (memory-latency bound, like routing and distance fields) and a
/// sort of 16k words (branchy, like the solvers' bookkeeping).
fn kernel(round: usize) -> u64 {
    let cells = SIDE * SIDE;
    let wall = |i: usize| (i * 7919) % 11 == 0;
    let mut dist = vec![u32::MAX; cells];
    let mut queue = VecDeque::with_capacity(cells);
    let mut acc = 0u64;
    for r in 0..2 {
        dist.fill(u32::MAX);
        let start = (round * 131 + r * 977) % cells;
        let start = if wall(start) {
            (start + 1) % cells
        } else {
            start
        };
        dist[start] = 0;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            let (x, y) = (v % SIDE, v / SIDE);
            let next = dist[v] + 1;
            for (ok, n) in [
                (x > 0, v.wrapping_sub(1)),
                (x + 1 < SIDE, v + 1),
                (y > 0, v.wrapping_sub(SIDE)),
                (y + 1 < SIDE, v + SIDE),
            ] {
                if ok && !wall(n) && dist[n] == u32::MAX {
                    dist[n] = next;
                    queue.push_back(n);
                }
            }
        }
        acc += dist
            .iter()
            .filter(|&&d| d != u32::MAX)
            .map(|&d| u64::from(d))
            .sum::<u64>();
    }
    let mut words: Vec<u64> = (0..16_384u64)
        .map(|i| crate::splitmix64(i ^ round as u64))
        .collect();
    words.sort_unstable();
    acc ^ words[words.len() / 2]
}

/// Wall milliseconds of the reference kernel now: the median of five
/// runs.
pub fn reference_ms() -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|r| {
            let t0 = Instant::now();
            std::hint::black_box(kernel(r));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

/// The reference samples of one run.
#[derive(Debug)]
pub struct Calibrator {
    samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Takes the opening sample.
    pub fn new() -> Calibrator {
        Calibrator {
            samples: vec![reference_ms()],
        }
    }

    /// Takes one more sample; called between chunks of timed work.
    pub fn sample(&mut self) {
        self.samples.push(reference_ms());
    }

    /// Every sample taken (ms).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The factor that scales this run's times to nominal speed:
    /// `NOMINAL_MS` over the median sample.
    pub fn factor(&self) -> f64 {
        NOMINAL_MS / crate::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_scales_by_the_median_sample() {
        let mut c = Calibrator::new();
        c.sample();
        c.sample();
        let mut s = c.samples().to_vec();
        s.sort_by(f64::total_cmp);
        assert!(s[0] > 0.0);
        assert!((c.factor() - NOMINAL_MS / s[1]).abs() < 1e-12);
    }
}

//! The host's speed, taken with two fixed reference kernels between the
//! measured windows of an end-to-end run and around each set-up.
//!
//! On the shared VM this benchmark was defined on, the same binary ran
//! twice as fast at one time as twenty minutes later, and from run to
//! run its speed drifted by a quarter. Set-up, join and serve slowed together, with
//! no CPU steal to show for it: the host's memory system and cores were
//! busy with other guests. Such a period outlasts a run, so a run's
//! figures are stated at one fixed reference speed. Each window's times
//! are multiplied, and its rates divided, by the host's speed next to
//! that window relative to [`NOMINAL_CHASE`] and [`NOMINAL_COMPUTE`],
//! raised to [`SENSITIVITY`].
//!
//! The kernels are this file's own code and call nothing in the
//! repository, so a change to the program cannot move them. They run
//! while the program is idle: between a window's last reply and the
//! next window's first request, and outside each set-up's time.

use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Slots of the pointer-chase table: 16 Mi `u32`, 64 MiB, far beyond
/// the private caches, as the 249 MB trie is.
const CHASE_SLOTS: usize = 1 << 24;
/// Steps between clock reads.
const CHUNK: u64 = 1024;

/// Per-thread reference rates (steps/s) on the 2-vCPU VM the benchmark
/// was defined on, in its fast period. They only fix the scale: a run on a
/// host this fast reports its figures as measured.
pub const NOMINAL_CHASE: f64 = 9.0e6;
pub const NOMINAL_COMPUTE: f64 = 1.18e8;

/// How much more the program's speed moves than the kernels' when the
/// host slows, on a log scale. Between that VM's fast and slow periods
/// the kernels fell to about 0.65 of their nominal rates, and `join` and
/// `serve` throughput and set-up speed each fell to about 0.5 of theirs:
/// ln 0.5 / ln 0.65 ≈ 1.55.
pub const SENSITIVITY: f64 = 1.5;

/// One measurement: steps per second per thread, averaged over the
/// threads that ran the same kernel at the same time.
#[derive(Debug, Clone, Copy)]
pub struct HostSpeed {
    /// Dependent loads through a full-cycle permutation of the table:
    /// memory latency, as the trie walk and the build pay it.
    pub chase: f64,
    /// Independent integer and floating-point chains: core throughput,
    /// as coord→cell, the codec and the syscalls pay it.
    pub compute: f64,
}

impl HostSpeed {
    /// The program's expected speed relative to the nominal host: the
    /// geometric mean of the two kernels' ratios, raised to
    /// [`SENSITIVITY`]. Above 1, the host ran faster than nominal.
    pub fn factor(&self) -> f64 {
        let ratios = (self.chase / NOMINAL_CHASE) * (self.compute / NOMINAL_COMPUTE);
        ratios.powf(SENSITIVITY / 2.0)
    }
}

/// The geometric mean of [`HostSpeed::factor`] over `samples`.
pub fn factor(samples: &[HostSpeed]) -> f64 {
    let logs: f64 = samples.iter().map(|s| s.factor().ln()).sum();
    (logs / samples.len() as f64).exp()
}

/// The reference kernels and their table, allocated once per process so
/// that every measurement walks the same memory.
pub struct Reference {
    table: Vec<u32>,
    threads: usize,
}

impl Reference {
    /// Builds the table and runs both kernels once unmeasured: the first
    /// run in a fresh process reads up to half as fast.
    pub fn new(threads: usize) -> Reference {
        // next[i] = (a·i + c) mod 2^24 with a ≡ 1 (mod 4) and c odd: one
        // cycle through every slot, in an order no prefetcher follows.
        let mask = CHASE_SLOTS as u32 - 1;
        let table = (0..CHASE_SLOTS as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B1).wrapping_add(0x7F4A_7C15) & mask)
            .collect();
        let r = Reference { table, threads };
        r.measure(Duration::from_millis(300));
        r
    }

    /// Runs each kernel for `time / 2` on every thread at once.
    pub fn measure(&self, time: Duration) -> HostSpeed {
        let each = time / 2;
        let barrier = Barrier::new(self.threads);
        let rates: Vec<(f64, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let start = (t * CHASE_SLOTS / self.threads) as u32;
                        let chase = self.chase(start, each);
                        barrier.wait();
                        (chase, compute(t as u64, each))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference kernel thread"))
                .collect()
        });
        let n = rates.len() as f64;
        HostSpeed {
            chase: rates.iter().map(|r| r.0).sum::<f64>() / n,
            compute: rates.iter().map(|r| r.1).sum::<f64>() / n,
        }
    }

    fn chase(&self, start: u32, time: Duration) -> f64 {
        let t = Instant::now();
        let (mut i, mut steps) = (start, 0u64);
        while t.elapsed() < time {
            for _ in 0..CHUNK {
                i = self.table[i as usize];
            }
            steps += CHUNK;
        }
        std::hint::black_box(i);
        steps as f64 / t.elapsed().as_secs_f64()
    }
}

fn compute(seed: u64, time: Duration) -> f64 {
    let t = Instant::now();
    let mut x = [seed | 1, seed ^ 0x9E37, seed.wrapping_add(7) | 1, !seed];
    let mut f = [1.0 + seed as f64, 2.0];
    let mut steps = 0u64;
    while t.elapsed() < time {
        for _ in 0..CHUNK {
            for v in &mut x {
                *v ^= *v << 13;
                *v ^= *v >> 7;
                *v ^= *v << 17;
            }
            for g in &mut f {
                *g = g.mul_add(1.000_000_1, 0.5).sqrt() + 1.0;
            }
        }
        steps += CHUNK;
    }
    std::hint::black_box((x, f));
    steps as f64 / t.elapsed().as_secs_f64()
}

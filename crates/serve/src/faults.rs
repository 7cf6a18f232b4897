//! Deterministic fault injection for chaos tests.
//!
//! A [`FaultPlan`] is a seeded, fully deterministic schedule of failures
//! at named [`Site`]s inside the serving stack: worker panics mid-batch,
//! connection write errors and stalls, IO errors while the watcher stats
//! or opens snapshot and delta files, and (through `mmapio`'s own hook)
//! failed mmap attempts. The plan is armed once ([`FaultPlan::arm`]) and
//! the resulting [`Faults`] handle is threaded through `ServeConfig` and
//! the watcher; each hook site calls [`Faults::check`] and acts on the
//! returned [`FaultAction`].
//!
//! Determinism: a spec fires on the `first + k·every`-th *hit* of its
//! site (per-site atomic hit counters), for `k < count` — no clocks, no
//! RNG draws at decision time, so the same plan against the same traffic
//! produces the same faults. The plan seed only perturbs stall
//! durations, keeping distinct seeds distinguishable without affecting
//! *which* operations fail.
//!
//! Everything here is compiled under the `fault-injection` feature; when
//! the feature is off this module is not built and the hook sites in
//! `server.rs`/`swap.rs` compile to nothing.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Named injection sites. Each is a specific line in the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// The watcher (re)opening a base snapshot: injected IO error, as a
    /// short/failed read would surface.
    SnapshotOpen,
    /// The watcher opening/applying a delta file: injected **transient**
    /// IO error (distinct from corruption, which the validation layer
    /// catches and quarantines).
    DeltaOpen,
    /// The watcher statting a path for its change signature: injected
    /// IO error (feeds the `watch_errors` counter and the backoff path).
    WatchStat,
    /// A worker thread at the top of a drained micro-batch: panic
    /// (contained by `catch_unwind`; the batch answers `INTERNAL`).
    WorkerPanic,
    /// A connection writer about to send a reply frame: injected write
    /// error — the connection dies as if the peer reset it.
    ConnWrite,
    /// A connection writer about to send a reply frame: stall for the
    /// plan's configured duration before writing (slow-network stand-in).
    ConnStall,
    /// `mmapio::Mmap::map_file`: the next map attempt fails (armed via
    /// mmapio's process-global hook when the plan is armed).
    MmapOpen,
}

/// All sites, for iteration in reports.
pub const ALL_SITES: [Site; 7] = [
    Site::SnapshotOpen,
    Site::DeltaOpen,
    Site::WatchStat,
    Site::WorkerPanic,
    Site::ConnWrite,
    Site::ConnStall,
    Site::MmapOpen,
];

fn site_index(site: Site) -> usize {
    match site {
        Site::SnapshotOpen => 0,
        Site::DeltaOpen => 1,
        Site::WatchStat => 2,
        Site::WorkerPanic => 3,
        Site::ConnWrite => 4,
        Site::ConnStall => 5,
        Site::MmapOpen => 6,
    }
}

/// What a hook site should do when its spec fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a recognizable message (worker sites).
    Panic,
    /// Fail the operation with an injected `io::Error`.
    Error,
    /// Sleep this long, then proceed normally.
    Stall(Duration),
}

/// One deterministic failure schedule at one site: fires on the
/// `first + k·every`-th hit for `k < count` (1-based hit numbering, so
/// `first: 1` fires on the very first hit).
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Where to inject.
    pub site: Site,
    /// 1-based hit number of the first firing.
    pub first: u64,
    /// Hits between firings (0 is treated as "only `first` fires once").
    pub every: u64,
    /// Total firings before the spec goes quiet.
    pub count: u64,
}

impl FaultSpec {
    fn fires_on(&self, hit: u64) -> bool {
        if self.count == 0 || hit < self.first {
            return false;
        }
        let since = hit - self.first;
        if self.every == 0 {
            return since == 0;
        }
        since.is_multiple_of(self.every) && since / self.every < self.count
    }
}

/// A seeded, buildable fault schedule. Arm it to get the shared
/// [`Faults`] handle the serving stack consumes.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    stall: Duration,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            stall: Duration::from_millis(50),
            specs: Vec::new(),
        }
    }

    /// Adds a spec (builder style).
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// Sets the base stall duration for [`Site::ConnStall`] firings
    /// (each firing is additionally jittered ±25% from the seed).
    pub fn stall(mut self, d: Duration) -> FaultPlan {
        self.stall = d;
        self
    }

    /// Freezes the plan into the shared handle hooks consult. Also arms
    /// mmapio's process-global hook with the total `MmapOpen` budget.
    pub fn arm(self) -> Arc<Faults> {
        let mmap_budget: u64 = self
            .specs
            .iter()
            .filter(|s| s.site == Site::MmapOpen)
            .map(|s| s.count)
            .sum();
        mmapio::faults::reset();
        if mmap_budget > 0 {
            mmapio::faults::fail_next_maps(mmap_budget);
        }
        Arc::new(Faults {
            plan: self,
            hits: Default::default(),
            fired: Default::default(),
        })
    }
}

/// An armed plan: per-site hit and fire counters plus the schedule.
/// Cheap to share (`Arc`), safe to consult from any thread.
#[derive(Debug)]
pub struct Faults {
    plan: FaultPlan,
    hits: [AtomicU64; 7],
    fired: [AtomicU64; 7],
}

impl Faults {
    /// Called by a hook site on every pass: counts the hit and returns
    /// the action to take if a spec fires on it.
    pub fn check(&self, site: Site) -> Option<FaultAction> {
        let idx = site_index(site);
        let hit = self.hits[idx].fetch_add(1, Ordering::SeqCst) + 1;
        let fires = self
            .plan
            .specs
            .iter()
            .any(|s| s.site == site && s.fires_on(hit));
        if !fires {
            return None;
        }
        self.fired[idx].fetch_add(1, Ordering::SeqCst);
        Some(match site {
            Site::WorkerPanic => FaultAction::Panic,
            Site::ConnStall => FaultAction::Stall(self.jittered_stall(hit)),
            _ => FaultAction::Error,
        })
    }

    /// The injected `io::Error` hooks use for [`FaultAction::Error`].
    pub fn injected_error(&self, site: Site) -> io::Error {
        let what = match site {
            Site::SnapshotOpen => "injected snapshot read failure",
            Site::DeltaOpen => "injected delta read failure",
            Site::WatchStat => "injected stat failure",
            Site::ConnWrite => "injected socket reset",
            _ => "injected fault",
        };
        io::Error::other(what)
    }

    /// How many times `site` has fired so far (mmap fires live in
    /// mmapio's hook and are reported there).
    pub fn fires(&self, site: Site) -> u64 {
        if site == Site::MmapOpen {
            return mmapio::faults::fires();
        }
        self.fired[site_index(site)].load(Ordering::SeqCst)
    }

    /// Total fires across every site (including mmap).
    pub fn total_fires(&self) -> u64 {
        ALL_SITES.iter().map(|&s| self.fires(s)).sum()
    }

    /// ±25% deterministic jitter around the plan's stall, keyed by the
    /// seed and the hit number (splitmix64, the workspace's test RNG).
    fn jittered_stall(&self, hit: u64) -> Duration {
        let base = self.plan.stall.as_micros() as u64;
        let r = splitmix64(self.plan.seed ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let quarter = base / 4;
        let jitter = if quarter == 0 {
            0
        } else {
            r % (2 * quarter + 1)
        };
        Duration::from_micros(base - quarter + jitter)
    }
}

/// Held by every test in this crate that arms a plan. Arming resets
/// mmapio's process-global hook, so an arm on another test thread could
/// erase the budget `mmap_budget_arms_the_mmapio_hook` is draining, and
/// that test's loop would then never end.
#[cfg(test)]
pub(crate) fn arm_lock() -> std::sync::MutexGuard<'static, ()> {
    static ARM: std::sync::Mutex<()> = std::sync::Mutex::new(());
    ARM.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_fire_deterministically_on_schedule() {
        let _arm = arm_lock();
        let faults = FaultPlan::new(7)
            .with(FaultSpec {
                site: Site::WorkerPanic,
                first: 2,
                every: 3,
                count: 2,
            })
            .arm();
        let mut fired_on = Vec::new();
        for hit in 1..=12u64 {
            if faults.check(Site::WorkerPanic).is_some() {
                fired_on.push(hit);
            }
        }
        // first=2, every=3, count=2 → hits 2 and 5, then quiet.
        assert_eq!(fired_on, vec![2, 5]);
        assert_eq!(faults.fires(Site::WorkerPanic), 2);
        // Other sites are untouched.
        assert_eq!(faults.fires(Site::ConnWrite), 0);
    }

    #[test]
    fn actions_match_sites() {
        let _arm = arm_lock();
        let all = FaultPlan::new(1)
            .stall(Duration::from_millis(8))
            .with(FaultSpec {
                site: Site::WorkerPanic,
                first: 1,
                every: 0,
                count: 1,
            })
            .with(FaultSpec {
                site: Site::ConnStall,
                first: 1,
                every: 0,
                count: 1,
            })
            .with(FaultSpec {
                site: Site::ConnWrite,
                first: 1,
                every: 0,
                count: 1,
            })
            .arm();
        assert_eq!(all.check(Site::WorkerPanic), Some(FaultAction::Panic));
        match all.check(Site::ConnStall) {
            Some(FaultAction::Stall(d)) => {
                // ±25% of 8 ms.
                assert!(d >= Duration::from_millis(6) && d <= Duration::from_millis(10));
            }
            other => panic!("expected a stall, got {other:?}"),
        }
        assert_eq!(all.check(Site::ConnWrite), Some(FaultAction::Error));
        // every=0 means one-shot: the next hits are quiet.
        assert_eq!(all.check(Site::ConnWrite), None);
        assert_eq!(all.total_fires(), 3);
    }

    #[test]
    fn same_seed_same_stalls() {
        let _arm = arm_lock();
        let mk = || {
            FaultPlan::new(42)
                .stall(Duration::from_millis(20))
                .with(FaultSpec {
                    site: Site::ConnStall,
                    first: 1,
                    every: 1,
                    count: 5,
                })
                .arm()
        };
        let (a, b) = (mk(), mk());
        for _ in 0..5 {
            assert_eq!(a.check(Site::ConnStall), b.check(Site::ConnStall));
        }
    }

    #[test]
    fn mmap_budget_arms_the_mmapio_hook() {
        let _arm = arm_lock();
        let faults = FaultPlan::new(3)
            .with(FaultSpec {
                site: Site::MmapOpen,
                first: 1,
                every: 1,
                count: 2,
            })
            .arm();
        // The hook is process-global, and sibling tests in this binary
        // also map snapshot files (their loaders fall back to a heap
        // read when an injected failure lands on them, so a stolen
        // firing is harmless there). Drive map attempts until the armed
        // budget is provably spent, then prove mapping works again.
        let path = std::env::temp_dir().join(format!("faults-mmap-{}", std::process::id()));
        std::fs::write(&path, vec![0u8; 4096]).unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let mut injected_here = 0;
        while faults.fires(Site::MmapOpen) < 2 && injected_here < 64 {
            if mmapio::Mmap::map_file(&f).is_err() {
                injected_here += 1;
            }
        }
        assert_eq!(faults.fires(Site::MmapOpen), 2, "budget never drained");
        assert!(mmapio::Mmap::map_file(&f).is_ok());
        mmapio::faults::reset();
        let _ = std::fs::remove_file(&path);
    }
}

//! `join`: the paper's Fig. 3 offline join. A batch joiner calls
//! `join_approx_coords` on one thread, one call per block of points, and
//! reads per-polygon counts. coord→cell and the trie walk do nearly all
//! the work; no protocol, queue or cache is involved.

use crate::inputs::{Expected, Inputs, POINTS, PRECISION_M};
use crate::layers::SetupDone;
use crate::trace::{Tracer, ROOT};
use crate::{deadline, timed, Bench, Measured, WorkDir, Workload};
use act_core::{join_approx_coords, ActIndex};
use std::time::Instant;

/// Points per join call (one "request" of the batch joiner).
const CALL_POINTS: usize = 2048;
/// Points joined during each set-up's warm-up.
const WARM_POINTS: usize = 1 << 16;

/// One call's expected per-polygon counts, sparse and sorted by id,
/// from the batched cell path (`probe_batch` + `resolve_refs`).
struct CallOracle {
    counts: Vec<(u32, u64)>,
    refs: u64,
}

fn call_oracles(expected: &Expected, points: usize, polygons: usize) -> Vec<CallOracle> {
    let mut dense = vec![0u64; polygons];
    (0..points)
        .step_by(CALL_POINTS)
        .map(|first| {
            let mut touched = Vec::new();
            for i in first..(first + CALL_POINTS).min(points) {
                for &w in expected.point(i) {
                    let id = (w >> 1) as usize;
                    if dense[id] == 0 {
                        touched.push(id as u32);
                    }
                    dense[id] += 1;
                }
            }
            touched.sort_unstable();
            let counts: Vec<(u32, u64)> = touched
                .iter()
                .map(|&id| (id, std::mem::take(&mut dense[id as usize])))
                .collect();
            let refs = counts.iter().map(|&(_, c)| c).sum();
            CallOracle { counts, refs }
        })
        .collect()
}

pub struct Join {
    index: ActIndex,
    /// Per-call oracles, derived from the run's oracle on first use.
    oracle: Vec<CallOracle>,
    /// The call the next phase starts at.
    next: usize,
}

impl Bench for Join {
    /// The warm-up; the join needs no snapshot and no server.
    fn setup(
        _: Workload,
        index: ActIndex,
        inputs: &Inputs,
        _: &WorkDir,
        tr: &mut Option<Tracer>,
    ) -> Result<Join, String> {
        let mut counts = vec![0u64; inputs.ds.polygons.len()];
        timed(tr, "setup.warmup", WARM_POINTS as u64, || {
            join_approx_coords(&index, &inputs.points[..WARM_POINTS], &mut counts)
        });
        Ok(Join {
            index,
            oracle: Vec::new(),
            next: 0,
        })
    }

    fn index(&self) -> &ActIndex {
        &self.index
    }

    fn written(&self) -> SetupDone {
        SetupDone::default()
    }

    fn describe(&self, inputs: &Inputs) -> String {
        format!(
            "census {} polygons at {PRECISION_M} m, {POINTS} points, {CALL_POINTS} points per join \
             call, 1 thread",
            inputs.ds.polygons.len()
        )
    }

    /// Closed-loop join calls until `secs` pass; each call's counts are
    /// checked against its oracle before its time is kept.
    fn measure(
        &mut self,
        inputs: &Inputs,
        expected: &Expected,
        secs: f64,
        origin: Option<Instant>,
    ) -> Result<(Measured, Vec<Tracer>), String> {
        let (points, polygons) = (&inputs.points, inputs.ds.polygons.len());
        if self.oracle.is_empty() {
            self.oracle = call_oracles(expected, points.len(), polygons);
        }
        let mut tr = origin.map(Tracer::new);
        let mut counts = vec![0u64; polygons];
        let mut m = Measured::default();
        let start = Instant::now();
        let end = deadline(start, secs);
        let mut k = self.next;
        while Instant::now() < end {
            let chunk = &points[k * CALL_POINTS..((k + 1) * CALL_POINTS).min(points.len())];
            let t0 = Instant::now();
            let stats = match tr.as_mut() {
                Some(t) => t.time(
                    "core.join_coords",
                    ROOT,
                    k as u64,
                    chunk.len() as u64,
                    || join_approx_coords(&self.index, chunk, &mut counts),
                ),
                None => join_approx_coords(&self.index, chunk, &mut counts),
            };
            let lat = t0.elapsed().as_nanos() as u64;
            let want = &self.oracle[k];
            let ok = stats.true_hits + stats.candidate_hits == want.refs
                && want.counts.iter().all(|&(id, c)| counts[id as usize] == c);
            m.attempted += 1;
            if ok {
                m.confirm(chunk.len(), lat);
                want.counts
                    .iter()
                    .for_each(|&(id, _)| counts[id as usize] = 0);
            } else {
                m.failed += 1;
                counts.fill(0);
            }
            k = (k + 1) % self.oracle.len();
        }
        m.secs = start.elapsed().as_secs_f64();
        self.next = k;
        Ok((m, tr.into_iter().collect()))
    }

    fn finish(self) -> ActIndex {
        self.index
    }
}

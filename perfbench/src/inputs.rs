//! Generated inputs and the offline oracle every workload checks
//! against before it keeps a time.

use act_core::{coord_to_cell, ActIndexView, Probe};
use act_serve::protocol as proto;
use datagen::Dataset;
use geom::{Coord, Polygon, Ring};
use s2cell::CellId;

/// The paper's middle precision tier; census at 15 m is a 249 MB trie.
pub const PRECISION_M: f64 = 15.0;

/// The census map's seed, the repository's default workload seed. The
/// map is fixed, as the paper's census blocks are; `--seed` draws the
/// points. Index build time differs by up to 2x between census seeds
/// at equal index size, so a map drawn from `--seed` would make
/// `setup_s` a property of the seed rather than of the program.
pub const CENSUS_SEED: u64 = 42;

/// Distinct points a workload cycles through.
pub const POINTS: usize = 1 << 21;

/// Points per workload sample checked against the paper's guarantee.
const GUARANTEE_SAMPLE: usize = 2_000;

/// The workload's polygons and its taxi-like points from the seed.
pub struct Inputs {
    pub ds: Dataset,
    pub points: Vec<Coord>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let ds = datagen::census_blocks(CENSUS_SEED);
        let points = bench::make_points(&ds, POINTS, seed);
        Inputs { ds, points }
    }

    /// The id the replayed delta's geofence takes: one past the census
    /// blocks.
    pub fn fence_id(&self) -> u32 {
        self.ds.polygons.len() as u32
    }
}

/// A square geofence of about 700 m around `center`.
pub fn fence_polygon(center: Coord) -> Polygon {
    let (hx, hy) = (0.004, 0.003);
    Polygon::new(
        Ring::new(vec![
            Coord::new(center.x - hx, center.y - hy),
            Coord::new(center.x + hx, center.y - hy),
            Coord::new(center.x + hx, center.y + hy),
            Coord::new(center.x - hx, center.y + hy),
        ]),
        vec![],
    )
}

/// Every point's expected answer as packed wire words in the order the
/// trie resolves them: `words[offsets[i]..offsets[i + 1]]` is point `i`'s.
pub struct Expected {
    pub offsets: Vec<u32>,
    pub words: Vec<u32>,
}

impl Expected {
    /// The batched cell path: `probe_batch` + `resolve_refs`.
    pub fn from_cells(view: &ActIndexView<'_>, cells: &[CellId]) -> Expected {
        let mut probes = vec![Probe::Miss; cells.len()];
        view.probe_batch(cells, &mut probes);
        let mut offsets = Vec::with_capacity(cells.len() + 1);
        let mut words = Vec::with_capacity(cells.len() * 2);
        offsets.push(0);
        for &p in &probes {
            words.extend(
                view.resolve_refs(p)
                    .map(|(id, hit)| proto::encode_ref(id, hit)),
            );
            offsets.push(words.len() as u32);
        }
        Expected { offsets, words }
    }

    pub fn from_coords(view: &ActIndexView<'_>, coords: &[Coord]) -> Expected {
        let cells: Vec<CellId> = coords.iter().map(|&c| coord_to_cell(c)).collect();
        Expected::from_cells(view, &cells)
    }

    pub fn point(&self, i: usize) -> &[u32] {
        &self.words[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether a decoded reply equals the expected answers of points
    /// `first..first + refs.len()`, compared as sets per point (a router
    /// reply is sorted by id, a worker's comes in trie order).
    pub fn matches(&self, first: usize, refs: &[proto::PointRefs]) -> bool {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        refs.iter().enumerate().all(|(k, point)| {
            got.clear();
            got.extend(point.iter().map(|&(id, hit)| proto::encode_ref(id, hit)));
            if got == self.point(first + k) {
                return true;
            }
            want.clear();
            want.extend_from_slice(self.point(first + k));
            got.sort_unstable();
            want.sort_unstable();
            got == want
        })
    }

    /// The reply payload a server sends for `points` (count + words per
    /// point), in this oracle's order.
    pub fn payload(&self, points: impl Iterator<Item = usize>) -> Vec<u8> {
        let mut out = Vec::new();
        for i in points {
            let w = self.point(i);
            out.extend_from_slice(&(w.len() as u32).to_le_bytes());
            for word in w {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        out
    }
}

/// Checks the paper's guarantee on a seeded sample of `points`, given
/// each point's answer from `expected`: no false negatives, every true
/// hit contained, every candidate within ε. Returns the number of
/// violating points.
pub fn guarantee_violations(ds: &Dataset, points: &[Coord], expected: &Expected, seed: u64) -> u64 {
    let tree = bench::build_rtree(ds);
    let polygon = |id: u32| ds.polygons.get(id as usize);
    let mut rng = seed | 1;
    let mut candidates = Vec::new();
    let mut violations = 0;
    for _ in 0..GUARANTEE_SAMPLE.min(points.len()) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let i = (rng % points.len() as u64) as usize;
        let p = points[i];
        let refs: Vec<(u32, bool)> = expected
            .point(i)
            .iter()
            .map(|&w| proto::decode_ref(w))
            .collect();
        candidates.clear();
        tree.query_point_into(p, &mut candidates);
        let false_negative = candidates.iter().any(|&id| {
            polygon(id).is_some_and(|poly| poly.contains(p)) && !refs.iter().any(|&(r, _)| r == id)
        });
        let bad_ref = refs.iter().any(|&(id, hit)| match polygon(id) {
            None => true,
            Some(poly) => {
                (hit && !poly.contains(p)) || poly.distance_meters(p) > PRECISION_M * 1.0001
            }
        });
        if false_negative || bad_ref {
            violations += 1;
        }
    }
    violations
}

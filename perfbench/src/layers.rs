//! The traced run's per-layer metrics.
//!
//! [`replay`] times each layer's public functions in isolation on the
//! workload's own traffic (its points, cells and frames), one span per
//! block, so every workload reports every layer: a layer the workload
//! does not exercise still shows what it would cost on these inputs.
//! The values that need a live server (stage histograms, shard round
//! trips) are filled in by the TCP workloads and stay 0 where the
//! workload runs no server or no router.

use crate::inputs::{fence_polygon, Expected, Inputs};
use crate::trace::{Layer, Tracer, ROOT};
use crate::WorkDir;
use act_core::{
    apply_delta_file, coord_to_cell, join_approx_cells_batch, save_delta_file, shard_of_cell,
    ActIndex, DeltaLink, DeltaOp, MappedSnapshot, Probe,
};
use act_serve::protocol as proto;
use act_serve::{CacheConfig, HotCellCache};
use s2cell::CellId;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Points replayed through each layer.
const REPLAY_POINTS: usize = 1 << 19;
/// Points per replay span.
const BLOCK: usize = 4096;
/// Points per coordinate frame.
pub const COORD_FRAME: usize = 64;
/// The level-10 split `routed` shards at.
pub const SPLIT_LEVEL: u8 = 10;
/// Delta applies replayed on an owned copy.
const DELTA_APPLIES: usize = 4;

/// Server-side stage quantiles (µs) and counters of a traced TCP run.
#[derive(Default, Clone, Copy)]
pub struct ServerLayer {
    pub queue_wait: (f64, f64),
    pub walk: (f64, f64),
    pub write: (f64, f64),
    pub frame_total: (f64, f64),
    pub batch_lanes_mean: f64,
    pub shed_frac: f64,
}

/// Per-layer values that are not a span's ns per unit of work.
#[derive(Default)]
pub struct LayerMetrics {
    /// The end-to-end loop's p99 from the traced run's untraced half.
    pub frame_p99_us: f64,
    pub depth_mean: f64,
    pub refs_per_point: f64,
    pub true_hit_frac: f64,
    pub index_bytes: f64,
    pub request_bytes_per_pt: f64,
    pub reply_bytes_per_pt: f64,
    pub fanout_mean: f64,
    pub shard_imbalance: f64,
    pub server: ServerLayer,
    pub client_unattributed_frac: f64,
    pub shard_rtt_p50_us: f64,
    pub hop_overhead_us: f64,
    pub overhead_frac: f64,
}

impl LayerMetrics {
    /// Every per-layer metric, span-derived ones from `layers`.
    pub fn metrics(
        &self,
        layers: &BTreeMap<&'static str, Layer>,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let get = |name: &str| layers.get(name).copied().unwrap_or_default();
        let ns = |name: &str| get(name).ns_per_work();
        let secs = |name: &str| get(name).total_ns as f64 / 1e9;
        let s = &self.server;
        vec![
            ("frame_p99_us", self.frame_p99_us, "us"),
            ("s2cell.coord_to_cell_ns", ns("s2cell.coord_to_cell"), "ns"),
            ("core.walk_ns", ns("core.walk"), "ns"),
            ("core.walk_scalar_ns", ns("core.walk_scalar"), "ns"),
            ("core.probe_depth_mean", self.depth_mean, "count"),
            ("core.refs_per_point", self.refs_per_point, "count"),
            ("core.resolve_ns", ns("core.resolve"), "ns"),
            ("core.true_hit_frac", self.true_hit_frac, "ratio"),
            ("core.build_s", secs("core.build"), "s"),
            ("core.snapshot_write_s", secs("core.snapshot_write"), "s"),
            ("core.snapshot_map_s", secs("core.snapshot_map"), "s"),
            ("core.shard_split_s", secs("core.shard_split"), "s"),
            ("core.index_bytes", self.index_bytes, "bytes"),
            (
                "core.delta_apply_ms",
                get("core.delta_apply").total_ns as f64
                    / get("core.delta_apply").spans.max(1) as f64
                    / 1e6,
                "ms",
            ),
            (
                "protocol.encode_request_ns",
                ns("protocol.encode_request"),
                "ns",
            ),
            (
                "protocol.decode_request_ns",
                ns("protocol.decode_request"),
                "ns",
            ),
            (
                "protocol.encode_response_ns",
                ns("protocol.encode_response"),
                "ns",
            ),
            (
                "protocol.decode_reply_ns",
                ns("protocol.decode_reply"),
                "ns",
            ),
            (
                "protocol.request_bytes_per_pt",
                self.request_bytes_per_pt,
                "bytes",
            ),
            (
                "protocol.reply_bytes_per_pt",
                self.reply_bytes_per_pt,
                "bytes",
            ),
            ("server.queue_wait_p50_us", s.queue_wait.0, "us"),
            ("server.queue_wait_p99_us", s.queue_wait.1, "us"),
            ("server.walk_p50_us", s.walk.0, "us"),
            ("server.walk_p99_us", s.walk.1, "us"),
            ("server.write_p50_us", s.write.0, "us"),
            ("server.write_p99_us", s.write.1, "us"),
            ("server.frame_total_p50_us", s.frame_total.0, "us"),
            ("server.frame_total_p99_us", s.frame_total.1, "us"),
            ("server.batch_lanes_mean", s.batch_lanes_mean, "lanes"),
            ("server.shed_frac", s.shed_frac, "ratio"),
            (
                "client.unattributed_frac",
                self.client_unattributed_frac,
                "ratio",
            ),
            ("cache.get_batch_ns", ns("cache.get_batch"), "ns"),
            ("cache.insert_ns", ns("cache.insert"), "ns"),
            ("router.partition_ns", ns("router.partition"), "ns"),
            ("router.dedup_ns", ns("router.dedup"), "ns"),
            ("router.fanout_mean", self.fanout_mean, "shards"),
            ("router.shard_imbalance", self.shard_imbalance, "ratio"),
            ("router.shard_rtt_p50_us", self.shard_rtt_p50_us, "us"),
            ("router.hop_overhead_us", self.hop_overhead_us, "us"),
            ("rtree.query_ns", ns("rtree.query"), "ns"),
            (
                "fig3.act_over_rtree",
                ns("rtree.query") / ns("core.join_cells_batch"),
                "ratio",
            ),
            ("trace.overhead_frac", self.overhead_frac, "ratio"),
        ]
    }
}

/// What a workload's set-up wrote, so the replay need not run it again.
#[derive(Default)]
pub struct SetupDone {
    /// The unsharded snapshot, or the shard files.
    pub files: Vec<PathBuf>,
    /// Whether `files` are shards.
    pub shards: bool,
}

/// Replays every layer on the workload's points, in the order it sends
/// them, and fills `m`. Mutates `index` last (delta applies).
pub fn replay(
    tr: &mut Tracer,
    m: &mut LayerMetrics,
    index: &mut ActIndex,
    inputs: &Inputs,
    done: &SetupDone,
    work: &WorkDir,
) -> Result<(), String> {
    let coords = &inputs.points[..inputs.points.len().min(REPLAY_POINTS)];
    let n = coords.len();

    // Set-up layers the workload's own set-up did not run.
    let replay_snap = work.path("replay.snap");
    let snap_path = match done.files.first().filter(|_| !done.shards) {
        Some(p) => p,
        None => {
            tr.time("core.snapshot_write", ROOT, 0, 1, || {
                crate::write_snapshot(index, &replay_snap)
            })?;
            &replay_snap
        }
    };
    m.index_bytes = std::fs::metadata(snap_path)
        .map_err(|e| e.to_string())?
        .len() as f64;
    let mapped = tr
        .time("core.snapshot_map", ROOT, 0, 1, || {
            MappedSnapshot::open(snap_path)
        })
        .map_err(|e| format!("replay snapshot map: {e}"))?;
    drop(mapped);
    let _ = std::fs::remove_file(&replay_snap);
    if !done.shards {
        let dir = work.path("replay-shards");
        tr.time("core.shard_split", ROOT, 0, 1, || {
            crate::write_shards(index, &dir)
        })?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Point layers, one span per block.
    let view = index.as_view();
    let mut cells = vec![CellId(0); n];
    let mut probes = vec![Probe::Miss; n];
    let mut depths = vec![0u8; n];
    for (b, (cs, pts)) in cells
        .chunks_mut(BLOCK)
        .zip(coords.chunks(BLOCK))
        .enumerate()
    {
        tr.time(
            "s2cell.coord_to_cell",
            ROOT,
            b as u64,
            pts.len() as u64,
            || {
                for (c, &p) in cs.iter_mut().zip(pts) {
                    *c = coord_to_cell(p);
                }
            },
        );
    }
    for (b, (cs, ps)) in cells
        .chunks(BLOCK)
        .zip(probes.chunks_mut(BLOCK))
        .enumerate()
    {
        tr.time("core.walk", ROOT, b as u64, cs.len() as u64, || {
            view.probe_batch(cs, ps)
        });
    }
    let mut scalar = vec![Probe::Miss; BLOCK];
    for (b, cs) in cells.chunks(BLOCK).enumerate() {
        tr.time("core.walk_scalar", ROOT, b as u64, cs.len() as u64, || {
            for (p, &c) in scalar.iter_mut().zip(cs) {
                *p = view.probe_cell(c);
            }
        });
        if scalar[..cs.len()] != probes[b * BLOCK..b * BLOCK + cs.len()] {
            return Err("scalar walk disagrees with the batched walk".into());
        }
    }
    let mut depth_probes = vec![Probe::Miss; BLOCK];
    for (b, (cs, ds)) in cells
        .chunks(BLOCK)
        .zip(depths.chunks_mut(BLOCK))
        .enumerate()
    {
        tr.time("core.probe_depths", ROOT, b as u64, cs.len() as u64, || {
            view.probe_batch_depths(cs, &mut depth_probes[..cs.len()], ds)
        });
    }
    m.depth_mean = depths.iter().map(|&d| f64::from(d)).sum::<f64>() / n as f64;
    let (mut refs, mut interior) = (0u64, 0u64);
    for (b, ps) in probes.chunks(BLOCK).enumerate() {
        let (r, i) = tr.time("core.resolve", ROOT, b as u64, ps.len() as u64, || {
            let (mut r, mut i) = (0u64, 0u64);
            for &p in ps {
                for (_, hit) in view.resolve_refs(p) {
                    r += 1;
                    i += u64::from(hit);
                }
            }
            (r, i)
        });
        refs += r;
        interior += i;
    }
    m.refs_per_point = refs as f64 / n as f64;
    m.true_hit_frac = interior as f64 / refs.max(1) as f64;
    let mut counts = vec![0u64; inputs.ds.polygons.len()];
    for (b, cs) in cells.chunks(BLOCK).enumerate() {
        tr.time(
            "core.join_cells_batch",
            ROOT,
            b as u64,
            cs.len() as u64,
            || join_approx_cells_batch(index, cs, &mut counts, act_core::DEFAULT_PROBE_BATCH),
        );
    }
    let tree = bench::build_rtree(&inputs.ds);
    let mut hits = Vec::with_capacity(16);
    for (b, pts) in coords.chunks(BLOCK).enumerate() {
        tr.time("rtree.query", ROOT, b as u64, pts.len() as u64, || {
            for &p in pts {
                hits.clear();
                tree.query_point_into(p, &mut hits);
                for &id in &hits {
                    counts[id as usize] += 1;
                }
            }
        });
    }
    std::hint::black_box(&counts);

    // Protocol codecs on the workload's frames, one span per frame.
    let expected = Expected::from_cells(&view, &cells);
    let frame = COORD_FRAME;
    let (mut req_bytes, mut reply_bytes) = (0u64, 0u64);
    let mut decoded_frames = Vec::new();
    for (f, first) in (0..n).step_by(frame).enumerate() {
        let range = first..(first + frame).min(n);
        let req = f as u64;
        let bytes = tr.time("protocol.encode_request", ROOT, req, 1, || {
            proto::encode_probe_request(&coords[range.clone()], false)
        });
        let request = tr.time("protocol.decode_request", ROOT, req, 1, || {
            proto::decode_request(&bytes[4..])
        });
        if request.is_err() {
            return Err("replayed request frame failed to decode".into());
        }
        let reply = tr.time("protocol.encode_response", ROOT, req, 1, || {
            let payload = expected.payload(range.clone());
            proto::encode_response(
                proto::OP_PROBE,
                proto::STATUS_OK,
                1,
                range.len() as u32,
                &payload,
            )
        });
        let decoded = tr.time("protocol.decode_reply", ROOT, req, 1, || {
            proto::decode_response(&reply[4..])
                .and_then(|(h, payload)| proto::decode_probe_payload(h.n, payload))
        });
        match decoded {
            Ok(refs) if expected.matches(first, &refs) => decoded_frames.push(refs),
            _ => return Err("replayed reply frame failed to round-trip".into()),
        }
        req_bytes += bytes.len() as u64;
        reply_bytes += reply.len() as u64;
    }
    m.request_bytes_per_pt = req_bytes as f64 / n as f64;
    m.reply_bytes_per_pt = reply_bytes as f64 / n as f64;

    // The hot-cell cache on these cells: fill every resolved cell, then
    // read them all back at the same epoch.
    let cache = HotCellCache::new(&CacheConfig {
        shards: 1,
        capacity: 2 * REPLAY_POINTS,
    });
    for (b, first) in (0..n).step_by(BLOCK).enumerate() {
        let end = (first + BLOCK).min(n);
        tr.time("cache.insert", ROOT, b as u64, (end - first) as u64, || {
            for i in first..end {
                cache.insert(cells[i], depths[i], 1, expected.point(i));
            }
        });
    }
    let (mut arena, mut spans) = (Vec::new(), Vec::new());
    for (b, cs) in cells.chunks(BLOCK).enumerate() {
        arena.clear();
        spans.clear();
        tr.time("cache.get_batch", ROOT, b as u64, cs.len() as u64, || {
            cache.get_batch(cs, 1, &mut arena, &mut spans)
        });
    }

    // The router's per-frame work: partition by shard, dedup each
    // point's gathered refs.
    let shards = crate::nproc();
    let mut per_shard = vec![0u64; shards];
    let mut fanout = 0u64;
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for (f, first) in (0..n).step_by(frame).enumerate() {
        let end = (first + frame).min(n);
        tr.time("router.partition", ROOT, f as u64, 1, || {
            groups.iter_mut().for_each(Vec::clear);
            for (i, &c) in cells[first..end].iter().enumerate() {
                groups[shard_of_cell(c, SPLIT_LEVEL, shards)].push(i as u32);
            }
        });
        for (k, g) in groups.iter().enumerate() {
            per_shard[k] += g.len() as u64;
            fanout += u64::from(!g.is_empty());
        }
    }
    let frames = n.div_ceil(frame) as f64;
    m.fanout_mean = fanout as f64 / frames;
    let mean = per_shard.iter().sum::<u64>() as f64 / shards as f64;
    m.shard_imbalance = *per_shard.iter().max().expect("a shard") as f64 / mean;
    for (f, mut refs) in decoded_frames.into_iter().enumerate() {
        tr.time("router.dedup", ROOT, f as u64, 1, || {
            refs.iter_mut().for_each(proto::dedup_refs)
        });
    }

    // Delta applies on the owned copy, primed as the serving watcher
    // primes its lineage copy.
    index.prime_mutations();
    let fence = fence_polygon(inputs.points[0]);
    let mut link = DeltaLink::for_base(0);
    for k in 0..DELTA_APPLIES {
        let op = if k % 2 == 0 {
            DeltaOp::Insert {
                id: inputs.fence_id(),
                polygon: fence.clone(),
            }
        } else {
            DeltaOp::Remove {
                id: inputs.fence_id(),
            }
        };
        let path = work.path(&format!("replay.d{}", link.next_seq));
        save_delta_file(&[op], link, &path).map_err(|e| format!("replay delta save: {e}"))?;
        link = tr
            .time("core.delta_apply", ROOT, k as u64, 1, || {
                apply_delta_file(index, &path, link)
            })
            .map_err(|e| format!("replay delta apply: {e}"))?;
    }
    Ok(())
}

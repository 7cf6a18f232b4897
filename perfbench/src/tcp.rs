//! `serve` and `routed`: geofencing clients calling `act-serve` over
//! TCP. Two closed-loop connections (one per hardware thread) each send
//! 64-point coordinate frames back to back in approximate mode.
//!
//! `serve` runs one in-process server with the default config (cache
//! off); per-frame costs dominate: encode/decode, coord→cell in the
//! reader, queue handoff, allocation and the socket write. `routed`
//! splits the index at level 10 into one shard per hardware thread, one
//! worker thread each, behind the scatter-gather `Router`: partition,
//! scatter, gather and dedup dominate, plus a second protocol hop and a
//! second coord→cell.

use crate::inputs::{Expected, Inputs, POINTS, PRECISION_M};
use crate::layers::{LayerMetrics, ServerLayer, SetupDone, COORD_FRAME, SPLIT_LEVEL};
use crate::trace::{Trace, Tracer, ROOT};
use crate::{
    deadline, nproc, quantile, timed, write_shards, write_snapshot, Bench, Measured, WorkDir,
    Workload,
};
use act_core::{coord_to_cell, shard_of_cell, ActIndex};
use act_serve::protocol as proto;
use act_serve::{
    Client, ObsConfig, Router, RouterConfig, RouterHandle, ServeConfig, Server, ServerHandle,
};
use geom::Coord;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Frames one connection sends during each set-up's warm-up.
const WARM_FRAMES: usize = 512;
/// Response-read deadline.
const READ_DEADLINE: Duration = Duration::from_secs(30);
/// Frames probed directly against each shard for the hop overhead.
const HOP_FRAMES: usize = 2_000;

/// The in-process servers of one workload, and where clients connect.
struct Fleet {
    servers: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    addr: SocketAddr,
}

/// Counters summed over a fleet's servers.
#[derive(Default, Clone, Copy)]
struct Totals {
    probes: u64,
    batches: u64,
    accepted: u64,
    shed: u64,
}

impl Fleet {
    /// One server with the default config (cache off), observability
    /// on only if `obs`.
    fn serve(base: &Path, obs: bool) -> Result<Fleet, String> {
        let server = Server::spawn(
            base,
            ServeConfig {
                obs: obs.then(ObsConfig::default),
                ..ServeConfig::default()
            },
        )
        .map_err(|e| format!("spawn act-serve: {e}"))?;
        Ok(Fleet {
            addr: server.addr(),
            servers: vec![server],
            router: None,
        })
    }

    fn routed(shards: &[PathBuf], obs: bool) -> Result<Fleet, String> {
        let servers = shards
            .iter()
            .map(|p| {
                Server::spawn(
                    p,
                    ServeConfig {
                        workers: 1,
                        obs: obs.then(ObsConfig::default),
                        ..ServeConfig::default()
                    },
                )
                .map_err(|e| format!("spawn shard worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let router = Router::spawn(
            servers.iter().map(ServerHandle::addr).collect(),
            RouterConfig {
                split_level: SPLIT_LEVEL,
                obs: obs.then(ObsConfig::default),
                ..RouterConfig::default()
            },
        )
        .map_err(|e| format!("spawn router: {e}"))?;
        Ok(Fleet {
            addr: router.addr(),
            servers,
            router: Some(router),
        })
    }

    fn totals(&self) -> Totals {
        self.servers.iter().fold(Totals::default(), |t, s| {
            let s = s.stats();
            Totals {
                probes: t.probes + s.probes,
                batches: t.batches + s.batches,
                accepted: t.accepted + s.accepted,
                shed: t.shed + s.shed,
            }
        })
    }

    /// Server-side stage quantiles over the wire (flagged STATS; merged
    /// across shards by the router) plus batch width and shed share
    /// since `before`.
    fn server_layer(&self, before: Totals) -> Result<ServerLayer, String> {
        let mut c = connect_client(self.addr)?;
        let ex = c.stats_ex().map_err(|e| format!("stats_ex: {e}"))?;
        let us = |stage: u8| {
            ex.histograms
                .iter()
                .find(|h| h.stage == stage && h.hist.count() > 0)
                .map_or((0.0, 0.0), |h| {
                    (
                        h.hist.quantile(0.50) as f64 / 1e3,
                        h.hist.quantile(0.99) as f64 / 1e3,
                    )
                })
        };
        let after = self.totals();
        Ok(ServerLayer {
            queue_wait: us(proto::STAGE_QUEUE_WAIT),
            walk: us(proto::STAGE_WALK),
            write: us(proto::STAGE_WRITE),
            frame_total: us(proto::STAGE_FRAME_TOTAL),
            batch_lanes_mean: (after.probes - before.probes) as f64
                / (after.batches - before.batches).max(1) as f64,
            shed_frac: (after.shed - before.shed) as f64
                / (after.accepted - before.accepted).max(1) as f64,
        })
    }

    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}

fn connect_client(addr: SocketAddr) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(READ_DEADLINE))
        .map_err(|e| format!("read deadline: {e}"))?;
    Ok(c)
}

fn span<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    req: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.time(name, parent, req, 1, f),
        None => f(),
    }
}

/// One request as `Client::probe` makes it — encode, write, read,
/// decode — with a span around each call when tracing.
fn roundtrip(
    stream: &mut TcpStream,
    coords: &[Coord],
    mut tr: Option<&mut Tracer>,
    req: u64,
) -> Result<Vec<proto::PointRefs>, (bool, String)> {
    let root = tr.as_deref_mut().map(|t| t.open("client.frame", ROOT, req));
    let parent = root.unwrap_or(ROOT);
    let bytes = span(&mut tr, "client.encode_request", parent, req, || {
        proto::encode_probe_request(coords, false)
    });
    let body = span(&mut tr, "net.roundtrip", parent, req, || {
        stream.write_all(&bytes)?;
        proto::read_frame(stream, 1 << 26)
    });
    let body = match body {
        Ok(Some(b)) => b,
        Ok(None) => return Err((true, "server closed the connection".into())),
        Err(e) => return Err((true, format!("frame i/o: {e}"))),
    };
    let refs = span(&mut tr, "client.decode_reply", parent, req, || {
        let (h, payload) = proto::decode_response(&body).map_err(str::to_string)?;
        if h.status != proto::STATUS_OK || h.op != proto::OP_PROBE || h.n as usize != coords.len() {
            return Err(format!(
                "reply op {} status {} n {}",
                h.op,
                proto::status_name(h.status),
                h.n
            ));
        }
        proto::decode_probe_payload(h.n, payload).map_err(str::to_string)
    });
    if let (Some(t), Some(id)) = (tr, root) {
        t.close(id, coords.len() as u64);
    }
    refs.map_err(|e| (false, e))
}

/// One closed-loop connection: frames `first, first + stride, …`
/// (cycling) until `end`; each reply is checked against the oracle
/// before its latency is kept.
#[allow(clippy::too_many_arguments)]
fn conn_loop(
    addr: SocketAddr,
    points: &[Coord],
    expected: &Expected,
    first: usize,
    stride: usize,
    start: Instant,
    end: Instant,
    mut tr: Option<Tracer>,
) -> (Measured, Option<Tracer>) {
    let frames = points.len() / COORD_FRAME;
    let mut m = Measured::default();
    let mut stream: Option<TcpStream> = None;
    let mut f = first;
    let mut req = (first as u64) << 40;
    while Instant::now() < end {
        if stream.is_none() {
            stream = TcpStream::connect(addr)
                .and_then(|s| {
                    s.set_nodelay(true)?;
                    s.set_read_timeout(Some(READ_DEADLINE))?;
                    Ok(s)
                })
                .ok();
        }
        m.attempted += 1;
        let Some(s) = stream.as_mut() else {
            m.failed += 1;
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let chunk = &points[f * COORD_FRAME..(f + 1) * COORD_FRAME];
        let t0 = Instant::now();
        let reply = roundtrip(s, chunk, tr.as_mut(), req);
        let lat = t0.elapsed().as_nanos() as u64;
        match reply {
            Ok(refs) if expected.matches(f * COORD_FRAME, &refs) => {
                m.confirm(chunk.len(), lat);
            }
            Ok(_) => m.failed += 1,
            Err((broken, e)) => {
                m.failed += 1;
                if m.failed <= 3 {
                    eprintln!("perfbench: frame failed: {e}");
                }
                if broken {
                    stream = None;
                }
            }
        }
        f = (f + stride) % frames;
        req += 1;
    }
    m.secs = start.elapsed().as_secs_f64();
    (m, tr)
}

/// Both connections for `secs`, from frame `first` on; returns the
/// merged phase and, when tracing, each connection's spans.
fn run_connections(
    fleet: &Fleet,
    points: &[Coord],
    expected: &Expected,
    secs: f64,
    origin: Option<Instant>,
    first: usize,
) -> (Measured, Vec<Tracer>) {
    let conns = nproc();
    let start = Instant::now();
    let end = deadline(start, secs);
    let results: Vec<(Measured, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let tr = origin.map(Tracer::new);
                s.spawn(move || {
                    let first = (first + c) % (points.len() / COORD_FRAME);
                    conn_loop(fleet.addr, points, expected, first, conns, start, end, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut m = Measured::default();
    let mut tracers = Vec::new();
    for (part, tr) in results {
        m.absorb(part);
        tracers.extend(tr);
    }
    (m, tracers)
}

fn warm(fleet: &Fleet, points: &[Coord]) -> Result<(), String> {
    let mut c = connect_client(fleet.addr)?;
    for chunk in points.chunks(COORD_FRAME).take(WARM_FRAMES) {
        c.probe(chunk, false)
            .map_err(|e| format!("warm-up probe: {e}"))?;
    }
    Ok(())
}

/// Routed p50 of single frames against the slowest shard's p50 for the
/// same frames' sub-frames sent straight to their workers, one
/// connection each, unloaded. Returns (direct sub-frame p50, hop
/// overhead) in µs.
fn hop_overhead(fleet: &Fleet, points: &[Coord]) -> Result<(f64, f64), String> {
    let mut routed = connect_client(fleet.addr)?;
    let mut direct = fleet
        .servers
        .iter()
        .map(|s| connect_client(s.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let shards = direct.len();
    let (mut routed_ns, mut shard_ns) = (Vec::new(), vec![Vec::new(); shards]);
    let mut groups: Vec<Vec<Coord>> = vec![Vec::new(); shards];
    for chunk in points.chunks(COORD_FRAME).take(HOP_FRAMES) {
        let t = Instant::now();
        routed
            .probe(chunk, false)
            .map_err(|e| format!("routed probe: {e}"))?;
        routed_ns.push(t.elapsed().as_nanos() as u64);
        groups.iter_mut().for_each(Vec::clear);
        for &p in chunk {
            groups[shard_of_cell(coord_to_cell(p), SPLIT_LEVEL, shards)].push(p);
        }
        for (k, g) in groups.iter().enumerate().filter(|(_, g)| !g.is_empty()) {
            let t = Instant::now();
            direct[k]
                .probe(g, false)
                .map_err(|e| format!("direct shard probe: {e}"))?;
            shard_ns[k].push(t.elapsed().as_nanos() as u64);
        }
    }
    let p50 = |v: &mut Vec<u64>| {
        v.sort_unstable();
        quantile(v, 0.5) / 1e3
    };
    let slowest = shard_ns
        .iter_mut()
        .filter(|v| !v.is_empty())
        .map(p50)
        .fold(0.0, f64::max);
    let mut all: Vec<u64> = shard_ns.concat();
    Ok((p50(&mut all), p50(&mut routed_ns) - slowest))
}

/// 1 − (client encode + decode + server frame_total p50) / client frame
/// p50: the share of a frame's latency no measured layer accounts for.
fn unattributed(trace: &Trace, server_frame_total_us: f64) -> f64 {
    let p50 = |mut d: Vec<u64>| {
        d.sort_unstable();
        if d.is_empty() {
            0.0
        } else {
            quantile(&d, 0.5)
        }
    };
    let client = p50(trace.root_durations("client.frame"));
    let codec: f64 = ["client.encode_request", "client.decode_reply"]
        .iter()
        .map(|name| p50(trace.child_durations(name)))
        .sum();
    1.0 - (codec + server_frame_total_us * 1e3) / client
}

/// A TCP workload: the fleet its clients talk to, and what the traced
/// phase took from the servers.
pub struct Tcp {
    routed: bool,
    index: ActIndex,
    fleet: Option<Fleet>,
    /// The unsharded snapshot (`serve`) or the shard files (`routed`).
    files: Vec<PathBuf>,
    server: ServerLayer,
    /// Direct sub-frame p50 and hop overhead (µs), `routed` only.
    hop: Option<(f64, f64)>,
    /// The frame the next phase starts at.
    next: usize,
}

impl Tcp {
    fn spawn(&self, obs: bool) -> Result<Fleet, String> {
        if self.routed {
            Fleet::routed(&self.files, obs)
        } else {
            Fleet::serve(&self.files[0], obs)
        }
    }

    fn fleet(&self) -> &Fleet {
        self.fleet.as_ref().expect("a running fleet")
    }
}

impl Bench for Tcp {
    /// Snapshot write (`serve`) or shard split (`routed`), server and
    /// router spawn, warm-up.
    fn setup(
        workload: Workload,
        index: ActIndex,
        inputs: &Inputs,
        work: &WorkDir,
        tr: &mut Option<Tracer>,
    ) -> Result<Tcp, String> {
        let routed = workload == Workload::Routed;
        let files = if routed {
            timed(tr, "core.shard_split", 1, || {
                write_shards(&index, &work.path("shards"))
            })?
        } else {
            let base = work.path("census.snap");
            timed(tr, "core.snapshot_write", 1, || {
                write_snapshot(&index, &base)
            })?;
            vec![base]
        };
        let mut tcp = Tcp {
            routed,
            index,
            fleet: None,
            files,
            server: ServerLayer::default(),
            hop: None,
            next: 0,
        };
        let fleet = timed(tr, "serve.spawn", 1, || tcp.spawn(false))?;
        timed(tr, "setup.warmup", WARM_FRAMES as u64, || {
            warm(&fleet, &inputs.points)
        })?;
        tcp.fleet = Some(fleet);
        Ok(tcp)
    }

    fn index(&self) -> &ActIndex {
        &self.index
    }

    fn written(&self) -> SetupDone {
        SetupDone {
            files: self.files.clone(),
            shards: self.routed,
        }
    }

    fn describe(&self, inputs: &Inputs) -> String {
        format!(
            "census {} polygons at {PRECISION_M} m, {POINTS} points, {} connections x \
             {COORD_FRAME}-point frames{}",
            inputs.ds.polygons.len(),
            nproc(),
            if self.routed {
                format!(", {} shards at level {SPLIT_LEVEL}", nproc())
            } else {
                String::new()
            }
        )
    }

    /// Both connections for `secs`. The traced phase runs against a
    /// fresh fleet with server observability on, and then reads the
    /// servers' stage histograms and, when routed, the hop overhead.
    fn measure(
        &mut self,
        inputs: &Inputs,
        expected: &Expected,
        secs: f64,
        origin: Option<Instant>,
    ) -> Result<(Measured, Vec<Tracer>), String> {
        let frames = inputs.points.len() / COORD_FRAME;
        if origin.is_none() {
            let phase = run_connections(
                self.fleet(),
                &inputs.points,
                expected,
                secs,
                None,
                self.next,
            );
            self.next = (self.next + phase.0.attempted as usize) % frames;
            return Ok(phase);
        }
        if let Some(f) = self.fleet.take() {
            f.shutdown();
        }
        let fleet = self.spawn(true)?;
        warm(&fleet, &inputs.points)?;
        let before = fleet.totals();
        self.fleet = Some(fleet);
        let phase = run_connections(
            self.fleet(),
            &inputs.points,
            expected,
            secs,
            origin,
            self.next,
        );
        self.next = (self.next + phase.0.attempted as usize) % frames;
        self.server = self.fleet().server_layer(before)?;
        if self.routed {
            self.hop = Some(hop_overhead(self.fleet(), &inputs.points)?);
        }
        Ok(phase)
    }

    fn fill_layers(&self, lm: &mut LayerMetrics, trace: &Trace) {
        lm.server = self.server;
        lm.client_unattributed_frac = unattributed(trace, self.server.frame_total.0);
        if let Some((rtt, hop)) = self.hop {
            lm.shard_rtt_p50_us = rtt;
            lm.hop_overhead_us = hop;
        }
    }

    fn finish(mut self) -> ActIndex {
        if let Some(f) = self.fleet.take() {
            f.shutdown();
        }
        self.index
    }
}
